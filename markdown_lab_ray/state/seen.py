"""URL-seen set: a cuckoo filter with exact confirmation.

The reference's "seen" state is an exact in-process dict/set (request
cache ``core/cache.py``, ``processed_sitemaps`` set).  At 10^10-URL
scale an exact set per node is impossible, so the rebuild uses the
standard two-tier design (cf. PAPERS.md cuckoo-filter line):

- a **cuckoo filter** (4-slot buckets, 16-bit fingerprints, no false
  negatives) answers "definitely new" cheaply;
- cuckoo *positives* are confirmed against the exact keys, so the
  semantics stay exactly-once (the reference's crawl-order / URL-seen
  equality gate demands exactness; the filter only exists to make the
  common "new URL" path cheap).

The crawl keeps the set on disk, co-partitioned with its schedule by
host hash (SURVEY.md §4.1): a ``seen_key`` determines its host, so a
host bucket owns its keys.  A round's schedule fold for host bucket
``b`` opens bucket ``b``'s ``SeenRun``s of the earlier rounds — each the
sorted ``seen_key`` column of the keys one round scheduled in the
bucket, with the cuckoo filter built over them saved next to it — drops
the keys they hold (``runs_contain``), and writes this round's run.
Writing the run is what marks its keys seen; a retried fold writes the
same run again, so retries need no per-key round ledger.

``LocalSeen`` is the same filter over an in-memory exact store with a
per-key round ledger: the sequential oracle's model and the unit
tests'.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

_MAX_KICKS = 500
# odd multiplier spreading a fingerprint over the bucket index bits for
# the alternate bucket (partial-key cuckoo hashing)
_ALT_MIX = 0x5BD1E995


class CuckooFilter:
    """Partial-key cuckoo filter over string keys (numpy storage).  A
    key column is hashed once with ``pd.util.hash_array`` (a fixed
    siphash key, so every worker process agrees — the guarantee
    ``bucketing.key_buckets`` relies on); fingerprint, index and
    alt-index are array ops on the hashes.  The bucket count is a power
    of two, so the alt-index is an involution."""

    def __init__(self, capacity: int, seed: int = 42):
        n_buckets = 1
        while n_buckets * 4 < capacity:
            n_buckets *= 2
        self.n_buckets = n_buckets
        self.slots = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.rng = np.random.RandomState(seed)
        self.count = 0

    def locate(self, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fingerprint, index, alt-index) arrays of a key column."""
        h = pd.util.hash_array(np.asarray(keys, dtype=object),
                               categorize=False)
        fp = (h >> np.uint64(48)).astype(np.uint16)
        fp[fp == 0] = 1
        index = (h & np.uint64(self.n_buckets - 1)).astype(np.int64)
        return fp, index, self._alt(index, fp)

    def _alt(self, index, fp):
        return (index ^ (np.asarray(fp, np.int64) * _ALT_MIX)) & (
            self.n_buckets - 1)

    def contains_many(self, keys) -> np.ndarray:
        """Boolean mask: True where a key's fingerprint is stored (a
        false positive is possible, a false negative is not)."""
        fp, i1, i2 = self.locate(keys)
        col = fp[:, None]
        return ((self.slots[i1] == col).any(axis=1)
                | (self.slots[i2] == col).any(axis=1))

    def contains(self, key: str) -> bool:
        return bool(self.contains_many([key])[0])

    def _has(self, fp: int, i1: int, i2: int) -> bool:
        return bool((self.slots[i1] == fp).any()
                    or (self.slots[i2] == fp).any())

    def _insert(self, fp: int, i1: int, i2: int) -> bool:
        for idx in (i1, i2):
            bucket = self.slots[idx]
            empty = np.flatnonzero(bucket == 0)
            if empty.size:
                bucket[empty[0]] = fp
                self.count += 1
                return True
        # evict loop
        idx = i1 if self.rng.randint(2) else i2
        for _ in range(_MAX_KICKS):
            slot = self.rng.randint(4)
            fp, self.slots[idx][slot] = int(self.slots[idx][slot]), fp
            idx = int(self._alt(idx, fp))
            bucket = self.slots[idx]
            empty = np.flatnonzero(bucket == 0)
            if empty.size:
                bucket[empty[0]] = fp
                self.count += 1
                return True
        return False

    def add(self, key: str) -> bool:
        """Insert; False if the filter is saturated (caller must treat
        the key as seen-unknown and fall back to the exact store)."""
        return self.add_many([key])

    def add_many(self, keys) -> bool:
        """Insert every key; False as soon as one does not fit (the
        filter is then saturated and must not be trusted)."""
        fp, i1, i2 = self.locate(keys)
        return all(self._insert(int(f), int(a), int(b))
                   for f, a, b in zip(fp, i1, i2))

    def delete(self, key: str) -> bool:
        """Remove ONE stored copy of the key's fingerprint (cuckoo
        filters support deletion of previously-inserted keys).  Safe
        against false negatives because ``add`` stores one copy per
        insert: two distinct keys colliding on (fingerprint, bucket)
        hold two copies, and deleting one leaves the other's intact."""
        fp, i1, i2 = (int(a[0]) for a in self.locate([key]))
        for idx in (i1, i2):
            bucket = self.slots[idx]
            hits = np.flatnonzero(bucket == fp)
            if hits.size:
                bucket[hits[0]] = 0
                self.count -= 1
                return True
        return False

    @property
    def load_factor(self) -> float:
        return self.count / (self.n_buckets * 4)

    def to_bytes(self) -> bytes:
        return self.slots.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CuckooFilter":
        slots = np.frombuffer(buf, dtype=np.uint16).reshape(-1, 4).copy()
        filt = cls(slots.size)
        filt.slots = slots
        filt.count = int(np.count_nonzero(slots))
        return filt


class SeenRun:
    """One round's seen run for one host bucket: the sorted unique
    ``seen_key``s the round scheduled in the bucket, and the cuckoo
    filter built over them (None when it saturated: every probe then
    goes to the keys).  On disk the keys are a parquet part and the
    filter the raw slots in a ``.cuckoo`` file next to it; ``open``
    reads only the filter, and the keys on the first filter positive."""

    def __init__(self, keys=None, filt: CuckooFilter | None = None,
                 path: str | None = None):
        self._keys = keys
        self.filter = filt
        self.path = path

    @classmethod
    def build(cls, keys, capacity: int | None = None) -> "SeenRun":
        """The run of ``keys``; its filter holds ``capacity`` keys
        (default: 1.25× the distinct keys, a 40–80% load)."""
        keys = np.unique(np.asarray(keys, dtype=str))
        filt = CuckooFilter(capacity or len(keys) + len(keys) // 4 + 1)
        return cls(keys, filt if filt.add_many(keys) else None)

    @classmethod
    def open(cls, path: str) -> "SeenRun":
        side = _filter_path(path)
        filt = None
        if os.path.exists(side):
            with open(side, "rb") as f:
                filt = CuckooFilter.from_bytes(f.read())
        return cls(None, filt, path)

    def table(self):
        import pyarrow as pa

        return pa.table({"seen_key": pa.array(self.keys(), pa.string())})

    def save_filter(self, path: str) -> None:
        """Save the filter next to the run's part at ``path`` (no file
        for a saturated filter)."""
        if self.filter is not None:
            with open(_filter_path(path), "wb") as f:
                f.write(self.filter.to_bytes())

    def keys(self) -> np.ndarray:
        if self._keys is None:
            import pyarrow.parquet as pq

            self._keys = (pq.read_table(self.path, columns=["seen_key"])
                          .column(0).to_numpy(zero_copy_only=False)
                          .astype(str))
        return self._keys

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask, exact: a filter negative is new; a filter
        positive is settled by ``searchsorted`` in the sorted keys."""
        hit = (self.filter.contains_many(keys) if self.filter is not None
               else np.ones(len(keys), dtype=bool))
        if hit.any():
            run = self.keys()
            probe = np.asarray(keys, dtype=str)[hit]
            pos = np.minimum(np.searchsorted(run, probe), len(run) - 1)
            hit[hit] = run[pos] == probe
        return hit


def _filter_path(part_path: str) -> str:
    return os.path.splitext(part_path)[0] + ".cuckoo"


def runs_contain(keys: np.ndarray, runs: list[SeenRun]) -> np.ndarray:
    """Boolean mask: True where a key is in any of ``runs``."""
    seen = np.zeros(len(keys), dtype=bool)
    for run in runs:
        rest = ~seen
        if not rest.any():
            break
        seen[rest] = run.contains_many(keys[rest])
    return seen


class LocalSeen:
    """In-process seen set: the filter plus an exact store mapping key
    → the round that marked it, making per-round marking IDEMPOTENT (a
    same-round re-mark can only be a retry, since intra-round dedup puts
    a key in exactly one batch per round)."""

    def __init__(self, capacity: int = 1 << 20, seed: int = 42):
        self.filter = CuckooFilter(capacity, seed)
        self.exact: dict[str, int] = {}
        self.filter_ok = True

    def check_and_add(self, keys: list[str], round_no: int = -1) -> list[bool]:
        """For each key: True iff it was NOT seen before (and mark it
        seen), OR it was marked in this same ``round_no`` (>= 0) — the
        task-retry idempotence case.  Exactly-once across rounds."""
        if len(keys) == 0:
            return []
        located = zip(*self.filter.locate(keys))
        out = []
        for key, (fp, i1, i2) in zip(keys, located):
            loc = (int(fp), int(i1), int(i2))
            if self.filter_ok and not self.filter._has(*loc):
                # guaranteed-new fast path
                self._mark(key, round_no, loc)
                out.append(True)
                continue
            # filter positive (or saturated) → exact confirmation
            marked = self.exact.get(key)
            if marked is None:
                self._mark(key, round_no, loc)
                out.append(True)
            else:
                out.append(round_no >= 0 and marked == round_no)
        return out

    def _mark(self, key: str, round_no: int, loc) -> None:
        self.exact[key] = round_no
        if self.filter_ok and not self.filter._insert(*loc):
            self.filter_ok = False  # saturated: exact-only from here

    def contains_many(self, keys: list[str]) -> list[bool]:
        if len(keys) == 0:
            return []
        hits = (self.filter.contains_many(keys) if self.filter_ok
                else np.ones(len(keys), dtype=bool))
        # a cuckoo negative is a true negative
        return [bool(hit) and key in self.exact
                for key, hit in zip(keys, hits)]

    def snapshot(self) -> list[str]:
        return sorted(self.exact)

    def restore(self, keys: list[str]) -> None:
        """Re-register keys from completed rounds (round -1: can never
        be a retry target)."""
        self.check_and_add(keys, round_no=-1)

    def expire_before(self, round_cutoff: int) -> int:
        """Recrawl/freshness support: forget every key marked in a
        round < ``round_cutoff`` (restored keys carry round -1 — i.e.
        "an earlier run" — and expire too), so a continuous crawl
        refetches stale pages while recent rounds stay exactly-once.
        Expired fingerprints are deleted from the cuckoo filter
        (duplicate-copy semantics make that false-negative-safe for
        the surviving keys); a filter that ever saturated stays in
        exact-only mode — entries added after saturation were never
        in the filter, so re-enabling it would create false negatives.
        Returns the number of keys expired."""
        expired = [k for k, r in self.exact.items() if r < round_cutoff]
        for key in expired:
            del self.exact[key]
            if self.filter_ok:
                self.filter.delete(key)
        return len(expired)

    def size(self) -> int:
        return len(self.exact)

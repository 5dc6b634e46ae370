"""Stateful micro-batch streaming ingest: exactly-once keyed upsert
shards with watermark GC.

The continuous-crawl / event-feed ingestion tier: batches arrive out of
order, with duplicates (at-least-once upstream delivery), and late rows
beyond the watermark must be dropped deterministically.  Each shard
actor owns ``hash(key) % n_shards`` of the key space and keeps, per
key, the LATEST event under the (ts, event_id) total order, plus the
set of event_ids already applied (the exactly-once dedup ledger —
pruned by the watermark along with its rows' recency bound).

The defining invariant (tested + DuckDB-oracled): after ANY replay
schedule — duplicated batches, shuffled batch order, interleaved
watermarks that never exceed event time — the final per-key state
equals the one declarative ``argmax_(ts, event_id)`` over the clean
input.  That equivalence is what lets the stateful path be verified by
a stateless oracle.

Scale shape: keyed shard actors (the robots tier's pattern,
`state/robots.py`); a batch routes to shards by key hash, one
``upsert_many`` call per shard per batch (vectorized inside), and the
ledger is O(live keys + undropped event ids), bounded by the watermark
horizon, never by stream length.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def shard_of_keys(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Process-stable shard id per key (same guarantee as
    ``bucketing.key_buckets``)."""
    h = pd.util.hash_array(np.asarray(keys), categorize=False)
    return (h % np.uint64(n_shards)).astype(np.int64)


class _LedgeredShardState:
    """Pure single-process shard state (actor body AND test twin):
    per-key latest row under the (ts, event_id) total order, plus a
    ts-aware event-id ledger (event_id → ts) so watermark GC can prune
    EXACTLY — an id at or below the watermark can never re-apply (the
    late gate fires before the ledger check), so it leaves the ledger
    without risking a duplicate."""

    def __init__(self):
        self.latest: dict = {}        # key -> (ts, event_id, value)
        self.applied_ts: dict = {}    # event_id -> ts (exactly-once)
        self.watermark: int = -(1 << 62)
        self.n_duplicates = 0
        self.n_late = 0

    def upsert_many(self, keys, tss, ids, values) -> dict:
        for k, ts, eid, v in zip(keys, tss, ids, values):
            if ts <= self.watermark:
                self.n_late += 1
                continue
            if eid in self.applied_ts:
                self.n_duplicates += 1
                continue
            self.applied_ts[eid] = ts
            cur = self.latest.get(k)
            if cur is None or (ts, eid) > (cur[0], cur[1]):
                self.latest[k] = (ts, eid, v)
        return {"duplicates": self.n_duplicates, "late": self.n_late}

    def advance_watermark(self, ts: int) -> int:
        """GC the ledger; returns its size after pruning."""
        self.watermark = max(self.watermark, ts)
        self.applied_ts = {e: t for e, t in self.applied_ts.items()
                           if t > self.watermark}
        return len(self.applied_ts)

    def snapshot(self) -> pd.DataFrame:
        rows = [(k, ts, eid, v)
                for k, (ts, eid, v) in self.latest.items()]
        df = pd.DataFrame(rows, columns=["key", "ts", "event_id", "value"])
        return df.sort_values("key").reset_index(drop=True)


def create_ingest_shards(n_shards: int):
    """The Ray actor tier (one line of state per shard; same layout as
    ``create_robots_shards``)."""
    import ray

    Shard = ray.remote(_LedgeredShardState)
    return [Shard.remote() for _ in range(n_shards)]


def ingest_batch(shards, df: pd.DataFrame) -> dict:
    """Route one micro-batch to the shard tier (one RPC per touched
    shard, vectorized row split) and fold the shard stats."""
    import ray

    sid = shard_of_keys(df["key"].to_numpy(), len(shards))
    refs = []
    for s in np.unique(sid):
        part = df[sid == s]
        refs.append(shards[int(s)].upsert_many.remote(
            part["key"].tolist(), part["ts"].tolist(),
            part["event_id"].tolist(), part["value"].tolist()))
    stats = ray.get(refs)
    return {"duplicates": sum(s["duplicates"] for s in stats),
            "late": sum(s["late"] for s in stats)}


def ingest_snapshot(shards) -> pd.DataFrame:
    """Final keyed state across the tier (O(live keys) to the driver —
    the ingest RESULT, not the stream)."""
    import ray

    parts = ray.get([s.snapshot.remote() for s in shards])
    out = pd.concat(parts, ignore_index=True)
    if out.empty:
        return out
    return out.sort_values("key").reset_index(drop=True)


def run_microbatch_ingest(df: pd.DataFrame, n_shards: int = 4,
                          batch_rows: int = 200, replay_dup_every: int = 3,
                          watermark_lag: int = -1) -> pd.DataFrame:
    """Deterministic adversarial replay harness: split ``df`` (key, ts,
    event_id, value) into micro-batches in a HASH-SCRAMBLED order,
    re-deliver every ``replay_dup_every``-th batch (at-least-once),
    and — when ``watermark_lag ≥ 0`` — advance the watermark to (max
    delivered ts − lag) after each batch.  With the default lag −1
    (watermark never advances) the final snapshot is PINNED to the
    clean argmax regardless of schedule (the oracled contract); a
    non-negative lag additionally drops late rows, which under a
    scrambled replay legitimately diverges from the argmax — that path
    is pinned by its own unit test, not the SQL oracle."""
    order = np.argsort(pd.util.hash_array(
        df["event_id"].to_numpy(), categorize=False), kind="stable")
    scrambled = df.iloc[order].reset_index(drop=True)
    shards = create_ingest_shards(n_shards)
    max_ts = -(1 << 62)
    batches = [scrambled.iloc[i:i + batch_rows]
               for i in range(0, len(scrambled), batch_rows)]
    import ray

    for i, b in enumerate(batches):
        ingest_batch(shards, b)
        if replay_dup_every and i % replay_dup_every == 0:
            ingest_batch(shards, b)          # duplicate delivery
        max_ts = max(max_ts, int(b["ts"].max()))
        if watermark_lag >= 0:
            ray.get([s.advance_watermark.remote(max_ts - watermark_lag)
                     for s in shards])
    return ingest_snapshot(shards)

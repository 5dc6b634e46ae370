"""Distributed crawl engine: BSP rounds over Ray Data (SURVEY.md §3.4).

Every frontier part is written per host bucket (``_write_buckets``, on
the ``key_buckets(host, seen_shards)`` of the seen runs' ``seen/b=<b>/``),
so a round needs no shuffle: it is one Ray Data execution, and every
output is written by the task that makes it.

- a schedule fold per bucket with frontier parts (``make_schedule_fold``)
  reads them, drops the keys of the bucket's earlier seen runs, runs the
  per-host step (``make_host_processor``) and writes ``schedule/``, its
  deferred rows into ``frontier_next/`` and the round's seen run;
- a streaming repartition (a map operator, not an all-to-all shuffle)
  cuts the scheduled rows into fetch batches, so fetch parallelism does
  not follow the bucket count;
- ``fetch_convert_batch`` tasks write ``docs/``, ``chunks/`` and their
  pages' links into ``frontier_next/``.  Their host rows ``(host, ok,
  n, dsts)`` (``_host_tally``) are their one channel to the driver:
  failures, the circuit breaker's streaks (folded per host by
  ``keyed_fold``) and the authority edges; no round reads ``docs/``.

The round's ``_MANIFEST.json`` follows the execution (``scheduled``
counts the seen runs' rows, ``deferred`` the other ``schedule/`` rows),
so a killed run resumes from the last complete round (north_rule:
resumable with metrics); an interrupted round's partial checkpoints,
seen runs included, are discarded on re-entry, so marking keys seen
commits with the manifest.  A worker-mode crawl starts no actor.

Scale notes (10^10-URL frontier):
- frontier rows are metadata-sized; page payloads never cross a round
  boundary (docs/chunks are written, links are folded back to rows);
- URL-seen is O(urls) on disk, split by host bucket and by round: a
  bucket's fold reads only its own parts and runs, each run behind a
  cuckoo filter (state/seen.py); resume reads no key;
- a round writes at most fetch tasks × buckets frontier parts, the
  fan-out the sort shuffle made in the object store; compacting them is
  the follow-up;
- per-host budget caps each round's fetch volume, so a hot host defers
  rather than stalls; its host group is not split across tasks
  (``make_host_processor`` says why).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..kernels.render import document_to_markdown
from ..state.authority import (authority_multipliers, local_pagerank_hosts,
                               merge_edges)
from ..state.politeness import (breaker_update, effective_budget,
                                round_budget, schedule_group)
from ..state.robots import LocalRobotsCache
from ..state.seen import SeenRun, runs_contain
from ..stages.bucketing import conform, key_buckets, keyed_fold
from ..stages.convert import chunk_explode_batch, convert_row
from .crawl_spec import discover_seed_frontier

from ..stages.schemas import FRONTIER_SCHEMA as _FRONTIER_PA_SCHEMA

FRONTIER_COLS = list(_FRONTIER_PA_SCHEMA.names)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _worker_cached(cache: dict, factory, build):
    """Get-or-create a per-worker-process cached object keyed by the
    factory's pickled content (same factory content → same cache entry
    across tasks; shared by the discover/robots/fetch task stages)."""
    from ray import cloudpickle

    key = hashlib.md5(cloudpickle.dumps(factory)).hexdigest()
    obj = cache.get(key)
    if obj is None:
        obj = cache[key] = build(factory)
    return obj


def discover_batch(batch: pa.Table, web_factory, robots_factory,
                   out_dir: str, n_buckets: int, **filters) -> pa.Table:
    """Seed URL rows → frontier rows (robots → sitemap recursion →
    filters), reference discovery semantics, as tasks on the warm
    worker pool.  The resolver comes from the worker-process web cache
    and robots rules from the crawl's ``robots_factory`` (the same cache
    entry the schedule and fetch stages read), so a worker fetches each
    host's robots.txt once per crawl.  The task writes its rows per
    host bucket into ``out_dir``, named by their ``seq_no``s (which
    hold the seed index), and returns their count."""
    web = _worker_cached(_WEB_CACHE, web_factory, lambda f: f())
    robots = _robots_cache(robots_factory)
    rows = []
    for seed, idx in zip(batch.column("seed").to_pylist(),
                         batch.column("seed_idx").to_pylist()):
        rows.extend(discover_seed_frontier(
            web.resolve, robots, seed, idx, **filters))
    tbl = frontier_rows_to_table(rows)
    _write_buckets(tbl, out_dir, tbl.column("seq_no"), n_buckets)
    return pa.table({"n": [tbl.num_rows]})


_ROBOTS_CACHE: dict[str, object] = {}
_WEB_CACHE: dict[str, object] = {}
_FETCH_CACHE: dict[str, object] = {}


class FetchStage:
    """The crawl's one fetcher: scheduled rows → +status, html.  For the
    synthetic web a fetch is a pure lookup; a real deployment passes a
    resolver that owns a session + retry/backoff (``sources/http.py``,
    reference T2/T9) behind the same ``resolve`` signature.

    A worker process holds one fetcher per fetch setting
    (``fetcher``) inside stateless ``map_batches`` tasks, and the
    resolver is that process's ``_WEB_CACHE`` entry, shared with
    discovery and the robots rules: one resolver (one HTTP session) per
    web per process.

    ``cache_ttl > 0`` wraps the resolver in the per-process TTL/LRU
    payload cache (reference request-cache memory level, state/cache.py).
    ``pacing_rps > 0`` additionally enforces REALTIME per-host pacing
    via token buckets (reference T1 upgraded global→per-host) — the BSP
    round budget bounds volume per round; the pacer spaces requests
    within the round.  Clock/sleeper are injectable so tests don't
    sleep.  NOTE: per-host buckets are per worker process; for a global
    per-host guarantee divide ``pacing_rps`` by the number of worker
    processes that fetch.
    """

    def __init__(self, web_factory, cache_ttl: float = 0.0,
                 pacing_rps: float = 0.0, clock=None, sleeper=None,
                 robots_factory=None):
        web = _worker_cached(_WEB_CACHE, web_factory, lambda f: f())
        if cache_ttl > 0:
            from ..state.cache import CachedResolver
            self.web = CachedResolver(
                web.resolve, ttl=cache_ttl,
                # opt-in ETag revalidation when the resolver supports it
                full_fn=getattr(web, "resolve_full", None),
                conditional_fn=getattr(web, "resolve_conditional", None))
        else:
            self.web = web
        self.pacing_rps = pacing_rps
        self.clock = clock or time.monotonic
        self.sleeper = sleeper or time.sleep
        # robots_factory (optional): a host's robots Crawl-delay caps
        # the realtime pacer below the configured rate, mirroring the
        # budget cap the scheduler applies (rules cached per process)
        self.robots_factory = robots_factory
        self._buckets: dict[str, object] = {}

    def _host_rate(self, host: str) -> float:
        rate = self.pacing_rps
        if self.robots_factory is not None and host:
            delay = _robots_rules(self.robots_factory, host).crawl_delay
            if delay and delay > 0:
                rate = min(rate, 1.0 / delay)
        return rate

    def _pace(self, host: str) -> None:
        from ..state.politeness import TokenBucket

        bucket = self._buckets.get(host)
        if bucket is None:
            rate = self._host_rate(host)
            bucket = self._buckets[host] = TokenBucket(
                rate, capacity=max(1.0, rate))
        # loop until a token is actually debited: re-read the clock after
        # sleeping (oversleep happens) and never assume the acquire
        # succeeded — float rounding can leave the bucket just short
        while True:
            now = self.clock()
            if bucket.try_acquire(now):
                return
            wait = bucket.next_available(now) - now
            self.sleeper(max(wait, 1e-4))

    def __call__(self, batch: pa.Table) -> pa.Table:
        statuses, htmls = [], []
        hosts = (batch.column("host").to_pylist()
                 if "host" in batch.column_names else None)
        for i, loc in enumerate(batch.column("loc").to_pylist()):
            # cache hits don't touch the network → no pacing needed
            if self.pacing_rps > 0 and not (
                    hasattr(self.web, "has_fresh")
                    and self.web.has_fresh(loc)):
                self._pace(hosts[i] if hosts else "")
            status, body = self.web.resolve(loc)
            statuses.append(status)
            htmls.append(body if isinstance(body, str) else "")
        return batch.append_column(
            "status", pa.array(statuses, pa.int32())
        ).append_column("html", pa.array(htmls, pa.string()))


def fetcher(web_factory, cache_ttl: float = 0.0, pacing_rps: float = 0.0,
            robots_factory=None) -> FetchStage:
    """This worker process's ``FetchStage`` for these fetch settings,
    built on first use and kept across tasks, so the payload cache and
    the pacing buckets outlive a batch."""
    import functools

    return _worker_cached(
        _FETCH_CACHE,
        functools.partial(FetchStage, web_factory, cache_ttl=cache_ttl,
                          pacing_rps=pacing_rps,
                          robots_factory=robots_factory),
        lambda f: f())


def _head(web, loc: str):
    """HEAD against a resolver: use its native ``head`` when present
    (real clients / SyntheticWeb), else fall back to resolve-and-drop
    (correct status, body discarded)."""
    if hasattr(web, "head"):
        return web.head(loc)
    status, body = (web.resolve(loc) if hasattr(web, "resolve")
                    else web(loc))
    length = (len(body.encode()) if isinstance(body, str) else len(body))
    return status, {"content-length": length}


def fetch_head_batch(batch: pa.Table, web_factory) -> pa.Table:
    """Task-pool HEAD tier: frontier rows → +status, content_length —
    link-checking / freshness probes without ever shipping a body
    (reference S2), on any frontier slice."""
    web = _worker_cached(_WEB_CACHE, web_factory, lambda f: f())
    statuses, lengths = [], []
    for loc in batch.column("loc").to_pylist():
        status, headers = _head(web, loc)
        statuses.append(status)
        lengths.append(int(headers.get("content-length", -1)))
    return batch.append_column(
        "status", pa.array(statuses, pa.int32())
    ).append_column("content_length", pa.array(lengths, pa.int64()))


def _write_part(tbl: pa.Table, out_dir: str, keys,
                prefix: str = "part") -> str | None:
    """The engine's one writer: the task that makes ``tbl`` writes it as
    one zstd parquet part of ``out_dir``, named ``<prefix>-<md5>`` by
    the md5 of its batch's whole key column ``keys`` (``seen_key`` in
    the crawl, ``seq`` in the batch verb), and returns the part's path.
    A retried task overwrites its own file, and two different batches
    never share a name.  An empty table writes no file (None)."""
    if tbl.num_rows == 0:
        return None
    stem = hashlib.md5(
        "\n".join(map(str, keys.to_pylist())).encode()).hexdigest()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{prefix}-{stem}.parquet")
    pq.write_table(tbl, path, compression="zstd")
    return path


def _write_buckets(tbl: pa.Table, out_dir: str, keys, n_buckets: int) -> None:
    """Frontier rows → one ``_write_part`` per non-empty host bucket ``b``
    of ``key_buckets(host, n_buckets)``, named ``b<b>-<md5>``, flat in
    ``out_dir``: bucket ``b``'s schedule fold reads exactly its parts."""
    buckets = key_buckets(
        tbl.column("host").to_numpy(zero_copy_only=False), n_buckets)
    for b in np.unique(buckets):
        _write_part(tbl.filter(pa.array(buckets == b)), out_dir, keys,
                    prefix=f"b{b}")


def _frontier_buckets(frontier_dir: str) -> list[int]:
    """The host buckets that have frontier parts, from the part names; a
    part of no bucket (an older crawl layout) raises, as no fold reads it."""
    names = [os.path.basename(p) for p in
             glob.glob(os.path.join(frontier_dir, "*.parquet"))]
    if not all(re.match(r"b\d+-", n) for n in names):
        raise ValueError(f"{frontier_dir} holds a part of no host bucket")
    return sorted({int(n[1:].split("-", 1)[0]) for n in names})


def _read_bucket(frontier_dir: str, b: int) -> pa.Table:
    """Bucket ``b``'s frontier rows: its parts in sorted-name order (the
    order a retried round reads them in too), FRONTIER_COLS only."""
    return pa.concat_tables([pq.read_table(f, columns=FRONTIER_COLS) for f in
                             sorted(glob.glob(os.path.join(
                                 frontier_dir, f"b{b}-*.parquet")))])


def _chunk_rows(docs_tbl: pa.Table, chunk_size: int,
                chunk_overlap: int) -> pa.Table:
    """A batch's chunk rows.  Only 200 pages are chunked: a failed or
    redirected page has no content to chunk."""
    docs_tbl = docs_tbl.filter(pc.equal(docs_tbl.column("status"), 200))
    return chunk_explode_batch(docs_tbl, chunk_size=chunk_size,
                               chunk_overlap=chunk_overlap,
                               url_col="url", text_col="payload")


_HOST_ROWS_SCHEMA = pa.schema({
    "host": pa.string(), "ok": pa.int64(), "n": pa.int64(),
    "dsts": pa.list_(pa.string())})


def _cross_host_links(docs_tbl: pa.Table) -> pa.Table:
    """Host rows ``(src, 0, 0, [dst])``, one per http(s) link of a 200
    page that leaves its host.  The dst host comes from an Arrow regex
    kernel: for http(s) URLs ``[^/?#]*`` after the scheme IS urlparse's
    netloc (pinned in tests/test_crawl_authority.py), so no Python
    parse touches the per-link work."""
    b = docs_tbl.filter(pc.equal(docs_tbl.column("status"), 200))
    links = b.column("links")
    flat = pc.list_flatten(links)
    srcs = b.column("host").take(pc.list_parent_indices(links))
    keep = pc.fill_null(
        pc.or_(pc.starts_with(flat, pattern="http://"),
               pc.starts_with(flat, pattern="https://")), False)
    # urlsplit strips \t\r\n anywhere in the URL (WHATWG rule) — mirror
    # it so a malformed href like "http://a.\tcom/x" yields the same
    # host key as the urlparse-based crawl/oracle paths
    cleaned = pc.replace_substring_regex(
        flat.filter(keep), pattern="[\\t\\r\\n]", replacement="")
    dsts = pc.struct_field(
        pc.extract_regex(cleaned, pattern=r"^https?://(?P<host>[^/?#]*)"),
        "host")
    srcs = srcs.filter(keep)
    cross = pc.fill_null(pc.and_(pc.not_equal(dsts, ""),
                                 pc.not_equal(dsts, srcs)), False)
    dsts = dsts.filter(cross).combine_chunks()
    zeros = pa.array([0] * len(dsts), pa.int64())
    one_each = pa.array(range(len(dsts) + 1), pa.int32())
    return pa.table([srcs.filter(cross), zeros, zeros,
                     pa.ListArray.from_arrays(one_each, dsts)],
                    schema=_HOST_ROWS_SCHEMA)


def _fold_hosts(rows: pa.Table, keep_hosts) -> pa.Table:
    """Host rows ``(host, ok, n, dsts)`` → one host-sorted row per host:
    ``ok`` and ``n`` summed, ``dsts`` the sorted union.  ``keep_hosts``
    None keeps every host, else the hosts with a failure, with ``dsts``
    or in ``keep_hosts``.  A fetch task's tally, and with the circuit
    breaker on the group function of the round's bucketed fold."""
    sums = rows.select(["host", "ok", "n"]).group_by("host").aggregate(
        [("ok", "sum"), ("n", "sum")])
    dsts = rows.column("dsts")
    pairs = pa.table({
        "host": rows.column("host").take(pc.list_parent_indices(dsts)),
        "dst": pc.list_flatten(dsts)}).group_by(["host", "dst"]).aggregate([])
    by_host: dict[str, list[str]] = {}
    for h, d in sorted(zip(pairs.column("host").to_pylist(),
                           pairs.column("dst").to_pylist())):
        by_host.setdefault(h, []).append(d)
    folded = pa.table({
        "host": sums.column("host"), "ok": sums.column("ok_sum"),
        "n": sums.column("n_sum"),
        "dsts": pa.array([by_host.get(h, [])
                          for h in sums.column("host").to_pylist()],
                         pa.list_(pa.string()))})
    if keep_hosts is not None:
        folded = folded.filter(pc.or_(pc.or_(
            pc.less(folded.column("ok"), folded.column("n")),
            pc.greater(pc.list_value_length(folded.column("dsts")), 0)),
            pc.is_in(folded.column("host"), value_set=pa.array(
                sorted(keep_hosts), pa.string()))))
    return folded.sort_by("host").cast(_HOST_ROWS_SCHEMA)


def _host_tally(docs_tbl: pa.Table, edges: bool = False,
                all_hosts: bool = False) -> pa.Table:
    """A fetch task's host rows, the fetch tasks' one channel to the
    driver.  A host gets a row when it has a non-200 page in the batch
    or, with ``edges``, a 200 page that links to another host.
    ``all_hosts`` (the circuit breaker) gives every host a row: any 200
    in the round closes a host's streak, and only the round's fold can
    tell whether another batch had one."""
    n = docs_tbl.num_rows
    rows = pa.table([
        docs_tbl.column("host"),
        pc.cast(pc.equal(docs_tbl.column("status"), 200), pa.int64()),
        pa.array([1] * n, pa.int64()),
        pa.array([[]] * n, pa.list_(pa.string()))], schema=_HOST_ROWS_SCHEMA)
    if edges:
        rows = pa.concat_tables([rows, _cross_host_links(docs_tbl)])
    return _fold_hosts(rows, None if all_hosts else ())


def fetch_convert_batch(batch: pa.Table, web_factory, rdir: str,
                        cache_ttl: float = 0.0, pacing_rps: float = 0.0,
                        robots_factory=None, chunk_size: int = 1000,
                        chunk_overlap: int = 200, max_depth: int = 0,
                        trap_cap: int = 0, n_buckets: int = 1,
                        edges: bool = False,
                        all_hosts: bool = False) -> pa.Table:
    """The crawl's fetch + convert stage, a stateless task: this worker
    process's ``fetcher`` fetches the batch of scheduled rows,
    ``crawl_convert_batch`` converts each page once, and the task writes
    what it makes into the round directory ``rdir``: the docs part, the
    chunks of its 200 pages and, below ``max_depth``, the next-frontier
    rows of its 2xx/3xx pages (``links_explode_batch``; a 3xx row's
    links column holds its redirect target) into ``frontier_next/``,
    one part per host bucket of ``n_buckets`` (``_write_buckets``).
    Fetched HTML and docs never leave the worker process; the task
    returns its ``_host_tally`` (``edges``: authority on; ``all_hosts``:
    breaker on)."""
    fetched = fetcher(web_factory, cache_ttl, pacing_rps,
                      robots_factory)(batch)
    docs_tbl = crawl_convert_batch(fetched)
    keys = batch.column("seen_key")
    _write_part(docs_tbl, os.path.join(rdir, "docs"), keys)
    _write_part(_chunk_rows(docs_tbl, chunk_size, chunk_overlap),
                os.path.join(rdir, "chunks"), keys)
    if max_depth > 0:
        status = docs_tbl.column("status")
        link_src = docs_tbl.filter(pc.and_(
            pc.and_(pc.greater_equal(status, 200), pc.less(status, 400)),
            pc.less(docs_tbl.column("depth"), max_depth)))
        _write_buckets(links_explode_batch(link_src, trap_cap=trap_cap),
                       os.path.join(rdir, "frontier_next"), keys, n_buckets)
    return _host_tally(docs_tbl, edges, all_hosts)


def crawl_convert_batch(batch: pa.Table) -> pa.Table:
    """Fetched pages → docs rows: title, markdown payload, outgoing
    links (M3 semantics; a redirect's target for 3xx rows), image
    (alt, src) pairs.  Each page goes through ``convert_row`` once: one
    parse and one walk give its Document and links, and every failed
    page the empty Document.  Chunks and next-round frontier rows both
    derive from this table."""
    locs = batch.column("loc").to_pylist()
    htmls = batch.column("html").to_pylist()
    statuses = batch.column("status").to_pylist()
    depths = batch.column("depth").to_pylist()

    titles, payloads, links_col, images_col = [], [], [], []
    for loc, html, status in zip(locs, htmls, statuses):
        doc, links = convert_row(loc, status, html, with_links=True)
        titles.append(doc["title"])
        payloads.append(document_to_markdown(doc))
        links_col.append(links)
        images_col.append(doc["images"])

    return pa.table({
        "url": pa.array(locs, pa.string()),
        "host": batch.column("host"),
        "depth": pa.array(depths, pa.int64()),
        "status": pa.array(statuses, pa.int32()),
        "title": pa.array(titles, pa.string()),
        "payload": pa.array(payloads, pa.string()),
        "links": pa.array(links_col, pa.list_(pa.string())),
        "images": pa.array(images_col, pa.list_(pa.struct(
            [("alt", pa.string()), ("src", pa.string())]))),
    })


def make_host_processor(robots_factory, budget: int,
                        round_seconds: float = 0.0,
                        open_hosts: frozenset | None = None,
                        host_boosts: dict | None = None):
    """The per-host round step, run by the schedule fold once per host
    of its bucket: intra-round dedup (same seen_key ⟹ same host, so a
    host group sees all its duplicates) → robots allow → politeness
    schedule.  Takes the host's unseen frontier rows (pandas) and
    returns them with ``scheduled`` and ``fetch_order``, or None when
    none is left.

    A host group holds that host's whole unseen frontier, and a hot
    host is not split across tasks: politeness already bounds what a
    host fetches per round however large its frontier is, no workload
    has shown a host group that one task cannot fold, and a map-side
    per-block top-budget pre-cut would defer a URL once for every block
    that found it, duplicating deferred rows."""

    def host_step(df):
        if open_hosts and df["host"].iloc[0] in open_hosts:
            # circuit breaker open: the whole group defers untouched
            # (no dedup/robots work — it re-runs on re-entry)
            return schedule_group(df, 0)
        df = (df.sort_values(["seq_no", "loc"], kind="mergesort")
              .drop_duplicates("seen_key", keep="first"))
        host_rules = _robots_rules(robots_factory, df["host"].iloc[0])
        df = df[[host_rules.allows(u) for u in df["loc"]]]
        if df.empty:
            return None
        boost = host_boosts.get(df["host"].iloc[0], 1) if host_boosts else 1
        host_budget = effective_budget(budget * boost, round_seconds,
                                       host_rules.crawl_delay)
        return schedule_group(df, host_budget)

    return host_step


def make_schedule_fold(out_dir: str, round_no: int, host_step,
                       frontier_dir: str):
    """The round's schedule fold (operator ``MapBatches(process)``), one
    call per host bucket ``b`` with parts in ``frontier_dir``.  It

    1. reads bucket ``b``'s frontier parts and drops the keys of its
       seen runs of the earlier rounds (``rounds/round=k/seen/b=<b>/``,
       k < ``round_no``), breaker-open hosts included;
    2. runs ``host_step`` over an in-bucket ``groupby(host)``;
    3. writes the schedule part, the deferred rows into
       ``frontier_next/`` (as bucket ``b``'s part) and this round's run
       of the scheduled keys, and returns the scheduled rows.

    Writing the run marks its keys seen.  Every output is a function of
    the bucket's parts and the earlier rounds' runs, and every part is
    named by its keys, so a retried fold rewrites the same files."""
    import pandas as pd

    rdir = _round_dir(out_dir, round_no)

    def process(item: pa.Table) -> pa.Table:
        b = item.column("b")[0].as_py()
        rows = _read_bucket(frontier_dir, b)
        run_dir = os.path.join("seen", f"b={b}")
        runs = [SeenRun.open(path) for k in range(round_no)
                for path in sorted(glob.glob(os.path.join(
                    _round_dir(out_dir, k), run_dir, "*.parquet")))]
        seen = runs_contain(
            rows.column("seen_key").to_numpy(zero_copy_only=False), runs)
        df = rows.filter(pa.array(~seen)).to_pandas()
        frames = [f for f in (host_step(g) for _, g in
                              df.groupby("host", sort=True))
                  if f is not None]
        batch = (conform(pa.Table.from_pandas(pd.concat(frames),
                                              preserve_index=False),
                         _SCHEDULE_PA_SCHEMA)
                 if frames else _SCHEDULE_PA_SCHEMA.empty_table())
        keys = batch.column("seen_key")
        _write_part(batch, os.path.join(rdir, "schedule"), keys)
        scheduled = batch.column("scheduled")
        _write_part(batch.filter(pc.invert(scheduled)).select(FRONTIER_COLS),
                    os.path.join(rdir, "frontier_next"), keys,
                    prefix=f"b{b}")
        batch = batch.filter(scheduled)
        if batch.num_rows:
            run = SeenRun.build(
                batch.column("seen_key").to_numpy(zero_copy_only=False))
            run_tbl = run.table()
            run.save_filter(_write_part(run_tbl, os.path.join(rdir, run_dir),
                                        run_tbl.column("seen_key")))
        return batch

    return process


def _robots_cache(robots_factory):
    """Per-worker-process cached robots rules provider.
    ``robots_factory()`` returns any object with ``rules_for(host)`` —
    ``LocalRobotsCache`` (worker mode: each process fetches/derives
    rules itself; right for the pure-function synthetic web) or
    ``ActorRobotsCache`` (actor mode: the sharded robots actor tier
    fetches each host's robots.txt exactly once cluster-wide; right for
    real networks)."""
    return _worker_cached(_ROBOTS_CACHE, robots_factory, lambda f: f())


def _robots_rules(robots_factory, host: str):
    return _robots_cache(robots_factory).rules_for(host)


class _LocalRobotsFactory:
    """Picklable robots_factory for worker mode."""

    def __init__(self, web_factory):
        self.web_factory = web_factory

    def __call__(self):
        web = _worker_cached(_WEB_CACHE, self.web_factory, lambda f: f())
        return LocalRobotsCache(web.resolve)


class _ActorRobotsFactory:
    """Picklable robots_factory for the sharded-actor mode (north rule:
    robots.txt cache actors).  Holds the shard handles; each worker
    process builds one memoizing client over them."""

    def __init__(self, shards):
        self.shards = shards

    def __call__(self):
        from ..state.robots import ActorRobotsCache
        return ActorRobotsCache(self.shards)


def links_explode_batch(batch: pa.Table, trap_cap: int = 0) -> pa.Table:
    """Docs rows → next-round frontier candidate rows (with per-batch
    pre-dedup to shrink the round's dedup shuffle).  ``trap_cap``
    enables the per-page crawler-trap guard (crawl_spec docstring).

    Vectorized (same shape as ``explode_image_refs_batch``): Arrow
    ``list_flatten`` + ``list_parent_indices`` for the explode, kernel
    ``starts_with`` for the scheme filter, pandas cumcount for the
    per-page trap cap, stable sort + drop-duplicates for the spec-2a
    pre-dedup (min-(seq_no, loc) per seen_key).  The per-URL scalars
    (normalize / md5 seen-key / crc32 seq-no — shared with the
    sequential oracle, parity by construction) run once over the FLAT
    array with ONE urlparse per link; equality with the row-loop spec
    path ``links_to_frontier_rows`` + ``dedup_candidates`` is pinned by
    ``tests/test_crawl.py::test_links_explode_vectorized_parity``."""
    import zlib

    import pandas as pd

    from ..kernels.urls import normalize_and_host, path_template
    from .crawl_spec import LINK_SEQ_BASE

    links = batch.column("links")
    flat = pc.list_flatten(links)
    parents = pc.list_parent_indices(links)
    depths = pc.add(batch.column("depth").take(parents), 1)
    keep = pc.fill_null(
        pc.or_(pc.starts_with(flat, pattern="http://"),
               pc.starts_with(flat, pattern="https://")), False)
    flat = flat.filter(keep)
    depths = depths.filter(keep)
    urls = flat.to_pylist()
    depth_np = depths.combine_chunks().to_numpy(zero_copy_only=False) \
        if isinstance(depths, pa.ChunkedArray) \
        else depths.to_numpy(zero_copy_only=False)
    if trap_cap > 0 and urls:
        pages = parents.filter(keep).to_numpy(zero_copy_only=False)
        occ = (pd.DataFrame({"p": pages,
                             "t": [path_template(u) for u in urls]})
               .groupby(["p", "t"], sort=False).cumcount().to_numpy())
        mask = occ < trap_cap                # first-in-page-order wins
        urls = [u for u, m in zip(urls, mask) if m]
        depth_np = depth_np[mask]
    if not urls:
        return frontier_rows_to_table([])
    norm_host = [normalize_and_host(u) for u in urls]
    seq = np.fromiter((LINK_SEQ_BASE + zlib.crc32(n.encode())
                       for n, _ in norm_host), np.int64, len(norm_host))
    seen = [hashlib.md5(n.encode("utf-8")).hexdigest()
            for n, _ in norm_host]
    df = pd.DataFrame({
        "loc": urls, "seen_key": seen, "seq_no": seq,
        "host": [h for _, h in norm_host], "depth": depth_np})
    df = (df.sort_values(["seq_no", "loc"], kind="mergesort")
          .drop_duplicates("seen_key", keep="first"))
    n = len(df)
    return pa.table({
        "loc": pa.array(df["loc"], pa.string()),
        "lastmod": pa.nulls(n, pa.string()),
        "changefreq": pa.nulls(n, pa.string()),
        "priority": pa.nulls(n, pa.float64()),
        "host": pa.array(df["host"], pa.string()),
        "depth": pa.array(df["depth"], pa.int64()),
        "seq_no": pa.array(df["seq_no"], pa.int64()),
        "seen_key": pa.array(df["seen_key"], pa.string()),
    }, schema=_FRONTIER_PA_SCHEMA)


def frontier_rows_to_table(rows: list[dict]) -> pa.Table:
    return pa.table(
        {name: [r[name] for r in rows] for name in FRONTIER_COLS}
        if rows else {name: [] for name in FRONTIER_COLS},
        schema=_FRONTIER_PA_SCHEMA)


_SCHEDULE_PA_SCHEMA = pa.schema(
    list(_FRONTIER_PA_SCHEMA)
    + [pa.field("scheduled", pa.bool_()), pa.field("fetch_order", pa.int64())])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class CrawlResult:
    out_dir: str
    rounds: int = 0
    fetched: int = 0
    failed: int = 0
    manifest: list[dict] = field(default_factory=list)
    t_discovery: float = 0.0


def _round_dir(out_dir: str, round_no: int) -> str:
    return os.path.join(out_dir, "rounds", f"round={round_no}")


def _read_parts(files: list[str], **kwargs):
    """Lazy read of checkpoint parts, one block per part.  Every part
    holds rows, so no block is empty: Ray Data's default read splits a
    few small files into more blocks than they have rows, and the next
    map stage emits an empty block column-less."""
    import ray.data as rd

    return rd.read_parquet(files, override_num_blocks=len(files), **kwargs)


def _parquet_rows(path: str) -> int:
    """Rows in a checkpoint directory (or a glob of them), from its
    parts' parquet footers."""
    return sum(pq.read_metadata(f).num_rows
               for f in glob.glob(os.path.join(path, "*.parquet")))


def _update_breaker(breaker: dict, host_rows: list, round_no: int,
                    cfg) -> None:
    """Advance the circuit-breaker state from this round's folded host
    rows: every host that failed or carries breaker state (a healthy
    host with ``dsts`` leaves the table as it is)."""
    for r in sorted(host_rows, key=lambda r: r["host"]):
        n_ok, n_fail = int(r["ok"]), int(r["n"] - r["ok"])
        prev = breaker.get(r["host"], [0, 0])
        streak, tripped = breaker_update(int(prev[0]), n_ok, n_fail,
                                         cfg.breaker_threshold)
        if tripped:
            breaker[r["host"]] = [0, round_no + 1
                                  + cfg.breaker_cooldown_rounds]
        elif streak > 0:
            breaker[r["host"]] = [streak, int(prev[1])]
        else:
            breaker.pop(r["host"], None)


def _write_authority_state(rdir: str, host_edges: set) -> None:
    """Checkpoint the capped host-edge set for resume (sorted: the
    file is byte-stable for a given graph)."""
    with open(os.path.join(rdir, "authority.json"), "w") as f:
        json.dump(sorted(list(e) for e in host_edges), f)


def _write_breaker_state(rdir: str, breaker: dict, round_no: int) -> None:
    """Checkpoint the breaker table (pruning entries that are fully
    expired AND streak-free — all-ok hosts never accumulate)."""
    pruned = {h: v for h, v in breaker.items()
              if v[0] > 0 or v[1] > round_no + 1}
    breaker.clear()
    breaker.update(pruned)
    with open(os.path.join(rdir, "breaker.json"), "w") as f:
        json.dump(pruned, f)


def run_crawl_ray(web_factory, seed_urls: list[str],
                  out_dir: str, cfg: EngineConfig | None = None,
                  min_priority=None, include_patterns=None,
                  exclude_patterns=None, limit=None,
                  freshness_priority: bool = False,
                  resume: bool = False) -> CrawlResult:
    """Run the BSP crawl.  Ray must already be initialised by the caller
    (entry points, benchmarks and tests own the session).  A fresh crawl
    (``resume`` False) starts from an empty ``out_dir/rounds``.  The
    URL-seen set lives in the rounds' seen runs, so a worker-mode crawl
    starts no actor; in actor mode the robots shards live exactly as
    long as this call: they are killed when it returns or raises, not
    left for the garbage collector."""
    import ray

    cfg = cfg or EngineConfig()
    robots_shards: list = []
    try:
        if cfg.robots_cache == "actor":
            # sharded robots cache actors: each host's robots.txt fetched
            # exactly once cluster-wide (the real-network politeness tier)
            from ..state.robots import create_robots_shards
            robots_shards = create_robots_shards(cfg.robots_shards,
                                                 web_factory)
            robots_factory = _ActorRobotsFactory(robots_shards)
        else:
            # worker mode: per-process rules cache; right for the
            # synthetic pure-function web where a "fetch" is a
            # deterministic compute
            robots_factory = _LocalRobotsFactory(web_factory)
        filters = dict(min_priority=min_priority,
                       include_patterns=include_patterns,
                       exclude_patterns=exclude_patterns, limit=limit,
                       freshness_priority=freshness_priority)
        return _crawl_rounds(web_factory, seed_urls, out_dir, cfg,
                             robots_factory, filters, resume)
    finally:
        for actor in robots_shards:
            ray.kill(actor)


def _since(t0: float) -> float:
    """Seconds since the ``time.perf_counter()`` reading ``t0``, to the
    millisecond."""
    return round(time.perf_counter() - t0, 3)


def _crawl_rounds(web_factory, seed_urls: list[str], out_dir: str,
                  cfg: EngineConfig, robots_factory, filters: dict,
                  resume: bool) -> CrawlResult:
    """Discovery (or resume) and the BSP rounds of ``run_crawl_ray``."""
    import shutil

    import ray
    import ray.data as rd

    budget = round_budget(cfg.requests_per_second, cfg.round_seconds)
    result = CrawlResult(out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # the seen runs' host buckets: fixed for the crawl's life, so a
    # resume keeps the count its rounds recorded
    n_buckets = cfg.seen_shards
    start_round = 0
    if resume:
        start_round, n_buckets = _restore(out_dir, result, n_buckets)
    else:
        # an earlier crawl's rounds (and seen runs) must not leak in
        shutil.rmtree(os.path.join(out_dir, "rounds"), ignore_errors=True)

    # circuit-breaker state: host → [streak, open_until].  Bounded by
    # the number of CURRENTLY-failing hosts (all-ok hosts are pruned
    # every round), so holding it on the driver — and re-broadcasting
    # the open set into the schedule group fns — is O(failing hosts),
    # not O(hosts).  Checkpointed per round for resume.
    breaker: dict[str, list] = {}
    if start_round > 0 and cfg.breaker_threshold > 0:
        bpath = os.path.join(_round_dir(out_dir, start_round - 1),
                             "breaker.json")
        if os.path.exists(bpath):
            with open(bpath) as f:
                breaker = json.load(f)

    # host-authority budget weighting: the capped cross-host edge set
    # lives on the driver (O(host pairs), checkpointed per round) and
    # only the boosted-host multiplier dict ships into the schedulers
    host_edges: set = set()
    if start_round > 0 and cfg.authority_boost > 1:
        apath = os.path.join(_round_dir(out_dir, start_round - 1),
                             "authority.json")
        if os.path.exists(apath):
            with open(apath) as f:
                host_edges = {tuple(e) for e in json.load(f)}

    breaker_on = cfg.breaker_threshold > 0
    t0 = time.perf_counter()
    if start_round > 0:
        frontier_dir = os.path.join(_round_dir(out_dir, start_round - 1),
                                    "frontier_next")
    else:
        # discovery writes the round-0 frontier into an emptied directory
        # that no ``round=*`` glob matches.  One block per seed up to a
        # cap: per-seed tasks maximize discovery parallelism for normal
        # seed lists, while a 10^6-seed frontier doesn't explode into
        # 10^6 scheduler-bound tiny blocks (past the cap each task walks
        # several seeds sequentially)
        frontier_dir = os.path.join(out_dir, "rounds", "discovery")
        shutil.rmtree(frontier_dir, ignore_errors=True)
        total_cpus = int(ray.cluster_resources().get("CPU", 4))
        n_seed_blocks = max(1, min(len(seed_urls), total_cpus * 8))
        rd.from_items([
            {"seed": s, "seed_idx": i} for i, s in enumerate(seed_urls)],
            override_num_blocks=n_seed_blocks).map_batches(
            discover_batch, batch_format="pyarrow", batch_size=1,
            fn_kwargs=dict(web_factory=web_factory,
                           robots_factory=robots_factory,
                           out_dir=frontier_dir, n_buckets=n_buckets,
                           **filters)).take_all()
    result.t_discovery = _since(t0)

    for round_no in range(start_round, cfg.max_rounds):
        buckets = _frontier_buckets(frontier_dir)
        if not buckets:
            break
        rdir = _round_dir(out_dir, round_no)
        if (os.path.exists(rdir)
                and not os.path.exists(os.path.join(rdir, "_MANIFEST.json"))):
            # a kill mid-round left partial checkpoints; re-running the
            # round must start clean
            shutil.rmtree(rdir)
        os.makedirs(rdir, exist_ok=True)

        # the round's one execution (module docstring).  A round with
        # nothing scheduled has rows left only when every pending host
        # is breaker-open: it sits out, and its deferred rows carry over
        # (the oracle keeps advancing rounds the same way)
        open_hosts = frozenset(
            h for h, (streak, ou) in breaker.items() if ou > round_no)
        host_boosts: dict = {}
        if cfg.authority_boost > 1 and host_edges:
            host_boosts = authority_multipliers(
                local_pagerank_hosts(host_edges, cfg.authority_iters),
                cfg.authority_boost)
        fold = make_schedule_fold(out_dir, round_no, make_host_processor(
            robots_factory, budget, cfg.round_seconds,
            open_hosts=open_hosts, host_boosts=host_boosts), frontier_dir)
        t0 = time.perf_counter()
        tallies = (rd.from_items([{"b": b} for b in buckets],
                                 override_num_blocks=len(buckets))
                   .map_batches(fold, batch_format="pyarrow", batch_size=1)
                   .repartition(
                       target_num_rows_per_block=cfg.fetch_batch_size)
                   .map_batches(
                       fetch_convert_batch, batch_format="pyarrow",
                       batch_size=cfg.fetch_batch_size,
                       fn_kwargs=dict(
                           web_factory=web_factory, rdir=rdir,
                           cache_ttl=cfg.payload_cache_ttl,
                           pacing_rps=cfg.pacing_rps,
                           robots_factory=robots_factory,
                           chunk_size=cfg.chunk_size,
                           chunk_overlap=cfg.chunk_overlap,
                           max_depth=cfg.max_depth, n_buckets=n_buckets,
                           trap_cap=cfg.trap_links_per_template,
                           edges=cfg.authority_boost > 1,
                           all_hosts=breaker_on)))
        if breaker_on:
            # one row per host and batch: fold them per host bucket
            # before they reach the driver
            tallies = keyed_fold(
                tallies, "host", _fold_hosts, n_buckets=n_buckets,
                schema=_HOST_ROWS_SCHEMA,
                fn_kwargs=dict(keep_hosts=frozenset(breaker)))
        host_rows = tallies.take_all()
        t_execution = _since(t0)
        n_scheduled = _parquet_rows(os.path.join(rdir, "seen", "b=*"))
        n_deferred = (_parquet_rows(os.path.join(rdir, "schedule"))
                      - n_scheduled)
        # the schedule dropped seen and duplicate keys, so every
        # scheduled row is fetched once; every failure has a row
        failed = sum(int(r["n"] - r["ok"]) for r in host_rows)
        if breaker_on:
            _update_breaker(breaker, host_rows, round_no, cfg)
        if cfg.authority_boost > 1:
            host_edges = merge_edges(
                host_edges,
                {(r["host"], d) for r in host_rows for d in r["dsts"]},
                cfg.authority_edge_cap)

        # every part is closed: the manifest makes the round complete
        if breaker_on:
            _write_breaker_state(rdir, breaker, round_no)
        if cfg.authority_boost > 1:
            _write_authority_state(rdir, host_edges)
        entry = {
            "round": round_no, "scheduled": n_scheduled,
            "fetched": n_scheduled - failed, "failed": failed,
            "deferred": n_deferred, "seen_buckets": n_buckets,
            "timings": {"execution": t_execution},
        }
        result.manifest.append(entry)
        result.fetched += entry["fetched"]
        result.failed += failed
        result.rounds = round_no + 1
        with open(os.path.join(rdir, "_MANIFEST.json"), "w") as f:
            json.dump(entry, f)
        frontier_dir = os.path.join(rdir, "frontier_next")

    with open(os.path.join(out_dir, "_CRAWL.json"), "w") as f:
        json.dump({"rounds": result.rounds, "fetched": result.fetched,
                   "failed": result.failed}, f)
    return result


def _restore(out_dir: str, result: CrawlResult,
             n_buckets: int) -> tuple[int, int]:
    """Resume support: re-read the completed rounds' manifests into
    ``result`` and return the next round number and the seen runs'
    bucket count those rounds recorded (``n_buckets`` when none did).
    The seen set needs no restore: it is the completed rounds' runs."""
    import shutil

    round_no = 0
    while True:
        manifest = os.path.join(_round_dir(out_dir, round_no),
                                "_MANIFEST.json")
        if not os.path.exists(manifest):
            break
        with open(manifest) as f:
            entry = json.load(f)
        result.manifest.append(entry)
        result.fetched += entry["fetched"]
        result.failed += entry["failed"]
        result.rounds = round_no + 1
        n_buckets = entry.get("seen_buckets", n_buckets)
        round_no += 1

    # drop any manifest-less (partial) round dirs beyond the last
    # complete round, their seen runs included, so they can't pollute
    # read_crawl_order even if the resumed frontier drains before
    # reaching them
    for stale in glob.glob(os.path.join(out_dir, "rounds", "round=*")):
        if (int(stale.rsplit("=", 1)[1]) >= round_no
                and not os.path.exists(os.path.join(stale, "_MANIFEST.json"))):
            shutil.rmtree(stale)
    return round_no, n_buckets


def read_crawl_order(out_dir: str):
    """Canonical crawl order from the schedule checkpoints:
    (round, host, fetch_order) ascending."""
    import pandas as pd

    frames = []
    for rdir in sorted(glob.glob(os.path.join(out_dir, "rounds", "round=*"))):
        round_no = int(rdir.rsplit("=", 1)[1])
        path = os.path.join(rdir, "schedule")
        if not os.path.isdir(path):
            continue
        df = pq.read_table(path).to_pandas()
        df = df[df["scheduled"]]
        df["round"] = round_no
        frames.append(df[["round", "host", "fetch_order", "loc", "seq_no",
                          "seen_key"]])
    if not frames:
        return pd.DataFrame(columns=["round", "host", "fetch_order", "loc",
                                     "seq_no", "seen_key"])
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["round", "host", "fetch_order"],
                           kind="mergesort").reset_index(drop=True)


def read_host_edges(out_dir: str):
    """Distinct cross-host link edges (src_host → dst_host) from the
    docs checkpoints — the link graph used for authority-based frontier
    prioritization (PageRank over hosts).  Streaming: the explode runs
    in ``map_batches`` over the checkpoint files and only (src, dst)
    pairs reach the one distinct shuffle; self-edges (intra-host nav)
    are dropped at the source."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..kernels.urls import get_domain_from_url

    files = sorted(glob.glob(
        os.path.join(out_dir, "rounds", "round=*", "docs", "*.parquet")))
    if not files:
        import pandas as pd
        return rd.from_pandas(pd.DataFrame(
            {"src": pd.Series(dtype="object"),
             "dst": pd.Series(dtype="object")}))

    def explode(batch: pa.Table) -> pa.Table:
        src_col, dst_col = [], []
        for h, links in zip(batch.column("host").to_pylist(),
                            batch.column("links").to_pylist()):
            for link in links or []:
                dst = get_domain_from_url(link)
                if dst and dst != h:
                    src_col.append(h)
                    dst_col.append(dst)
        return pa.table({"src": pa.array(src_col, pa.string()),
                         "dst": pa.array(dst_col, pa.string())})

    return (rd.read_parquet(files, columns=["host", "links"])
            .map_batches(explode, batch_format="pyarrow")
            .groupby(["src", "dst"]).aggregate(Count(alias_name="__c"))
            .map_batches(lambda b: b.select(["src", "dst"]),
                         batch_format="pyarrow"))


_HEALTH_SCHEMA = pa.schema(
    [("host", pa.string())]
    + [(c, pa.int64()) for c in ("n_scheduled", "n_deferred", "n_fetched",
                                 "n_failed", "rounds_active")])


def _fold_health(rows: pa.Table) -> pa.Table:
    """``crawl_health``'s per-bucket fold of host partials: sums, and
    ``rounds_active`` as the distinct rounds with a fetch."""
    g = rows.to_pandas()
    agg = (g.groupby("host", sort=False)
           .agg({"n_scheduled": "sum", "n_deferred": "sum",
                 "n_fetched": "sum", "n_failed": "sum"})
           .reset_index())
    docs = g[g["_round"] >= 0]
    ra = (docs.groupby("host", sort=False)["_round"].nunique()
          .rename("rounds_active").reset_index())
    out = agg.merge(ra, on="host", how="left")
    out["rounds_active"] = out["rounds_active"].fillna(0).astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def crawl_health(out_dir: str):
    """Per-host crawl health panel from the round checkpoints: how
    many fetches each host got, how many failed, how much of its
    frontier sat deferred, and how many rounds it was active — the
    ops view for "which hosts are starving / erroring / hogging".

    Read-side audit over the column-pruned schedule and docs parquet
    of every completed round: per-batch host partials → ONE bucketed
    fold — the checkpoint rows never concatenate on the driver (only
    the O(hosts) panel does).  Returns a pandas DataFrame (host,
    n_scheduled, n_deferred, n_fetched, n_failed, rounds_active),
    host-sorted.
    """
    import pandas as pd
    import ray.data as rd

    sched_files, docs_files = [], []
    for rdir in sorted(glob.glob(os.path.join(out_dir, "rounds",
                                              "round=*"))):
        if not os.path.exists(os.path.join(rdir, "_MANIFEST.json")):
            continue
        sched_files.extend(
            sorted(glob.glob(os.path.join(rdir, "schedule", "*.parquet"))))
        docs = sorted(glob.glob(os.path.join(rdir, "docs", "*.parquet")))
        if docs:
            docs_files.append((int(rdir.rsplit("=", 1)[1]), docs))

    cols = _HEALTH_SCHEMA.names
    if not sched_files:
        return pd.DataFrame(columns=cols)

    def sched_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = (df.assign(_s=df["scheduled"].astype("int64"))
             .groupby("host", sort=False)
             .agg(n_scheduled=("_s", "sum"), n_rows=("_s", "size"))
             .reset_index())
        return pd.DataFrame({
            "host": g["host"],
            "n_scheduled": g["n_scheduled"].astype("int64"),
            "n_deferred": (g["n_rows"]
                           - g["n_scheduled"]).astype("int64"),
            "n_fetched": np.int64(0), "n_failed": np.int64(0),
            "_round": np.int64(-1)})

    def docs_partial(df: "pd.DataFrame", round_no: int) -> "pd.DataFrame":
        ok = (df["status"] == 200).astype("int64")
        g = (df.assign(_ok=ok)
             .groupby("host", sort=False)
             .agg(n_ok=("_ok", "sum"), n=("_ok", "size")).reset_index())
        return pd.DataFrame({
            "host": g["host"], "n_scheduled": np.int64(0),
            "n_deferred": np.int64(0),
            "n_fetched": g["n_ok"].astype("int64"),
            "n_failed": (g["n"] - g["n_ok"]).astype("int64"),
            "_round": np.int64(round_no)})

    parts = _read_parts(
        sched_files, columns=["host", "scheduled"]).map_batches(
        sched_partial, batch_format="pandas")
    # rounds_active = distinct rounds with a fetch: partials carry the
    # round number and the fold counts distincts (a round's docs can
    # arrive as many batches — a per-batch flag would over-count)
    doc_parts = [_read_parts(files, columns=["host", "status"])
                 .map_batches(docs_partial, batch_format="pandas",
                              fn_kwargs=dict(round_no=rn))
                 for rn, files in docs_files]

    union = parts
    for dp in doc_parts:
        union = union.union(dp)

    panel = keyed_fold(union, "host", _fold_health, n_buckets=32,
                       schema=_HEALTH_SCHEMA).to_pandas()
    return (panel[cols].sort_values("host", kind="mergesort")
            .reset_index(drop=True))

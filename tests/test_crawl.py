"""Crawl engine: oracle semantics, Ray parity, resume."""

import shutil

import pytest

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.crawl_spec import discover_seed_frontier
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb
from markdown_lab_ray.state.robots import LocalRobotsCache

SPEC = SiteSpec(n_hosts=6, pages_per_host=12, n_images=40)
CFG = EngineConfig(requests_per_second=0.1, round_seconds=60.0,  # budget 6/host
                   max_rounds=4, max_depth=2, seen_shards=4)


def _web():
    return SyntheticWeb(SPEC)


def test_discovery_robots_declared_host():
    web = _web()
    rows = discover_seed_frontier(web.resolve, LocalRobotsCache(web.resolve),
                                  "https://h000.example.com", 0)
    assert len(rows) == SPEC.pages_per_host
    assert rows[0]["loc"] == "https://h000.example.com/page/0"
    assert rows[0]["seq_no"] == 0
    assert rows[0]["priority"] is None  # j%7==0 has no <priority>
    assert rows[1]["priority"] == 0.3


def test_discovery_wellknown_and_index_hosts():
    web = _web()
    robots = LocalRobotsCache(web.resolve)
    rows = discover_seed_frontier(web.resolve, robots,
                                  "https://h001.example.com", 1)
    assert len(rows) == SPEC.pages_per_host
    assert rows[0]["seq_no"] == 1_000_000
    # host 5: /sitemap.xml 404s, /sitemap_index.xml two-level index
    rows5 = discover_seed_frontier(web.resolve, robots,
                                   "https://h005.example.com", 5)
    assert len(rows5) == SPEC.pages_per_host
    assert [r["loc"] for r in rows5] == [
        f"https://h005.example.com/page/{j}" for j in range(SPEC.pages_per_host)]


def test_discovery_filters():
    web = _web()
    rows = discover_seed_frontier(web.resolve, LocalRobotsCache(web.resolve),
                                  "https://h000.example.com", 0,
                                  min_priority=0.5, limit=4)
    assert len(rows) == 4
    assert all(r["priority"] is None or r["priority"] >= 0.5 for r in rows)


def test_oracle_runs_and_is_deterministic():
    r1 = run_crawl_oracle(_web().resolve, SPEC.seed_urls(), CFG)
    r2 = run_crawl_oracle(_web().resolve, SPEC.seed_urls(), CFG)
    assert r1["order"] == r2["order"]
    assert r1["seen"] == r2["seen"]
    assert r1["fetched"] > 0
    # politeness budget respected per host per round
    detail = r1["order_detail"]
    per = detail.groupby(["round", "host"]).size()
    assert per.max() <= 6


def test_oracle_budget_changes_order():
    fast = EngineConfig(requests_per_second=1.0, round_seconds=60.0,
                        max_rounds=2, max_depth=1)
    slow = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                        max_rounds=2, max_depth=1)
    r_fast = run_crawl_oracle(_web().resolve, SPEC.seed_urls()[:2], fast)
    r_slow = run_crawl_oracle(_web().resolve, SPEC.seed_urls()[:2], slow)
    assert r_fast["order"] != r_slow["order"]


@pytest.fixture()
def crawl_dir(tmp_path):
    yield str(tmp_path / "crawl")
    shutil.rmtree(tmp_path / "crawl", ignore_errors=True)


def test_ray_crawl_matches_oracle(ray_session, crawl_dir):
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    oracle = run_crawl_oracle(_web().resolve, SPEC.seed_urls(), CFG)
    result = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(),
                           crawl_dir, CFG)
    order = read_crawl_order(crawl_dir)

    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    assert result.fetched == oracle["fetched"]
    assert result.failed == oracle["failed"]


def test_ray_crawl_resume(ray_session, tmp_path):
    """Kill after N rounds (simulated by max_rounds), resume, and get the
    same final state as an uninterrupted run."""
    import pandas as pd

    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    full_dir = str(tmp_path / "full")
    part_dir = str(tmp_path / "part")

    cfg_full = CFG
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), full_dir,
                  cfg_full)

    cfg_half = EngineConfig(**{**CFG.__dict__, "max_rounds": 2})
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg_half)
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg_full, resume=True)

    full = read_crawl_order(full_dir)
    resumed = read_crawl_order(part_dir)
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))


def test_resume_discards_partial_round(ray_session, tmp_path):
    """A kill mid-round leaves checkpoints without a manifest; resume
    must discard them and still converge to the uninterrupted result."""
    import os
    import shutil

    import pandas as pd

    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    full_dir = str(tmp_path / "full")
    part_dir = str(tmp_path / "part")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), full_dir, CFG)

    cfg_half = EngineConfig(**{**CFG.__dict__, "max_rounds": 2})
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg_half)
    # fabricate a partial round 2: schedule written, no manifest
    partial = os.path.join(part_dir, "rounds", "round=2")
    shutil.copytree(os.path.join(part_dir, "rounds", "round=1"), partial)
    os.remove(os.path.join(partial, "_MANIFEST.json"))

    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  CFG, resume=True)
    pd.testing.assert_frame_equal(
        read_crawl_order(full_dir).reset_index(drop=True),
        read_crawl_order(part_dir).reset_index(drop=True))


def test_robots_actor_cache_exactly_once_and_parity(ray_session, tmp_path):
    """robots_cache="actor" (north rule: robots.txt cache actors): the
    shard tier fetches each host's robots.txt exactly ONCE cluster-wide
    and the crawl output is identical to worker mode."""
    import ray

    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray
    from markdown_lab_ray.state.robots import create_robots_shards

    cfg_actor = EngineConfig(**{**CFG.__dict__, "robots_cache": "actor",
                                "robots_shards": 3})
    a_dir, w_dir = str(tmp_path / "actor"), str(tmp_path / "worker")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), a_dir,
                  cfg_actor)
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), w_dir, CFG)
    import pandas as pd
    pd.testing.assert_frame_equal(
        read_crawl_order(a_dir).reset_index(drop=True),
        read_crawl_order(w_dir).reset_index(drop=True))

    # exactly-once property, asserted directly on the shard tier
    shards = create_robots_shards(3, lambda: SyntheticWeb(SPEC))
    from markdown_lab_ray.state.robots import ActorRobotsCache
    client_a = ActorRobotsCache(shards)
    client_b = ActorRobotsCache(shards)  # second "worker process"
    hosts = SPEC.hosts()
    for client in (client_a, client_b, client_a):
        for h in hosts:
            client.rules_for(h)
    fetches = sum(ray.get([s.n_fetches.remote() for s in shards]))
    assert fetches == len(hosts)  # one real fetch per host, ever
    for s in shards:
        ray.kill(s)


def test_links_explode_vectorized_parity():
    """The Arrow-vectorized engine explode must equal the spec row-loop
    path (links_to_frontier_rows + dedup_candidates) as a SET of
    frontier rows — same scheme filter, trap cap, per-URL scalars and
    spec-2a pre-dedup — for every trap_cap setting."""
    import pyarrow as pa

    from markdown_lab_ray.pipelines.crawl import links_explode_batch
    from markdown_lab_ray.pipelines.crawl_spec import (
        dedup_candidates, links_to_frontier_rows)

    pages = [
        (0, ["http://a.com/x", "https://b.com/y#frag", "ftp://c.com/z",
             "javascript:void(0)", "http://a.com/x/", "http://a.com/x",
             "https://b.com/cal?d=1", "https://b.com/cal?d=2",
             "https://b.com/cal?d=3", "https://b.com/cal?d=4"]),
        (1, ["http://a.com/x", "http://d.com/p/0123456789ab",
             "http://d.com/p/ba9876543210", ""]),
        (2, []),
    ]
    batch = pa.table({
        "depth": pa.array([d for d, _ in pages], pa.int64()),
        "links": pa.array([l for _, l in pages],
                          pa.list_(pa.string())),
    })
    for trap_cap in (0, 2, 3):
        got = links_explode_batch(batch, trap_cap=trap_cap)
        rows = []
        for depth, links in pages:
            rows.extend(links_to_frontier_rows(depth, links, trap_cap))
        want = dedup_candidates(rows)
        got_set = {tuple(r[k] for k in ("loc", "host", "depth",
                                        "seq_no", "seen_key"))
                   for r in got.to_pylist()}
        want_set = {tuple(r[k] for k in ("loc", "host", "depth",
                                         "seq_no", "seen_key"))
                    for r in want}
        assert got_set == want_set, trap_cap
        assert got.num_rows == len(want), trap_cap
        # null metadata columns ride along with the right types
        assert got.schema.field("priority").type == pa.float64()
        assert got.column("lastmod").null_count == got.num_rows

    empty = pa.table({"depth": pa.array([], pa.int64()),
                      "links": pa.array([], pa.list_(pa.string()))})
    assert links_explode_batch(empty).num_rows == 0

    # Arrow edge shapes the row loop never saw: null list entries and
    # null items vanish (list_flatten drops them, the scheme filter
    # null-fills), large_list works like list
    nul = pa.table({
        "depth": pa.array([0, 1], pa.int64()),
        "links": pa.array([["http://a.com/x"], None],
                          pa.list_(pa.string()))})
    assert links_explode_batch(nul).num_rows == 1
    big = pa.table({
        "depth": pa.array([0], pa.int64()),
        "links": pa.array([["http://a.com/x", None, "https://b.com/y"]],
                          pa.large_list(pa.string()))})
    assert links_explode_batch(big).num_rows == 2


class _CountingWebFactory:
    """Synthetic web factory whose webs append one line per robots.txt
    resolve to ``log_path`` (the factory's pickled content — spec and
    path — never changes, so the worker caches key it stably)."""

    def __init__(self, spec, log_path):
        self.spec = spec
        self.log_path = log_path

    def __call__(self):
        return _CountingWeb(self.spec, self.log_path)


class _CountingWeb(SyntheticWeb):
    def __init__(self, spec, log_path):
        super().__init__(spec)
        self.log_path = log_path

    def resolve(self, url):
        if url.endswith("/robots.txt"):
            with open(self.log_path, "a") as f:
                f.write(url + "\n")
        return super().resolve(url)


def test_discovery_and_schedule_share_one_robots_fetch(tmp_path):
    """Discovery and the schedule stage read robots rules through the
    same worker-process cache: one robots.txt resolve per host, not one
    per stage (no Ray session — both stages run in this process)."""
    import pyarrow as pa

    from markdown_lab_ray.pipelines.crawl import (_LocalRobotsFactory,
                                                  _robots_rules,
                                                  discover_batch)

    log = str(tmp_path / "robots.log")
    web_factory = _CountingWebFactory(SPEC, log)
    robots_factory = _LocalRobotsFactory(web_factory)
    seeds = SPEC.seed_urls()
    batch = pa.table({"seed": seeds, "seed_idx": list(range(len(seeds)))})
    count = discover_batch(batch, web_factory, robots_factory,
                           out_dir=str(tmp_path / "discovery"), n_buckets=2)
    assert count.column("n")[0].as_py() > 0
    for host in SPEC.hosts():
        _robots_rules(robots_factory, host)
    with open(log) as f:
        resolved = sorted(f.read().split())
    assert resolved == sorted(f"https://{h}/robots.txt" for h in SPEC.hosts())


def _alive_actor_ids(class_suffixes) -> set:
    from ray._private.state import actors

    return {aid for aid, a in actors().items()
            if a["State"] == "ALIVE"
            and a["ActorClassName"].endswith(class_suffixes)}


def test_crawl_kills_its_state_actors(ray_session, tmp_path):
    """``run_crawl_ray`` kills its (actor mode) robots shards when it
    returns and when it raises, without waiting for the garbage
    collector (disabled while we look)."""
    import gc
    import time

    from markdown_lab_ray.pipelines.crawl import run_crawl_ray

    kinds = (".RobotsShard",)
    spec = SiteSpec(n_hosts=2, pages_per_host=4, n_images=8)
    cfg = EngineConfig(requests_per_second=0.1, round_seconds=60.0,
                       max_rounds=2, max_depth=1, seen_shards=2,
                       robots_cache="actor", robots_shards=2)

    def broken_web():
        raise RuntimeError("web down")

    before = _alive_actor_ids(kinds)
    for name, factory in (("ok", lambda: SyntheticWeb(spec)),
                          ("raises", broken_web)):
        gc.disable()
        try:
            raised = False
            try:
                run_crawl_ray(factory, spec.seed_urls(),
                              str(tmp_path / name), cfg)
            except Exception:
                raised = True
            assert raised == (name == "raises")
            deadline = time.monotonic() + 10
            while (_alive_actor_ids(kinds) - before
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not _alive_actor_ids(kinds) - before, name
        finally:
            gc.enable()


def test_crawl_chunks_only_ok_pages(ray_session, tmp_path):
    """Failed (5xx) and redirected (3xx) pages have no content: the
    chunk sidecar holds the 200 pages' chunks and nothing else."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.crawl import run_crawl_ray

    spec = SiteSpec(n_hosts=3, pages_per_host=8, n_images=10,
                    error_host_every=2, redirect_every=3)
    cfg = EngineConfig(requests_per_second=0.1, round_seconds=60.0,
                       max_rounds=2, max_depth=1, seen_shards=2)
    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg)

    def read(kind, cols):
        return pa.concat_tables(
            pq.read_table(f, columns=cols) for f in sorted(glob.glob(
                f"{out}/rounds/round=*/{kind}/*.parquet")))

    docs = read("docs", ["url", "status"]).to_pydict()
    statuses = set(docs["status"])
    assert 200 in statuses
    assert any(300 <= s < 400 for s in statuses)
    assert any(s >= 500 for s in statuses)
    ok = {u for u, s in zip(docs["url"], docs["status"]) if s == 200}
    chunk_urls = set(read("chunks", ["source_url"])
                     .column("source_url").to_pylist())
    assert chunk_urls == ok


def test_frontier_reads_only_frontier_cols(ray_session, tmp_path):
    """The schedule fold's part reader gives a bucket's frontier rows
    with exactly FRONTIER_COLS, from discovery's parts and from every
    round's ``frontier_next``: the ``round=N`` directory above them is
    not a hive partition column."""
    from markdown_lab_ray.pipelines.crawl import (FRONTIER_COLS,
                                                  _frontier_buckets,
                                                  _read_bucket,
                                                  run_crawl_ray)

    spec = SiteSpec(n_hosts=2, pages_per_host=8)
    cfg = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                       max_rounds=2, max_depth=1, seen_shards=2)
    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg)
    for path in (f"{out}/rounds/discovery",
                 f"{out}/rounds/round=0/frontier_next",
                 f"{out}/rounds/round=1/frontier_next"):
        buckets = _frontier_buckets(path)
        assert buckets, path
        for b in buckets:
            rows = _read_bucket(path, b)
            assert rows.num_rows > 0
            assert rows.schema.names == FRONTIER_COLS


def test_unbucketed_frontier_part_raises(tmp_path):
    """A frontier part named without a host bucket (a crawl directory
    written before frontier parts were bucketed) fails the round's
    bucket listing instead of being skipped with its rows."""
    import pytest

    from markdown_lab_ray.pipelines.crawl import (_frontier_buckets,
                                                  _write_part,
                                                  frontier_rows_to_table)

    tbl = frontier_rows_to_table([{
        "loc": "https://a.example/x", "lastmod": None, "changefreq": None,
        "priority": None, "host": "a.example", "depth": 0, "seq_no": 0,
        "seen_key": "k"}])
    _write_part(tbl, str(tmp_path), tbl.column("seen_key"), prefix="b3")
    assert _frontier_buckets(str(tmp_path)) == [3]
    _write_part(tbl, str(tmp_path), tbl.column("seen_key"))
    with pytest.raises(ValueError, match="no host bucket"):
        _frontier_buckets(str(tmp_path))


def _scheduled_batch(spec, n_hosts=2, n_pages=2):
    """Scheduled crawl rows for the first pages of the first hosts."""
    import pyarrow as pa

    from markdown_lab_ray.kernels.urls import url_seen_key

    urls = [spec.page_url(i, j) for i in range(n_hosts)
            for j in range(n_pages)]
    return pa.table({"loc": urls,
                     "host": [spec.host(i) for i in range(n_hosts)
                              for _ in range(n_pages)],
                     "depth": [0] * len(urls),
                     "seen_key": [url_seen_key(u) for u in urls]})


def test_fetch_settings_reach_the_crawl_fetch(monkeypatch, tmp_path):
    """``fetch_convert_batch`` fetches through one per-process
    ``FetchStage`` built from its settings: with a payload cache, two
    batches of the same URLs resolve each URL once, both through the
    same fetcher."""
    import functools

    from markdown_lab_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "_WEB_CACHE", {})
    monkeypatch.setattr(crawl, "_FETCH_CACHE", {})
    resolved: list[str] = []
    fetchers: list = []
    resolve, call = SyntheticWeb.resolve, crawl.FetchStage.__call__

    def counting_resolve(self, url):
        resolved.append(url)
        return resolve(self, url)

    def recording_call(self, batch):
        fetchers.append(self)
        return call(self, batch)

    monkeypatch.setattr(SyntheticWeb, "resolve", counting_resolve)
    monkeypatch.setattr(crawl.FetchStage, "__call__", recording_call)

    spec = SiteSpec(n_hosts=2, pages_per_host=4)
    batch = _scheduled_batch(spec)
    urls = batch.column("loc").to_pylist()
    for _ in range(2):
        tally = crawl.fetch_convert_batch(
            batch, functools.partial(SyntheticWeb, spec), str(tmp_path),
            cache_ttl=3600.0)
        # all-200 pages and no authority: the batch sends no host row
        assert tally.num_rows == 0
    assert sorted(resolved) == sorted(urls)
    assert len(fetchers) == 2 and fetchers[0] is fetchers[1]
    assert fetchers[0].web.hits == len(urls)


def test_fetch_convert_retry_is_idempotent(tmp_path):
    """A retried fetch task overwrites its own parts: two calls on the
    same batch into one round dir leave one docs, one chunks and one
    frontier_next part, holding exactly the rows one call writes; with
    the link rows split over three host buckets, two calls leave the
    same, byte-identical part set."""
    import functools
    import glob
    import os

    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.crawl import fetch_convert_batch

    spec = SiteSpec(n_hosts=2, pages_per_host=6)
    batch = _scheduled_batch(spec, n_pages=3)
    kwargs = dict(web_factory=functools.partial(SyntheticWeb, spec),
                  max_depth=2)
    once, twice = str(tmp_path / "once"), str(tmp_path / "twice")
    fetch_convert_batch(batch, rdir=once, **kwargs)
    for _ in range(2):
        fetch_convert_batch(batch, rdir=twice, **kwargs)
    for kind in ("docs", "chunks", "frontier_next"):
        parts = glob.glob(f"{twice}/{kind}/*.parquet")
        assert len(parts) == 1, kind
        want = pq.read_table(glob.glob(f"{once}/{kind}/*.parquet")[0])
        assert want.num_rows > 0
        assert pq.read_table(parts[0]).equals(want), kind

    def part_bytes(rdir):
        return {os.path.relpath(p, rdir): open(p, "rb").read()
                for p in glob.glob(f"{rdir}/*/*.parquet")}

    spec6 = SiteSpec(n_hosts=6, pages_per_host=6)
    spread = _scheduled_batch(spec6, n_hosts=6, n_pages=1)
    kwargs = dict(web_factory=functools.partial(SyntheticWeb, spec6),
                  max_depth=2, n_buckets=3)
    first, second = str(tmp_path / "b3_first"), str(tmp_path / "b3_second")
    fetch_convert_batch(spread, rdir=first, **kwargs)
    for _ in range(2):
        fetch_convert_batch(spread, rdir=second, **kwargs)
    parts = part_bytes(first)
    assert parts == part_bytes(second)
    links = {p for p in parts if p.startswith("frontier_next")}
    assert len({p.split(os.sep)[1].split("-")[0] for p in links}) > 1


def test_round_is_one_execution(ray_session, tmp_path, monkeypatch):
    """A crawl runs one Ray Data execution for discovery plus one per
    round (schedule fold → streaming repartition → fetch), with or
    without the circuit breaker and authority boost; with the breaker
    off no round holds an all-to-all operator (no shuffle).  A batch
    convert runs one execution.  Executions over a bare input buffer
    (reading an already materialized dataset) are not counted."""
    import functools

    from ray.data._internal.execution.interfaces import PhysicalOperator
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator)
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer)
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from markdown_lab_ray.pipelines.convert import run_batch_convert
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray

    dags: list = []
    execute = StreamingExecutor.execute

    def counting_execute(self, dag, *args, **kwargs):
        if not isinstance(dag, InputDataBuffer):
            dags.append(dag)
        return execute(self, dag, *args, **kwargs)

    def operators(dag: PhysicalOperator) -> list:
        return [dag] + [op for d in dag.input_dependencies
                        for op in operators(d)]

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    spec = SiteSpec(n_hosts=2, pages_per_host=12)
    cfg = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                       max_rounds=3, max_depth=2, seen_shards=2)
    # the opt-in breaker and authority ride the fetch tally: no extra
    # execution per round
    for name, run_cfg in (
            ("crawl", cfg),
            ("crawl_opt_in", cfg.update(breaker_threshold=6,
                                        authority_boost=2))):
        dags.clear()
        result = run_crawl_ray(functools.partial(SyntheticWeb, spec),
                               spec.seed_urls(), str(tmp_path / name),
                               run_cfg)
        assert result.rounds == 3
        assert all(m["scheduled"] > 0 for m in result.manifest)
        assert len(dags) == 1 + result.rounds, name
        # the breaker's host-tally fold is the one shuffle left
        shuffles = [any(isinstance(op, AllToAllOperator)
                        for op in operators(dag)) for dag in dags]
        assert any(shuffles) == (run_cfg.breaker_threshold > 0), name

    dags.clear()
    urls = [spec.page_url(i, j) for i in range(2) for j in range(5)]
    assert run_batch_convert(functools.partial(SyntheticWeb, spec), urls,
                             str(tmp_path / "batch"),
                             save_chunks=True) == (len(urls), 0)
    assert len(dags) == 1


_ONE_CPU_CRAWL = """
import json
import sys

import ray

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.crawl import run_crawl_ray
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
spec = SiteSpec(n_hosts=3, pages_per_host=8, n_images=10,
                error_host_every=2, redirect_every=3)
result = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(),
                       sys.argv[1], EngineConfig(seen_shards=2))
print(json.dumps({"rounds": result.rounds}))
ray.shutdown()
"""


def test_default_crawl_finishes_on_one_cpu(tmp_path):
    """A default-config crawl on a 1-logical-CPU Ray session of its own
    ends and writes every round's manifest (the fetch needs no CPU held
    by a long-lived pool)."""
    import glob
    import json
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "crawl")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CRAWL, out], cwd=repo,
        env={**os.environ, "PYTHONPATH": repo}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # the session's Ray processes share the child's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert stdout is not None, "crawl did not finish within 180 s"
    assert proc.returncode == 0, stderr[-2000:]
    rounds = json.loads(stdout.strip().splitlines()[-1])["rounds"]
    round_dirs = glob.glob(f"{out}/rounds/round=*")
    assert rounds >= 2 and len(round_dirs) == rounds
    for rdir in round_dirs:
        assert os.path.exists(f"{rdir}/_MANIFEST.json"), rdir

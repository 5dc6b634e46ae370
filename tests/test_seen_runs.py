"""The crawl's URL-seen set as per-round runs per host bucket: the
schedule fold's retry, a worker killed mid-schedule, resume without
actors or key pushes, a resume with another ``seen_shards``, a fresh
crawl into a used directory, the frontier parts' host buckets, and the
keyed folds' schema-carrying output blocks."""

import functools
import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

SPEC = SiteSpec(n_hosts=5, pages_per_host=12, n_images=40)
CFG = EngineConfig(requests_per_second=0.05, round_seconds=60.0,  # budget 3
                   max_rounds=4, max_depth=2, seen_shards=3)


# a partial, not a test-module function: Ray workers cannot import
# this module, so the factory must pickle by value
WEB = functools.partial(SyntheticWeb, SPEC)


def _read_keys(out_dir: str, kind: str, scheduled_only: bool = False):
    """Every seen_key in the ``kind`` parts of all rounds, repeats kept."""
    keys = []
    for path in glob.glob(f"{out_dir}/rounds/round=*/{kind}/**/*.parquet",
                          recursive=True):
        tbl = pq.read_table(path)
        if scheduled_only:
            tbl = tbl.filter(tbl.column("scheduled"))
        keys.extend(tbl.column("seen_key").to_pylist())
    return keys


def _frontier(spec, out_dir: str, n_hosts=3, n_pages=6) -> str:
    """Round-0-like frontier rows written as bucket 0's part of
    ``out_dir``: every host's first pages, each twice (an intra-round
    duplicate)."""
    from markdown_lab_ray.kernels.urls import url_seen_key
    from markdown_lab_ray.pipelines.crawl import (_write_part,
                                                  frontier_rows_to_table)

    rows = [{"loc": spec.page_url(i, j), "lastmod": None,
             "changefreq": None, "priority": None, "host": spec.host(i),
             "depth": 0, "seq_no": j, "seen_key":
             url_seen_key(spec.page_url(i, j))}
            for i in range(n_hosts) for j in range(n_pages)]
    tbl = frontier_rows_to_table(rows + rows)
    _write_part(tbl, out_dir, tbl.column("seen_key"), prefix="b0")
    return out_dir


def test_schedule_fold_retry_rewrites_its_parts(tmp_path):
    """A retried schedule fold rewrites the same schedule, frontier_next
    and seen parts; the next round's fold drops the keys the first
    round's run marked."""
    from markdown_lab_ray.pipelines.crawl import (_LocalRobotsFactory,
                                                  make_host_processor,
                                                  make_schedule_fold)

    frontier = _frontier(SPEC, str(tmp_path / "frontier"))
    bucket = pa.table({"b": [0]})
    step = make_host_processor(
        _LocalRobotsFactory(WEB), 2)
    out = str(tmp_path / "crawl")
    first = make_schedule_fold(out, 0, step, frontier)(bucket)
    files = {p: open(p, "rb").read() for p in glob.glob(
        f"{out}/rounds/round=0/**/*.*", recursive=True)}
    assert {os.path.relpath(p, out).split(os.sep)[2] for p in files} == {
        "schedule", "frontier_next", "seen"}
    assert {os.path.basename(p).split("-")[0] for p in files
            if "frontier_next" in p} == {"b0"}
    again = make_schedule_fold(out, 0, step, frontier)(bucket)
    assert again.equals(first)
    assert {p: open(p, "rb").read() for p in glob.glob(
        f"{out}/rounds/round=0/**/*.*", recursive=True)} == files

    assert first.num_rows == 3 * 2  # budget 2 per host, duplicates dropped
    marked = set(_read_keys(out, "seen"))
    assert marked == set(first.column("seen_key").to_pylist())
    second = make_schedule_fold(out, 1, step, frontier)(bucket)
    assert second.num_rows == 3 * 2
    assert not marked & set(second.column("seen_key").to_pylist())


def test_worker_killed_mid_schedule_recovers(ray_session, tmp_path,
                                             monkeypatch):
    """A worker process dies inside a schedule fold (its first robots
    lookup exits the process once); Ray retries the fold and the crawl
    still equals the oracle, with no key scheduled or marked twice."""
    from markdown_lab_ray.pipelines import crawl
    from markdown_lab_ray.state.robots import LocalRobotsCache

    marker = str(tmp_path / "killed")

    class ExitOnceRobotsFactory:
        def __init__(self, web_factory):
            self.web_factory = web_factory

        def __call__(self):
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return LocalRobotsCache(self.web_factory().resolve)

    out = str(tmp_path / "crawl")
    crawl.run_crawl_ray(WEB, SPEC.seed_urls(), out,
                        CFG.update(max_rounds=1))
    # resuming skips discovery: the first robots lookup is a fold's
    monkeypatch.setattr(crawl, "_LocalRobotsFactory", ExitOnceRobotsFactory)
    crawl.run_crawl_ray(WEB, SPEC.seed_urls(), out, CFG, resume=True)
    assert os.path.exists(marker)

    oracle = run_crawl_oracle(WEB().resolve, SPEC.seed_urls(), CFG)
    assert crawl.read_crawl_order(out)["loc"].tolist() == oracle["order"]
    scheduled = _read_keys(out, "schedule", scheduled_only=True)
    marked = _read_keys(out, "seen")
    assert len(scheduled) == len(set(scheduled))
    assert sorted(marked) == sorted(scheduled)
    assert set(marked) == oracle["seen"]


def test_worker_crawl_and_resume_start_no_actor(ray_session, tmp_path):
    """A worker-mode crawl and its resume create no actor: the seen set
    is the rounds' runs, and resume moves no key anywhere."""
    import ray.data as rd
    from ray._private.state import actors

    from markdown_lab_ray.pipelines.crawl import (read_crawl_order,
                                                  run_crawl_ray)

    rd.range(1).materialize()  # Ray Data's own bookkeeping actors
    before = set(actors())
    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    run_crawl_ray(WEB, SPEC.seed_urls(), part, CFG.update(max_rounds=2))
    run_crawl_ray(WEB, SPEC.seed_urls(), part, CFG, resume=True)
    assert set(actors()) == before
    run_crawl_ray(WEB, SPEC.seed_urls(), full, CFG)
    pd.testing.assert_frame_equal(read_crawl_order(full),
                                  read_crawl_order(part))


def test_resume_keeps_the_recorded_bucket_count(ray_session, tmp_path):
    """Each manifest records the seen runs' bucket count; a resume with
    another ``seen_shards`` keeps the recorded one and equals the
    uninterrupted run."""
    import json

    from markdown_lab_ray.pipelines.crawl import (read_crawl_order,
                                                  run_crawl_ray)

    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    run_crawl_ray(WEB, SPEC.seed_urls(), full, CFG)
    run_crawl_ray(WEB, SPEC.seed_urls(), part, CFG.update(max_rounds=2))
    run_crawl_ray(WEB, SPEC.seed_urls(), part, CFG.update(seen_shards=5),
                  resume=True)
    manifests = [json.load(open(m)) for m in sorted(glob.glob(
        f"{part}/rounds/round=*/_MANIFEST.json"))]
    assert len(manifests) == 4
    assert {m["seen_buckets"] for m in manifests} == {3}
    buckets = {int(d.rsplit("=", 1)[1]) for d in glob.glob(
        f"{part}/rounds/round=*/seen/b=*")}
    assert buckets and max(buckets) < 3
    pd.testing.assert_frame_equal(read_crawl_order(full),
                                  read_crawl_order(part))


def test_fresh_crawl_ignores_an_earlier_crawls_rounds(ray_session,
                                                     tmp_path):
    """A fresh crawl (no resume) into a directory that holds an earlier,
    longer crawl's rounds, or a crawl of other seeds, and a resume that
    restarts at round 0 after a crawl of other seeds was killed in round
    0, all equal the same crawl into an empty directory: the earlier
    rounds' parts, seen runs and discovered frontier do not leak in."""
    from markdown_lab_ray.pipelines.crawl import (read_crawl_order,
                                                  run_crawl_ray)

    seeds = SPEC.seed_urls()
    short = CFG.update(max_rounds=2, requests_per_second=0.1)
    used, other, killed, empty = (str(tmp_path / d) for d in
                                  ("used", "other", "killed", "empty"))
    run_crawl_ray(WEB, seeds, used, CFG)
    run_crawl_ray(WEB, seeds, used, short)
    assert len(glob.glob(f"{used}/rounds/round=*")) == 2
    run_crawl_ray(WEB, seeds, empty, short)
    pd.testing.assert_frame_equal(read_crawl_order(used),
                                  read_crawl_order(empty))

    run_crawl_ray(WEB, seeds[2:], other, CFG)
    run_crawl_ray(WEB, seeds[:2], other, CFG)
    run_crawl_ray(WEB, seeds[2:], killed, CFG.update(max_rounds=1))
    os.remove(f"{killed}/rounds/round=0/_MANIFEST.json")
    run_crawl_ray(WEB, seeds[:2], killed, CFG, resume=True)
    run_crawl_ray(WEB, seeds[:2], empty, CFG)
    for d in (other, killed):
        pd.testing.assert_frame_equal(read_crawl_order(d),
                                      read_crawl_order(empty))
        for kind in ("docs", "chunks"):
            rows = [sorted(pq.read_table(f"{x}/rounds/round=0/{kind}")
                           .to_pylist(), key=repr) for x in (d, empty)]
            assert rows[0] == rows[1], (d, kind)


def test_frontier_parts_hold_their_bucket_hosts(ray_session, tmp_path):
    """After a ``seen_shards=3`` crawl every ``b<b>-*.parquet`` frontier
    part, discovery's and each round's ``frontier_next/``, holds only
    hosts of host bucket ``b``."""
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.stages.bucketing import key_buckets

    out = str(tmp_path / "crawl")
    result = run_crawl_ray(WEB, SPEC.seed_urls(), out, CFG)
    dirs = [f"{out}/rounds/discovery"] + [
        f"{out}/rounds/round={r}/frontier_next"
        for r in range(result.rounds)]
    seen_buckets = set()
    for d in dirs:
        parts = glob.glob(f"{d}/*.parquet")
        assert parts, d
        for part in parts:
            name = os.path.basename(part)
            assert name.startswith("b"), part
            b = int(name[1:].split("-", 1)[0])
            hosts = pq.read_table(part).column("host").to_numpy(
                zero_copy_only=False)
            assert set(key_buckets(hosts, 3)) == {b}, part
            seen_buckets.add(b)
    assert len(seen_buckets) > 1


def test_crawl_and_health_log_no_schema_drift(ray_session, tmp_path):
    """Every block the crawl's folds emit carries its schema, empty ones
    included: a crawl with the circuit breaker on (the schedule folds,
    whose buckets can schedule nothing, and the breaker's keyed host
    tally fold; some seeds discover nothing) and then ``crawl_health``
    log no "different schema" warning."""
    import logging

    from markdown_lab_ray.pipelines.crawl import crawl_health, run_crawl_ray

    records: list[str] = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    spec = SiteSpec(n_hosts=6, pages_per_host=12, n_images=40,
                    error_host_every=3, redirect_every=4)
    cfg = CFG.update(max_rounds=5, breaker_threshold=4,
                     breaker_cooldown_rounds=1)
    out = str(tmp_path / "crawl")
    handler = Capture()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        result = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(),
                               out, cfg)
        panel = crawl_health(out)
    finally:
        logger.removeHandler(handler)
    assert result.failed > 0 and len(panel) == len(spec.hosts())
    assert not [r for r in records if "different schema" in r]

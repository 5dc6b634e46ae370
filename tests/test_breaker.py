"""Per-host circuit breaker: pure accounting, oracle dynamics, Ray
parity, the all-open sit-out round, and resume.

Reference contract: the reference client backs off per-request
(``markdown_lab/core/client.py`` retry/backoff); the BSP engine lifts
that to round-grained per-host state — ``breaker_threshold``
consecutive failures with no intervening success open the host for
``breaker_cooldown_rounds`` rounds (frontier rows deferred, never
dropped), then half-open with a fresh streak.
"""

import pandas as pd

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb
from markdown_lab_ray.state.politeness import breaker_update

# hosts 0 and 3 serve 503 for every page (robots/sitemaps still OK, so
# they are discovered, scheduled, and then fail every fetch)
SPEC = SiteSpec(n_hosts=6, pages_per_host=12, n_images=40,
                error_host_every=3)
CFG = EngineConfig(requests_per_second=0.1, round_seconds=60.0,  # budget 6
                   max_rounds=7, max_depth=2, seen_shards=4,
                   breaker_threshold=6, breaker_cooldown_rounds=2)


# ---------------------------------------------------------------------------
# pure accounting
# ---------------------------------------------------------------------------

def test_breaker_update_accumulates_and_trips():
    # all-failure rounds extend the streak by the round's failure count
    s, tripped = breaker_update(0, 0, 4, threshold=6)
    assert (s, tripped) == (4, False)
    s, tripped = breaker_update(s, 0, 2, threshold=6)
    assert tripped and s == 0  # trip resets the streak (half-open)


def test_breaker_update_success_closes_streak():
    s, tripped = breaker_update(5, 1, 5, threshold=6)
    assert (s, tripped) == (0, False)  # any ok in the round → closed


def test_breaker_update_disabled():
    s, tripped = breaker_update(10, 0, 10, threshold=0)
    assert not tripped and s == 20


# ---------------------------------------------------------------------------
# oracle dynamics
# ---------------------------------------------------------------------------

def test_oracle_breaker_trip_cooldown_reentry():
    res = run_crawl_oracle(SyntheticWeb(SPEC).resolve, SPEC.seed_urls(), CFG)
    detail = res["order_detail"]
    bad = detail[detail["host"] == "h000.example.com"]
    rounds = sorted(bad["round"].unique())
    # round 0: 6 fetches, all fail, streak hits threshold → trips;
    # rounds 1-2: cooldown (absent); round 3: half-open re-entry with
    # the remaining 6 sitemap rows, trips again; rounds 4-5 absent
    assert rounds == [0, 3]
    assert (bad["status"] == 503).all()
    assert len(bad[bad["round"] == 0]) == 6
    assert len(bad[bad["round"] == 3]) == 6
    # healthy hosts are untouched by the breaker
    good = detail[detail["host"] == "h001.example.com"]
    assert (good["status"] == 200).all()


def test_oracle_breaker_disabled_keeps_retrying():
    cfg = EngineConfig(**{**CFG.__dict__, "breaker_threshold": 0})
    res = run_crawl_oracle(SyntheticWeb(SPEC).resolve, SPEC.seed_urls(), cfg)
    detail = res["order_detail"]
    bad = detail[detail["host"] == "h000.example.com"]
    # without the breaker the 12 sitemap rows drain in rounds 0 and 1
    assert sorted(bad["round"].unique()) == [0, 1]


# ---------------------------------------------------------------------------
# Ray parity
# ---------------------------------------------------------------------------

def test_ray_breaker_matches_oracle(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    oracle = run_crawl_oracle(SyntheticWeb(SPEC).resolve, SPEC.seed_urls(),
                              CFG)
    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(),
                           out, CFG)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    assert result.fetched == oracle["fetched"]
    assert result.failed == oracle["failed"]


def test_ray_all_hosts_open_sits_out_rounds(ray_session, tmp_path):
    """Every host failing → after the trip round NOTHING is schedulable;
    the engine must sit the cooldown out (scheduled=0, deferred>0) and
    resume fetching at half-open re-entry instead of terminating."""
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    spec = SiteSpec(n_hosts=2, pages_per_host=12, n_images=8,
                    error_host_every=1)  # all hosts fail
    cfg = EngineConfig(requests_per_second=0.1, round_seconds=60.0,
                       max_rounds=6, max_depth=2, seen_shards=4,
                       breaker_threshold=6, breaker_cooldown_rounds=2)
    oracle = run_crawl_oracle(SyntheticWeb(spec).resolve, spec.seed_urls(),
                              cfg)
    out = str(tmp_path / "allopen")
    result = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(),
                           out, cfg)
    sched = [m["scheduled"] for m in result.manifest]
    # round 0 fetches+trips, rounds 1-2 sit out with work still pending,
    # round 3 re-enters
    assert sched[0] > 0 and sched[1] == 0 and sched[2] == 0 and sched[3] > 0
    assert result.manifest[1]["deferred"] > 0
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert result.failed == oracle["failed"] and oracle["fetched"] == 0


def test_ray_breaker_resume(ray_session, tmp_path):
    """Kill after the trip round; resume must restore breaker.json and
    converge to the uninterrupted result (cooldown honored, not reset)."""
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    full_dir, part_dir = str(tmp_path / "full"), str(tmp_path / "part")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), full_dir, CFG)

    cfg_half = EngineConfig(**{**CFG.__dict__, "max_rounds": 2})
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg_half)
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  CFG, resume=True)

    full = read_crawl_order(full_dir)
    resumed = read_crawl_order(part_dir)
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))

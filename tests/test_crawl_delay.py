"""Robots ``Crawl-delay`` honoring: parsing, budget math, realtime
pacer override, and Ray-vs-sequential-oracle crawl parity when some
hosts declare a delay."""

import pytest

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb
from markdown_lab_ray.state.politeness import effective_budget
from markdown_lab_ray.state.robots import parse_robots

# hosts 0 and 3 carry "Crawl-delay: 12" -> budget 60/12 = 5 < 6 global
SPEC = SiteSpec(n_hosts=6, pages_per_host=12, n_images=40,
                crawl_delay_every=3, crawl_delay_seconds=12.0)
CFG = EngineConfig(requests_per_second=0.1, round_seconds=60.0,
                   max_rounds=4, max_depth=2, seen_shards=4)


def test_parse_crawl_delay_only_in_star_group():
    r = parse_robots("User-agent: *\nCrawl-delay: 2.5\nDisallow: /x\n")
    assert r.crawl_delay == 2.5
    r = parse_robots("User-agent: googlebot\nCrawl-delay: 7\n"
                     "User-agent: *\nDisallow: /x\n")
    assert r.crawl_delay is None
    assert parse_robots("User-agent: *\nCrawl-delay: nope\n").crawl_delay \
        is None
    assert parse_robots("User-agent: *\nCrawl-delay: -3\n").crawl_delay \
        is None


def test_effective_budget_caps_never_raises():
    assert effective_budget(6, 60.0, None) == 6
    assert effective_budget(6, 60.0, 12.0) == 5
    assert effective_budget(6, 60.0, 100.0) == 1   # >=1: progress
    assert effective_budget(6, 60.0, 0.001) == 6   # never raises


def test_oracle_delay_host_schedules_fewer_per_round():
    fast = run_crawl_oracle(
        SyntheticWeb(SiteSpec(**{**SPEC.__dict__,
                                 "crawl_delay_every": 0})).resolve,
        SPEC.seed_urls(), CFG)
    slow = run_crawl_oracle(SyntheticWeb(SPEC).resolve,
                            SPEC.seed_urls(), CFG)
    d = slow["order_detail"]
    r0 = d[d["round"] == 0].groupby("host").size()
    # delayed hosts (0, 3) capped at 5 in round 0; others keep 6
    assert r0["h000.example.com"] == 5
    assert r0["h003.example.com"] == 5
    assert r0["h001.example.com"] == 6
    # the delay changes crawl order vs the undelayed web
    assert slow["order"] != fast["order"]
    # but nothing is lost — the deferred rows catch up in later rounds
    assert slow["fetched"] == fast["fetched"]


def test_ray_crawl_delay_matches_oracle(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import (read_crawl_order,
                                                  run_crawl_ray)

    oracle = run_crawl_oracle(SyntheticWeb(SPEC).resolve,
                              SPEC.seed_urls(), CFG)
    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(),
                           out, CFG)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    assert result.fetched == oracle["fetched"]


def test_fetch_pacer_uses_delay_rate(ray_session):
    """The realtime pacer's bucket rate for a delayed host is 1/delay,
    not the configured rps (injected clock/sleeper — no real sleeping)."""
    from markdown_lab_ray.pipelines.crawl import FetchStage, _LocalRobotsFactory

    clock_now = [0.0]
    sleeps: list[float] = []

    def clock():
        return clock_now[0]

    def sleeper(s):
        sleeps.append(s)
        clock_now[0] += s

    stage = FetchStage(lambda: SyntheticWeb(SPEC), pacing_rps=1.0,
                       clock=clock, sleeper=sleeper,
                       robots_factory=_LocalRobotsFactory(
                           lambda: SyntheticWeb(SPEC)))
    # delayed host: rate 1/12 -> second acquire waits ~12 s
    stage._pace("h000.example.com")
    stage._pace("h000.example.com")
    assert sum(sleeps) == pytest.approx(12.0, rel=0.01)
    # undelayed host: configured 1 rps -> second acquire waits ~1 s
    sleeps.clear()
    stage._pace("h001.example.com")
    stage._pace("h001.example.com")
    assert sum(sleeps) == pytest.approx(1.0, rel=0.05)

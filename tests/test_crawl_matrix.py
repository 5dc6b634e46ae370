"""Crawl-order parity matrix: Ray engine vs sequential oracle across
politeness budgets, discovery filters and depth limits — the
north-rule equality gate under varied inputs — and the round
manifests' counts against the rounds' schedule parts."""

import glob
import json

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

SPEC = SiteSpec(n_hosts=5, pages_per_host=8, n_images=30)


CASES = [
    # (name, cfg kwargs, discovery filter kwargs)
    ("tight_budget", dict(requests_per_second=0.05, max_rounds=3,
                          max_depth=1), {}),
    ("loose_budget", dict(requests_per_second=1.0, max_rounds=2,
                          max_depth=1), {}),
    ("deep", dict(requests_per_second=0.2, max_rounds=3, max_depth=2), {}),
    ("min_priority", dict(requests_per_second=0.2, max_rounds=2,
                          max_depth=1), dict(min_priority=0.5)),
    ("include_exclude", dict(requests_per_second=0.3, max_rounds=2,
                             max_depth=1),
     dict(include_patterns=[r"/page/[0-6]$"],
          exclude_patterns=[r"/page/3$"])),
    ("limit", dict(requests_per_second=0.3, max_rounds=2, max_depth=1),
     dict(limit=4)),
    ("mid_budget", dict(requests_per_second=0.1, max_rounds=3,
                        max_depth=1), {}),
]


@pytest.mark.parametrize("name,cfg_kwargs,filters",
                         CASES, ids=[c[0] for c in CASES])
def test_parity(ray_session, tmp_path, name, cfg_kwargs, filters):
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    cfg = EngineConfig(seen_shards=2, **cfg_kwargs)
    oracle = run_crawl_oracle(SyntheticWeb(SPEC).resolve, SPEC.seed_urls(),
                              cfg, **filters)
    out = str(tmp_path / name)
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, cfg,
                  **filters)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"], name
    assert set(order["seen_key"]) == oracle["seen"], name
    _assert_manifest_counts(out)


def _assert_manifest_counts(out: str) -> list[dict]:
    """Each round manifest's ``scheduled`` and ``deferred`` equal the
    counts in that round's ``schedule/`` parts; returns the manifests."""
    manifests = []
    for rdir in sorted(glob.glob(f"{out}/rounds/round=*"),
                       key=lambda d: int(d.rsplit("=", 1)[1])):
        with open(f"{rdir}/_MANIFEST.json") as f:
            m = json.load(f)
        # a round whose frontier was all seen writes no schedule part
        parts = glob.glob(f"{rdir}/schedule/*.parquet")
        sched = (pq.read_table(f"{rdir}/schedule").column("scheduled")
                 if parts else [])
        n_scheduled = pc.sum(sched).as_py() if parts else 0
        assert m["scheduled"] == n_scheduled, rdir
        assert m["deferred"] == len(sched) - n_scheduled, rdir
        manifests.append(m)
    assert manifests
    return manifests


def test_manifest_counts_when_only_breaker_open_hosts_are_left(
        ray_session, tmp_path):
    """Every host fails, so after the trip round only breaker-open hosts
    are left: those rounds schedule nothing, and their manifests still
    count the deferred rows of their schedule parts."""
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray

    spec = SiteSpec(n_hosts=2, pages_per_host=12, n_images=8,
                    error_host_every=1)
    cfg = EngineConfig(requests_per_second=0.1, round_seconds=60.0,
                       max_rounds=4, max_depth=2, seen_shards=2,
                       breaker_threshold=6, breaker_cooldown_rounds=2)
    out = str(tmp_path / "allopen")
    run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg)
    manifests = _assert_manifest_counts(out)
    idle = [m for m in manifests if m["scheduled"] == 0]
    assert idle and all(m["deferred"] > 0 for m in idle)

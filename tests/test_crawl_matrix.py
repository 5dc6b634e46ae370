"""Crawl-order parity matrix: Ray engine vs sequential oracle across
politeness budgets, discovery filters and depth limits — the
north-rule equality gate under varied inputs."""

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

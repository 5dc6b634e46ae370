"""The benchmark's two workloads and the closed forms their outputs
must meet.

Every input is a pure function of the workload and ``--seed``: the seed
goes into ``SiteSpec(seed=...)`` (page text, image picks) and into the
order of the convert links list.  Iteration ``i`` of a run uses
``iteration_seed(seed, i)`` so that no iteration re-converts a page an
earlier one converted; the engine memoizes conversions per worker
process, and a repeated page would time the memo, not the convert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.sources.synth import SiteSpec

# Logical CPUs of the benchmark's Ray session: fixed, so the engine's
# block counts and pool sizes do not follow the machine.
RAY_CPUS = 1
SEEN_SHARDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "crawl" or "convert"
    n_hosts: int
    pages_per_host: int
    budget: int = 0        # per-host fetches per round (crawl only)
    max_rounds: int = 0
    iterations: int = 1    # measured repetitions per run


WORKLOADS = {
    # Few hosts whose sitemaps are 100x their round budget: each round
    # probes and schedules a frontier far larger than what it fetches,
    # while the 180 pages it does fetch still run the whole convert path.
    "crawl_hot_frontier": Workload("crawl_hot_frontier", "crawl",
                                   n_hosts=4, pages_per_host=1500,
                                   budget=15, max_rounds=3, iterations=5),
    # The `mlab batch links.txt` path: no discovery, seen set or
    # schedule; kernels and file writes do all the work.
    "convert_batch": Workload("convert_batch", "convert", n_hosts=8,
                              pages_per_host=60, iterations=10),
}

# Tiny variants: the smoke run's sizes, and (one round of them) the
# untimed priming pass that loads every engine code path into the Ray
# workers before the measured iterations.
TINY = {
    "crawl_hot_frontier": Workload("crawl_hot_frontier", "crawl",
                                   n_hosts=2, pages_per_host=40, budget=2,
                                   max_rounds=3),
    "convert_batch": Workload("convert_batch", "convert", n_hosts=2,
                              pages_per_host=5),
}


def iteration_seed(seed: int, iteration: int) -> int:
    return seed * 1000 + iteration


def site_spec(w: Workload, seed: int) -> SiteSpec:
    return SiteSpec(n_hosts=w.n_hosts, pages_per_host=w.pages_per_host,
                    n_images=50, seed=seed)


def engine_config(w: Workload) -> EngineConfig:
    """Crawl config: ``round_budget(1.0, budget) == budget``.  The
    synthetic web is a pure function, so fetches run as tasks on the
    warm pool (the engine's documented mode for such resolvers).  The
    seen filter is sized to the workload's distinct URLs."""
    capacity = 1
    while capacity < w.n_hosts * w.pages_per_host:
        capacity *= 2
    return EngineConfig(requests_per_second=1.0,
                        round_seconds=float(max(w.budget, 1)),
                        max_rounds=max(w.max_rounds, 1),
                        max_depth=2, seen_shards=SEEN_SHARDS,
                        seen_capacity_per_shard=capacity,
                        fetch_mode="tasks")


def convert_links(w: Workload, spec: SiteSpec, seed: int) -> list[str]:
    """The links list: every page of every host, in a seeded order."""
    urls = [spec.page_url(i, j) for i in range(w.n_hosts)
            for j in range(w.pages_per_host)]
    random.Random(seed).shuffle(urls)
    return urls


def expected_counts(w: Workload) -> dict:
    """Closed form of the schedule: {round: {host: (scheduled,
    deferred)}}.  Every link a page carries points at a page of some
    host's sitemap, so after intra-round dedup and the seen filter a
    host's candidates in round ``r`` are exactly its ``P - r*B`` unfetched
    sitemap rows; the budget takes ``min(B, P - r*B)`` of them."""
    spec = SiteSpec(n_hosts=w.n_hosts, pages_per_host=w.pages_per_host)
    out = {}
    for r in range(w.max_rounds):
        per_host = {}
        for host in spec.hosts():
            remaining = w.pages_per_host - r * w.budget
            if remaining > 0:
                sched = min(w.budget, remaining)
                per_host[host] = (sched, remaining - sched)
        if not per_host:
            break
        out[r] = per_host
    return out

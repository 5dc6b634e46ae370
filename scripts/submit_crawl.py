"""Cluster job entry for the crawl (north_rule: ``ray job submit``).

On a real multi-node cluster:

    ray job submit --working-dir /root/repo -- \
        python scripts/submit_crawl.py --out /shared/crawl \
            --hosts 128 --pages 2000 --rps 2.0 --max-rounds 10

In this sandbox it runs against the local session.  The script owns the
Ray session (``ray.init`` with no address inside a job context attaches
to the submitting cluster; ``RAY_ADDRESS=local`` here).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--hosts", type=int, default=32)
    parser.add_argument("--pages", type=int, default=100)
    parser.add_argument("--images", type=int, default=500)
    parser.add_argument("--rps", type=float, default=2.0)
    parser.add_argument("--max-rounds", type=int, default=5)
    parser.add_argument("--max-depth", type=int, default=2)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(n_hosts=args.hosts, pages_per_host=args.pages,
                    n_images=args.images)
    cfg = EngineConfig.from_env(
        requests_per_second=args.rps, max_rounds=args.max_rounds,
        max_depth=args.max_depth)

    t0 = time.time()
    res = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(),
                        args.out, cfg, resume=args.resume)
    print(json.dumps({
        "rounds": res.rounds, "fetched": res.fetched, "failed": res.failed,
        "sec": round(time.time() - t0, 2),
        "pages_per_sec": round(res.fetched / max(time.time() - t0, 1e-9), 2),
        "manifest": res.manifest,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

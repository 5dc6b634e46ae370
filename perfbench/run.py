"""Layered crawl-and-convert benchmark.

    python3 perfbench/run.py --workload crawl_hot_frontier --seed 1 --seconds 60 --trace 0

Runs one workload (``crawl_hot_frontier`` or ``convert_batch``, see
``workloads.py``) through the public entry points
``run_crawl_ray`` / ``run_batch_convert`` on a fresh local Ray session
with a fixed logical CPU count.  Every iteration's output is checked
(``checks.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``), each a
median over the run's iterations.  Each workload runs a fixed number of
iterations; ``--seconds`` caps them, so that no iteration starts that
would end the run, set-up and checks included, past it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import markdown_lab_ray  # noqa: E402

if not os.path.abspath(markdown_lab_ray.__file__).startswith(ROOT + os.sep):
    sys.exit(f"markdown_lab_ray is not in this checkout ({ROOT})")

from markdown_lab_ray.kernels.sitemap import parse_links_file  # noqa: E402
from markdown_lab_ray.pipelines.convert import run_batch_convert  # noqa: E402
from markdown_lab_ray.pipelines.crawl import run_crawl_ray  # noqa: E402
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle  # noqa: E402
from markdown_lab_ray.sources.synth import SyntheticWeb  # noqa: E402

from perfbench import checks, trace  # noqa: E402
from perfbench.workloads import (RAY_CPUS, TINY, WORKLOADS,  # noqa: E402
                                 convert_links, engine_config,
                                 expected_counts, iteration_seed, site_spec)

END_TO_END = {"setup_s": "s", "pages_per_s": "pages/s",
              "frontier_rows_per_s": "rows/s", "round_s": "s"}
SETUPS = 3            # set-ups per run; setup_s is their median
SHUTDOWN_RESERVE_S = 2.5
REPLAY_RESERVE_S = 5.0  # traced runs replay kernels and state at the end
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# about 62 bytes below its temp dir.
MAX_RAY_TEMP_DIR = 44


def per_layer_names() -> dict:
    """Every per-layer metric and its unit (the ``--trace 1`` output)."""
    names = {f"crawl.{p}_s": "s" for p in
             ("discovery",) + trace.PHASES + ("round_other",
                                              "sequential_oracle")}
    for group, _ in trace.OPERATOR_GROUPS + (("other", ()),):
        if group != "shuffle":
            names[f"ray.{group}.wall_s"] = "s"
        if group not in ("shuffle", "seen_filter"):
            names[f"ray.{group}.cpu_s"] = "s"
        names[f"ray.{group}.rows_in"] = "rows"
    names.update({
        "ray.worker_processes_peak": "count", "ray.rss_mb_peak": "MB",
        "kernels.parse_us_per_page": "us", "kernels.links_us_per_page": "us",
        "kernels.render_us_per_page": "us", "kernels.chunk_us_per_page": "us",
        "kernels.sitemap_us_per_entry": "us",
        "sources.fetch_us_per_page": "us",
        "state.seen_probe_us_per_key": "us",
        "state.seen_mark_us_per_key": "us",
        "state.seen_exact_share": "share", "state.seen_bytes_per_key": "B",
        "state.schedule_us_per_row": "us",
        "state.robots_resolves_per_host": "count",
        "trace.pages_per_s": "pages/s",
    })
    return names


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

def _warm_worker(batch):
    import markdown_lab_ray.pipelines.convert  # noqa: F401
    import markdown_lab_ray.pipelines.crawl  # noqa: F401
    return batch


def start_ray(tmp: str, traced: bool) -> None:
    import ray
    from ray.data import DataContext

    # workers import the engine and this package from the checkout
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths
                                                             if p])
    ray_tmp = os.path.join(tmp, "ray")
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 2**20,
             _temp_dir=ray_tmp if len(ray_tmp) <= MAX_RAY_TEMP_DIR else None)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = traced
    import ray.data as rd
    n = RAY_CPUS * 2
    rd.range(n, override_num_blocks=n).map_batches(
        _warm_worker, batch_size=1).count()


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut the session down and wait until every process it started
    has exited."""
    import ray

    pids = trace.descendants(os.getpid())
    ray.shutdown()
    deadline = time.perf_counter() + timeout_s
    while pids and time.perf_counter() < deadline:
        pids = [p for p in pids if os.path.exists(f"/proc/{p}")
                and not _is_zombie(p)]
        time.sleep(0.05)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

def make_inputs(w, seed: int, tmp: str):
    """(spec, seed urls or links list) for one iteration.  The links
    list goes through a links.txt file, as `mlab batch links.txt` reads
    it."""
    spec = site_spec(w, seed)
    if w.kind == "crawl":
        return spec, spec.seed_urls()
    path = os.path.join(tmp, f"links-{seed}.txt")
    with open(path, "w") as f:
        f.write("# convert_batch links\n"
                + "\n".join(convert_links(w, spec, seed)) + "\n")
    with open(path) as f:
        return spec, parse_links_file(f.read())


def run_iteration(w, spec, urls, out_dir: str, capture) -> dict:
    cfg = engine_config(w)
    robots_log = out_dir + ".robots"
    factory = (trace.CountingWebFactory(spec, robots_log) if capture
               else functools.partial(SyntheticWeb, spec))
    layers = {}
    if w.kind == "crawl":
        t0 = time.perf_counter()
        result = run_crawl_ray(factory, urls, out_dir, cfg)
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        oracle = run_crawl_oracle(SyntheticWeb(spec).resolve, urls, cfg)
        oracle_s = time.perf_counter() - t0
        attempted, failed = checks.check_crawl(
            out_dir, oracle, expected_counts(w), w.pages_per_host)
        rows = sum(m["scheduled"] + m["deferred"] for m in result.manifest)
        metrics = {"frontier_rows_per_s": rows / wall,
                   "round_s": (wall - result.t_discovery) / result.rounds}
        if capture:
            layers = trace.crawl_phases(result, wall)
            layers["crawl.sequential_oracle_s"] = oracle_s
    else:
        t0 = time.perf_counter()
        run_batch_convert(factory, urls, out_dir, fmt="markdown",
                          save_chunks=True, cfg=cfg)
        wall = time.perf_counter() - t0
        attempted, failed = checks.check_convert(out_dir, urls,
                                                 w.pages_per_host)
        # the links list is the batch path's single depth-0 round
        metrics = {"frontier_rows_per_s": len(urls) / wall, "round_s": wall}
    metrics["pages_per_s"] = (attempted - failed) / wall
    if capture:
        layers.update(capture.take())
        layers["state.robots_resolves_per_host"] = (
            trace.robots_resolves_per_host(robots_log, w.n_hosts))
        layers["trace.pages_per_s"] = metrics["pages_per_s"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "layers": layers}


def replay(w, spec, urls, out_dir: str) -> dict:
    """Kernel, source and state replays over the last iteration's inputs."""
    cfg = engine_config(w)
    if w.kind == "crawl":
        pages = [loc for loc, _ in
                 checks.crawl_order(checks.read_schedule(out_dir))]
        rounds = trace.crawl_key_stream(out_dir, spec)
    else:
        pages = urls
        rounds = trace.convert_key_stream(urls)
    out = trace.kernel_replay(spec, pages, cfg)
    out.update(trace.state_replay(rounds, cfg, w.budget))
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (see smoke.py)")
    return p.parse_args(argv)


def run(args) -> dict:
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    deadline = T_START + args.seconds - SHUTDOWN_RESERVE_S - (
        REPLAY_RESERVE_S if args.trace else 0.0)
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    capture = trace.RayStatsCapture() if args.trace else None
    ray_up = False
    try:
        setup_times = []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            start_ray(tmp, bool(args.trace))
            ray_up = True
            inputs = make_inputs(w, iteration_seed(args.seed, 0), tmp)
            setup_times.append(time.perf_counter() - t0)
            print(f"setup {k}: {setup_times[-1]:.2f} s", file=sys.stderr)
            if k < SETUPS - 1:
                stop_ray()
                ray_up = False
        prime = dataclasses.replace(TINY[w.name], max_rounds=1)
        run_iteration(prime, *make_inputs(prime, args.seed, tmp),
                      os.path.join(tmp, "prime"), None)
        if capture:
            logging.getLogger("ray.data").addHandler(capture)

        iterations = []
        sampler = trace.ProcSampler() if args.trace else None
        cost = 0.0
        with sampler or contextlib.nullcontext():
            for i in range(w.iterations):
                t0 = time.perf_counter()
                if i:
                    shutil.rmtree(out_dir)
                    inputs = make_inputs(w, iteration_seed(args.seed, i), tmp)
                out_dir = os.path.join(tmp, f"iter{i}")
                iterations.append(run_iteration(w, *inputs, out_dir, capture))
                cost = max(cost, time.perf_counter() - t0)
                print(f"iteration {i}: {time.perf_counter() - t0:.2f} s with "
                      f"checks, {iterations[-1]['metrics']}", file=sys.stderr)
                if time.perf_counter() + cost > deadline:
                    break  # the run length caps the measured iterations
        if capture:
            logging.getLogger("ray.data").removeHandler(capture)
        stop_ray()
        ray_up = False

        result = {"correct": True,
                  "attempted": sum(it["attempted"] for it in iterations),
                  "failed": sum(it["failed"] for it in iterations)}
        if args.trace:
            names = per_layer_names()
            layers = {name: statistics.median(
                it["layers"].get(name, 0.0) for it in iterations)
                for name in names}
            layers.update(sampler.metrics())
            layers.update(replay(w, *inputs, out_dir))
            result["metrics"] = {n: {"value": layers[n], "unit": u}
                                 for n, u in names.items()}
        else:
            values = {n: statistics.median(it["metrics"][n]
                                           for it in iterations)
                      for n in END_TO_END if n != "setup_s"}
            values["setup_s"] = statistics.median(setup_times)
            result["metrics"] = {n: {"value": values[n], "unit": u}
                                 for n, u in END_TO_END.items()}
        return result
    finally:
        if ray_up:
            stop_ray()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}), flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

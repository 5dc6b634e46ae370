"""Smoke run of the benchmark at tiny sizes; exits non-zero on any fault.

    python3 perfbench/smoke.py

1. Runs every workload through ``run.py --tiny`` untraced and traced, and
   requires exit 0, ``correct`` true, no failed operation and exactly the
   metric names ``BENCHMARK.json`` declares.
2. Feeds the checks wrong expectations (a permuted oracle order, a
   missing seen key, an off-by-one closed form, a page with its code
   block removed, an empty document) and requires each to be caught.
3. Requires ``run.py`` to exit non-zero, printing no result, in a copy of
   the benchmark without the engine beside it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import checks  # noqa: E402
from perfbench.run import start_ray, stop_ray  # noqa: E402
from perfbench.workloads import (TINY, engine_config,  # noqa: E402
                                 expected_counts, site_spec)


def _run_cli(cwd: str, workload: str, traced: int):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(traced), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_cli() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    for workload in sorted(TINY):
        for traced in (0, 1):
            proc = _run_cli(ROOT, workload, traced)
            assert proc.returncode == 0, (workload, traced, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            assert set(result["metrics"]) == declared[traced], (
                workload, set(result["metrics"]) ^ declared[traced])
            print(f"ok: {workload} --trace {traced}")


def _expect_caught(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailed:
        print(f"ok: caught {what}")
        return
    raise AssertionError(f"check missed {what}")


def check_negative(tmp: str) -> None:
    from markdown_lab_ray.pipelines.convert import run_batch_convert
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
    from markdown_lab_ray.sources.synth import SyntheticWeb

    start_ray(tmp, traced=False)
    try:
        w = TINY["crawl_hot_frontier"]
        spec, cfg = site_spec(w, 5), engine_config(w)
        out = os.path.join(tmp, "crawl")
        run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg)
        oracle = run_crawl_oracle(SyntheticWeb(spec).resolve,
                                  spec.seed_urls(), cfg)
        expected = expected_counts(w)
        checks.check_crawl(out, oracle, expected, w.pages_per_host)

        permuted = dict(oracle, order=list(oracle["order"]))
        permuted["order"][0], permuted["order"][1] = (permuted["order"][1],
                                                      permuted["order"][0])
        _expect_caught("a permuted oracle order", lambda: checks.check_crawl(
            out, permuted, expected, w.pages_per_host))
        short = dict(oracle, seen=set(sorted(oracle["seen"])[1:]))
        _expect_caught("a missing seen key", lambda: checks.check_crawl(
            out, short, expected, w.pages_per_host))
        wrong = copy.deepcopy(expected)
        host = sorted(wrong[0])[0]
        wrong[0][host] = (wrong[0][host][0] + 1, wrong[0][host][1] - 1)
        _expect_caught("an off-by-one closed form", lambda: checks.check_crawl(
            out, oracle, wrong, w.pages_per_host))

        w = TINY["convert_batch"]
        spec, cfg = site_spec(w, 5), engine_config(w)
        urls = [spec.page_url(i, j) for i in range(w.n_hosts)
                for j in range(w.pages_per_host)]
        out = os.path.join(tmp, "convert")
        run_batch_convert(lambda: SyntheticWeb(spec), urls, out,
                          save_chunks=True, cfg=cfg)
        assert checks.check_convert(out, urls, w.pages_per_host) == (
            len(urls), 0)
        path = os.path.join(out, "rendered",
                            checks.expected_filename(urls[0]))
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace("```", "~~~"))
        _expect_caught("a page without its code block",
                       lambda: checks.check_convert(out, urls,
                                                    w.pages_per_host))
        assert not checks.check_page(urls[0], checks.EMPTY_TITLE,
                                     "# No Title\n", w.pages_per_host)
        print("ok: the empty document counts as a failed operation")
    finally:
        stop_ray()


def check_bare_copy(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run_cli(bare, "convert_batch", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: fails without the engine")


def main() -> int:
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"smoke-{os.getpid()}")
    os.makedirs(tmp)
    try:
        check_bare_copy(tmp)
        check_negative(tmp)
        check_cli()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer numbers, all taken from outside the engine: the per-round
``_MANIFEST.json`` files and ``CrawlResult``, Ray Data's own operator
stats (its auto-logged stats records), ``/proc``, and timed replays of
the public ``kernels``, ``state`` and ``sources`` functions over the
workload's own inputs.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import tracemalloc
from collections import defaultdict

import pandas as pd

from markdown_lab_ray.kernels.chunker import create_semantic_chunks
from markdown_lab_ray.kernels.html_kernels import (extract_links,
                                                   parse_html_to_document)
from markdown_lab_ray.kernels.render import document_to_markdown
from markdown_lab_ray.kernels.urls import get_domain_from_url, url_seen_key
from markdown_lab_ray.pipelines.crawl_spec import discover_seed_frontier
from markdown_lab_ray.sources.synth import SyntheticWeb
from markdown_lab_ray.state.politeness import schedule_group
from markdown_lab_ray.state.robots import LocalRobotsCache
from markdown_lab_ray.state.seen import LocalSeen

from .checks import read_table, round_dirs

PHASES = ("schedule", "fetch_convert", "links_frontier", "checkpoint_wait")


def crawl_phases(result, wall_s: float) -> dict:
    """Phase seconds summed over rounds, from the round manifests."""
    out = {f"crawl.{p}_s": 0.0 for p in PHASES}
    for _, rdir in round_dirs(result.out_dir):
        with open(os.path.join(rdir, "_MANIFEST.json")) as f:
            timings = json.load(f).get("timings", {})
        for p in PHASES:
            out[f"crawl.{p}_s"] += timings.get(p, 0.0)
    out["crawl.discovery_s"] = result.t_discovery
    out["crawl.round_other_s"] = (wall_s - result.t_discovery
                                  - sum(out[f"crawl.{p}_s"] for p in PHASES))
    return out


# ---------------------------------------------------------------------------
# Ray Data operator stats
# ---------------------------------------------------------------------------

# Operator-name patterns → layer, first match wins (fused operators
# carry every stage name, e.g. SeenProbe->fetch_convert_batch->Write).
# Sort and Repartition are the all-to-all shuffles of groupby(host) and
# of the fetch repartition.
OPERATOR_GROUPS = (
    ("fetch_convert", ("fetch_convert_batch", "_fetch_render_batch")),
    ("links", ("links_explode_batch",)),
    ("schedule", ("MapBatches(process)",)),
    ("shuffle", ("Sort", "Repartition")),
    ("discover", ("discover_batch",)),
    ("seen_filter", ("SeenProbe",)),
    ("checkpoint", ("Write", "write_batch")),
    ("read", ("ReadParquet",)),
)
_COMPLETED_RE = re.compile(
    r"^Operator \w+\[(?P<name>.*)\] completed\. Operator Metrics:\n")
_WALL_RE = re.compile(r"'block_generation_time': (?P<v>[0-9.e+-]+)")
_ROWS_RE = re.compile(r"'num_row_inputs_received': (?P<v>\d+)")
_SUMMARY_RE = re.compile(r"^Operator \d+ (?P<name>\S+): ")
_CPU_RE = re.compile(
    r"\* Remote cpu time: .*, (?P<v>[0-9.]+)(?P<u>us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_group(name: str) -> str:
    for group, patterns in OPERATOR_GROUPS:
        if any(p in name for p in patterns):
            return group
    return "other"


class RayStatsCapture(logging.Handler):
    """Collects Ray Data's stats records while ``enable_auto_log_stats``
    is on.  Per operator: remote wall seconds and rows in come from the
    "completed" metrics record every operator logs; remote CPU seconds
    only from the summary Ray logs for the last operator of each
    execution (a duplicated summary is counted once)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.values = defaultdict(float)
        self._seen_summaries: set[str] = set()

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        m = _COMPLETED_RE.match(msg)
        if m:
            if m.group("name") == "Input":
                return
            group = operator_group(m.group("name"))
            wall, rows = _WALL_RE.search(msg), _ROWS_RE.search(msg)
            if wall:
                self.values[f"ray.{group}.wall_s"] += float(wall.group("v"))
            if rows:
                self.values[f"ray.{group}.rows_in"] += int(rows.group("v"))
            return
        m = _SUMMARY_RE.match(msg)
        if m and msg not in self._seen_summaries:
            self._seen_summaries.add(msg)
            cpu = _CPU_RE.search(msg.split("\n\n", 1)[0])
            if cpu:
                self.values[f"ray.{operator_group(m.group('name'))}.cpu_s"] += (
                    float(cpu.group("v")) * _UNIT[cpu.group("u")])

    def take(self) -> dict:
        out, self.values = dict(self.values), defaultdict(float)
        self._seen_summaries.clear()
        return out


# ---------------------------------------------------------------------------
# Ray processes, from /proc
# ---------------------------------------------------------------------------

def _children_map() -> dict:
    kids = defaultdict(list)
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids[ppid].append(int(pid))
    return kids


def descendants(root: int) -> list[int]:
    kids, out, todo = _children_map(), [], [root]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def _rss_kb_and_cmd(pid: int):
    try:
        with open(f"/proc/{pid}/status") as f:
            rss = next((int(line.split()[1]) for line in f
                        if line.startswith("VmRSS:")), 0)
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read().split(b"\0", 1)[0].decode(errors="replace")
    except (OSError, ValueError):
        return 0, ""
    return rss, cmd


class ProcSampler:
    """Samples the Ray processes under this one every ``period`` s:
    peak count of worker processes (process title ``ray::...``) and
    peak summed VmRSS of all of them (GCS, raylet, agents, workers)."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.workers_peak = 0
        self.rss_kb_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        workers = rss = 0
        for pid in descendants(os.getpid()):
            kb, cmd = _rss_kb_and_cmd(pid)
            rss += kb
            workers += cmd.startswith("ray::")
        self.workers_peak = max(self.workers_peak, workers)
        self.rss_kb_peak = max(self.rss_kb_peak, rss)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def metrics(self) -> dict:
        return {"ray.worker_processes_peak": self.workers_peak,
                "ray.rss_mb_peak": self.rss_kb_peak / 1024}


# ---------------------------------------------------------------------------
# robots.txt fetches seen by the engine's resolver
# ---------------------------------------------------------------------------

class CountingWebFactory:
    """Web factory for traced runs: the synthetic web, plus one line per
    robots.txt fetch appended to ``log_path`` (O_APPEND, so lines from
    concurrent worker processes do not interleave)."""

    def __init__(self, spec, log_path: str):
        self.spec = spec
        self.log_path = log_path

    def __call__(self):
        return _CountingWeb(self.spec, self.log_path)


class _CountingWeb(SyntheticWeb):
    def __init__(self, spec, log_path: str):
        super().__init__(spec)
        self.log_path = log_path

    def resolve(self, url: str):
        if url.endswith("/robots.txt"):
            with open(self.log_path, "a") as f:
                f.write(url + "\n")
        return super().resolve(url)


def robots_resolves_per_host(log_path: str, n_hosts: int) -> float:
    if not os.path.exists(log_path):
        return 0.0
    with open(log_path) as f:
        return sum(1 for _ in f) / n_hosts


# ---------------------------------------------------------------------------
# in-process replays of kernels, sources and state
# ---------------------------------------------------------------------------

def _us_per(fn, items, n_units=None, repeat: int = 3) -> float:
    """Best-of-``repeat`` µs per unit of ``fn`` over ``items``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6 / (n_units or len(items))


def kernel_replay(spec, urls: list[str], cfg) -> dict:
    """µs per page of the synthetic fetch and each convert kernel over
    the pages the workload converted, and µs per discovered sitemap row."""
    web = SyntheticWeb(spec)
    pages = [(u, web.resolve(u)[1]) for u in urls]
    docs = [(u, parse_html_to_document(h, u)) for u, h in pages]
    mds = [(u, document_to_markdown(d)) for u, d in docs]
    seeds = list(enumerate(spec.seed_urls()))
    n_rows = sum(len(discover_seed_frontier(
        web.resolve, LocalRobotsCache(web.resolve), s, i)) for i, s in seeds)
    return {
        "sources.fetch_us_per_page": _us_per(web.resolve, urls),
        "kernels.parse_us_per_page": _us_per(
            lambda p: parse_html_to_document(p[1], p[0]), pages),
        "kernels.links_us_per_page": _us_per(
            lambda p: extract_links(p[1], p[0]), pages),
        "kernels.render_us_per_page": _us_per(
            lambda d: document_to_markdown(d[1]), docs),
        "kernels.chunk_us_per_page": _us_per(
            lambda m: create_semantic_chunks(m[1], m[0], cfg.chunk_size,
                                             cfg.chunk_overlap), mds),
        "kernels.sitemap_us_per_entry": _us_per(
            lambda s: discover_seed_frontier(
                web.resolve, LocalRobotsCache(web.resolve), s[1], s[0]),
            seeds, n_units=n_rows),
    }


def crawl_key_stream(out_dir: str, spec):
    """Per round: (probe keys, mark keys, schedule rows).  Round 0 probes
    the discovered frontier, later rounds the previous round's
    ``frontier_next``; marks are the round's scheduled keys; schedule
    rows are the round's deduplicated, unseen candidates."""
    web = SyntheticWeb(spec)
    robots = LocalRobotsCache(web.resolve)
    probe = [r["seen_key"] for i, s in enumerate(spec.seed_urls())
             for r in discover_seed_frontier(web.resolve, robots, s, i)]
    rounds = []
    for _, rdir in round_dirs(out_dir):
        sched = read_table(os.path.join(rdir, "schedule"))
        rows = sched.to_pandas() if sched is not None else None
        marks = ([] if rows is None
                 else rows.loc[rows["scheduled"], "seen_key"].tolist())
        rounds.append((probe, marks, rows))
        nxt = read_table(os.path.join(rdir, "frontier_next"), ["seen_key"])
        probe = [] if nxt is None else nxt.column("seen_key").to_pylist()
    return rounds


def convert_key_stream(urls: list[str]):
    """The batch path has no crawl state; its stream is the links list
    probed, marked, and scheduled as one round with room for every row."""
    keys = [url_seen_key(u) for u in urls]
    rows = pd.DataFrame({"loc": urls, "priority": [None] * len(urls),
                         "seq_no": range(len(urls)), "seen_key": keys,
                         "host": [get_domain_from_url(u) for u in urls]})
    return [(keys, keys, rows)]


def state_replay(rounds, cfg, budget: int) -> dict:
    """µs per key of seen probes and marks, µs per row of the per-host
    schedule, the filter's pass-through share and bytes per marked key,
    over the rounds of a key stream."""
    capacity = cfg.seen_capacity_per_shard * cfg.seen_shards
    seen = LocalSeen(capacity, cfg.seed)
    probe_s = mark_s = sched_s = 0.0
    n_probe = n_mark = n_rows = n_exact = 0
    for round_no, (probe, marks, rows) in enumerate(rounds):
        n_exact += sum(1 for k in probe
                       if not seen.filter_ok or seen.filter.contains(k))
        t0 = time.perf_counter()
        seen.contains_many(probe)
        probe_s += time.perf_counter() - t0
        if rows is not None and len(rows):
            groups = [g.drop(columns=["scheduled", "fetch_order"],
                             errors="ignore")
                      for _, g in rows.groupby("host", sort=True)]
            t0 = time.perf_counter()
            for g in groups:
                schedule_group(g, budget or len(g))
            sched_s += time.perf_counter() - t0
            n_rows += len(rows)
        t0 = time.perf_counter()
        seen.check_and_add(marks, round_no)
        mark_s += time.perf_counter() - t0
        n_probe += len(probe)
        n_mark += len(marks)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mem_seen = LocalSeen(capacity, cfg.seed)
        for round_no, (_, marks, _) in enumerate(rounds):
            mem_seen.check_and_add(marks, round_no)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return {
        "state.seen_probe_us_per_key": probe_s * 1e6 / max(n_probe, 1),
        "state.seen_mark_us_per_key": mark_s * 1e6 / max(n_mark, 1),
        "state.seen_exact_share": n_exact / max(n_probe, 1),
        "state.seen_bytes_per_key": used / max(mem_seen.size(), 1),
        "state.schedule_us_per_row": sched_s * 1e6 / max(n_rows, 1),
    }

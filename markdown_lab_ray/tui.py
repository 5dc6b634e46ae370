"""Terminal UI for watching a crawl/convert output directory.

Re-expresses the reference's textual TUI (reference ``tui.py:432-821``
— a tabbed app with conversion status, batch progress, a log pane and
a config view) on the stdlib ``curses`` this container actually ships
(textual/rich are absent, and the engine's unit of progress is a crawl
output dir rather than one in-flight URL).

Architecture follows the repo's testability rule: ALL screen content
comes from pure functions over a snapshot dataclass
(``collect_status`` → ``render_screen``), so tests exercise the full
render without a terminal; the curses loop is a thin pager on top.
``mlab tui --once`` prints a single rendered frame to stdout
(CI-friendly, used by the tests); interactive mode refreshes once a
second and handles q / 1-3 / r.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field

TABS = ("status", "rounds", "config")


@dataclass
class CrawlSnapshot:
    """Pure data pulled from one crawl output directory."""

    out_dir: str
    exists: bool = False
    finished: bool = False
    rounds: list = field(default_factory=list)  # [{round, scheduled, ...}]
    totals: dict = field(default_factory=dict)
    partial_rounds: list = field(default_factory=list)


def collect_status(out_dir: str) -> CrawlSnapshot:
    """Read round manifests + the finish marker (no Ray session)."""
    snap = CrawlSnapshot(out_dir=out_dir)
    round_dirs = sorted(
        glob.glob(os.path.join(out_dir, "rounds", "round=*")),
        key=lambda p: int(p.rsplit("=", 1)[1]))
    crawl_json = os.path.join(out_dir, "_CRAWL.json")
    if not round_dirs and not os.path.exists(crawl_json):
        return snap
    snap.exists = True
    snap.finished = os.path.exists(crawl_json)
    totals = {"scheduled": 0, "fetched": 0, "failed": 0, "deferred": 0}
    for rdir in round_dirs:
        round_no = int(rdir.rsplit("=", 1)[1])
        manifest = os.path.join(rdir, "_MANIFEST.json")
        if not os.path.exists(manifest):
            snap.partial_rounds.append(round_no)
            continue
        with open(manifest) as f:
            entry = json.load(f)
        entry["round"] = round_no
        snap.rounds.append(entry)
        for key in totals:
            totals[key] += entry.get(key, 0)
    snap.totals = totals
    return snap


def _bar(frac: float, width: int) -> str:
    frac = min(max(frac, 0.0), 1.0)
    fill = int(round(frac * width))
    return "[" + "#" * fill + "-" * (width - fill) + "]"


def render_status_lines(snap: CrawlSnapshot, width: int = 80) -> list:
    """Tab 1 — the reference's ConversionStatus pane, crawl-shaped."""
    lines = [f"output: {snap.out_dir}"]
    if not snap.exists:
        lines.append("(no crawl output here yet)")
        return lines
    t = snap.totals
    state = "FINISHED" if snap.finished else "IN PROGRESS / KILLED"
    lines.append(f"state:  {state}   rounds: {len(snap.rounds)}"
                 + (f"   partial: {snap.partial_rounds}"
                    if snap.partial_rounds else ""))
    sched = t.get("scheduled", 0)
    done = t.get("fetched", 0) + t.get("failed", 0)
    frac = (done / sched) if sched else 0.0
    lines.append(f"fetch   {_bar(frac, max(10, width - 30))} "
                 f"{done}/{sched}")
    lines.append(f"fetched: {t.get('fetched', 0)}   "
                 f"failed: {t.get('failed', 0)}   "
                 f"deferred: {t.get('deferred', 0)}")
    if snap.rounds:
        last = snap.rounds[-1]
        timings = last.get("timings") or {}
        if timings:
            lines.append("last round timings: "
                         + "  ".join(f"{k}={v}s"
                                     for k, v in timings.items()))
    return lines


def render_rounds_lines(snap: CrawlSnapshot, width: int = 80) -> list:
    """Tab 2 — per-round table (the reference's log/batch pane)."""
    if not snap.exists:
        return ["(no crawl output here yet)"]
    lines = [f"{'round':>5} {'scheduled':>9} {'fetched':>8} "
             f"{'failed':>7} {'deferred':>8}"]
    for entry in snap.rounds:
        lines.append(f"{entry['round']:>5} {entry.get('scheduled', 0):>9} "
                     f"{entry.get('fetched', 0):>8} "
                     f"{entry.get('failed', 0):>7} "
                     f"{entry.get('deferred', 0):>8}")
    for rno in snap.partial_rounds:
        lines.append(f"{rno:>5} {'-':>9} {'-':>8} {'-':>7} {'-':>8}  "
                     "PARTIAL (discarded on resume)")
    t = snap.totals
    lines.append(f"{'total':>5} {t.get('scheduled', 0):>9} "
                 f"{t.get('fetched', 0):>8} {t.get('failed', 0):>7} "
                 f"{t.get('deferred', 0):>8}")
    return lines


def render_config_lines(width: int = 80) -> list:
    """Tab 3 — the effective engine config (file < env precedence)."""
    from .config import EngineConfig

    try:
        cfg = EngineConfig.from_env().to_dict()
    except ValueError as exc:  # env override out of range: show, don't die
        return [f"config error: {exc}"]
    return [f"{k} = {v}" for k, v in sorted(cfg.items())]


def render_screen(tab: str, snap: CrawlSnapshot,
                  width: int = 80, height: int = 24) -> list:
    """One full frame: header, tab bar, body — pure, terminal-free."""
    header = "markdown_lab_ray — crawl monitor   (q quit, r refresh)"
    tabbar = "  ".join(
        (f"[{i + 1}:{name.upper()}]" if name == tab else f" {i + 1}:{name} ")
        for i, name in enumerate(TABS))
    if tab == "status":
        body = render_status_lines(snap, width)
    elif tab == "rounds":
        body = render_rounds_lines(snap, width)
    else:
        body = render_config_lines(width)
    lines = [header, tabbar, "-" * min(width, len(header))] + body
    return [ln[:width] for ln in lines[:height]]


def run_tui(out_dir: str, once: bool = False, tab: str = "status") -> int:
    """Entry point.  ``once=True`` prints one frame and exits 0/2 —
    the same surface the interactive loop paints."""
    if tab not in TABS:
        raise ValueError(f"unknown tab {tab!r} (choose from {TABS})")
    if once:
        snap = collect_status(out_dir)
        for ln in render_screen(tab, snap):
            print(ln)
        return 0 if snap.exists or tab == "config" else 2

    import curses

    def loop(stdscr):
        cur = tab
        curses.curs_set(0)
        stdscr.timeout(1000)  # refresh cadence, ms
        while True:
            height, width = stdscr.getmaxyx()
            snap = collect_status(out_dir)
            stdscr.erase()
            for y, ln in enumerate(render_screen(cur, snap,
                                                 width - 1, height)):
                stdscr.addstr(y, 0, ln)
            stdscr.refresh()
            ch = stdscr.getch()
            if ch == ord("q"):
                return 0
            if ch in (ord("1"), ord("2"), ord("3")):
                cur = TABS[ch - ord("1")]
            # 'r' or timeout: fall through and re-collect

    return curses.wrapper(loop)

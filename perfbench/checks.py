"""Output checks.  Each expectation is computed apart from the engine:
crawl order and URL-seen set by the sequential oracle, schedule counts by
the closed form in ``workloads.expected_counts``, and page content from
the generator's own inputs (host, page number, page count), never from
an earlier run's output.  The engine's artifacts are read with pyarrow
directly, not through the engine's readers.

A page that came out as the empty document ("No Title") is a failed
operation; any other mismatch makes the run incorrect.
"""

from __future__ import annotations

import glob
import os
import re
from collections import defaultdict

import pyarrow.parquet as pq

EMPTY_TITLE = "No Title"
_PAGE_RE = re.compile(r"^https://(h\d{3}\.example\.com)/page/(\d+)$")


class CheckFailed(AssertionError):
    """An engine output differs from its independent expectation."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_table(path: str, columns=None):
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    if not files:
        return None
    return pq.ParquetDataset(files).read(columns=columns)


def round_dirs(out_dir: str) -> list[tuple[int, str]]:
    dirs = glob.glob(os.path.join(out_dir, "rounds", "round=*"))
    return sorted((int(d.rsplit("=", 1)[1]), d) for d in dirs)


def page_expectations(url: str, pages_per_host: int) -> dict:
    """What the generator put on the page at ``url``, restated from the
    generator's inputs alone."""
    m = _PAGE_RE.match(url)
    _require(m is not None, f"unexpected page url {url!r}")
    host, j = m.group(1), int(m.group(2))
    nxt, see = (j + 1) % pages_per_host, (j * 7 + 3) % pages_per_host
    return {
        "title": f"Page {j} — {host}",
        "lines": [f"# Page {j} — {host}", f"# Page {j} on {host}",
                  "## Overview", f"### Notes {j}",
                  f"[next {nxt}](https://{host}/page/{nxt})",
                  f"[see {see}](https://{host}/page/{see})"],
        "code": re.compile(r"^```[a-z]*\ndef f_%d\(\):\n    return %d\n```$"
                           % (j, j * 17), re.MULTILINE),
        "absent": ["javascript:", f"BUY {j}", "site header",
                   f"footer {host}", "sidebar junk", "[home]", "track("],
    }


def check_page(url: str, title: str, markdown: str,
               pages_per_host: int) -> bool:
    """False for the silent empty document (a failed operation); raises
    on any other mismatch."""
    if title == EMPTY_TITLE:
        return False
    exp = page_expectations(url, pages_per_host)
    _require(title == exp["title"], f"{url}: title {title!r}")
    lines = set(markdown.splitlines())
    for line in exp["lines"]:
        _require(line in lines, f"{url}: missing line {line!r}")
    _require(markdown.startswith(exp["lines"][0] + "\n"),
             f"{url}: markdown does not open with the title line")
    _require(exp["code"].search(markdown) is not None,
             f"{url}: code block body missing")
    for text in exp["absent"]:
        _require(text not in markdown, f"{url}: stripped text {text!r} kept")
    return True


def check_chunks(chunk_dirs: list[str], urls: set) -> None:
    """Every page has chunks, each naming its page as ``source_url``.
    Chunk positions follow the reference chunker: a section that fits
    one chunk is one ``section`` chunk with no position; a longer one is
    split into ``content_chunk`` rows at positions 0..k-1."""
    sections = defaultdict(list)
    for chunk_dir in chunk_dirs:
        tbl = read_table(chunk_dir, columns=["source_url", "heading",
                                             "position", "chunk_type"])
        if tbl is None:
            continue
        for src, heading, pos, kind in zip(
                *(tbl.column(c).to_pylist() for c in tbl.column_names)):
            sections[src, heading].append((kind, pos))
    pages = {src for src, _ in sections}
    _require(pages == urls, f"chunk source_urls differ from pages: "
                            f"{len(pages ^ urls)} mismatched")
    for (src, heading), rows in sections.items():
        if rows == [("section", None)]:
            continue
        _require(all(kind == "content_chunk" for kind, _ in rows)
                 and sorted(pos for _, pos in rows) == list(range(len(rows))),
                 f"{src} {heading!r}: chunks {sorted(rows, key=str)} are not "
                 f"one section or positions contiguous from 0")


def read_schedule(out_dir: str):
    """[(round, host, fetch_order, loc, seen_key, scheduled)] from the
    per-round schedule checkpoints."""
    rows = []
    for r, rdir in round_dirs(out_dir):
        tbl = read_table(os.path.join(rdir, "schedule"),
                         columns=["host", "fetch_order", "loc", "seen_key",
                                  "scheduled"])
        if tbl is None:
            continue
        rows.extend((r, *vals) for vals in zip(
            *(tbl.column(c).to_pylist() for c in tbl.column_names)))
    return rows


def crawl_order(sched) -> list[tuple[str, str]]:
    """(loc, seen_key) of the scheduled rows in canonical crawl order:
    (round, host, fetch_order) ascending."""
    return [(loc, key) for *_, loc, key in sorted(
        (r, host, fo, loc, key) for r, host, fo, loc, key, s in sched if s)]


def check_crawl(out_dir: str, oracle: dict, expected: dict,
                pages_per_host: int) -> tuple[int, int]:
    """Check one crawl's artifacts; returns (attempted, failed) pages."""
    sched = read_schedule(out_dir)
    order = crawl_order(sched)
    _require([loc for loc, _ in order] == oracle["order"],
             "crawl order differs from the sequential oracle")
    _require({key for _, key in order} == oracle["seen"],
             "URL-seen set differs from the sequential oracle")

    counts: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for r, host, _, _, _, s in sched:
        counts[r][host][0 if s else 1] += 1
    got = {r: {h: tuple(v) for h, v in per.items()}
           for r, per in counts.items()}
    _require(got == expected,
             "per-host per-round scheduled/deferred counts differ from the "
             "closed form")

    attempted = failed = 0
    urls = set()
    for _, rdir in round_dirs(out_dir):
        docs = read_table(os.path.join(rdir, "docs"),
                          columns=["url", "status", "title", "payload"])
        if docs is None:
            continue
        for url, status, title, payload in zip(
                *(docs.column(c).to_pylist() for c in docs.column_names)):
            attempted += 1
            urls.add(url)
            if status != 200 or not check_page(url, title, payload,
                                               pages_per_host):
                failed += 1
    _require(attempted == len(order) == len(urls),
             f"{attempted} docs rows for {len(order)} scheduled pages")
    check_chunks([os.path.join(d, "chunks") for _, d in round_dirs(out_dir)],
                 urls)
    return attempted, failed


def expected_filename(url: str) -> str:
    """The reference per-URL file name, restated for synthetic pages."""
    m = _PAGE_RE.match(url)
    return f"{m.group(1)}_page_{m.group(2)}.md"


def check_convert(out_dir: str, urls: list[str],
                  pages_per_host: int) -> tuple[int, int]:
    """Check one batch convert's artifacts; returns (attempted, failed)."""
    rendered = os.path.join(out_dir, "rendered")
    names = sorted(os.listdir(rendered))
    _require(names == sorted(expected_filename(u) for u in urls),
             "rendered files are not exactly one per URL")
    docs = read_table(os.path.join(out_dir, "docs"),
                      columns=["url", "status", "title"])
    _require(sorted(docs.column("url").to_pylist()) == sorted(urls),
             "docs rows are not exactly one per URL")
    failed = 0
    for url, status, title in zip(
            *(docs.column(c).to_pylist() for c in docs.column_names)):
        with open(os.path.join(rendered, expected_filename(url)),
                  encoding="utf-8") as f:
            markdown = f.read()
        if status != 200 or not check_page(url, title, markdown,
                                           pages_per_host):
            failed += 1
    check_chunks([os.path.join(out_dir, "chunks")], set(urls))
    return len(urls), failed

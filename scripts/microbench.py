"""Per-op microbenchmarks on small/medium/large fixtures — the
criterion-harness analogue (reference ``benches/markdown_bench.rs:9-88``:
extract/clean/links/convert on 3 sizes, chunking over a size/overlap
grid), plus the crawl's one-parse ``convert_page``.  Single-process, no
Ray: measures kernel latency.

Usage: python scripts/microbench.py [--json]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from markdown_lab_ray.kernels.chunker import chunk_markdown, create_semantic_chunks
from markdown_lab_ray.kernels.html_kernels import (
    clean_html,
    convert_page,
    extract_links,
    extract_main_content,
    parse_html_to_document,
)
from markdown_lab_ray.kernels.render import document_to_markdown, render_document
from markdown_lab_ray.sources.synth import SiteSpec, page_html


def fixture_html(scale: int) -> str:
    spec = SiteSpec(n_hosts=2, pages_per_host=4, n_images=20)
    base = page_html(spec, 0, 1)
    if scale == 1:
        return base
    # grow the body by repeating the <main> content
    main_start = base.index("<main>")
    main_end = base.index("</main>") + len("</main>")
    middle = base[main_start:main_end] * scale
    return base[:main_start] + middle + base[main_end:]


def timeit(fn, repeat: int = 50) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000  # ms


def main() -> None:
    url = "https://h000.example.com/page/1"
    sizes = {"small": fixture_html(1), "medium": fixture_html(5),
             "large": fixture_html(20)}
    results: dict[str, float] = {}

    for name, html in sizes.items():
        results[f"clean_html/{name}_ms"] = timeit(lambda h=html: clean_html(h), 20)
        results[f"extract_main/{name}_ms"] = timeit(
            lambda h=html: extract_main_content(h), 20)
        results[f"extract_links/{name}_ms"] = timeit(
            lambda h=html: extract_links(h, url), 20)
        results[f"convert_page/{name}_ms"] = timeit(
            lambda h=html: convert_page(h, url), 20)
        results[f"convert/{name}_ms"] = timeit(
            lambda h=html: render_document(
                parse_html_to_document(h, url), "markdown"), 20)

    md = document_to_markdown(parse_html_to_document(sizes["large"], url))
    for size in (100, 500, 1000):
        for overlap in (10, 50):
            if overlap >= size:
                continue
            results[f"chunk_char/{size}_{overlap}_ms"] = timeit(
                lambda s=size, o=overlap: chunk_markdown(md, s, o), 20)
    results["chunk_section/1000_200_ms"] = timeit(
        lambda: create_semantic_chunks(md, url), 20)

    # crawl link explode: vectorized engine batch vs the spec row-loop
    # (1000 pages × 20 links; the r5 vectorization's measured delta)
    import pyarrow as pa

    from markdown_lab_ray.pipelines.crawl import links_explode_batch
    from markdown_lab_ray.pipelines.crawl_spec import (
        dedup_candidates, links_to_frontier_rows)

    n_pages, n_links = 1000, 20
    link_lists = [[f"http://h{(p * 7 + i) % 97:03d}.example.com/"
                   f"page/{p}/{i}" for i in range(n_links)]
                  for p in range(n_pages)]
    batch = pa.table({
        "depth": pa.array([p % 3 for p in range(n_pages)], pa.int64()),
        "links": pa.array(link_lists, pa.list_(pa.string()))})

    def spec_loop():
        rows = []
        for depth, links in zip(batch.column("depth").to_pylist(),
                                batch.column("links").to_pylist()):
            rows.extend(links_to_frontier_rows(depth, links))
        return dedup_candidates(rows)

    results["links_explode/vectorized_ms"] = timeit(
        lambda: links_explode_batch(batch), 5)
    results["links_explode/rowloop_ms"] = timeit(spec_loop, 5)

    results = {k: round(v, 3) for k, v in results.items()}
    if "--json" in sys.argv:
        print(json.dumps(results))
    else:
        for key, value in results.items():
            print(f"{key:36s} {value:8.3f}")


if __name__ == "__main__":
    main()

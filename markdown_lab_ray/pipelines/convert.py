"""Flagship convert pipeline over the driver's ``documents`` table.

``documents.text`` (plain text corpus) is deterministically wrapped
into synthetic HTML pages (title/h1/paragraphs — FIXTURES.md §2 shape),
then run through the real parse → render → chunk stages.  This is the
reference's `mlab batch` lifecycle (SURVEY.md §3.3) restated as a
streaming Dataset pipeline.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import EngineConfig
from .crawl_spec import SEED_STRIDE  # noqa: F401  (re-export convenience)


def doc_page_url(source: str, doc_id: int) -> str:
    return f"https://docs.example.com/{source}/{doc_id}"


def wrap_documents_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text, source) → (url, html): deterministic page wrapper
    (title, h1, ~30-word paragraphs, a trailing list)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    sources = batch.column("source").to_pylist()
    urls, htmls = [], []
    for doc_id, text, source in zip(ids, texts, sources):
        words = (text or "").split()
        paras = [" ".join(words[i:i + 30]) for i in range(0, len(words), 30)]
        body = "\n".join(f"<p>{p}</p>" for p in paras)
        items = "".join(f"<li>{w}</li>" for w in words[:3])
        htmls.append(
            f"<html><head><title>Doc {doc_id}</title></head><body>"
            f"<h1>Document {doc_id}</h1><h2>{source}</h2>\n{body}\n"
            f"<ul>{items}</ul></body></html>")
        urls.append(doc_page_url(source, doc_id))
    return pa.table({"url": pa.array(urls, pa.string()),
                     "html": pa.array(htmls, pa.string())})


def documents_pages(sf_dir: str, columns=("doc_id", "text", "source")):
    import ray
    import ray.data as rd

    # single-file parquet reads can come out as one block; force enough
    # blocks that the CPU-bound parse chain saturates the cluster
    n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=list(columns),
                           override_num_blocks=n_blocks).map_batches(
        wrap_documents_batch, batch_format="pyarrow", zero_copy_batch=True)


def convert_documents(sf_dir: str, cfg: EngineConfig | None = None):
    """documents → fused convert (title, markdown payload, counts)."""
    from ..stages.convert import convert_fused_batch

    cfg = cfg or EngineConfig()
    return documents_pages(sf_dir).map_batches(
        convert_fused_batch, batch_format="pyarrow",
        batch_size=cfg.parse_batch_size,
        fn_kwargs=dict(chunk_size=cfg.chunk_size,
                       chunk_overlap=cfg.chunk_overlap))


def chunk_documents(sf_dir: str, cfg: EngineConfig | None = None):
    """documents → section-mode chunk rows (full three-stage path)."""
    from ..stages.convert import chunk_explode_batch, parse_batch, render_batch

    cfg = cfg or EngineConfig()
    return (documents_pages(sf_dir)
            .map_batches(parse_batch, batch_format="pyarrow",
                         batch_size=cfg.parse_batch_size,
                         zero_copy_batch=True)
            .map_batches(render_batch, batch_format="pyarrow")
            .map_batches(chunk_explode_batch, batch_format="pyarrow",
                         batch_size=cfg.chunk_batch_size,
                         fn_kwargs=dict(chunk_size=cfg.chunk_size,
                                        chunk_overlap=cfg.chunk_overlap)))


def _fetch_render_batch(batch: pa.Table, web_factory, fmt: str,
                        out_dir: str, save_chunks: bool = False,
                        chunk_size: int = 1000,
                        chunk_overlap: int = 200) -> pa.Table:
    """Fetch each URL directly (NO sitemap discovery — the reference
    `batch` verb fetches the listed links as-is, scraper.py:444-598)
    with the crawl's per-process ``fetcher``, convert (``convert_row``),
    render to ``fmt``.  Failures become status rows with the empty
    Document (S3 tolerance).  The task writes what it makes into
    ``out_dir``: the docs part, the chunks part when asked (both named
    by the batch's ``seq`` keys) and the 200 pages' rendered files; it
    returns its one-row tally, ``ok`` 200 pages."""
    import os

    import pyarrow.compute as pc

    from ..kernels.render import render_document
    from ..sources.io import write_rendered_batch
    from ..stages.convert import convert_row
    from .crawl import _chunk_rows, _write_part, fetcher

    fetched = fetcher(web_factory)(batch)
    titles, payloads = [], []
    for loc, status, html in zip(fetched.column("loc").to_pylist(),
                                 fetched.column("status").to_pylist(),
                                 fetched.column("html").to_pylist()):
        doc, _ = convert_row(loc, status, html)
        titles.append(doc["title"])
        payloads.append(render_document(doc, fmt))
    docs = pa.table({
        "url": fetched.column("loc"),
        "status": fetched.column("status"),
        "title": pa.array(titles, pa.string()),
        "payload": pa.array(payloads, pa.string()),
    })
    keys = batch.column("seq")
    _write_part(docs, os.path.join(out_dir, "docs"), keys)
    if save_chunks:
        _write_part(_chunk_rows(docs, chunk_size, chunk_overlap),
                    os.path.join(out_dir, "chunks"), keys)
    ok = docs.filter(pc.equal(docs.column("status"), 200))
    write_rendered_batch(ok, os.path.join(out_dir, "rendered"), fmt)
    return pa.table({"ok": pa.array([ok.num_rows], pa.int64())})


def run_batch_convert(web_factory, urls: list[str], out_dir: str,
                      fmt: str = "markdown", save_chunks: bool = False,
                      cfg: EngineConfig | None = None):
    """The reference `mlab batch links.txt` surface on the Ray engine:
    fetch every listed URL (depth 0, no discovery), convert to ``fmt``,
    write per-URL rendered files (reference filename scheme) plus a
    lossless parquet checkpoint (and a chunks sidecar when asked), all
    from the convert tasks in one Ray Data execution.
    Returns (n_ok, n_failed)."""
    import os

    import ray.data as rd

    cfg = cfg or EngineConfig()
    rows = [{"loc": u, "seq": i} for i, u in enumerate(urls)]
    n_blocks = max(1, min(len(rows), 64))
    os.makedirs(os.path.join(out_dir, "rendered"), exist_ok=True)
    tallies = rd.from_items(rows, override_num_blocks=n_blocks).map_batches(
        _fetch_render_batch, batch_format="pyarrow",
        batch_size=cfg.fetch_batch_size,
        fn_kwargs=dict(web_factory=web_factory, fmt=fmt, out_dir=out_dir,
                       save_chunks=save_chunks, chunk_size=cfg.chunk_size,
                       chunk_overlap=cfg.chunk_overlap)).take_all()
    n_ok = sum(int(t["ok"]) for t in tallies)
    return n_ok, len(urls) - n_ok

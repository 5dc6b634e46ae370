"""Parse / render / chunk batch stages and the one page → Document row.

Each stage is a plain function for ``Dataset.map_batches(
batch_format="pyarrow", zero_copy_batch=True)``.  Every page becomes a
Document through ``convert_row``: one parse and one walk of the page
(``kernels.html_kernels.convert_page``), and one fallback, the empty
Document, for a page that failed, redirected or did not parse.  The
batch convert stages here, the crawl's ``crawl_convert_batch`` and the
batch verb's ``_fetch_render_batch`` all call it.  Parsing is inherently
per-document CPU work (the reference is too: one html5ever parse per
page); the batch wrappers keep everything else vectorized — Arrow column
construction, no pandas round-trips, schema-stable outputs.

Scale notes: HTML rows can be multi-MB, so callers bound ``batch_size``
(EngineConfig.parse_batch_size).  These stages are stateless pure
functions → Ray runs them as elastic tasks, no actor pool needed.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..kernels.chunker import (
    FIXED_CLOCK_ISO,
    chunk_markdown_char,
    create_semantic_chunks,
)
from ..kernels.html_kernels import convert_page, parse_html_to_document
from ..kernels.render import (
    FORMATTERS,
    document_to_markdown,
    render_document,
)
from ..kernels.urls import redirect_target
from .schemas import (
    CHAR_CHUNKS_SCHEMA,
    CHUNKS_SCHEMA,
    DOCUMENT_T,
    RENDERED_SCHEMA,
)

EMPTY_DOC = {
    "title": "No Title", "base_url": "", "headings": [], "paragraphs": [],
    "links": [], "images": [], "lists": [], "code_blocks": [],
    "blockquotes": [],
}


def convert_row(url: str, status: int, html,
                with_links: bool = False) -> tuple[dict, list[str]]:
    """One fetched page → (Document, links).  A 200 page with a body
    goes through ``convert_page`` (or, without ``with_links``, through
    ``parse_html_to_document``: only the crawl pays for link
    resolution).  Every other page — another status, an empty body, or
    a parse that raised — yields the empty Document rather than
    aborting the batch (reference S3 semantics: per-URL error
    tolerance).  With ``with_links``, a 3xx page's links are its
    redirect target: the body is the Location, and the target rides the
    links column into the crawl's next frontier (``redirect_target``
    documents why the crawl never follows inline)."""
    if status == 200 and html:
        try:
            if with_links:
                return convert_page(html, url)
            return parse_html_to_document(html, url), []
        except Exception:
            pass
    target = redirect_target(status, html, url) if with_links else None
    return dict(EMPTY_DOC, base_url=url), [target] if target else []


def parse_batch(batch: pa.Table, url_col: str = "url",
                html_col: str = "html") -> pa.Table:
    """(url, html) → (url, doc struct), one ``convert_row`` per page."""
    docs = [convert_row(url, 200, html)[0]
            for url, html in zip(batch.column(url_col).to_pylist(),
                                 batch.column(html_col).to_pylist())]
    return pa.table({
        "url": batch.column(url_col),
        "doc": pa.array(docs, type=DOCUMENT_T),
    })


def render_batch(batch: pa.Table, fmt: str = "markdown",
                 with_metadata: bool = False,
                 generated_at: str = FIXED_CLOCK_ISO) -> pa.Table:
    """(url, doc) → (url, format, payload)."""
    urls = batch.column("url").to_pylist()
    docs = batch.column("doc").to_pylist()
    payloads = []
    for url, doc in zip(urls, docs):
        payload = render_document(doc, fmt)
        if with_metadata:
            payload = FORMATTERS[fmt](
                payload,
                {"title": doc["title"], "source_url": url,
                 "generated_at": generated_at},
            )
        payloads.append(payload)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "format": pa.array([fmt] * len(urls), pa.string()),
        "payload": pa.array(payloads, pa.string()),
    }, schema=RENDERED_SCHEMA)


def _section_chunk_columns(url: str, markdown: str, chunk_size: int,
                           chunk_overlap: int, cols: dict) -> None:
    for c in create_semantic_chunks(markdown, url, chunk_size, chunk_overlap):
        cols["chunk_id"].append(c["id"])
        cols["source_url"].append(url)
        cols["content"].append(c["content"])
        cols["heading"].append(c["heading"])
        cols["domain"].append(c["domain"])
        cols["position"].append(c["position"])
        cols["word_count"].append(c["word_count"])
        cols["char_count"].append(c["char_count"])
        cols["chunk_type"].append(c["chunk_type"])
        cols["created_at"].append(c["created_at"])


def chunk_explode_batch(batch: pa.Table, chunk_size: int = 1000,
                        chunk_overlap: int = 200,
                        url_col: str = "url",
                        text_col: str = "payload") -> pa.Table:
    """(url, markdown) → one row per section-mode chunk (flat_map shape)."""
    cols = {name: [] for name in CHUNKS_SCHEMA.names}
    for url, text in zip(batch.column(url_col).to_pylist(),
                         batch.column(text_col).to_pylist()):
        _section_chunk_columns(url, text or "", chunk_size, chunk_overlap, cols)
    return pa.table(cols, schema=CHUNKS_SCHEMA)


def char_chunk_explode_batch(batch: pa.Table, chunk_size: int = 1000,
                             chunk_overlap: int = 200,
                             url_col: str = "url",
                             text_col: str = "payload") -> pa.Table:
    """(url, markdown) → one row per char-mode (Rust rule-set) chunk."""
    cols = {name: [] for name in CHAR_CHUNKS_SCHEMA.names}
    for url, text in zip(batch.column(url_col).to_pylist(),
                         batch.column(text_col).to_pylist()):
        for c in chunk_markdown_char(text or "", chunk_size, chunk_overlap):
            cid = hashlib.md5(
                f"{url}:{c['position']}:{c['content'][:64]}".encode()
            ).hexdigest()
            cols["chunk_id"].append(cid)
            cols["source_url"].append(url)
            cols["content"].append(c["content"])
            cols["heading"].append(c["heading"])
            cols["level"].append(c["level"])
            cols["position"].append(c["position"])
            cols["word_count"].append(c["word_count"])
            cols["char_count"].append(c["char_count"])
            cols["semantic_density"].append(c["semantic_density"])
    return pa.table(cols, schema=CHAR_CHUNKS_SCHEMA)


def convert_fused_batch(batch: pa.Table, fmt: str = "markdown",
                        chunk_size: int = 1000, chunk_overlap: int = 200,
                        url_col: str = "url",
                        html_col: str = "html") -> pa.Table:
    """Fused html → markdown(+payload) + chunk/link counts in ONE pass.

    The flagship/bench stage: avoids shipping the nested Document struct
    between stages when only the rendered payload and chunk stats are
    consumed downstream.
    """
    urls = batch.column(url_col).to_pylist()
    htmls = batch.column(html_col).to_pylist()
    payloads, titles, n_links, n_images, n_chunks = [], [], [], [], []
    for url, html in zip(urls, htmls):
        doc = convert_row(url, 200, html)[0]
        md = document_to_markdown(doc)
        payloads.append(md if fmt == "markdown" else render_document(doc, fmt))
        titles.append(doc["title"])
        n_links.append(len(doc["links"]))
        n_images.append(len(doc["images"]))
        n_chunks.append(len(create_semantic_chunks(md, url, chunk_size,
                                                   chunk_overlap)))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "title": pa.array(titles, pa.string()),
        "payload": pa.array(payloads, pa.string()),
        "n_links": pa.array(n_links, pa.int32()),
        "n_images": pa.array(n_images, pa.int32()),
        "n_chunks": pa.array(n_chunks, pa.int32()),
    })

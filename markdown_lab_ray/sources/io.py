"""Seed sources and output sinks.

Reference surfaces re-expressed on Datasets:
- S5  links-file reader  (``scraper.py:460-502``)
- S8  per-URL rendered-output files (``converter.py:144-166``)
- S9  chunks → JSONL / per-chunk JSON (``chunk_utils.py:200-226``)
- S10 frontier → text export (``sitemap_utils.py:409-431``)
- S13 JS renderer: stub (no headless browser in this container) with the
  reference's ``inline://`` hermetic-test scheme (``src/js_renderer.rs``)

Parquet remains the engine's real checkpoint format; the per-URL file
sinks exist for debug parity with the reference's on-disk layout.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from ..kernels.sitemap import export_frontier_lines, parse_links_file
from ..kernels.urls import get_filename_from_url


def read_seed_links(path: str):
    """links.txt → Dataset of seed rows (blank/comment lines dropped)."""
    import ray.data as rd

    with open(path, encoding="utf-8") as f:
        links = parse_links_file(f.read())
    return rd.from_items([{"seed": u, "seed_idx": i}
                          for i, u in enumerate(links)])


def write_rendered_batch(batch: pa.Table, out_dir: str,
                         fmt: str = "markdown", url_col: str = "url",
                         payload_col: str = "payload") -> pa.Table:
    """One file per URL, reference filename scheme: the write loop of
    ``write_rendered_files``, also run inside the batch verb's convert
    tasks.  Idempotent — same URL → same filename.  NOTE: the
    reference's filename scheme is not injective (queries are stripped;
    ``/`` → ``_`` can collide), so distinct URLs may overwrite each
    other — inherent to the reference layout (``url_utils.py:46-94``);
    parquet checkpoints are the lossless sink."""
    os.makedirs(out_dir, exist_ok=True)
    for url, payload in zip(batch.column(url_col).to_pylist(),
                            batch.column(payload_col).to_pylist()):
        name = get_filename_from_url(url, fmt)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(payload or "")
    return batch


def write_rendered_files(ds, out_dir: str, fmt: str = "markdown",
                         url_col: str = "url", payload_col: str = "payload"):
    """Distributed ``write_rendered_batch``: each task writes its
    batch's files."""
    os.makedirs(out_dir, exist_ok=True)
    # consume via count() so the write is executed exactly once
    ds.map_batches(write_rendered_batch, batch_format="pyarrow",
                   fn_kwargs=dict(out_dir=out_dir, fmt=fmt, url_col=url_col,
                                  payload_col=payload_col)).count()
    return out_dir


def write_chunks_jsonl(chunks_ds, out_dir: str):
    """chunks → one ``chunks_*.jsonl`` part per block (reference wrote a
    single ``chunks.jsonl``; parts keep the write distributed — cat the
    directory for the single-file view)."""
    os.makedirs(out_dir, exist_ok=True)
    chunks_ds.write_json(out_dir)
    return out_dir


def write_chunks_json_files(chunks_ds, out_dir: str,
                            id_col: str = "chunk_id"):
    """chunk-per-file JSON variant (ref ``chunk_utils.py:222-226``)."""
    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        for row in batch.to_pylist():
            path = os.path.join(out_dir, f"{row[id_col]}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(row, f, indent=2)
        return batch

    chunks_ds.map_batches(write_batch, batch_format="pyarrow").count()
    return out_dir


def export_frontier_file(frontier_ds, out_path: str):
    """frontier → ``loc[,priority][,lastmod]`` lines (driver-side: the
    export is a debugging artifact, not a checkpoint)."""
    rows = frontier_ds.select_columns(["loc", "priority", "lastmod"]) \
        .to_pandas().to_dict("records")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(export_frontier_lines(
            [{"loc": r["loc"],
              "priority": None if r["priority"] != r["priority"] else r["priority"],
              "lastmod": r["lastmod"]} for r in rows]))
    return out_path


def render_js_page(url: str, wait_time_ms=None):
    """JS-rendered fetch.  STUB: this container has no headless browser
    (reference feature-gates chromiumoxide the same way).  The
    ``inline://<html>`` scheme is honored so pipelines exercising the
    interface stay hermetically testable (ref ``src/js_renderer.rs:17-67``).
    """
    if not isinstance(url, str):
        raise TypeError("url must be a string")
    if wait_time_ms is not None and not isinstance(wait_time_ms, int):
        raise TypeError("wait_time_ms must be an integer or None")
    if url.startswith("inline://"):
        return url[len("inline://"):]
    raise NotImplementedError(
        "JS rendering requires a headless browser; not available in this "
        "environment (stub — see reference src/js_renderer.rs)")


# ---------------------------------------------------------------------------
# image+caption corpus reader (BASELINE input_hint contract)
# ---------------------------------------------------------------------------

# the input contract's column shape: (image_id:string, bytes:binary,
# w:int32, h:int32, fmt:string, caption:string, phash:int64)
IMAGE_TABLE_COLUMNS: dict[str, pa.DataType] = {
    "image_id": pa.string(),
    "bytes": pa.binary(),
    "w": pa.int32(),
    "h": pa.int32(),
    "fmt": pa.string(),
    "caption": pa.string(),
    "phash": pa.int64(),
}


def read_image_table(path: str, columns: list[str] | None = None):
    """Read the image+caption corpus as a streaming Dataset.

    The contract's native storage is a Lance dataset (``.lance`` —
    fragment-parallel scans with real column pruning, the right layout
    for wide binary payload columns): routed to ``ray.data.read_lance``
    when ``pylance`` is installed.  Parquet paths use
    ``read_parquet`` with the same column-pruning contract.  This
    container has no ``pylance``, so the Lance branch raises an
    actionable error and is exercised in tests only up to that seam.

    ``columns`` prunes at the read (never load 100 TB of image bytes
    to count captions); requested columns are validated against the
    contract schema so typos fail fast, and unknown extra columns in
    the file are allowed (forward-compatible).
    """
    import ray.data as rd

    if columns is not None:
        unknown = set(columns) - set(IMAGE_TABLE_COLUMNS)
        if unknown:
            raise ValueError(
                f"not in the image-table contract: {sorted(unknown)}")
    if path.rstrip("/").endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as exc:
            raise RuntimeError(
                "Lance dataset given but pylance is not installed; "
                "install pylance or convert to parquet") from exc
        return rd.read_lance(path, columns=columns)
    return rd.read_parquet(path, columns=columns)


def write_image_table(ds, path: str):
    """Write an image+caption corpus Dataset — the write twin of
    ``read_image_table``, same seam: a ``.lance`` path routes to
    ``Dataset.write_lance`` (fragment-parallel, the north-star storage
    for wide binary columns) when ``pylance`` is installed and raises
    an actionable error when it isn't (this container has no pylance,
    so the Lance branch is exercised in tests up to that seam); any
    other path writes parquet.

    The Dataset schema is validated against the contract columns
    (extra columns allowed, missing contract columns fail fast) so a
    malformed corpus never lands in the checkpoint format."""
    missing = set(IMAGE_TABLE_COLUMNS) - set(ds.schema().names)
    if missing:
        raise ValueError(
            f"image-table contract columns missing: {sorted(missing)}")
    if path.rstrip("/").endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as exc:
            raise RuntimeError(
                "Lance path given but pylance is not installed; "
                "install pylance or write parquet") from exc
        ds.write_lance(path)
        return path
    ds.write_parquet(path)
    return path


def write_sharded_parquet(ds, out_dir: str, key_col: str,
                          n_shards: int = 64, resume: bool = True):
    """Resumable partitioned-parquet sink: rows are hash-bucketed on
    ``key_col`` into ``n_shards`` directories (``shard=K/``), each
    marked complete by a ``_SHARD_DONE`` sentinel written AFTER its
    files land.  A re-run with ``resume=True`` prunes already-done
    shards with a distributed filter and writes only the missing ones —
    the never-one-giant-file / skip-finished-partitions contract the
    crawl's per-round checkpoints implement, generalized to any
    Dataset.

    Per-shard writes stream through ``write_parquet`` one shard at a
    time ONLY in the final sentinel pass — the data pass is a single
    partitioned write, so the pipeline stays streaming end-to-end.
    Returns the list of shard ids written this run.

    A ``_SHARDING.json`` manifest (key_col, n_shards) is written next
    to the shards on first write; a resume whose parameters differ
    fails fast — done-shards from the OLD layout would otherwise be
    kept while new rows hash under the NEW layout, silently duplicating
    or dropping rows."""
    import glob
    import os

    import pyarrow as pa

    from markdown_lab_ray.stages.bucketing import key_buckets

    import shutil

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "_SHARDING.json")
    params = {"key_col": key_col, "n_shards": n_shards}
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prior = json.load(f)
        if prior != params:
            raise ValueError(
                f"sharding parameters changed: sink was written with "
                f"{prior}, resume requested {params} — use a fresh "
                f"out_dir or resume=False to rewrite")
    with open(manifest_path, "w") as f:
        json.dump(params, f)
    done = set()
    if resume:
        for p in glob.glob(os.path.join(out_dir, "shard=*", "_SHARD_DONE")):
            done.add(int(os.path.basename(os.path.dirname(p)).split("=")[1]))
    # wipe shard dirs that have files but NO sentinel (a crash between
    # the data write and the sentinel pass): write_parquet appends new
    # UUID-named files next to stale ones, so resuming into a partial
    # dir would duplicate every one of its rows
    for shard_dir in glob.glob(os.path.join(out_dir, "shard=*")):
        sid = int(os.path.basename(shard_dir).split("=")[1])
        if sid not in done:
            shutil.rmtree(shard_dir, ignore_errors=True)

    def tag(batch: pa.Table) -> pa.Table:
        shards = key_buckets(batch.column(key_col).to_pandas().to_numpy(),
                             n_shards)
        out = batch.append_column("shard", pa.array(shards, pa.int64()))
        if done:
            import numpy as np
            import pyarrow.compute as pc
            mask = pa.array(~np.isin(shards, list(done)))
            out = out.filter(mask)
        return out

    # no emptiness pre-check: count() would execute the pipeline once
    # and write_parquet would re-execute it; an all-shards-done resume
    # just writes a 0-row sink (root-level metadata only, which the
    # shard-dir reader ignores)
    tagged = ds.map_batches(tag, batch_format="pyarrow")
    tagged.write_parquet(out_dir, partition_cols=["shard"])

    written = []
    for shard_dir in glob.glob(os.path.join(out_dir, "shard=*")):
        sid = int(os.path.basename(shard_dir).split("=")[1])
        sentinel = os.path.join(shard_dir, "_SHARD_DONE")
        if sid not in done and not os.path.exists(sentinel):
            with open(sentinel, "w") as f:
                f.write("ok\n")
            written.append(sid)
    return sorted(written)


def read_sharded_parquet(out_dir: str, columns=None):
    """Reader for ``write_sharded_parquet`` output: only COMPLETE
    shards (sentinel present) are read, so a reader racing a resumed
    writer never sees a partial shard — zero complete shards yields an
    empty (schema-less) dataset, not an error."""
    import glob
    import os

    import ray.data as rd

    files = []
    for p in sorted(glob.glob(os.path.join(out_dir, "shard=*",
                                           "_SHARD_DONE"))):
        files.extend(sorted(glob.glob(
            os.path.join(os.path.dirname(p), "*.parquet"))))
    if not files:
        return rd.from_items([])
    return rd.read_parquet(files, columns=columns)


def write_with_lineage(ds, out_dir: str, key_col: str, inputs: list[str],
                       pipeline: str, fingerprint_cols=None,
                       n_shards: int = 64, resume: bool = True):
    """Sharded sink + LINEAGE manifest (the north rule's per-partition
    lineage + metrics, generalized to any Dataset sink): after the
    resumable sharded write, a ``_LINEAGE.json`` records the input
    paths, the producing pipeline name, the sharding layout, the row
    count, and — when ``fingerprint_cols`` is given — the
    order-insensitive dataset fingerprint triple, so any later reader
    (or a resumed run, or a replica on another cluster) can verify the
    output matches byte-for-byte without re-running the pipeline.

    The fingerprint pass streams over the COMPLETE shards (one extra
    column-pruned read); skip it for payload-heavy sinks by leaving
    ``fingerprint_cols`` None.  Returns the manifest dict."""
    from ..stages.analytics import dataset_fingerprint

    shards = write_sharded_parquet(ds, out_dir, key_col,
                                   n_shards=n_shards, resume=resume)
    manifest = {
        "pipeline": pipeline,
        "inputs": sorted(inputs),
        "key_col": key_col,
        "n_shards": n_shards,
        "shards_written_this_run": sorted(shards),
    }
    back = read_sharded_parquet(out_dir, columns=fingerprint_cols)
    manifest["n_rows"] = back.count()
    if fingerprint_cols:
        fp = dataset_fingerprint(back, fingerprint_cols)
        manifest["fingerprint"] = {
            "cols": list(fingerprint_cols),
            "sum_mod": int(fp["sum_mod"].iloc[0]),
            "xor_fp": int(fp["xor_fp"].iloc[0]),
            "n_rows": int(fp["n_rows"].iloc[0]),
        }
    with open(os.path.join(out_dir, "_LINEAGE.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def verify_lineage(out_dir: str) -> dict:
    """Re-derive the fingerprint of a ``write_with_lineage`` sink and
    compare against its manifest.  Returns {"ok": bool, "expected":
    …, "actual": …}; sinks written without a fingerprint verify row
    count only."""
    with open(os.path.join(out_dir, "_LINEAGE.json")) as f:
        manifest = json.load(f)
    fp = manifest.get("fingerprint")
    back = read_sharded_parquet(out_dir,
                                columns=fp["cols"] if fp else None)
    if fp is None:
        actual = {"n_rows": back.count()}
        return {"ok": actual["n_rows"] == manifest["n_rows"],
                "expected": {"n_rows": manifest["n_rows"]},
                "actual": actual}
    from ..stages.analytics import dataset_fingerprint

    got = dataset_fingerprint(back, fp["cols"])
    actual = {"sum_mod": int(got["sum_mod"].iloc[0]),
              "xor_fp": int(got["xor_fp"].iloc[0]),
              "n_rows": int(got["n_rows"].iloc[0])}
    expected = {k: fp[k] for k in ("sum_mod", "xor_fp", "n_rows")}
    return {"ok": actual == expected, "expected": expected,
            "actual": actual}

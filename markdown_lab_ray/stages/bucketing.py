"""Shared group-bucketing helper for per-key shuffled operators.

``groupby(key).map_groups(fn)`` creates ONE pandas group per key; at
corpus scale (millions of users / domains / distinct hashes) the
per-group task+frame overhead dominates the actual work.  Every
ordered-analytics / dedup / index operator therefore groups by
``hash(key) % n_buckets`` instead — B group tasks regardless of key
cardinality — and runs a vectorized pandas ``groupby(key)`` INSIDE the
bucket.  Correctness is unchanged: all rows of a key land in one
bucket, and the in-bucket groupby is exact.

``keyed_fold`` is that shuffle as one primitive (tag → sort shuffle on
the bucket id → one fold call per bucket, every output block carrying
the fold's schema, Arrow or pandas folds alike).  The shuffle cuts the
bucket ids into one contiguous range per cluster CPU (at most
``n_buckets``), so its task count follows the cluster, not the key
space.  The breaker's host tally and ``crawl_health`` run on it with
Arrow folds; the graph operators (``stages/graph.py``) and the ordered
analytics (``stages/analytics.py``: windows, ranks, sessions, funnels,
attribution, per-key statistics, upserts) with pandas folds.  The
crawl's schedule needs none: its frontier parts are written per
``key_buckets`` bucket by the tasks that make them.

Skew note: a single hot key still bounds a bucket's size from below;
operators whose per-key work is superlinear (none of the current
callers — they all sort + linear-scan) would need a salted
two-stage split instead (the shape ``joins.salted_hash_join`` uses).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def key_buckets(values, n_buckets: int) -> np.ndarray:
    """Process-stable bucket id per value.  ``pd.util.hash_array`` uses
    a fixed siphash key, so every worker process agrees — the property
    cross-block bucketing needs (same guarantee ``joins._bucket_ids``
    relies on for the Arrow path)."""
    arr = np.asarray(values)
    h = pd.util.hash_array(arr, categorize=False)
    return (h % np.uint64(n_buckets)).astype(np.int64)


def tag_buckets_batch(batch: "pa.Table", key_col: str, n_buckets: int,
                      out_col: str = "_b") -> "pa.Table":
    """Append the process-stable bucket-id column to an ARROW batch —
    the zero-copy tag stage for a bucketed shuffle (no pandas
    conversion copy of the whole block just to add one column)."""
    import pyarrow as pa

    vals = (batch.column(key_col).combine_chunks()
            .to_numpy(zero_copy_only=False))
    if out_col in batch.column_names:     # re-tag overwrites, like
        batch = batch.drop_columns([out_col])  # the pandas assign did
    return batch.append_column(
        out_col, pa.array(key_buckets(vals, n_buckets), pa.int64()))


def conform(batch: "pa.Table", schema: "pa.Schema") -> "pa.Table":
    """Cast a batch to a fixed schema (order + types; a missing column
    becomes nulls, an extra one is dropped).  Needed because pandas
    blocks can infer null/object types per block (e.g. an all-None
    lastmod column), which would break parquet append and ``union``
    schema matching."""
    import pyarrow as pa

    cols = {}
    for fld in schema:
        if fld.name in batch.column_names:
            col = batch.column(fld.name)
            cols[fld.name] = col.cast(fld.type) if col.type != fld.type else col
        else:
            cols[fld.name] = pa.nulls(batch.num_rows, fld.type)
    return pa.table(cols, schema=schema)


def _tag_with_sentinels(batch: "pa.Table", key: str,
                        n_buckets: int) -> "pa.Table":
    """``tag_buckets_batch`` plus one all-null sentinel row per bucket,
    so that every bucket's shuffle partition holds a row.  A null key is
    rejected: the sentinels are the only null-key rows.  Schema metadata
    (pandas') is dropped: a schema holding it is unhashable, and the
    shuffle's reduce logs a warning for every such block."""
    import pyarrow as pa

    nulls = batch.column(key).null_count
    if nulls:
        raise ValueError(f"keyed_fold: {nulls} rows with a null {key!r}")
    tagged = tag_buckets_batch(batch.replace_schema_metadata(None), key,
                               n_buckets)
    sentinels = pa.table(
        [pa.nulls(n_buckets, f.type) for f in batch.schema]
        + [pa.array(range(n_buckets), pa.int64())], schema=tagged.schema)
    return pa.concat_tables([tagged, sentinels])


def keyed_fold(ds, key: str, fold, *, n_buckets: int, schema,
               fn_kwargs: dict | None = None, batch_format: str = "pyarrow"):
    """The one keyed shuffle: ``fold(rows, **fn_kwargs)`` runs once per
    bucket of ``key_buckets(key, n_buckets)`` over ALL of that bucket's
    rows and its result is cast to ``schema``: a ``pa.Schema``, or a
    function of the fold's input schema (for a result whose types follow
    the input's; it runs in the fold task, so the input is never
    executed just to learn its schema).  ``batch_format`` is Ray's own:
    ``"pyarrow"`` folds take and return Arrow tables (the crawl's host
    tally and ``crawl_health``), ``"pandas"`` folds DataFrames (graph and
    analytics).  Every row of a key lands in one bucket, so a fold may
    run an exact in-bucket ``groupby(key)``.

    The transport is Ray Data's sort shuffle on the bucket id ``_b`` with
    explicit boundaries (no sampling pass): ``min(n_buckets, cluster
    CPUs)`` partitions, each a contiguous range of bucket ids.  A
    partition arrives sorted on ``_b`` and is cut at each change, so
    ``fold`` still sees one whole bucket per call; ``_b`` is dropped
    before it.  Ray Data runs no map function on an empty block and
    emits it column-less, so an empty block makes the next map (a
    chained fold's tag stage, say) log "different schema".  Hence no
    partition is empty (each tag task adds one all-null sentinel row per
    bucket, dropped before ``fold``), and the result is returned
    materialized without its empty blocks (a partition whose folds
    returned no rows), unless every block is empty.  Every block carries
    the schema.  The fold's operator is named after ``fold``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    kwargs = fn_kwargs or {}
    parts = min(n_buckets, max(1, int(ray.cluster_resources().get("CPU", 1))))

    def run(block: pa.Table) -> pa.Table:
        if parts == 1:              # repartition(1) does not sort
            block = block.sort_by("_b")
        b = block.column("_b").to_numpy()
        block = block.drop_columns(["_b"])
        out_schema = schema(block.schema) if callable(schema) else schema
        cuts = np.flatnonzero(b[1:] != b[:-1]) + 1
        outs = []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(b)]):
            rows = block.slice(lo, hi - lo)
            rows = rows.filter(pc.is_valid(rows.column(key)))
            if not rows.num_rows:
                continue
            if batch_format == "pandas":
                out = pa.Table.from_pandas(fold(rows.to_pandas(), **kwargs),
                                           preserve_index=False)
            else:
                out = fold(rows, **kwargs)
            outs.append(conform(out, out_schema))
        return pa.concat_tables(outs) if outs else out_schema.empty_table()

    run.__name__ = getattr(fold, "__name__", "keyed_fold")
    tagged = ds.map_batches(_tag_with_sentinels, batch_format="pyarrow",
                            fn_kwargs=dict(key=key, n_buckets=n_buckets))
    shuffled = (tagged.sort("_b", boundaries=[
        n_buckets * i // parts for i in range(1, parts)])
        if parts > 1 else tagged.repartition(1))
    return _drop_empty_blocks(shuffled.map_batches(
        run, batch_format="pyarrow", batch_size=None, zero_copy_batch=True))


def _drop_empty_blocks(ds):
    """``ds`` materialized, without its empty blocks unless all are empty
    (then a map reading them emits only column-less blocks, which no
    schema'd block precedes).  Only a Dataset that had empty blocks is
    rebuilt from its block refs (one small metadata task per block)."""
    import ray.data as rd

    ds = ds.materialize()
    refs, n_empty = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
            else:
                n_empty += 1
    return rd.from_arrow_refs(refs) if refs and n_empty else ds

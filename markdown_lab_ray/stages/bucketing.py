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
the fold's schema); the breaker's host tally and ``crawl_health`` run
on it.  The crawl's schedule needs none: its frontier parts are written
per ``key_buckets`` bucket by the tasks that make them.

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


def keyed_fold(ds, key: str, fold, *, n_buckets: int, schema: "pa.Schema",
               fn_kwargs: dict | None = None):
    """The one keyed shuffle (the breaker's host tally, ``crawl_health``):
    ``fold(rows, **fn_kwargs)`` runs once per bucket of
    ``key_buckets(key, n_buckets)`` over ALL of that bucket's rows (an
    Arrow table that still holds the ``_b`` column) and returns an Arrow
    table, cast to ``schema``.  Every row of a key lands in one bucket,
    so a fold may run an exact in-bucket ``group_by(key)``.

    The transport is Ray Data's sort shuffle on ``_b`` with one
    partition per bucket (explicit boundaries: no sampling pass).  Ray
    Data runs no map function on an empty block and emits it
    column-less, and an empty partition is such a block, so each tag
    task adds one all-null sentinel row per bucket (dropped before
    ``fold``): no partition is empty, and every output block, empty ones
    included, carries ``schema``.  The fold's operator is named after
    ``fold``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    kwargs = fn_kwargs or {}

    def run(block: pa.Table) -> pa.Table:
        b = block.column("_b").to_numpy()
        cuts = np.flatnonzero(b[1:] != b[:-1]) + 1
        outs = []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(b)]):
            rows = block.slice(lo, hi - lo)
            rows = rows.filter(pc.is_valid(rows.column(key)))
            if rows.num_rows:
                outs.append(conform(fold(rows, **kwargs), schema))
        return pa.concat_tables(outs) if outs else schema.empty_table()

    run.__name__ = getattr(fold, "__name__", "keyed_fold")
    tagged = ds.map_batches(_tag_with_sentinels, batch_format="pyarrow",
                            fn_kwargs=dict(key=key, n_buckets=n_buckets))
    shuffled = (tagged.sort("_b", boundaries=list(range(1, n_buckets)))
                if n_buckets > 1 else tagged.repartition(1))
    return shuffled.map_batches(run, batch_format="pyarrow", batch_size=None,
                                zero_copy_batch=True)

"""Shared group-bucketing helper for per-key shuffled operators.

``groupby(key).map_groups(fn)`` creates ONE pandas group per key; at
corpus scale (millions of users / domains / distinct hashes) the
per-group task+frame overhead dominates the actual work.  Every
ordered-analytics / dedup / index operator therefore groups by
``hash(key) % n_buckets`` instead — B group tasks regardless of key
cardinality — and runs a vectorized pandas ``groupby(key)`` INSIDE the
bucket.  Correctness is unchanged: all rows of a key land in one
bucket, and the in-bucket groupby is exact.

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

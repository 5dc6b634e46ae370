"""Partitioned hash join for two large Datasets (SURVEY §2.5).

Ray's native ``Dataset.join`` is young; the portable pattern (per the
Ray guide) is an explicit bucketed join: add ``bucket = hash(key) % B``
to both sides, conform them onto one wide schema (each side's missing
columns null), union, ``groupby(bucket)``, and join pairwise inside
``map_groups``.  One shuffle total; B bounds per-task memory; salt hot
keys by raising B.

Broadcast joins (small side) remain the first choice —
``q_segment_sales`` / ``q_region_customers`` show that path; this is
for genuinely large×large.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _key_class(t: pa.DataType) -> str:
    """Coarse hash-representation class of a key type."""
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "bytes"
    return "other"


def _common_key_class(left_t: pa.DataType, right_t: pa.DataType,
                      key: str) -> str:
    """The hash class BOTH sides must use so equal logical keys hash to
    the same bucket.  int+float promotes to float64 (ids above 2^53 are
    inherently lossy under such a join — match the key types upstream
    if that matters); any other cross-class mix (e.g. string vs int)
    cannot represent-normalize and raises instead of silently returning
    an empty join."""
    a, b = _key_class(left_t), _key_class(right_t)
    if a == b:
        return a
    if {a, b} == {"int", "float"}:
        return "float"
    raise TypeError(
        f"join key {key!r} has incompatible types across sides: "
        f"{left_t} vs {right_t} — cast one side first")


def _bucket_ids(col: pa.ChunkedArray, n_buckets: int,
                hash_as: str | None = None) -> np.ndarray:
    """Vectorized, process-stable bucket assignment for a key column
    (pandas ``hash_array`` = siphash with a fixed key — deterministic
    across worker processes, no per-row Python hashing).

    Hashing is REPRESENTATION-normalized before the hash: every integer
    key casts to int64 first (a null in one batch would otherwise
    promote that batch to float64 in pandas and hash every key
    differently from the other side, silently emptying the join).
    ``hash_as`` (from ``_common_key_class``) forces one representation
    when the two sides' key types differ in class (int vs float)."""
    import pandas as pd

    if hash_as == "float" and not pa.types.is_floating(col.type):
        col = col.cast(pa.float64())
    if pa.types.is_integer(col.type):
        # fill_null value only affects which bucket null keys land in —
        # they never match anything in the per-bucket merge anyway
        arr = col.cast(pa.int64()).fill_null(-(1 << 63))
        keys = arr.to_numpy(zero_copy_only=False) if isinstance(
            arr, pa.Array) else arr.combine_chunks().to_numpy(
            zero_copy_only=False)
        keys = np.asarray(keys, dtype=np.int64)
    elif pa.types.is_floating(col.type):
        keys = np.asarray(col.cast(pa.float64()).to_pandas().to_numpy(),
                          dtype=np.float64)
    else:
        keys = col.to_pandas().to_numpy()
    return (pd.util.hash_array(keys) % np.uint64(n_buckets)).astype(np.int32)


def _pa_type(t) -> pa.DataType:
    """Normalize a Ray Dataset schema type to a pyarrow DataType —
    pandas-block datasets report numpy dtypes / python classes."""
    if isinstance(t, pa.DataType):
        return t
    if t in (str, object):
        return pa.string()
    if t in (bytes,):
        return pa.binary()
    return pa.from_numpy_dtype(np.dtype(t))


def _pad_column(n: int, typ: pa.DataType):
    """Filler column for the wide union schema.  Integer columns are
    padded with ZEROS, not nulls: a null int column becomes float64 in
    pandas, silently corrupting ids above 2^53 on the real rows of the
    SAME column (the padding rows themselves are never read — each side
    only projects its own columns inside the bucket join)."""
    if pa.types.is_integer(typ):
        return pa.array(np.zeros(n, dtype=np.int64)).cast(typ)
    return pa.nulls(n, typ)


def bucketed_hash_join(left_ds, right_ds, key: str, n_buckets: int = 32,
                       how: str = "inner"):
    """Join two Datasets on ``key``.  Non-key column names must be
    disjoint (rename beforehand)."""
    import pandas as pd

    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    overlap = (set(left_cols) & set(right_cols)) - {key}
    if overlap:
        raise ValueError(f"column collision (rename first): {sorted(overlap)}")

    fields = [(n, _pa_type(t)) for n, t in
              zip(left_schema.names, left_schema.types)] + [
        (n, _pa_type(t)) for n, t in
        zip(right_schema.names, right_schema.types) if n != key]
    wide = pa.schema(fields + [("__bucket", pa.int32()),
                               ("__side", pa.string())])
    hash_as = _common_key_class(
        _pa_type(dict(zip(left_schema.names, left_schema.types))[key]),
        _pa_type(dict(zip(right_schema.names, right_schema.types))[key]),
        key)

    def tag(batch: pa.Table, side: str) -> pa.Table:
        n = batch.num_rows
        buckets = _bucket_ids(batch.column(key), n_buckets, hash_as)
        cols = {}
        for fld in wide:
            if fld.name == "__bucket":
                cols[fld.name] = pa.array(buckets)
            elif fld.name == "__side":
                cols[fld.name] = pa.array(
                    np.full(n, side, dtype=object), pa.string())
            elif fld.name in batch.column_names:
                cols[fld.name] = batch.column(fld.name)
            else:
                cols[fld.name] = _pad_column(n, fld.type)
        return pa.table(cols, schema=wide)

    left_tagged = left_ds.map_batches(tag, batch_format="pyarrow",
                                      fn_kwargs=dict(side="l"))
    right_tagged = right_ds.map_batches(tag, batch_format="pyarrow",
                                        fn_kwargs=dict(side="r"))

    # exact output schema for the inner path (outer variants introduce
    # nulls that widen int columns, so they stay pandas)
    out_schema = pa.schema(
        [(n, t) for n, t in fields if n in left_cols]
        + [(n, t) for n, t in fields
           if n in right_cols and n != key])

    def join_bucket(df: pd.DataFrame):
        lhs = df[df["__side"] == "l"][left_cols]
        rhs = df[df["__side"] == "r"][[key] + [c for c in right_cols
                                               if c != key]]
        merged = lhs.merge(rhs, on=key, how=how)
        if how != "inner":
            return merged
        # emit Arrow with the exact schema: empty object-dtype pandas
        # blocks break Ray's block-size estimator ("cannot call
        # vectorize" log spam) and degrade block accounting
        return pa.Table.from_pandas(
            merged[out_schema.names], preserve_index=False,
            schema=out_schema)

    both = left_tagged.union(right_tagged)
    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pandas")


def bucketed_left_lookup_join(left_ds, right_ds, key: str,
                              n_buckets: int = 32,
                              found_col: str = "found"):
    """Left join against a LOOKUP side that is unique on ``key`` (a
    dimension table — e.g. the image+caption corpus keyed by image_id).
    Every left row survives exactly once with the right columns attached
    (nulls on miss) plus a bool ``found_col``.

    Shape: the same ONE-shuffle bucketed pattern as
    ``bucketed_hash_join``; the per-bucket probe is vectorized
    ``pc.index_in`` + ``Table.take`` on Arrow blocks end-to-end — no
    pandas merge, so int64 payloads (phash) survive misses without the
    float64 widening a pandas left-merge would inflict, and binary
    payload columns never round-trip through object dtype.

    Contract: the right side must be unique on ``key`` (duplicates
    resolve to the first occurrence inside the bucket, NOT a row
    multiplication — use ``bucketed_hash_join`` for m:n joins)."""
    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    right_only = [c for c in right_cols if c != key]
    overlap = (set(left_cols) & set(right_cols)) - {key}
    if overlap:
        raise ValueError(f"column collision (rename first): {sorted(overlap)}")
    if found_col in left_cols or found_col in right_cols:
        raise ValueError(f"found_col {found_col!r} collides with a column")

    fields = [(n, _pa_type(t)) for n, t in
              zip(left_schema.names, left_schema.types)] + [
        (n, _pa_type(t)) for n, t in
        zip(right_schema.names, right_schema.types) if n != key]
    wide = pa.schema(fields + [("__bucket", pa.int32()),
                               ("__side", pa.string())])
    hash_as = _common_key_class(
        _pa_type(dict(zip(left_schema.names, left_schema.types))[key]),
        _pa_type(dict(zip(right_schema.names, right_schema.types))[key]),
        key)

    def tag(batch: pa.Table, side: str) -> pa.Table:
        n = batch.num_rows
        buckets = _bucket_ids(batch.column(key), n_buckets, hash_as)
        cols = {}
        for fld in wide:
            if fld.name == "__bucket":
                cols[fld.name] = pa.array(buckets)
            elif fld.name == "__side":
                cols[fld.name] = pa.array(
                    np.full(n, side, dtype=object), pa.string())
            elif fld.name in batch.column_names:
                col = batch.column(fld.name)
                cols[fld.name] = (col.cast(fld.type)
                                  if col.type != fld.type else col)
            else:
                cols[fld.name] = _pad_column(n, fld.type)
        return pa.table(cols, schema=wide)

    left_tagged = left_ds.map_batches(tag, batch_format="pyarrow",
                                      fn_kwargs=dict(side="l"))
    right_tagged = right_ds.map_batches(tag, batch_format="pyarrow",
                                        fn_kwargs=dict(side="r"))

    out_schema = pa.schema(fields + [(found_col, pa.bool_())])

    def probe_bucket(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(tbl.column("__side"), "l")
        lt = tbl.filter(lmask).select(left_cols)
        rt = tbl.filter(pc.invert(lmask)).select([key] + right_only)
        if lt.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.index_in(lt.column(key).combine_chunks(),
                          value_set=rt.column(key).combine_chunks())
        cols = {c: lt.column(c) for c in left_cols}
        picked = rt.take(idx)  # null index → all-null row
        for c in right_only:
            cols[c] = picked.column(c)
        cols[found_col] = pc.is_valid(idx)
        return pa.table(cols, schema=out_schema)

    both = left_tagged.union(right_tagged)
    return both.groupby("__bucket").map_groups(probe_bucket,
                                               batch_format="pyarrow")


def _bucketed_membership_join(left_ds, right_ds, key: str,
                              n_buckets: int, keep_matched: bool):
    """Shared semi/anti shape: tag both sides with a bucket, union only
    (left row, right KEY) rows — the right side ships keys alone, never
    its payload — and keep/drop left rows by membership per bucket.
    One shuffle; B bounds per-task memory (same contract as
    ``bucketed_hash_join``)."""
    import pandas as pd

    left_schema = left_ds.schema()
    left_cols = list(left_schema.names)
    left_fields = [(n, _pa_type(t)) for n, t in
                   zip(left_schema.names, left_schema.types)]
    wide = pa.schema(left_fields + [("__bucket", pa.int32()),
                                    ("__side", pa.string())])
    right_key_t = _pa_type(dict(zip(right_ds.schema().names,
                                    right_ds.schema().types))[key])
    hash_as = _common_key_class(dict(left_fields)[key], right_key_t, key)

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {name: batch.column(name) for name, _ in left_fields}
        cols["__bucket"] = pa.array(
            _bucket_ids(batch.column(key), n_buckets, hash_as))
        cols["__side"] = pa.array(np.full(n, "l", dtype=object), pa.string())
        return pa.table(cols, schema=wide)

    def tag_right_keys(batch: pa.Table) -> pa.Table:
        keys = batch.column(key)
        n = batch.num_rows
        cols = {}
        for name, typ in left_fields:
            cols[name] = (keys.cast(typ) if name == key
                          else _pad_column(n, typ))
        cols["__bucket"] = pa.array(_bucket_ids(keys, n_buckets, hash_as))
        cols["__side"] = pa.array(np.full(n, "r", dtype=object), pa.string())
        return pa.table(cols, schema=wide)

    left_tagged = left_ds.map_batches(tag_left, batch_format="pyarrow")
    right_tagged = (right_ds.select_columns([key])
                    .map_batches(tag_right_keys, batch_format="pyarrow"))

    out_schema = pa.schema(left_fields)

    def filter_bucket(df: pd.DataFrame) -> pa.Table:
        lhs = df[df["__side"] == "l"]
        right_keys = df.loc[df["__side"] == "r", key].unique()
        mask = lhs[key].isin(right_keys)
        out = lhs[mask if keep_matched else ~mask][left_cols]
        # Arrow with the exact left schema (empty object-dtype pandas
        # blocks break Ray's size estimator)
        return pa.Table.from_pandas(out, preserve_index=False,
                                    schema=out_schema)

    both = left_tagged.union(right_tagged)
    return both.groupby("__bucket").map_groups(filter_bucket,
                                               batch_format="pandas")


def bucketed_anti_join(left_ds, right_ds, key: str, n_buckets: int = 32):
    """Left rows with NO matching ``key`` on the right (the frontier
    ANTI url_seen shape generalized to two large Datasets; reference
    J1 semantics as a standalone operator)."""
    return _bucketed_membership_join(left_ds, right_ds, key, n_buckets,
                                     keep_matched=False)


def bucketed_semi_join(left_ds, right_ds, key: str, n_buckets: int = 32):
    """Left rows WITH a matching ``key`` on the right (no right-side
    payload shipped or duplicated — unlike an inner join, left rows are
    never multiplied)."""
    return _bucketed_membership_join(left_ds, right_ds, key, n_buckets,
                                     keep_matched=True)


def bucketed_asof_join(left_ds, right_ds, key: str, left_on: str,
                       right_on: str, n_buckets: int = 32,
                       how: str = "inner", direction: str = "backward"):
    """As-of join: each left row picks the single right row with the
    same ``key`` and — ``direction="backward"`` (default) — the
    greatest ``right_on`` ≤ its ``left_on`` (the "latest state as of
    this timestamp" lookup), or — ``direction="forward"`` — the
    smallest ``right_on`` ≥ its ``left_on`` (the "next scheduled
    event after this instant" lookup), or — ``direction="nearest"`` —
    the right row minimizing ``|right_on − left_on|``, ties resolving
    BACKWARD (the earlier right row wins, pandas ``merge_asof``
    semantics — the SQL twin must encode ``back_diff <= fwd_diff``).
    ``how="inner"`` drops unmatched left rows; ``"left"`` keeps them
    with nulls.

    Shape: same ONE-shuffle bucketed pattern as ``bucketed_hash_join``
    (bucket by key hash, union, ``groupby(bucket)``), with the per-
    bucket merge a vectorized ``pd.merge_asof`` (both sides sorted by
    their ``on`` column inside the bucket).  Partitioning assumption:
    rows of one key must fit one bucket task — salt-split is NOT valid
    here (the as-of lookup needs a key's full right-side history), so
    hot keys need their right side pre-compacted (e.g. one row per
    (key, ts) via a keyed aggregate) before the join.

    Determinism: ties on ``right_on`` (several right rows at the exact
    as-of instant) resolve to the LAST in (``right_on``, then input
    order) — pre-aggregate the right side to unique (key, ts) rows if
    tie order matters (the oracle query does).  ``on`` columns must be
    numeric or datetime, same class both sides."""
    import pandas as pd

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError("direction must be 'backward', 'forward' or "
                         f"'nearest', got {direction!r}")
    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    overlap = (set(left_cols) & set(right_cols)) - {key}
    if overlap:
        raise ValueError(f"column collision (rename first): {sorted(overlap)}")

    fields = [(n, _pa_type(t)) for n, t in
              zip(left_schema.names, left_schema.types)] + [
        (n, _pa_type(t)) for n, t in
        zip(right_schema.names, right_schema.types) if n != key]
    wide = pa.schema(fields + [("__bucket", pa.int32()),
                               ("__side", pa.string())])
    hash_as = _common_key_class(
        _pa_type(dict(zip(left_schema.names, left_schema.types))[key]),
        _pa_type(dict(zip(right_schema.names, right_schema.types))[key]),
        key)

    def tag(batch: pa.Table, side: str) -> pa.Table:
        n = batch.num_rows
        buckets = _bucket_ids(batch.column(key), n_buckets, hash_as)
        cols = {}
        for fld in wide:
            if fld.name == "__bucket":
                cols[fld.name] = pa.array(buckets)
            elif fld.name == "__side":
                cols[fld.name] = pa.array(
                    np.full(n, side, dtype=object), pa.string())
            elif fld.name in batch.column_names:
                cols[fld.name] = batch.column(fld.name)
            else:
                cols[fld.name] = _pad_column(n, fld.type)
        return pa.table(cols, schema=wide)

    left_tagged = left_ds.map_batches(tag, batch_format="pyarrow",
                                      fn_kwargs=dict(side="l"))
    right_tagged = right_ds.map_batches(tag, batch_format="pyarrow",
                                        fn_kwargs=dict(side="r"))

    def asof_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lhs = (df[df["__side"] == "l"][left_cols]
               .sort_values(left_on, kind="mergesort"))
        rhs = (df[df["__side"] == "r"][[key] + [c for c in right_cols
                                               if c != key]]
               .sort_values(right_on, kind="mergesort")
               .assign(__m=1))
        merged = pd.merge_asof(lhs, rhs, left_on=left_on, right_on=right_on,
                               by=key, direction=direction)
        if how == "inner":
            merged = merged[merged["__m"].notna()]
        return merged.drop(columns="__m")

    both = left_tagged.union(right_tagged)
    return both.groupby("__bucket").map_groups(asof_bucket,
                                               batch_format="pandas")


def set_op_distinct(left_ds, right_ds, key: str, op: str = "intersect"):
    """SQL ``INTERSECT`` / ``EXCEPT`` (DISTINCT semantics) over one key
    column (reference: the seed-source set algebra of SURVEY §2.8; the
    reference unions link sources — this adds the other two members of
    the set-op family).

    Scale shape: each side deduplicates per batch (``pc.unique``) and
    emits ``(key, in_left, in_right)`` marker rows, so the single
    ``groupby(key)`` shuffle moves distinct-per-block keys, never raw
    rows.  Max-merging the markers then gives membership on each side;
    the op is a vectorized filter over the merged table.  One shuffle,
    O(distinct keys) intermediate, no driver materialization.

    Contract: NULL keys are EXCLUDED from both sides (SQL's set ops
    treat NULL as equal to NULL, so ``NULL INTERSECT NULL`` yields a
    row; this kernel does not — callers needing that row must handle
    nulls explicitly).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    if op not in ("intersect", "except"):
        raise ValueError(f"op must be 'intersect' or 'except', got {op!r}")

    def tag(batch: pa.Table, in_left: int) -> pa.Table:
        keys = pc.unique(batch.column(key).combine_chunks())
        keys = keys.drop_null()
        n = len(keys)
        return pa.table({
            key: keys,
            "_in_l": pa.array(np.full(n, in_left, np.int64)),
            "_in_r": pa.array(np.full(n, 1 - in_left, np.int64)),
        })

    tagged = (left_ds.map_batches(tag, batch_format="pyarrow",
                                  fn_kwargs=dict(in_left=1))
              .union(right_ds.map_batches(tag, batch_format="pyarrow",
                                          fn_kwargs=dict(in_left=0))))
    merged = tagged.groupby(key).aggregate(Max("_in_l"), Max("_in_r"))

    def pick(batch: pa.Table) -> pa.Table:
        in_l = pc.equal(batch.column("max(_in_l)"), 1)
        in_r = pc.equal(batch.column("max(_in_r)"), 1)
        mask = (pc.and_(in_l, in_r) if op == "intersect"
                else pc.and_(in_l, pc.invert(in_r)))
        return batch.filter(mask).select([key])

    return merged.map_batches(pick, batch_format="pyarrow")


def banded_range_join(points_ds, intervals_ds, point_col: str,
                      lo_col: str, hi_col: str, band_width: int,
                      n_buckets: int = 64):
    """Distributed range join for BIG point × BIG interval tables —
    the scale path past ``q_range_join_events``'s broadcast variant
    (which requires the interval side to fit every worker).

    Shape: the int64 domain splits into fixed bands of ``band_width``;
    each interval EXPLODES to one row per band it overlaps
    (``lo // W .. (hi-1) // W`` — hi exclusive) and each point maps to
    exactly one band, so every qualifying (point, interval) pair meets
    in exactly ONE band (the point's) and the in-band merge needs no
    post-dedup.  One band-keyed shuffle total; the in-bucket probe is
    a vectorized pandas merge + range filter.

    Knobs & caveats: explosion factor ≈ avg interval span / W + 1 —
    pick W near the typical span.  A band holding a hot spot still
    bounds one task (same one-key-one-worker contract as the as-of
    join); sub-split hot bands upstream if needed.  ``point_col`` /
    ``lo_col`` / ``hi_col`` must be int64 (µs timestamps, cents).
    Output: joined pairs carrying every column of both sides.
    """
    import pandas as pd

    pschema = points_ds.schema()
    ischema = intervals_ds.schema()
    pcols = list(pschema.names)
    icols = list(ischema.names)
    ptypes = {n: _pa_type(t) for n, t in zip(pschema.names, pschema.types)}
    itypes = {n: _pa_type(t) for n, t in zip(ischema.names, ischema.types)}
    overlap = set(pcols) & set(icols)
    if overlap:
        raise ValueError(f"column collision (rename first): {sorted(overlap)}")
    if band_width <= 0:
        raise ValueError(f"band_width must be > 0, got {band_width}")

    wide_names = pcols + icols

    def tag_points(b: pa.Table) -> pa.Table:
        v = b.column(point_col).to_numpy(zero_copy_only=False)
        band = v // band_width
        cols = {c: b.column(c) for c in pcols}
        for c in icols:
            cols[c] = pa.nulls(b.num_rows, itypes[c])
        cols["__band"] = pa.array(band, pa.int64())
        cols["__side"] = pa.array(["p"] * b.num_rows, pa.string())
        return pa.table({n: cols[n] for n in
                         wide_names + ["__band", "__side"]})

    def explode_intervals(b: pa.Table) -> pa.Table:
        lo = b.column(lo_col).to_numpy(zero_copy_only=False)
        hi = b.column(hi_col).to_numpy(zero_copy_only=False)
        first = lo // band_width
        last = np.maximum((hi - 1) // band_width, first)  # empty→1 band
        reps = (last - first + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(lo)), reps)
        # band sequence per interval: first[i] .. last[i]
        offs = np.arange(len(idx)) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
        bands = first[idx] + offs
        cols = {}
        for c in pcols:
            cols[c] = pa.nulls(len(idx), ptypes[c])
        for c in icols:
            cols[c] = b.column(c).take(pa.array(idx))
        cols["__band"] = pa.array(bands, pa.int64())
        cols["__side"] = pa.array(["i"] * len(idx), pa.string())
        return pa.table({n: cols[n] for n in
                         wide_names + ["__band", "__side"]})

    from .bucketing import key_buckets

    def add_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.assign(_b=key_buckets(df["__band"].to_numpy(), n_buckets))

    def probe(g: "pd.DataFrame") -> "pd.DataFrame":
        pts = g[g["__side"] == "p"][pcols + ["__band"]]
        ivs = g[g["__side"] == "i"][icols + ["__band"]]
        if pts.empty or ivs.empty:
            return pd.DataFrame({c: pd.array([], dtype="int64")
                                 for c in wide_names})
        m = pts.merge(ivs, on="__band")
        keep = ((m[point_col] >= m[lo_col])
                & (m[point_col] < m[hi_col]))
        return m.loc[keep, wide_names]

    tagged_p = points_ds.map_batches(tag_points, batch_format="pyarrow")
    tagged_i = intervals_ds.map_batches(explode_intervals,
                                        batch_format="pyarrow")
    both = tagged_p.union(tagged_i).map_batches(add_bucket,
                                                batch_format="pandas")
    return both.groupby("_b").map_groups(probe, batch_format="pandas")


def salted_hash_join(left_ds, right_ds, key: str, salt_col: str,
                     n_salt: int = 8, n_buckets: int = 32):
    """Skew-aware inner join: identical result to
    ``bucketed_hash_join``, but a HOT left key no longer lands in one
    group task — left rows spread across ``n_salt`` sub-buckets by the
    hash of ``salt_col`` (a left column, e.g. the row id, so the salt
    is layout-independent), and every right row replicates once per
    salt (the classic skew-join trade: n_salt× the SMALL side's rows
    buys n_salt-way parallelism on the hot key; north rule: "host-key
    skew via salted repartitioning").

    Same ONE-shuffle union+groupby shape as ``bucketed_hash_join``;
    the group key is ``hash(key) % n_buckets`` crossed with the salt,
    so per-task memory is bounded by (hot-key rows / n_salt) + right
    rows of that bucket.  Right side should be the smaller table.
    """
    import pandas as pd

    if n_salt < 1:
        raise ValueError(f"n_salt must be >= 1, got {n_salt}")

    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    overlap = (set(left_cols) & set(right_cols)) - {key}
    if overlap:
        raise ValueError(f"column collision (rename first): {sorted(overlap)}")
    if salt_col not in left_cols:
        raise ValueError(f"salt_col {salt_col!r} must be a left column")

    fields = [(n, _pa_type(t)) for n, t in
              zip(left_schema.names, left_schema.types)] + [
        (n, _pa_type(t)) for n, t in
        zip(right_schema.names, right_schema.types) if n != key]
    wide = pa.schema(fields + [("__bucket", pa.int32()),
                               ("__side", pa.string())])
    hash_as = _common_key_class(
        _pa_type(dict(zip(left_schema.names, left_schema.types))[key]),
        _pa_type(dict(zip(right_schema.names, right_schema.types))[key]),
        key)

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        kb = np.asarray(_bucket_ids(batch.column(key), n_buckets,
                                    hash_as), dtype=np.int64)
        salt = np.asarray(_bucket_ids(batch.column(salt_col), n_salt,
                                      _key_class(
                                          batch.schema.field(
                                              salt_col).type)),
                          dtype=np.int64)
        buckets = (kb * n_salt + salt).astype(np.int32)
        cols = {}
        for fld in wide:
            if fld.name == "__bucket":
                cols[fld.name] = pa.array(buckets)
            elif fld.name == "__side":
                cols[fld.name] = pa.array(
                    np.full(n, "l", dtype=object), pa.string())
            elif fld.name in batch.column_names:
                cols[fld.name] = batch.column(fld.name)
            else:
                cols[fld.name] = _pad_column(n, fld.type)
        return pa.table(cols, schema=wide)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        kb = np.asarray(_bucket_ids(batch.column(key), n_buckets,
                                    hash_as), dtype=np.int64)
        idx = np.repeat(np.arange(n), n_salt)
        salts = np.tile(np.arange(n_salt, dtype=np.int64), n)
        buckets = (kb[idx] * n_salt + salts).astype(np.int32)
        rep = batch.take(pa.array(idx))
        cols = {}
        for fld in wide:
            if fld.name == "__bucket":
                cols[fld.name] = pa.array(buckets)
            elif fld.name == "__side":
                cols[fld.name] = pa.array(
                    np.full(len(idx), "r", dtype=object), pa.string())
            elif fld.name in batch.column_names:
                cols[fld.name] = rep.column(fld.name)
            else:
                cols[fld.name] = _pad_column(len(idx), fld.type)
        return pa.table(cols, schema=wide)

    left_tagged = left_ds.map_batches(tag_left, batch_format="pyarrow")
    right_tagged = right_ds.map_batches(tag_right, batch_format="pyarrow")

    out_schema = pa.schema(
        [(n, t) for n, t in fields if n in left_cols]
        + [(n, t) for n, t in fields
           if n in right_cols and n != key])

    def join_bucket(df: pd.DataFrame):
        lhs = df[df["__side"] == "l"][left_cols]
        rhs = df[df["__side"] == "r"][[key] + [c for c in right_cols
                                               if c != key]]
        merged = lhs.merge(rhs, on=key, how="inner")
        return pa.Table.from_pandas(
            merged[out_schema.names], preserve_index=False,
            schema=out_schema)

    both = left_tagged.union(right_tagged)
    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pandas")


def auto_hash_join(left_ds, right, key: str, how: str = "inner",
                   broadcast_max_bytes: int = 64 << 20,
                   n_buckets: int = 32):
    """Strategy-switching join (the ``attach_image_table`` rule,
    generalized to any key/table): ``right`` may be an in-memory
    ``pa.Table`` or a Dataset.  Broadcast — ``ray.put`` once, zero-copy
    ``pc.index_in`` probe per batch — ONLY when the right side is
    in-memory AND measured-small (``nbytes ≤ broadcast_max_bytes``); a
    Dataset right side (the 100-TB case: its size is unknowable without
    a scan) ALWAYS takes the one-shuffle bucketed path.  The broadcast
    probe is ``pc.index_in`` (first match per key), so it additionally
    requires UNIQUE right keys; a small right table with duplicate keys
    falls back to the bucketed path, which emits the full join
    multiplication — results are therefore identical either way
    (equality-tested, incl. the duplicate-key case).  ``how``: inner |
    left (left misses null-fill the right columns).  Non-key column
    names must be disjoint (the ``bucketed_hash_join`` contract)."""
    import ray
    import ray.data as rd

    import pyarrow.compute as pc

    broadcast_ok = (isinstance(right, pa.Table)
                    and right.nbytes <= broadcast_max_bytes
                    # pc.index_in keeps only the FIRST match per key:
                    # duplicate right keys must take the bucketed path
                    # or the join multiplication is silently lost.
                    and pc.count_distinct(right.column(key)).as_py()
                    == right.num_rows)
    if not broadcast_ok:
        right_ds = rd.from_arrow(right) if isinstance(right, pa.Table) \
            else right
        return bucketed_hash_join(left_ds, right_ds, key,
                                  n_buckets=n_buckets, how=how)

    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    right = right.combine_chunks()
    ref = ray.put(right)
    pad_cols = [(n, right.schema.field(n).type)
                for n in right.column_names if n != key]

    def probe(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        r = ray.get(ref)
        idx = pc.index_in(batch.column(key), value_set=r.column(key))
        if how == "inner":
            valid = pc.is_valid(idx)
            batch = batch.filter(valid)
            idx = idx.filter(valid)
        cols = {n: batch.column(n) for n in batch.column_names}
        for n, _t in pad_cols:
            cols[n] = r.column(n).take(idx)  # null idx → null value
        return pa.table(cols)

    return left_ds.map_batches(probe, batch_format="pyarrow")

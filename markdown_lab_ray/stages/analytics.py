"""Ordered analytics over keyed tables: rolling windows, lag deltas,
in-group ranks, pivots, rollup aggregates, distinct counts.

Ray Data has no SQL window functions; each operator here is the
Ray-Data-first composition of the two scale-safe shapes:

* **partial-aggregate → tiny keyed shuffle** (pivot, histogram,
  distinct-count, rollup): a vectorized ``map_batches`` combiner
  collapses each block to per-key partials first, so the only shuffle
  moves O(keys × blocks) partial rows, never raw events.  This is the
  pre-aggregation pattern SURVEY §7.5 mandates for wide ops at 100 TB.
* **one keyed shuffle → sorted fold** (rolling, lag, rank):
  ``bucketing.keyed_fold`` hands each fold one whole bucket of keys;
  true event order is only needed *within* a key, so the fold sorts
  its bucket and emits exact ordered results.  Partitioning
  assumption (same as the sessionize query documents): one key's
  history fits one worker.  Hot keys would need a salted two-stage
  split (the shape ``joins.salted_hash_join`` uses).

The reference has no analytics module — these are the training-data
pipeline additions (SURVEY §2.8 extension); every operator has a DuckDB
oracle twin in ``__ray_entry__.py``.

Exactness: ``events.value`` is 2-decimal currency, so rolling sums are
computed in integer cents (bit-exact vs SQL, no float-rounding parity
games); counts/ranks/deltas are int64 end-to-end; only the rollup's
price sum is a float (rounded to 2 places, same as the passing
``segment_sales`` oracle).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from markdown_lab_ray.stages.bucketing import keyed_fold


def _carry(*fields):
    """A ``keyed_fold`` schema whose types follow the fold's input.  A
    field is an input column's name, or a ``(name, type)`` pair whose
    type is an Arrow type or the input column to take it from."""
    def schema(s: pa.Schema) -> pa.Schema:
        return pa.schema([
            s.field(f) if isinstance(f, str) else
            (f[0], s.field(f[1]).type if isinstance(f[1], str) else f[1])
            for f in fields])
    return schema


def _sum_partials(ds, keys: list, n_buckets: int = 64):
    """Sum the per-bucket partials a first fold emitted (every column but
    ``keys``) per ``keys``: a ``keyed_fold`` on ``keys[0]``, which all
    rows of a key tuple share, typed as its input.  Unlike a native
    ``groupby(keys).aggregate``, it leaves no empty block for a later
    map to turn column-less."""
    def total(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, sort=False).sum().reset_index()

    return keyed_fold(ds, keys[0], total, n_buckets=n_buckets,
                      schema=lambda s: s, batch_format="pandas")


def _cents(values: np.ndarray) -> np.ndarray:
    """2-decimal currency doubles → exact int64 cents (half-away-from-
    zero, matching SQL ``round(value*100)`` for the positive values the
    events table holds)."""
    return np.floor(np.asarray(values, dtype=np.float64) * 100.0 + 0.5).astype(
        np.int64)


def rolling_sum_cents(ds, window: int = 7, key_col: str = "user_id",
                      ts_col: str = "ts", value_col: str = "value",
                      id_col: str = "event_id", n_buckets: int = 64):
    """Trailing ``window``-row sum per key in exact integer cents.
    One keyed shuffle on ``hash(key) % n_buckets`` (B group tasks, not
    one per key — see ``bucketing.py``); inside a bucket the windowed
    sum is a per-key cumsum difference, all pandas-groupby vectorized.
    Output: (key, id, roll_sum_cents)."""

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        g = g.assign(_c=_cents(g[value_col].to_numpy()))
        grp = g.groupby(key_col, sort=False)["_c"]
        csum = grp.cumsum()
        lagged = csum.groupby(g[key_col].to_numpy()).shift(window)
        out = (csum - lagged.fillna(0)).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            id_col: g[id_col].to_numpy(),
            "roll_sum_cents": out,
        })

    return keyed_fold(ds, key_col, roll, n_buckets=n_buckets,
                      schema=_carry(key_col, id_col,
                                    ("roll_sum_cents", pa.int64())),
                      batch_format="pandas")


def lag_deltas(ds, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", n_buckets: int = 64):
    """Inter-event gap in exact integer microseconds per key (the
    LAG() building block: inter-arrival analysis, bot detection).
    First event of each key is dropped (no predecessor).  Bucketed
    shuffle (B group tasks); per-key diff vectorized inside the
    bucket.  Output: (key, id, delta_us)."""

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        keys = g[key_col].to_numpy()
        delta = pd.Series(us).groupby(keys).diff().to_numpy()
        keep = ~np.isnan(delta)
        return pd.DataFrame({
            key_col: keys[keep],
            id_col: g[id_col].to_numpy()[keep],
            "delta_us": delta[keep].astype(np.int64),
        })

    return keyed_fold(ds, key_col, gaps, n_buckets=n_buckets,
                      schema=_carry(key_col, id_col, ("delta_us", pa.int64())),
                      batch_format="pandas")


def rank_in_group(ds, key_col: str, order_col: str, id_col: str,
                  descending: bool = True, rank_col: str = "rn",
                  n_buckets: int = 64):
    """ROW_NUMBER() per key: deterministic total order inside each
    group via (order_col, id_col) tie-break.  Bucketed shuffle;
    in-bucket ranks via one sort + groupby-cumcount.  Output keeps the
    input's (key, id) plus the 1-based rank."""

    def rk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col, id_col],
                          ascending=[True, not descending, True],
                          kind="mergesort")
        rn = g.groupby(key_col, sort=False).cumcount().to_numpy() + 1
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            id_col: g[id_col].to_numpy(),
            rank_col: rn.astype(np.int64),
        })

    return keyed_fold(ds, key_col, rk, n_buckets=n_buckets,
                      schema=_carry(key_col, id_col, (rank_col, pa.int64())),
                      batch_format="pandas")


def pivot_counts(ds, key_col: str, cat_col: str,
                 categories: Sequence[str]):
    """Wide per-key category counts (long → wide pivot).  Per-batch
    crosstab partials collapse each block to ≤|keys-in-block| rows
    BEFORE the shuffle; the groupby then sums int64 partials only.
    ``categories`` must be the closed category set (enforced: unknown
    values raise rather than silently dropping counts)."""
    from ray.data.aggregate import Sum

    cats = list(categories)
    wide_cols = [f"n_{c}" for c in cats]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        unknown = set(df[cat_col].unique()) - set(cats)
        if unknown:
            raise ValueError(f"pivot_counts: unlisted categories {unknown}")
        ct = pd.crosstab(df[key_col], df[cat_col])
        ct = ct.reindex(columns=cats, fill_value=0)
        ct.columns = wide_cols
        ct = ct.reset_index()
        for c in wide_cols:
            ct[c] = ct[c].astype("int64")
        return ct

    part = ds.map_batches(partial, batch_format="pandas")
    agg = part.groupby(key_col).aggregate(
        *[Sum(c, alias_name=c) for c in wide_cols])

    def to_int(df: pd.DataFrame) -> pd.DataFrame:
        for c in wide_cols:
            df[c] = df[c].astype("int64")
        return df

    return agg.map_batches(to_int, batch_format="pandas")


def histogram_counts(ds, value_col: str, bin_width: float,
                     bin_col: str = "bin", n_col: str = "n_events"):
    """Fixed-width value histogram: per-batch ``np.unique`` partials →
    one tiny shuffle over (bin, count) rows.  Bin = floor(v/width),
    matching SQL FLOOR division for negatives too."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        bins = np.floor(v / bin_width).astype(np.int64)
        u, c = np.unique(bins, return_counts=True)
        return pa.table({bin_col: pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    part = ds.map_batches(partial, batch_format="pyarrow")
    agg = part.groupby(bin_col).aggregate(Sum("n", alias_name=n_col))
    return agg.map_batches(
        lambda df: df.astype({n_col: "int64"}), batch_format="pandas")


def distinct_count(ds, key_col: str, distinct_col: str,
                   out_col: str = "n_distinct", n_buckets: int = 64):
    """COUNT(DISTINCT x) per key, the two-level distributed way: a
    per-batch pair-dedup combiner, then ONE bucketed shuffle on
    hash(x) (every copy of a pair shares x, so the in-bucket
    drop_duplicates is a GLOBAL pair dedup) emitting per-key partial
    counts, then a second tiny bucketed shuffle on hash(key) sums the
    partials.  Raw rows are deduped before they ever move.

    Two ``keyed_fold`` passes rather than Ray's native
    ``groupby([key, x]).aggregate``: the sort-based aggregate pays
    per-GROUP overhead, and with one group per distinct pair 45k pairs
    cost 71 s where the bucketed path takes under a second (the same
    lesson as the string-key aggregate in edit1_similar_pairs)."""

    def pair_dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df[[key_col, distinct_col]].drop_duplicates()

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[key_col, distinct_col]].drop_duplicates()
        out = (d.groupby(key_col, sort=False).size().rename("n")
               .astype("int64").reset_index())
        return out

    def sum_partials(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(key_col, sort=False)["n"].sum()
               .astype("int64").rename(out_col).reset_index())
        return out

    pairs = ds.map_batches(pair_dedup, batch_format="pandas")
    part = keyed_fold(pairs, distinct_col, bucket_count, n_buckets=n_buckets,
                      schema=_carry(key_col, ("n", pa.int64())),
                      batch_format="pandas")
    return keyed_fold(part, key_col, sum_partials, n_buckets=n_buckets,
                      schema=_carry(key_col, (out_col, pa.int64())),
                      batch_format="pandas")


def grouping_sets_agg(ds, cols: Sequence[str],
                      sets: Sequence[Sequence[str]], value_col: str,
                      count_col: str = "n_rows", sum_col: str = "sum_value",
                      all_token: str = "ALL"):
    """GROUP BY GROUPING SETS with count + sum, touching the raw rows
    ONCE: the finest grouping (``cols``, which must be the first set)
    is the only full shuffle; every coarser set re-aggregates the
    finest aggregate (O(groups) rows — materialized once so the union
    branches don't re-execute the raw shuffle per consumer).  Rolled-up
    dimensions carry ``all_token`` instead of SQL NULL so the result
    hashes stably.  Sum is rounded half-away to 2 places."""
    from ray.data.aggregate import Count, Sum

    cols = list(cols)
    sets = [list(s) for s in sets]
    if sets[0] != cols:
        raise ValueError("first grouping set must be the full column list")

    def finish(df: pd.DataFrame, present: list[str]) -> pd.DataFrame:
        out = pd.DataFrame()
        for c in cols:
            out[c] = (df[c].astype(str) if c in present
                      else np.repeat(all_token, len(df)))
        out[count_col] = df[count_col].astype("int64")
        s = df["_s"].to_numpy(dtype=np.float64)
        out[sum_col] = np.floor(s * 100.0 + 0.5) / 100.0
        return out

    finest = ds.groupby(cols).aggregate(
        Count(alias_name=count_col), Sum(value_col, alias_name="_s"))
    # union branches re-execute an unmaterialized upstream per consumer
    # — pin the O(groups)-row finest aggregate so the raw shuffle runs
    # exactly once no matter how many sets consume it
    if len(sets) > 1:
        finest = finest.materialize()
    levels = [finest.map_batches(finish, batch_format="pandas",
                                 fn_kwargs=dict(present=cols))]

    def grand(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({c: [all_token] for c in cols})
        out[count_col] = df[count_col].astype("int64").to_numpy()
        s = df["_s"].to_numpy(dtype=np.float64)
        out[sum_col] = np.floor(s * 100.0 + 0.5) / 100.0
        return out

    for keep in sets[1:]:
        if keep:
            lvl = finest.groupby(keep).aggregate(
                Sum(count_col, alias_name=count_col),
                Sum("_s", alias_name="_s"))
            levels.append(lvl.map_batches(finish, batch_format="pandas",
                                          fn_kwargs=dict(present=keep)))
        else:
            # grand total: O(groups)-row constant-key aggregate over
            # the finest aggregate — raw rows are never re-read
            levels.append(finest.map_batches(
                lambda df: df.assign(_g=np.int64(0)), batch_format="pandas")
                .groupby("_g")
                .aggregate(Sum(count_col, alias_name=count_col),
                           Sum("_s", alias_name="_s"))
                .map_batches(grand, batch_format="pandas"))

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def rollup_agg(ds, cols: Sequence[str], value_col: str,
               count_col: str = "n_rows", sum_col: str = "sum_value",
               all_token: str = "ALL"):
    """GROUP BY ROLLUP(cols...): the prefix grouping sets, coarsest
    last down to the grand total."""
    cols = list(cols)
    sets = [cols[:d] for d in range(len(cols), -1, -1)]
    return grouping_sets_agg(ds, cols, sets, value_col, count_col,
                             sum_col, all_token)


def cube_agg(ds, cols: Sequence[str], value_col: str,
             count_col: str = "n_rows", sum_col: str = "sum_value",
             all_token: str = "ALL"):
    """GROUP BY CUBE(cols...): every subset of the dimensions, by
    decreasing size (then left-to-right), ending at the grand total."""
    from itertools import combinations

    cols = list(cols)
    sets: list[list[str]] = []
    for size in range(len(cols), -1, -1):
        sets.extend(list(c) for c in combinations(cols, size))
    return grouping_sets_agg(ds, cols, sets, value_col, count_col,
                             sum_col, all_token)


def argmax_per_key(ds, key_col: str, cat_col: str, n_col: str = "n",
                   out_cat_col: str = "top_cat"):
    """Most-frequent category per key (grouped mode / arg-max; ties →
    lexicographically smallest category).  A per-batch count combiner
    collapses each block to (key, cat, partial) rows before the ONE
    shuffle on key; the group fn sums partials and picks the winner.
    Output: (key, winner category, its total count)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby([key_col, cat_col], sort=False).size()
               .rename("_n").reset_index())
        out["_n"] = out["_n"].astype("int64")
        return out

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        # all keys of the bucket at once: sum partials per (key, cat),
        # then (count desc, cat asc) order + drop_duplicates(key) picks
        # each key's most-frequent category, ties to the smallest cat
        totals = (g.groupby([key_col, cat_col], sort=False)["_n"].sum()
                  .reset_index())
        totals = totals.sort_values([key_col, "_n", cat_col],
                                    ascending=[True, False, True],
                                    kind="mergesort")
        win = totals.drop_duplicates(key_col, keep="first")
        return pd.DataFrame({
            key_col: win[key_col].to_numpy(),
            out_cat_col: win[cat_col].to_numpy(),
            n_col: win["_n"].to_numpy(dtype=np.int64),
        })

    return keyed_fold(
        ds.map_batches(partial, batch_format="pandas"), key_col, pick,
        n_buckets=64,
        schema=_carry(key_col, (out_cat_col, cat_col), (n_col, pa.int64())),
        batch_format="pandas")


def ntile_percent_rank(ds, key_col: str, order_col: str, id_col: str,
                       n_tiles: int = 4, descending: bool = True):
    """PERCENT_RANK() and NTILE(n) per key over a deterministic total
    order (``order_col`` then ``id_col`` tie-break, so ranks are
    unique and percent_rank == (row_number-1)/(n-1); 0.0 for a
    single-row group, matching SQL).

    NTILE follows the SQL split: the first ``n % n_tiles`` tiles get
    ``ceil(n/n_tiles)`` rows, the rest ``floor(n/n_tiles)``.  One
    keyed shuffle (groupby → per-group vectorized rank)."""
    if n_tiles <= 0:
        raise ValueError("n_tiles must be positive")

    def rk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col, id_col],
                          ascending=[True, not descending, True],
                          kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        i = grp.cumcount().to_numpy(dtype=np.int64)
        n = grp[id_col].transform("size").to_numpy(dtype=np.int64)
        pr = np.where(n > 1, i / np.maximum(n - 1, 1), 0.0)
        base = n // n_tiles
        rem = n % n_tiles
        big = rem * (base + 1)
        tile = np.where(
            i < big,
            i // np.maximum(base + 1, 1),
            rem + (np.maximum(i - big, 0) // np.maximum(base, 1)))
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            id_col: g[id_col].to_numpy(),
            "pr": np.floor(pr * 1e6 + 0.5) / 1e6,
            "tile": (tile + 1).astype(np.int64),
        })

    return keyed_fold(ds, key_col, rk, n_buckets=64,
                      schema=_carry(key_col, id_col, ("pr", pa.float64()),
                                    ("tile", pa.int64())),
                      batch_format="pandas")


def zscore_outliers(ds, key_col: str, value_col: str, id_col: str,
                    threshold: float = 2.0):
    """Per-key z-score outliers (|z| ≥ threshold) with bit-exact
    cross-engine parity: moments are accumulated as EXACT int64 cents
    (per-batch combiner → one tiny keyed shuffle of (n, sum, sumsq)
    partials), so mean/std are derived from identical integers on any
    engine and the float op order is fixed (mean = sc/n; var = sq/n -
    mean²; z = (cents - mean)/std).  Keys with zero variance emit
    nothing.  The {key: (mean, std)} table is O(keys) driver state —
    same cardinality bound as the sketch — broadcast via ``ray.put``;
    the flag pass is a stateless vectorized filter.

    Output: (id, key, z) with z rounded half-away-from-zero to 6 dp.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df[value_col].to_numpy())
        g = pd.DataFrame({key_col: df[key_col].to_numpy(),
                          "n_p": np.ones(len(cents), np.int64),
                          "sc_p": cents,
                          "sq_p": cents * cents})
        out = g.groupby(key_col, sort=False).sum().reset_index()
        return out.astype({"n_p": "int64", "sc_p": "int64", "sq_p": "int64"})

    stats = (ds.map_batches(partial, batch_format="pandas")
             .groupby(key_col)
             .aggregate(Sum("n_p", alias_name="n"),
                        Sum("sc_p", alias_name="sc"),
                        Sum("sq_p", alias_name="sq"))).to_pandas()

    means: dict = {}
    stds: dict = {}
    for k, n, sc, sq in zip(stats[key_col], stats["n"], stats["sc"],
                            stats["sq"]):
        mean = float(sc) / int(n)
        var = float(sq) / int(n) - mean * mean
        if var > 0:
            means[k] = mean
            stds[k] = math.sqrt(var)
    ref = ray.put((means, stds))

    def flag(b: pa.Table, stats_ref) -> pa.Table:
        m, s = ray.get(stats_ref)
        keys = b.column(key_col).to_pandas()
        cents = _cents(b.column(value_col).to_numpy(zero_copy_only=False))
        mu = keys.map(m).to_numpy(dtype=np.float64, na_value=np.nan)
        sd = keys.map(s).to_numpy(dtype=np.float64, na_value=np.nan)
        z = (cents.astype(np.float64) - mu) / sd
        mask = pa.array(np.abs(z) >= threshold)   # NaN → False
        kept = b.filter(mask)
        zk = z[np.asarray(mask)]
        z6 = np.sign(zk) * np.floor(np.abs(zk) * 1e6 + 0.5) / 1e6
        return pa.table({id_col: kept.column(id_col),
                         key_col: kept.column(key_col),
                         "z": pa.array(z6, pa.float64())})

    return ds.map_batches(flag, batch_format="pyarrow",
                          fn_kwargs=dict(stats_ref=ref))


def cumulative_sum_cents(ds, key_col: str = "user_id", ts_col: str = "ts",
                         value_col: str = "value", id_col: str = "event_id",
                         n_buckets: int = 64):
    """Running total per key (SUM() OVER ... ROWS UNBOUNDED PRECEDING)
    in exact integer cents.  Same one-bucketed-shuffle shape as
    ``rolling_sum_cents`` — the unbounded window is just the cumsum
    without the lag subtraction.  Output: (key, id, cum_sum_cents)."""

    def cum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        g = g.assign(_c=_cents(g[value_col].to_numpy()))
        csum = g.groupby(key_col, sort=False)["_c"].cumsum()
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            id_col: g[id_col].to_numpy(),
            "cum_sum_cents": csum.to_numpy(dtype=np.int64),
        })

    return keyed_fold(ds, key_col, cum, n_buckets=n_buckets,
                      schema=_carry(key_col, id_col,
                                    ("cum_sum_cents", pa.int64())),
                      batch_format="pandas")


def budget_apportion(ds, key_col: str, budget: int):
    """Hamilton largest-remainder apportionment: split an integer
    ``budget`` across keys proportionally to their row counts — the
    crawl engine's per-host fetch-budget allocation shape (a politeness
    budget split over hosts by frontier mass), restated over any keyed
    table.

    floor_i = (B*c_i) // n; the B - Σfloor leftovers go to the keys
    with the largest remainders (B*c_i) % n, ties to the smaller key.
    Exact integer arithmetic end-to-end ⇒ DuckDB-twin-reproducible.

    The count pass is a native distributed Count; the apportionment
    itself runs on the O(keys) count rows — driver-sized for the
    key cardinalities this is meant for (hosts per crawl round,
    event types); at higher cardinality the same math distributes as
    a map_batches over the count rows plus one scalar broadcast.
    Returns pandas (key, n_rows, budget) sorted by key."""
    from ray.data.aggregate import Count

    cnt = (ds.groupby(key_col).aggregate(Count(alias_name="n_rows"))
           .to_pandas().sort_values(key_col).reset_index(drop=True))
    c = cnt["n_rows"].to_numpy(dtype=np.int64)
    return pd.DataFrame({
        key_col: cnt[key_col],
        "n_rows": c,
        "budget": apportion_counts(c, budget),
    })


def apportion_counts(c: np.ndarray, budget: int) -> np.ndarray:
    """Pure Hamilton largest-remainder kernel over key-sorted counts:
    floor quotas, then the B − Σfloor leftovers to the largest
    remainders (ties → lower index = smaller key).  Satisfies the
    quota property: floor(q_i) ≤ b_i ≤ ceil(q_i), Σb_i = B exactly."""
    c = np.asarray(c, dtype=np.int64)
    n = int(c.sum())
    fl = (budget * c) // n
    rem = (budget * c) % n
    leftover = int(budget - fl.sum())
    give = np.zeros(len(c), np.int64)
    if leftover > 0:
        # stable argsort on -rem breaks remainder ties by index (the
        # caller passes key-sorted counts, so index order = key order)
        order = np.argsort(-rem, kind="stable")
        give[order[:leftover]] = 1
    return fl + give


def grouped_pearson_corr(ds, key_col: str, x_col: str, y_col: str,
                         out_col: str = "corr"):
    """Per-key Pearson correlation via mergeable moments — the classic
    single-pass distributed statistic: each batch combines to one
    (key, n, Σx, Σy, Σxy, Σx², Σy²) row over EXACT int64 cents, one
    tiny keyed Sum merges them, and the correlation is derived from the
    identical integers on any engine (same pattern as
    ``zscore_outliers``; DuckDB twin uses the same cents + float op
    order).  Zero-variance keys emit null.

    Int64 bound: Σxy must fit int64 and stay ≤ 2^53 for the float
    derivation to be engine-exact — holds for cents-scale columns up to
    ~10^8 rows per key; beyond that, shift to per-key Welford/Kahan
    partials.  Output: (key, out_col) with the value rounded
    half-away-from-zero to 6 dp."""
    import math

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = _cents(df[x_col].to_numpy())
        y = _cents(df[y_col].to_numpy())
        g = pd.DataFrame({key_col: df[key_col].to_numpy(),
                          "n_p": np.ones(len(x), np.int64),
                          "sx_p": x, "sy_p": y,
                          "sxy_p": x * y, "sxx_p": x * x, "syy_p": y * y})
        out = g.groupby(key_col, sort=False).sum().reset_index()
        return out.astype({c: "int64" for c in
                           ("n_p", "sx_p", "sy_p", "sxy_p", "sxx_p",
                            "syy_p")})

    merged = (ds.map_batches(partial, batch_format="pandas")
              .groupby(key_col)
              .aggregate(Sum("n_p", alias_name="n"),
                         Sum("sx_p", alias_name="sx"),
                         Sum("sy_p", alias_name="sy"),
                         Sum("sxy_p", alias_name="sxy"),
                         Sum("sxx_p", alias_name="sxx"),
                         Sum("syy_p", alias_name="syy")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        vals = []
        for _, r in df.iterrows():
            n, sx, sy = float(r["n"]), float(r["sx"]), float(r["sy"])
            cov = n * float(r["sxy"]) - sx * sy
            vx = n * float(r["sxx"]) - sx * sx
            vy = n * float(r["syy"]) - sy * sy
            if vx <= 0 or vy <= 0:
                vals.append(None)
            else:
                c = cov / math.sqrt(vx * vy)
                vals.append(math.floor(c * 1e6 + 0.5) / 1e6 if c >= 0
                            else math.ceil(c * 1e6 - 0.5) / 1e6)
        return pd.DataFrame({key_col: df[key_col], out_col: vals})

    return merged.map_batches(finish, batch_format="pandas")


def grouped_path(ds, key_col: str, order_cols, value_col: str,
                 sep: str = "->", out_col: str = "path"):
    """Ordered per-key concatenation (SQL ``string_agg(v, sep ORDER BY
    ...)``): e.g. each user's clickstream as "view->click->signup".

    One keyed shuffle of (key, order cols, value) rows; the group fn
    sorts by the order columns (ties must be broken by a unique column
    — pass it last — or the output is nondeterministic) and joins.
    Per-key path length is bounded by that key's row count: fine for
    session/user paths, not for concatenating a corpus under one key.
    """
    import pandas as pd

    order_cols = list(order_cols)

    def join_path(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order_cols, kind="mergesort")
        return pd.DataFrame({
            key_col: [df[key_col].iloc[0]],
            out_col: [sep.join(str(v) for v in df[value_col])],
            "n_steps": [np.int64(len(df))],
        })

    slim = ds.map_batches(
        lambda b: b.select([key_col, *order_cols, value_col]),
        batch_format="pyarrow")
    return slim.groupby(key_col).map_groups(join_path,
                                            batch_format="pandas")


def time_window_sum_cents(ds, window_us: int, key_col: str = "user_id",
                          ts_col: str = "ts", value_col: str = "value",
                          id_col: str = "event_id", n_buckets: int = 64):
    """Trailing TIME-range sum per key in exact integer cents — the
    ``RANGE BETWEEN INTERVAL ... PRECEDING AND CURRENT ROW`` twin of
    the ROWS-window ``rolling_sum_cents``: for each row, the sum over
    the key's rows with ``ts`` in [ts_i − window, ts_i], INCLUDING
    same-``ts`` peers that sort after the row (SQL RANGE frames are
    peer-inclusive).  Same one-bucketed-shuffle shape; inside a bucket
    each key's frame bounds come from two vectorized ``searchsorted``
    calls over its sorted timestamps + a prefix-sum difference.
    Output: (key, id, win_sum_cents)."""

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        ts = g[ts_col].to_numpy("datetime64[us]").astype(np.int64)
        cents = _cents(g[value_col].to_numpy())
        out = np.empty(len(g), dtype=np.int64)
        start = 0
        key_arr = g[key_col].to_numpy()
        boundaries = np.flatnonzero(key_arr[1:] != key_arr[:-1]) + 1
        for end in [*boundaries, len(g)]:
            kts = ts[start:end]
            prefix = np.concatenate(([0], np.cumsum(cents[start:end])))
            lo = np.searchsorted(kts, kts - window_us, side="left")
            hi = np.searchsorted(kts, kts, side="right")
            out[start:end] = prefix[hi] - prefix[lo]
            start = end
        return pd.DataFrame({
            key_col: key_arr,
            id_col: g[id_col].to_numpy(),
            "win_sum_cents": out,
        })

    return keyed_fold(ds, key_col, roll, n_buckets=n_buckets,
                      schema=_carry(key_col, id_col,
                                    ("win_sum_cents", pa.int64())),
                      batch_format="pandas")


def melt(ds, id_cols, value_cols, var_col: str = "measure",
         value_name: str = "value"):
    """UNPIVOT (wide → long, the inverse of ``pivot_counts``): one
    output row per (input row × value column), value columns cast to
    float64 under one name.  Pure per-batch explode — no shuffle, no
    state; output order within a batch is column-major (all of
    ``value_cols[0]`` first), deterministic."""
    import pyarrow as pa

    id_cols = list(id_cols)
    value_cols = list(value_cols)
    if not value_cols:
        raise ValueError("value_cols must be non-empty")

    def explode(batch: pa.Table) -> pa.Table:
        parts = []
        for vc in value_cols:
            cols = {c: batch.column(c) for c in id_cols}
            cols[var_col] = pa.array([vc] * batch.num_rows, pa.string())
            cols[value_name] = batch.column(vc).cast(pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    slim = ds.map_batches(
        lambda b: b.select(id_cols + value_cols), batch_format="pyarrow")
    return slim.map_batches(explode, batch_format="pyarrow")


def funnel_steps(ds, steps, user_col: str = "user_id",
                 ts_col: str = "ts", type_col: str = "event_type"):
    """Ordered-funnel analysis: per user, how many of ``steps`` were
    completed IN ORDER (step k+1 must occur strictly AFTER the first
    qualifying occurrence of step k — the classic first-touch funnel).

    Scale shape: the input is pre-filtered to the funnel's event types
    (a vectorized ``isin`` batch kernel — at web scale the funnel types
    are a sliver of the event stream), then ONE bucketed user shuffle;
    inside a bucket the whole chain resolves with one groupby-min +
    merge per step over ALL users at once (len(steps) is small and
    fixed, no per-user group or Python loop — one Ray group per key
    would pay per-group scheduling at 10⁸ users).  Output is one row
    per user seen in the filtered stream, O(users) total.
    """
    import pandas as pd
    import pyarrow as pa

    steps = list(steps)
    if not steps:
        raise ValueError("steps must be non-empty")

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.is_in(batch.column(type_col),
                        value_set=pa.array(steps, pa.string()))
        return batch.filter(mask).select([user_col, ts_col, type_col])

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(g[user_col].unique())
        done = pd.Series(0, index=users, dtype="int64")
        t_prev = None
        for depth, step in enumerate(steps):
            sub = g[g[type_col] == step]
            if depth > 0:
                m = sub.merge(t_prev.rename("_tp"), left_on=user_col,
                              right_index=True)
                sub = m[m[ts_col] > m["_tp"]]
            t = sub.groupby(user_col, sort=False)[ts_col].min()
            if t.empty:
                break
            done.loc[t.index] = depth + 1
            t_prev = t
        return pd.DataFrame({user_col: users.to_numpy(),
                             "steps_completed": done.to_numpy()})

    return keyed_fold(
        ds.map_batches(keep, batch_format="pyarrow"), user_col, chain,
        n_buckets=64,
        schema=_carry(user_col, ("steps_completed", pa.int64())),
        batch_format="pandas")


def event_transitions(ds, user_col: str = "user_id", ts_col: str = "ts",
                      id_col: str = "event_id",
                      type_col: str = "event_type", n_buckets: int = 64):
    """Markov transition counts over per-user event sequences: for each
    user's events ordered by (ts, id), count global (type → next type)
    adjacent pairs — the LEAD() OVER (PARTITION BY user) building block
    behind session-flow and next-action models.

    Scale shape: one bucketed shuffle on hash(user) moves the raw rows
    ONCE; inside a bucket the successor is a vectorized per-user
    ``shift(-1)`` and the bucket collapses to per-(from, to) partial
    counts before the second shuffle — which therefore moves only
    O(|type alphabet|² × buckets) tiny int rows, never events.
    Output: (from_type, to_type, n), n int64.
    """

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
        nxt = g.groupby(user_col, sort=False)[type_col].shift(-1)
        keep = nxt.notna()
        part = (pd.DataFrame({"from_type": g[type_col][keep],
                              "to_type": nxt[keep]})
                .groupby(["from_type", "to_type"], sort=False)
                .size().rename("n").reset_index())
        part["n"] = part["n"].astype("int64")
        return part

    part = keyed_fold(ds, user_col, pairs, n_buckets=n_buckets,
                      schema=_carry(("from_type", type_col),
                                    ("to_type", type_col), ("n", pa.int64())),
                      batch_format="pandas")
    return _sum_partials(part, ["from_type", "to_type"], n_buckets)


def conversion_lag(ds, from_type: str = "view", to_type: str = "purchase",
                   user_col: str = "user_id", ts_col: str = "ts",
                   type_col: str = "event_type", n_buckets: int = 64):
    """First-touch conversion latency: per user, microseconds from the
    FIRST ``from_type`` event to the first ``to_type`` event STRICTLY
    after it; users without both edges are dropped.  The latency twin
    of ``funnel_steps`` (which reports depth, not time).

    Scale shape: pre-filtered to the two event types before the single
    bucketed user shuffle; inside a bucket everything is two pandas
    groupby-mins and one merge — no per-user Python loop.  Output:
    (user, lag_us int64), one row per converting user.
    """

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.is_in(batch.column(type_col),
                        value_set=pa.array([from_type, to_type],
                                           pa.string()))
        return batch.filter(mask).select([user_col, ts_col, type_col])

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = g.assign(_us=us)
        first = (g[g[type_col] == from_type]
                 .groupby(user_col, sort=False)["_us"].min().rename("_tv"))
        cand = g[g[type_col] == to_type].merge(
            first, left_on=user_col, right_index=True)
        cand = cand[cand["_us"] > cand["_tv"]]
        if cand.empty:
            return pd.DataFrame({user_col: pd.Series([], dtype="int64"),
                                 "lag_us": pd.Series([], dtype="int64")})
        conv = cand.groupby(user_col, sort=False).agg(
            _tp=("_us", "min"), _tv=("_tv", "first")).reset_index()
        return pd.DataFrame({
            user_col: conv[user_col].astype("int64"),
            "lag_us": (conv["_tp"] - conv["_tv"]).astype("int64"),
        })

    return keyed_fold(
        ds.map_batches(keep, batch_format="pyarrow"), user_col, lag,
        n_buckets=n_buckets,
        schema=_carry(user_col, ("lag_us", pa.int64())),
        batch_format="pandas")


_WEEK_US = 7 * 24 * 3600 * 1_000_000


def _monday_week_us(ts_values) -> np.ndarray:
    """Microseconds-since-epoch of the Monday-00:00 week start for each
    timestamp — DuckDB/ISO ``date_trunc('week', ts)`` semantics.  The
    epoch (1970-01-01) was a Thursday, so Monday-aligned weeks are
    offset by 3 days: shift, floor-divide, shift back."""
    us = np.asarray(ts_values).astype("datetime64[us]").astype(np.int64)
    day_shift = 3 * 24 * 3600 * 1_000_000
    return (us + day_shift) // _WEEK_US * _WEEK_US - day_shift


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts",
                      n_buckets: int = 64):
    """Weekly cohort retention: cohort = ISO week of a user's FIRST
    event; for every (cohort_week, week_offset) count the users active
    ``offset`` weeks after their cohort week (offset 0 = the cohort
    size itself).  The standard growth-analytics triangle.

    Scale shape: raw events collapse to distinct (user, week) int pairs
    inside each batch BEFORE any shuffle; the bucketed user shuffle
    then moves only those pairs, resolves each user's cohort with one
    vectorized in-bucket groupby-min, and emits per-(cohort, offset)
    partial counts — so the final shuffle is O(weeks² × buckets) tiny
    rows.  Output: (cohort_week timestamp, week_offset int64,
    n_users int64).
    """

    def to_weeks(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            user_col: df[user_col].to_numpy(),
            "_wk": _monday_week_us(df[ts_col].to_numpy()),
        }).drop_duplicates()
        return out

    def cohortize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([user_col, "_wk"])
        cohort = g.groupby(user_col, sort=False)["_wk"].transform("min")
        off = ((g["_wk"].to_numpy() - cohort.to_numpy()) // _WEEK_US)
        return (pd.DataFrame({
            "cohort_week": cohort.to_numpy().astype("datetime64[us]"),
            "week_offset": off.astype(np.int64)})
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size().rename("n_users").reset_index())

    part = keyed_fold(
        ds.map_batches(to_weeks, batch_format="pandas"), user_col, cohortize,
        n_buckets=n_buckets,
        schema=pa.schema([("cohort_week", pa.timestamp("us")),
                          ("week_offset", pa.int64()),
                          ("n_users", pa.int64())]),
        batch_format="pandas")
    return _sum_partials(part, ["cohort_week", "week_offset"], n_buckets)


def profile_columns(ds, cols: Sequence[str]):
    """Data-quality profile: per column, total rows, null count and
    exact distinct count (NULLs excluded, SQL ``COUNT(DISTINCT)``
    semantics).  The first thing a curation pipeline runs against an
    unfamiliar 100-TB table.

    Scale shape: two streaming passes over the column-pruned input.
    Pass 1 collapses every batch to one (column, n, n_null) partial
    row; pass 2 melts values to deduped (column, value-hash) pairs
    inside each batch, so the only shuffle moves already-deduplicated
    64-bit pairs — the two-level ``distinct_count`` pattern applied
    per column.  Distinctness rides on the fixed-key 64-bit siphash of
    the value (collision odds ~n²/2⁶⁵ — immaterial against the exact
    oracle at test scale, documented here for the 10¹²-row case).
    Output: len(cols) rows — merged on the driver, O(cols) memory.
    """
    from ray.data.aggregate import Sum

    cols = list(cols)
    if not cols:
        raise ValueError("cols must be non-empty")

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "col_name": cols,
            "n_rows": np.int64(len(df)),
            "n_null": [np.int64(df[c].isna().sum()) for c in cols],
        })

    counts = (ds.map_batches(count_partial, batch_format="pandas")
              .groupby("col_name")
              .aggregate(Sum("n_rows", alias_name="n_rows"),
                         Sum("n_null", alias_name="n_null"))
              .to_pandas())

    def melt_hash(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            v = df[c][df[c].notna()]
            h = np.unique(pd.util.hash_array(v.to_numpy(),
                                             categorize=False))
            frames.append(pd.DataFrame({"col_name": c,
                                        "_h": h.astype("uint64")}))
        return pd.concat(frames, ignore_index=True)

    pairs = ds.map_batches(melt_hash, batch_format="pandas")
    distinct = distinct_count(pairs, "col_name", "_h",
                              out_col="n_distinct").to_pandas()

    out = counts.merge(distinct, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0)
    for c in ("n_rows", "n_null", "n_distinct"):
        out[c] = out[c].astype("int64")
    return out.sort_values("col_name").reset_index(drop=True)


def grouped_ols(ds, key_col: str, x_col: str, y_col: str):
    """Per-key simple linear regression (REGR_SLOPE / REGR_INTERCEPT)
    from the same mergeable exact-cents moments as
    ``grouped_pearson_corr`` — one combiner pass, one tiny keyed Sum,
    engine-exact derivation (identical int64 moments and float op
    order on both sides), 6-dp half-away-from-zero rounding.
    Zero-x-variance keys emit nulls.  Output: (key, slope, intercept).
    """
    import math

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = _cents(df[x_col].to_numpy())
        y = _cents(df[y_col].to_numpy())
        g = pd.DataFrame({key_col: df[key_col].to_numpy(),
                          "n_p": np.ones(len(x), np.int64),
                          "sx_p": x, "sy_p": y,
                          "sxy_p": x * y, "sxx_p": x * x})
        out = g.groupby(key_col, sort=False).sum().reset_index()
        return out.astype({c: "int64" for c in
                           ("n_p", "sx_p", "sy_p", "sxy_p", "sxx_p")})

    merged = (ds.map_batches(partial, batch_format="pandas")
              .groupby(key_col)
              .aggregate(Sum("n_p", alias_name="n"),
                         Sum("sx_p", alias_name="sx"),
                         Sum("sy_p", alias_name="sy"),
                         Sum("sxy_p", alias_name="sxy"),
                         Sum("sxx_p", alias_name="sxx")))

    def _round6(v: float):
        return (math.floor(v * 1e6 + 0.5) / 1e6 if v >= 0
                else math.ceil(v * 1e6 - 0.5) / 1e6)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        slopes, intercepts = [], []
        for _, r in df.iterrows():
            n, sx, sy = float(r["n"]), float(r["sx"]), float(r["sy"])
            vx = n * float(r["sxx"]) - sx * sx
            if vx <= 0:
                slopes.append(None)
                intercepts.append(None)
                continue
            slope = (n * float(r["sxy"]) - sx * sy) / vx
            intercepts.append(_round6((sy - slope * sx) / n))
            slopes.append(_round6(slope))
        return pd.DataFrame({key_col: df[key_col], "slope": slopes,
                             "intercept": intercepts})

    return merged.map_batches(finish, batch_format="pandas")


def _local_skyline(df: pd.DataFrame, x_col: str, y_col: str) -> pd.DataFrame:
    """Exact 2-D skyline of one frame (minimize x, maximize y).
    A row survives iff no other row has (x' ≤ x, y' ≥ y) with one
    strict: equivalently y equals the max-y AT its own x AND strictly
    beats the max-y over all smaller x — both checks vectorized via a
    per-x groupby-max and a cummax over the sorted distinct x."""
    if df.empty:
        return df
    per_x = df.groupby(x_col)[y_col].max().sort_index()
    before = per_x.cummax().shift(1)  # best y at any strictly smaller x
    y_at_x = df[x_col].map(per_x)
    best_before = df[x_col].map(before)
    keep = (df[y_col] == y_at_x) & (
        best_before.isna() | (df[y_col] > best_before))
    return df[keep]


def skyline_2d(ds, x_col: str, y_col: str):
    """Distributed Pareto frontier: rows minimizing ``x_col`` while
    maximizing ``y_col`` (classic skyline operator; Börzsönyi et al.,
    ICDE 2001).  Duplicate optimal points all survive (ties don't
    dominate), matching the SQL NOT-EXISTS twin.

    Scale shape: the skyline of a union is a subset of the union of
    per-part skylines, so each batch reduces to its local frontier (a
    true combiner — typically a sliver of the data), and ONE single-
    task pass over the concatenated candidates finishes exactly.
    Worst case (perfectly anti-correlated data) the frontier IS the
    dataset and the final task sees it all — the standard skyline
    caveat, documented rather than hidden.
    """
    local = ds.map_batches(
        lambda df: _local_skyline(df, x_col, y_col),
        batch_format="pandas")
    return local.repartition(1).map_batches(
        lambda df: _local_skyline(df, x_col, y_col),
        batch_format="pandas")


def interval_coverage(ds, dur_us: int, key_col: str = "user_id",
                      ts_col: str = "ts", n_buckets: int = 64):
    """Union length of per-key time intervals [ts, ts + dur_us) in
    exact int64 microseconds — the merge-overlapping-intervals
    primitive (session coverage, machine-busy time).

    One bucketed key shuffle of slim (key, start) int rows; inside a
    bucket the union is the classic sweep restated vectorized: sort by
    (key, start), per-key running max of interval ends (cummax,
    shifted), each row contributes ``end − min(end, max(start,
    prev_max_end))``.  Output: (key, covered_us).
    """
    if dur_us <= 0:
        raise ValueError(f"dur_us must be positive, got {dur_us}")

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "_s": df[ts_col].to_numpy().astype("datetime64[us]")
                  .astype(np.int64),
        })

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "_s"], kind="mergesort")
        s = g["_s"].to_numpy()
        e = s + np.int64(dur_us)
        cm = pd.Series(e).groupby(g[key_col].to_numpy()).cummax()
        pm = (pd.DataFrame({"k": g[key_col].to_numpy(), "cm": cm.to_numpy()})
              .groupby("k", sort=False)["cm"].shift(1))
        pm = pm.fillna(pd.Series(s.astype("float64"))).to_numpy()
        contrib = e - np.minimum(e, np.maximum(s, pm.astype(np.int64)))
        out = (pd.DataFrame({key_col: g[key_col].to_numpy(),
                             "covered_us": contrib})
               .groupby(key_col, sort=False)["covered_us"].sum()
               .astype("int64").reset_index())
        return out

    return keyed_fold(
        ds.map_batches(slim, batch_format="pandas"), key_col, cover,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("covered_us", pa.int64())),
        batch_format="pandas")


_DAY_US = 24 * 3600 * 1_000_000


def rolling_distinct_users(ds, window_days: int = 7,
                           key_col: str = "user_id", ts_col: str = "ts",
                           n_buckets: int = 64):
    """Trailing-window distinct actives per day (the WAU/MAU curve):
    for every day with ≥1 event, the count of distinct keys active in
    the ``window_days`` days ending that day.

    Scale shape: raw events collapse to distinct (key, day) int pairs
    per batch; each pair then explodes to at most ``window_days``
    (key, covered-day) rows — a BOUNDED fan-out — which are deduped and
    counted by the distinct_count two-level pattern keyed on the day.
    Days with no events inside the window but none on the day itself
    don't emit a row (matching the SQL twin, which anchors on event
    days).  Output: (day timestamp, n_active int64).
    """
    from ray.data.aggregate import Count, Sum

    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")

    def to_days(df: pd.DataFrame) -> pd.DataFrame:
        us = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "_day": us // _DAY_US * _DAY_US,
        }).drop_duplicates()

    pairs = ds.map_batches(to_days, batch_format="pandas")
    # the day set (anchor days) — distinct event days
    day_partial = pairs.map_batches(
        lambda df: df[["_day"]].drop_duplicates(), batch_format="pandas")
    days = (day_partial.groupby("_day").aggregate(Count(alias_name="_c"))
            .to_pandas()["_day"].to_numpy())
    days_sorted = np.sort(days.astype(np.int64))

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        # (key, day) covers anchor days in [day, day + window)
        base = df["_day"].to_numpy().astype(np.int64)
        keys = df[key_col].to_numpy()
        out_k, out_d = [], []
        for off in range(window_days):
            anchor = base + off * _DAY_US
            # keep only anchors that are real event days
            hit = np.isin(anchor, days_sorted)
            out_k.append(keys[hit])
            out_d.append(anchor[hit])
        return pd.DataFrame({
            key_col: np.concatenate(out_k),
            "_anchor": np.concatenate(out_d),
        }).drop_duplicates()

    covered = pairs.map_batches(explode, batch_format="pandas")
    counted = distinct_count(covered, "_anchor", key_col,
                             out_col="n_active")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["_anchor"].astype("datetime64[us]"),
            "n_active": df["n_active"].astype("int64"),
        })

    return counted.map_batches(finish, batch_format="pandas")


def winsorize_per_key(ds, key_col: str, value_col: str, id_col: str,
                      lo_q: float = 0.05, hi_q: float = 0.95,
                      out_col: str = "value_w", n_buckets: int = 64):
    """Per-key winsorization: clip each value to its key's [lo_q, hi_q]
    exact percentiles (linear interpolation, 6-dp-rounded bounds — the
    outlier-clipping normalizer a feature pipeline runs before
    training).

    Scale shape: ONE bucketed key shuffle (one key's values on one
    worker — the documented events_percentile assumption); inside the
    bucket each key's bounds come from its own values and the clip is
    vectorized — the bounds NEVER sit in a driver dict, so key
    cardinality is unbounded (the histogram_quantiles lesson).
    Output: (id, key, out_col).
    """
    if not 0.0 <= lo_q < hi_q <= 1.0:
        raise ValueError(f"need 0 <= lo_q < hi_q <= 1, got "
                         f"({lo_q}, {hi_q})")

    def clip(g: pd.DataFrame) -> pd.DataFrame:
        v = g[value_col].to_numpy(dtype=np.float64)
        lo, hi = np.empty_like(v), np.empty_like(v)
        for rows in g.groupby(key_col, sort=False).indices.values():
            lo[rows] = round(float(np.percentile(v[rows], lo_q * 100)), 6)
            hi[rows] = round(float(np.percentile(v[rows], hi_q * 100)), 6)
        return pd.DataFrame({id_col: g[id_col].astype("int64"),
                             key_col: g[key_col],
                             out_col: np.minimum(np.maximum(v, lo), hi)})

    return keyed_fold(ds, key_col, clip, n_buckets=n_buckets,
                      schema=_carry((id_col, pa.int64()), key_col,
                                    (out_col, pa.float64())),
                      batch_format="pandas")


def grouped_means(ds, key_col: str, value_col: str):
    """Arithmetic / geometric / harmonic mean per key in integer
    micro-units, from one pass of mergeable partials (Σx, Σln x,
    Σ1/x, n).  Values must be > 0 (geometric/harmonic are undefined
    otherwise — enforced, not silently skipped).  Float caveat: the
    ln/reciprocal partials sum in arbitrary order (micro-rounding note
    as in bm25_scores); the arithmetic mean path folds exact cents.
    Output: (key, amean_micro, gmean_micro, hmean_micro).
    """
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        if (v <= 0).any():
            raise ValueError("grouped_means requires values > 0")
        g = pd.DataFrame({key_col: df[key_col].to_numpy(),
                          "n_p": np.ones(len(v), np.int64),
                          "sc_p": _cents(v),
                          "sl_p": np.log(v),
                          "sr_p": 1.0 / v})
        out = g.groupby(key_col, sort=False).sum().reset_index()
        out["n_p"] = out["n_p"].astype("int64")
        out["sc_p"] = out["sc_p"].astype("int64")
        return out

    merged = (ds.map_batches(partial, batch_format="pandas")
              .groupby(key_col)
              .aggregate(Sum("n_p", alias_name="n"),
                         Sum("sc_p", alias_name="sc"),
                         Sum("sl_p", alias_name="sl"),
                         Sum("sr_p", alias_name="sr")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.float64)
        amean = df["sc"].to_numpy(dtype=np.float64) / n / 100.0
        gmean = np.exp(df["sl"].to_numpy(dtype=np.float64) / n)
        hmean = n / df["sr"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            key_col: df[key_col],
            "amean_micro": np.floor(amean * 1e6 + 0.5).astype(np.int64),
            "gmean_micro": np.floor(gmean * 1e6 + 0.5).astype(np.int64),
            "hmean_micro": np.floor(hmean * 1e6 + 0.5).astype(np.int64),
        })

    return merged.map_batches(finish, batch_format="pandas")


def grouped_gini(ds, key_col: str, value_col: str):
    """Gini concentration index per key in integer micro-units — the
    inequality/concentration diagnostic (revenue concentration, token
    ownership).  ``G = (2·Σᵢ i·x₍ᵢ₎) / (n·Σx) − (n+1)/n`` over the
    ascending sort of exact integer cents; ties contribute a fixed
    Σi·x regardless of their order, so the statistic is deterministic
    and SQL-replicable without a tie-break column.

    Scale shape: one bucketed key shuffle of slim (key, cents) rows;
    the in-bucket rank-weighted sum is one sort + vectorized cumsum
    per bucket.  Int64 bound: Σ i·x ≤ n²·max_cents must fit int64 —
    holds to ~10⁸ rows per key at 10⁷-cent values (documented, same
    contract as grouped_pearson_corr).  Values must be ≥ 0.
    Output: (key, n, gini_micro).
    """
    def slim(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        if (v < 0).any():
            raise ValueError("grouped_gini requires values >= 0")
        return pd.DataFrame({key_col: df[key_col].to_numpy(),
                             "_c": _cents(v)})

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "_c"], kind="mergesort")
        keys_out, ns, ginis = [], [], []
        for key, grp in g.groupby(key_col, sort=False):
            x = grp["_c"].to_numpy()
            n = len(x)
            sx = int(x.sum())
            if sx == 0:
                keys_out.append(key)
                ns.append(n)
                ginis.append(0)
                continue
            iw = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
            gval = (2.0 * float(iw)) / (float(n) * float(sx)) \
                - (float(n) + 1.0) / float(n)
            keys_out.append(key)
            ns.append(n)
            ginis.append(int(np.floor(gval * 1e6 + 0.5)))
        return pd.DataFrame({key_col: keys_out,
                             "n": pd.array(ns, dtype="int64"),
                             "gini_micro": pd.array(ginis, dtype="int64")})

    return keyed_fold(
        ds.map_batches(slim, batch_format="pandas"), key_col, gini,
        n_buckets=64,
        schema=_carry(key_col, ("n", pa.int64()), ("gini_micro", pa.int64())),
        batch_format="pandas")


def interarrival_cv(ds, key_col: str = "user_id", ts_col: str = "ts",
                    id_col: str = "event_id", n_buckets: int = 64):
    """Burstiness diagnostic: per-key coefficient of variation of
    inter-event gaps (population std / mean, micro-units) — CV ≈ 1 is
    Poisson-like traffic, CV ≫ 1 is bursty, CV ≈ 0 is a metronome
    (bot signature).  Keys whose gaps sum to zero are dropped
    (duplicate-timestamp-only histories have no rate).

    Scale shape: ``lag_deltas``'s one bucketed shuffle produces the
    gaps; per-batch (n, Σd, Σd²) partials in SECONDS (float64 — µs²
    would overflow int64; CV is scale-invariant so exactness rides the
    shared-expression-tree contract, micro-rounding caveat as in
    bm25_scores) fold through one tiny keyed shuffle.
    Output: (key, n_gaps, cv_micro).
    """

    gaps = lag_deltas(ds, key_col=key_col, ts_col=ts_col, id_col=id_col,
                      n_buckets=n_buckets)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["delta_us"].to_numpy(dtype=np.float64) / 1e6
        g = pd.DataFrame({key_col: df[key_col].to_numpy(),
                          "n_p": np.ones(len(d), np.int64),
                          "sd_p": d, "sdd_p": d * d})
        out = g.groupby(key_col, sort=False).sum().reset_index()
        out["n_p"] = out["n_p"].astype("int64")
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(key_col, sort=False).agg(
            n=("n_p", "sum"), sd=("sd_p", "sum"),
            sdd=("sdd_p", "sum")).reset_index()
        n = s["n"].to_numpy(dtype=np.float64)
        sd = s["sd"].to_numpy()
        sdd = s["sdd"].to_numpy()
        keep = sd > 0
        mean = sd / n
        var = np.maximum(sdd / n - mean * mean, 0.0)
        cv = np.sqrt(var) / np.where(mean == 0, 1.0, mean)
        return pd.DataFrame({
            key_col: s[key_col].to_numpy()[keep],
            "n_gaps": s["n"].astype("int64").to_numpy()[keep],
            "cv_micro": np.floor(cv * 1e6 + 0.5).astype(np.int64)[keep],
        })

    return keyed_fold(
        gaps.map_batches(partial, batch_format="pandas"), key_col, fold,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("n_gaps", pa.int64()),
                      ("cv_micro", pa.int64())),
        batch_format="pandas")


def grouped_mad(ds, key_col: str, value_col: str, n_buckets: int = 64):
    """Robust per-key location/scale: exact median and MAD (median
    absolute deviation) in 6-dp-rounded units — the outlier-resistant
    counterpart of ``zscore_outliers``'s mean/std.

    Scale shape: one bucketed key shuffle; each key's values sort once
    inside the bucket and both medians come from the same array (the
    usual one-key-fits-one-worker contract of the ordered family).
    Interpolation matches SQL ``median`` (mean of the middle two).
    Output: (key, n, median, mad).
    """

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        keys_out, ns, meds, mads = [], [], [], []
        for key, grp in g.groupby(key_col, sort=False):
            v = grp[value_col].to_numpy(dtype=np.float64)
            med = float(np.median(v))
            mad = float(np.median(np.abs(v - med)))
            keys_out.append(key)
            ns.append(len(v))
            meds.append(round(med, 6))
            mads.append(round(mad, 6))
        return pd.DataFrame({key_col: keys_out,
                             "n": pd.array(ns, dtype="int64"),
                             "median": meds, "mad": mads})

    return keyed_fold(ds, key_col, stats, n_buckets=n_buckets,
                      schema=_carry(key_col, ("n", pa.int64()),
                                    ("median", pa.float64()),
                                    ("mad", pa.float64())),
                      batch_format="pandas")


def grouped_cat_entropy(ds, key_col: str, cat_col: str,
                        n_buckets: int = 64):
    """Shannon entropy of a categorical column per key, integer
    micro-nats — behavioral diversity (a user who only ever emits one
    event type scores 0; uniform over k types scores ln k).

    Scale shape: per-batch (key, cat) partial counts collapse each
    block before ONE bucketed key shuffle; the in-bucket fold derives
    ``H = ln(N) − (Σ c·ln c)/N`` per key from exact global counts
    (all of a key's categories land in its bucket).  Same expression
    tree as the SQL twin.  Output: (key, entropy_micro).
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby([key_col, cat_col], sort=False)
               .size().rename("_c").astype("int64").reset_index())
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby([key_col, cat_col], sort=False)["_c"].sum()
               .astype("int64").reset_index())
        c = cnt["_c"].to_numpy(dtype=np.float64)
        part = pd.DataFrame({key_col: cnt[key_col],
                             "_n": cnt["_c"].astype("int64"),
                             "_s": c * np.log(c)})
        s = part.groupby(key_col, sort=False).agg(
            n=("_n", "sum"), sv=("_s", "sum")).reset_index()
        n = s["n"].to_numpy(dtype=np.float64)
        h = np.log(n) - s["sv"].to_numpy() / n
        return pd.DataFrame({
            key_col: s[key_col],
            "entropy_micro": np.floor(h * 1e6 + 0.5).astype(np.int64)})

    return keyed_fold(
        ds.map_batches(partial, batch_format="pandas"), key_col, fold,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("entropy_micro", pa.int64())),
        batch_format="pandas")


def date_spine_fill(ds, date_col: str, value_col: str):
    """Gap-filled daily revenue: one row per calendar day between the
    corpus min and max dates, missing days zero-filled — the dense
    date spine every time-series consumer (forecasts, charts, anomaly
    windows) wants instead of a sparse day list.

    Scale shape: per-batch (epoch-day, cents) partials collapse each
    block before ONE keyed shuffle whose group count is bounded by the
    CALENDAR (days in range), not the data; the spine generation +
    zero-fill then runs in a single ``repartition(1)`` task over the
    O(days) aggregate — the driver never holds it.  Output:
    (day_id int64 YYYYMMDD, revenue_cents int64).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        us = pc.cast(batch.column(date_col), pa.int64()).to_numpy()
        day = us // 86_400_000_000  # µs → epoch days (positive range)
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"_day": day, "_c": cents})
        g = df.groupby("_day", sort=False)["_c"].sum().reset_index()
        return pa.table({"_day": pa.array(g["_day"], pa.int64()),
                         "_c": pa.array(g["_c"], pa.int64())})

    def fill(batch: pa.Table) -> pa.Table:
        day = batch.column("_day").to_numpy(zero_copy_only=False)
        cents = batch.column("_s").to_numpy(zero_copy_only=False)
        spine = np.arange(day.min(), day.max() + 1, dtype=np.int64)
        filled = np.zeros(len(spine), dtype=np.int64)
        filled[day - day.min()] = cents
        ids = (pd.to_datetime(spine, unit="D").strftime("%Y%m%d")
               .astype(np.int64))
        return pa.table({"day_id": pa.array(ids, pa.int64()),
                         "revenue_cents": pa.array(filled, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("_day").aggregate(Sum("_c", alias_name="_s")))
    return agg.repartition(1).map_batches(fill, batch_format="pyarrow")


def state_dwell_time(ds, key_col: str = "user_id", ts_col: str = "ts",
                     state_col: str = "event_type",
                     id_col: str = "event_id", n_buckets: int = 64):
    """Dwell-time attribution: total microseconds each state (event
    type) was "active" — the gap from an event to the SAME user's next
    event is attributed to the earlier event's type.  The funnel-era
    question "where do users spend their time?" as one exact integer.

    Scale shape: ONE bucketed user shuffle; gaps are derived with a
    vectorized sort + shift inside the bucket (no per-user Python
    group), then collapsed to per-state partials so the final native
    groupby sees a bounded alphabet.  Ties in ``ts`` break on the id
    column in both engines.  Output: (state, n_gaps, dwell_us).
    """

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = (g[key_col].to_numpy()[1:] == g[key_col].to_numpy()[:-1])
        gap = us[1:] - us[:-1]
        st = g[state_col].to_numpy()[:-1][same]
        gap = gap[same]
        out = pd.DataFrame({state_col: st, "_gap": gap})
        return out.groupby(state_col, sort=False).agg(
            n_gaps=("_gap", "size"), dwell_us=("_gap", "sum")).reset_index()

    parts = keyed_fold(ds, key_col, gaps, n_buckets=n_buckets,
                       schema=_carry(state_col, ("n_gaps", pa.int64()),
                                     ("dwell_us", pa.int64())),
                       batch_format="pandas")
    return _sum_partials(parts, [state_col], n_buckets)


def benford_first_digit(ds, value_col: str):
    """First-significant-digit distribution of a positive currency
    column in exact integer cents — the classic Benford's-law fraud /
    data-quality screen (organic magnitudes lean toward digit 1;
    synthetic or capped data flattens).

    Scale shape: per-batch digit counts (a 9-slot partial per block)
    → one native groupby over a 9-row key space.  The digit is taken
    from the decimal string, not ``log10`` (float log is off-by-one at
    exact powers of ten).  Output: (digit int64 1-9, n int64).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        cents = cents[cents > 0]
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        g = first.value_counts().sort_index()
        return pa.table({"digit": pa.array(g.index.to_numpy(np.int64)),
                         "_n": pa.array(g.to_numpy(np.int64))})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("digit").aggregate(Sum("_n", alias_name="n")))
    return out.map_batches(lambda df: df.astype({"n": "int64"}),
                           batch_format="pandas")


def mad_outliers(ds, key_col: str, value_col: str, id_col: str,
                 k: float = 3.0, n_buckets: int = 64):
    """Robust outlier gate: rows whose value sits more than ``k`` MADs
    from their key's median — the filter that survives the heavy tails
    that break the z-score gate (mean/std are themselves dragged by
    the outliers they're meant to catch).

    Scale shape: ONE bucketed key shuffle; each key's median/MAD come
    from one in-bucket sort and the gate applies vectorized to the
    same rows (no second pass over the data, no broadcast of per-key
    stats).  Keys with MAD = 0 emit nothing (every value identical —
    no scale to judge against).  The comparison uses the UNROUNDED
    median/MAD so both engines evaluate the identical IEEE expression.
    Output: (id, key, value) for flagged rows.
    """

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, grp in g.groupby(key_col, sort=False):
            v = grp[value_col].to_numpy(dtype=np.float64)
            med = float(np.median(v))
            mad = float(np.median(np.abs(v - med)))
            if mad <= 0.0:
                continue
            mask = np.abs(v - med) > k * mad
            if mask.any():
                outs.append(grp.loc[mask, [id_col, key_col, value_col]])
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()

    return keyed_fold(ds, key_col, gate, n_buckets=n_buckets,
                      schema=_carry(id_col, key_col, value_col),
                      batch_format="pandas")


def discovery_curve(ds, key_col: str, cat_col: str, ts_col: str,
                    id_col: str, n_buckets: int = 64):
    """Discovery curve: for every event, how many DISTINCT categories
    its key had seen up to and including that event — the running
    novelty measure behind "users stop exploring after day 3" and
    crawl-frontier diversity tracking.  (SQL has no windowed
    COUNT(DISTINCT); the twin is a first-occurrence flag + running
    sum.)

    Scale shape: ONE bucketed key shuffle; inside the bucket the
    first-occurrence flags and the per-key cumulative sum are single
    vectorized passes over the (key, ts, id)-sorted frame.  Ordering
    ties break on the id column in both engines.
    Output: (id, key, n_distinct int64).
    """

    def curve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        first = ~g.duplicated([key_col, cat_col])
        run = (first.astype("int64").groupby(g[key_col].to_numpy())
               .cumsum())
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             key_col: g[key_col].to_numpy(),
                             "n_distinct": run.to_numpy()})

    return keyed_fold(ds, key_col, curve, n_buckets=n_buckets,
                      schema=_carry(id_col, key_col,
                                    ("n_distinct", pa.int64())),
                      batch_format="pandas")


def chi_square_independence(ds, a_col: str, b_col: str):
    """Pearson chi-square independence statistic over a two-way
    contingency table — "is event type independent of weekday?" as one
    number (plus the table's dof and n).  The drift / bias screen a
    training-data pipeline runs before trusting a sampling strategy.

    Scale shape: per-batch (a, b) partial counts → one native groupby
    over the bounded |A|×|B| cell space → single-task finish that
    derives the statistic from EXACT integer cell counts.  Cells are
    summed in sorted (a, b) order; like the other *_micro operators,
    only float summation order vs the SQL twin can differ (micro-
    rounding note as in ``bm25_scores``).
    Output: one row (chi2_micro int64, dof int64, n int64).
    """
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby([a_col, b_col], sort=False)
               .size().rename("_c").astype("int64").reset_index())
        return out

    def finish(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values([a_col, b_col])
        piv = df.pivot_table(index=a_col, columns=b_col, values="_n",
                             fill_value=0, aggfunc="sum")
        obs = piv.to_numpy(dtype=np.float64)
        n = obs.sum()
        row = obs.sum(axis=1, keepdims=True)
        col = obs.sum(axis=0, keepdims=True)
        exp = row @ col / n
        mask = exp > 0
        chi2 = float(((obs[mask] - exp[mask]) ** 2 / exp[mask]).sum())
        dof = (piv.shape[0] - 1) * (piv.shape[1] - 1)
        return pa.table({
            "chi2_micro": pa.array([int(np.floor(chi2 * 1e6 + 0.5))],
                                   pa.int64()),
            "dof": pa.array([dof], pa.int64()),
            "n": pa.array([int(n)], pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby([a_col, b_col]).aggregate(Sum("_c", alias_name="_n")))
    return agg.repartition(1).map_batches(finish, batch_format="pyarrow")


def grouped_weighted_median(ds, key_col: str, value_col: str,
                            weight_col: str, n_buckets: int = 64):
    """Weighted median per key: the smallest value whose cumulative
    weight reaches half the key's total — "the price at which half the
    QUANTITY traded", robust where the row-median ignores volume.

    Scale shape: one bucketed key shuffle; inside the bucket each key
    sorts once and the threshold is found on an int64 cumulative-sum
    (the ``2·cumw ≥ totw`` integer rule — no float halving, and the
    answer is independent of tie order among equal values, so engine
    and SQL twin agree without a tie-break column).  Values are exact
    cents, weights exact int64.  Output: (key, wmedian_cents int64,
    total_weight int64).
    """

    def wmed(g: pd.DataFrame) -> pd.DataFrame:
        keys_out, meds, tots = [], [], []
        for key, grp in g.groupby(key_col, sort=False):
            v = _cents(grp[value_col].to_numpy())
            w = grp[weight_col].to_numpy(dtype=np.int64)
            order = np.argsort(v, kind="mergesort")
            v, w = v[order], w[order]
            cw = np.cumsum(w)
            tot = int(cw[-1])
            idx = int(np.searchsorted(2 * cw, tot))
            keys_out.append(key)
            meds.append(int(v[idx]))
            tots.append(tot)
        return pd.DataFrame({key_col: keys_out,
                             "wmedian_cents": pd.array(meds,
                                                       dtype="int64"),
                             "total_weight": pd.array(tots,
                                                      dtype="int64")})

    return keyed_fold(ds, key_col, wmed, n_buckets=n_buckets,
                      schema=_carry(key_col, ("wmedian_cents", pa.int64()),
                                    ("total_weight", pa.int64())),
                      batch_format="pandas")


def locf_fill(ds, key_col: str, ts_col: str, value_col: str,
              id_col: str, n_buckets: int = 64):
    """Daily last-observation-carried-forward series per key: one row
    per calendar day between the key's first and last observation,
    carrying the day's LAST value (ties on the id column) forward
    across silent days — the dense panel a forecaster or feature store
    wants instead of the raw sparse event stream.

    Scale shape: ONE bucketed key shuffle; inside the bucket each key
    reduces to per-day last values (vectorized sort + drop_duplicates)
    and its day grid is filled with a single pandas ``ffill``.  The
    value column is carried, never recomputed, so engine and SQL twin
    agree bit-for-bit.  Output: (key, day_id int64 YYYYMMDD, value).
    """

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = g.assign(_day=us // 86_400_000_000)
        # per (key, day) last value: ts then id, keep the final row
        g = (g.sort_values([key_col, ts_col, id_col], kind="mergesort")
             .drop_duplicates([key_col, "_day"], keep="last"))
        frames = []
        for key, grp in g.groupby(key_col, sort=False):
            days = grp["_day"].to_numpy()
            spine = np.arange(days[0], days[-1] + 1, dtype=np.int64)
            vals = pd.Series(index=days, data=grp[value_col].to_numpy(),
                             dtype="float64").reindex(spine).ffill()
            frames.append(pd.DataFrame({
                key_col: key, "_day": spine,
                value_col: vals.to_numpy()}))
        out = pd.concat(frames, ignore_index=True)
        out["day_id"] = (pd.to_datetime(out.pop("_day"), unit="D")
                         .dt.strftime("%Y%m%d").astype(np.int64))
        return out[[key_col, "day_id", value_col]]

    return keyed_fold(ds, key_col, fill, n_buckets=n_buckets,
                      schema=_carry(key_col, ("day_id", pa.int64()),
                                    (value_col, pa.float64())),
                      batch_format="pandas")


def daily_kl_drift(ds, ts_col: str, cat_col: str):
    """Per-day KL divergence of the day's categorical mix against the
    corpus-wide mix, in integer micro-nats — the drift alarm that says
    "today's traffic doesn't look like this corpus" before any model
    trained on it does.

    Scale shape: per-batch (day, cat) partial counts → one native
    groupby over the bounded calendar × alphabet cell space → a
    single-task finish that derives both the global mix and each day's
    divergence from the SAME exact integer cells.  Identical
    expression tree to the SQL twin (micro-rounding note as in
    ``bm25_scores``).  Output: (day_id int64 YYYYMMDD, kl_micro int64).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        day = pc.cast(pc.strftime(batch.column(ts_col), format="%Y%m%d"),
                      pa.int64())
        df = pd.DataFrame({"day_id": day.to_numpy(),
                           cat_col: batch.column(cat_col).to_pylist()})
        g = (df.groupby(["day_id", cat_col], sort=False)
             .size().rename("_c").astype("int64").reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    def finish(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(["day_id", cat_col])
        n_g = float(df["_n"].sum())
        cg = df.groupby(cat_col)["_n"].sum().astype("float64")
        days, kls = [], []
        for day, grp in df.groupby("day_id", sort=True):
            n_d = float(grp["_n"].sum())
            p = grp["_n"].to_numpy(np.float64) / n_d
            q = (cg.loc[grp[cat_col]].to_numpy(np.float64) / n_g)
            kl = float((p * np.log(p / q)).sum())
            days.append(int(day))
            kls.append(int(np.floor(kl * 1e6 + 0.5)))
        return pa.table({"day_id": pa.array(days, pa.int64()),
                         "kl_micro": pa.array(kls, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["day_id", cat_col]).aggregate(Sum("_c",
                                                       alias_name="_n")))
    return agg.repartition(1).map_batches(finish, batch_format="pyarrow")


def grouped_ewma(ds, key_col: str = "user_id", ts_col: str = "ts",
                 value_col: str = "value", id_col: str = "event_id",
                 a_num: int = 2, a_den: int = 10, n_buckets: int = 64):
    """Final exponentially-weighted moving average per key in exact
    integer cents: e_0 = c_0, e_i = (a_num*c_i + (a_den-a_num)*e_{i-1})
    // a_den over the key's rows in (ts, id) order.  Floor division at
    every step keeps the recurrence in int64 — bit-identical to the
    DuckDB ``list_reduce`` twin, where float EWMA would be
    association-order-dependent and unhashable cross-engine.

    Scale shape: ONE keyed shuffle on ``hash(key) % n_buckets``.  The
    recurrence is inherently sequential per key, so the in-bucket fold
    is a single linear scan over the bucket's sorted rows (numpy
    arrays, one Python step per row — no closed form exists once each
    step floors).  Output: (key, ewma_cents), one row per key.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        cents = _cents(g[value_col].to_numpy())
        b = a_den - a_num
        out_keys, out_vals = [], []
        cur_key = None
        e = 0
        for k, c in zip(keys, cents):
            if k != cur_key:
                if cur_key is not None:
                    out_keys.append(cur_key)
                    out_vals.append(e)
                cur_key = k
                e = int(c)
            else:
                e = (a_num * int(c) + b * e) // a_den
        if cur_key is not None:
            out_keys.append(cur_key)
            out_vals.append(e)
        return pd.DataFrame({key_col: out_keys,
                             "ewma_cents": pd.array(out_vals,
                                                    dtype="int64")})

    return keyed_fold(ds, key_col, fold, n_buckets=n_buckets,
                      schema=_carry(key_col, ("ewma_cents", pa.int64())),
                      batch_format="pandas")


def with_global_row_number(ds, sort_cols, rn_col: str = "rn"):
    """Total-order global ROW_NUMBER (1-based) over ``sort_cols``:
    Ray's range-partitioned sort already leaves blocks in global
    order, so the rank of a row is its block's row offset plus its
    position — the classic zipWithIndex.  The driver touches only
    O(blocks) row COUNTS (ints); the blocks themselves stay in the
    object store and are re-wrapped by reference.

    Ties within ``sort_cols`` would make the numbering
    layout-dependent, so pass a total order (include a unique id)."""
    import ray
    import ray.data as rd

    sds = ds.sort(sort_cols).materialize()
    refs = sds.to_arrow_refs()

    @ray.remote
    def nrows(t: pa.Table) -> int:
        return t.num_rows

    counts = ray.get([nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])]) \
        if counts else np.array([], dtype=np.int64)

    @ray.remote
    def add_rn(t: pa.Table, off: int) -> pa.Table:
        return t.append_column(
            rn_col, pa.array(off + np.arange(1, t.num_rows + 1),
                             pa.int64()))

    new_refs = [add_rn.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return rd.from_arrow_refs(new_refs)


def systematic_sample(ds, sort_cols, every: int, keep_cols=None,
                      rn_col: str = "rn"):
    """Deterministic 1-in-``every`` systematic sample under a total
    order: keep rows whose global row number satisfies
    (rn - 1) % every == 0 (the SQL ``row_number() OVER (ORDER BY ...)``
    twin).  Unlike Bernoulli sampling the stride guarantees exact
    coverage spacing — the survey-sampling standard when the sort key
    is uncorrelated with the measurement."""
    numbered = with_global_row_number(ds, sort_cols, rn_col=rn_col)

    def keep(b: pa.Table) -> pa.Table:
        rn = b.column(rn_col).to_numpy(zero_copy_only=False)
        t = b.filter(pa.array((rn - 1) % every == 0))
        if keep_cols is not None:
            t = t.select([rn_col] + list(keep_cols))
        return t

    return numbered.map_batches(keep, batch_format="pyarrow")


def user_streaks(ds, key_col: str = "user_id", ts_col: str = "ts",
                 n_buckets: int = 64):
    """Longest consecutive-day activity streak per key — the classic
    gaps-and-islands engagement metric (a run of calendar days with at
    least one event each).

    Scale shape: a per-batch combiner first collapses rows to DISTINCT
    (key, day-number) pairs — at most keys × days rows leave each
    block, never raw events — then ONE keyed shuffle on
    ``hash(key) % n_buckets``; inside a bucket the streak is a numpy
    diff over each key's de-duplicated sorted day numbers.  Day number
    is epoch-days (us // 86 400e6), identical to the SQL twin's
    ``date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))``.
    Output: (key, max_streak int64), one row per key.
    """
    _US_PER_DAY = 86_400_000_000

    def slim(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dn = pc.cast(batch.column(ts_col), pa.int64())
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            "_dn": dn.to_numpy(zero_copy_only=False) // _US_PER_DAY})
        return pa.Table.from_pandas(df.drop_duplicates(),
                                    preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = (g[[key_col, "_dn"]].drop_duplicates()
             .sort_values([key_col, "_dn"], kind="mergesort"))
        keys = g[key_col].to_numpy()
        days = g["_dn"].to_numpy(np.int64)
        n = len(g)
        # a new island starts at a key change or a day gap > 1
        brk = np.ones(n, dtype=bool)
        brk[1:] = (keys[1:] != keys[:-1]) | (np.diff(days) != 1)
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, n)).astype(np.int64)
        isl = pd.DataFrame({key_col: keys[starts], "_len": lens})
        out = (isl.groupby(key_col, sort=True)["_len"].max()
               .rename("max_streak").reset_index())
        out["max_streak"] = out["max_streak"].astype("int64")
        return out

    return keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), key_col, fold,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("max_streak", pa.int64())),
        batch_format="pandas")


def event_type_runs(ds, key_col: str = "user_id", ts_col: str = "ts",
                    id_col: str = "event_id", cat_col: str = "event_type",
                    n_buckets: int = 64):
    """Longest run of identical consecutive categories per key under
    the (ts, id) total order — e.g. "this user's longest unbroken
    stretch of error events" (session-quality / bot-detection signal).
    Ties broken toward the lexicographically smallest category.

    Scale shape: one keyed shuffle on ``hash(key) % n_buckets``; the
    in-bucket fold is a vectorized change-point scan (numpy boundary
    mask → run lengths via diff of run starts), never a Python loop
    over rows.  Output: (key, run_len int64, category).
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        cats = g[cat_col].to_numpy()
        n = len(g)
        brk = np.ones(n, dtype=bool)
        brk[1:] = (keys[1:] != keys[:-1]) | (cats[1:] != cats[:-1])
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, n)).astype(np.int64)
        runs = pd.DataFrame({key_col: keys[starts], "run_len": lens,
                             cat_col: cats[starts]})
        runs = runs.sort_values([key_col, "run_len", cat_col],
                                ascending=[True, False, True],
                                kind="mergesort")
        out = runs.groupby(key_col, sort=True).head(1)
        return out[[key_col, "run_len", cat_col]].reset_index(drop=True)

    return keyed_fold(ds, key_col, fold, n_buckets=n_buckets,
                      schema=_carry(key_col, ("run_len", pa.int64()), cat_col),
                      batch_format="pandas")


def _daily_cents(ds, ts_col: str, value_col: str):
    """Shared combiner: per-batch (YYYYMMDD, cents) partial sums →
    one native groupby over the bounded calendar — the only shuffle
    moves O(days × blocks) partial rows."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        day = pc.cast(pc.strftime(batch.column(ts_col), format="%Y%m%d"),
                      pa.int64())
        df = pd.DataFrame({
            "day_id": day.to_numpy(zero_copy_only=False),
            "_c": _cents(batch.column(value_col)
                         .to_numpy(zero_copy_only=False))})
        g = df.groupby("day_id", sort=False)["_c"].sum().astype("int64")
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("day_id").aggregate(Sum("_c", alias_name="_s")))


def daily_autocorr(ds, ts_col: str = "ts", value_col: str = "value"):
    """Lag-1 autocorrelation of the daily revenue series in integer
    micro-units — the "is tomorrow like today" stationarity check run
    before any time-series model is trusted.

    Exactness: the Pearson numerator and both variance terms are
    assembled from exact integer sums of daily cents (Python ints, no
    streaming-covariance float drift), then ONE double division +
    sqrt — the identical expression tree the SQL twin evaluates on
    HUGEINT aggregates, so the micro-rounded result hashes equal.
    Scale shape: the calendar is bounded, so after ``_daily_cents``
    the finish is a single tiny task.  Output: one row
    (n_pairs int64, lag1_corr_micro int64).
    """
    import math

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "_s" not in b.column_names:
            return pa.table({"n_pairs": pa.array([0], pa.int64()),
                             "lag1_corr_micro": pa.array([None],
                                                         pa.int64())})
        df = b.to_pandas().sort_values("day_id")
        s = [int(v) for v in df["_s"].to_numpy()]
        x, y = s[:-1], s[1:]
        n = len(x)
        if n < 2:
            return pa.table({"n_pairs": pa.array([n], pa.int64()),
                             "lag1_corr_micro": pa.array([None],
                                                         pa.int64())})
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b_ for a, b_ in zip(x, y))
        sxx = sum(a * a for a in x)
        syy = sum(b_ * b_ for b_ in y)
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:
            corr = None
        else:
            corr = int(math.floor(
                1e6 * float(num) / math.sqrt(float(d1) * float(d2)) + 0.5))
        return pa.table({"n_pairs": pa.array([n], pa.int64()),
                         "lag1_corr_micro": pa.array([corr], pa.int64())})

    return (_daily_cents(ds, ts_col, value_col)
            .repartition(1).map_batches(finish, batch_format="pyarrow"))


def bollinger_daily(ds, ts_col: str = "ts", value_col: str = "value",
                    window: int = 7, n_sigma: int = 2):
    """Trailing ``window``-day Bollinger bands over daily revenue:
    mean ± ``n_sigma`` population stddevs, plus a breach flag (-1 below
    band, 0 inside, +1 above) — the anomaly screen over the revenue
    series.

    Exactness: window sums / sums-of-squares stay exact integers; the
    only floats are one division and one sqrt per day, mirroring the
    SQL twin's expression tree on HUGEINT window sums.  Scale shape:
    bounded calendar → single tiny finish task after ``_daily_cents``.
    Output per day: (day_id, s_cents, mean_micro, lower_micro,
    upper_micro, breach).
    """
    import math

    def finish(b: pa.Table) -> pa.Table:
        cols = ("day_id", "s_cents", "mean_micro", "lower_micro",
                "upper_micro", "breach")
        if b.num_rows == 0 or "_s" not in b.column_names:
            return pa.table({c: pa.array([], pa.int64()) for c in cols})
        df = b.to_pandas().sort_values("day_id")
        days = df["day_id"].to_numpy(np.int64)
        s = [int(v) for v in df["_s"].to_numpy()]
        rows = {"day_id": [], "s_cents": [], "mean_micro": [],
                "lower_micro": [], "upper_micro": [], "breach": []}
        for i in range(len(s)):
            w = s[max(0, i - window + 1):i + 1]
            cnt = len(w)
            su = sum(w)
            sq = sum(v * v for v in w)
            m = float(su) / cnt
            var = float(cnt * sq - su * su) / float(cnt * cnt)
            sd = math.sqrt(var) if var > 0 else 0.0
            up, lo = m + n_sigma * sd, m - n_sigma * sd
            rows["day_id"].append(int(days[i]))
            rows["s_cents"].append(s[i])
            rows["mean_micro"].append(int(math.floor(1e6 * m + 0.5)))
            rows["lower_micro"].append(int(math.floor(1e6 * lo + 0.5)))
            rows["upper_micro"].append(int(math.floor(1e6 * up + 0.5)))
            rows["breach"].append(
                -1 if float(s[i]) < lo else (1 if float(s[i]) > up else 0))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in rows.items()})

    return (_daily_cents(ds, ts_col, value_col)
            .repartition(1).map_batches(finish, batch_format="pyarrow"))


def user_trend(ds, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", value_col: str = "value",
               n_buckets: int = 64):
    """Per-key OLS slope of spend over time, in integer micro-cents
    per hour — the "is this user ramping up or churning" trend signal.

    Exactness: x is whole seconds since the key's first event (floored
    the way SQL ``date_diff('second', …)`` floors), y is integer
    cents; the normal-equation terms n·Σxy−ΣxΣy and n·Σx²−(Σx)² are
    accumulated as arbitrary-precision Python ints (object-dtype
    sums — no int64 overflow cliff however long a key's history), then
    ONE double division mirrors the SQL twin's HUGEINT expression.
    Scale shape: one keyed shuffle on ``hash(key) % n_buckets``; the
    fold is pandas-groupby vectorized.  Keys with <2 events or zero
    time variance are dropped (slope undefined), as in the twin.
    Output: (key, n int64, trend_micro int64).
    """
    import math

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sec = (g[ts_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 1_000_000)
        g = g.assign(_sec=sec, _y=_cents(g[value_col].to_numpy()))
        t0 = g.groupby(key_col)["_sec"].transform("min")
        x = (g["_sec"] - t0).to_numpy(np.int64).astype(object)
        y = g["_y"].to_numpy(np.int64).astype(object)
        parts = pd.DataFrame({key_col: g[key_col].to_numpy(),
                              "_n": 1, "_sx": x, "_sy": y,
                              "_sxy": x * y, "_sxx": x * x})
        a = parts.groupby(key_col, sort=True).sum()
        out_k, out_n, out_t = [], [], []
        for k, r in a.iterrows():
            n = int(r["_n"])
            num = n * int(r["_sxy"]) - int(r["_sx"]) * int(r["_sy"])
            den = n * int(r["_sxx"]) - int(r["_sx"]) ** 2
            if n < 2 or den <= 0:
                continue
            out_k.append(k)
            out_n.append(n)
            out_t.append(int(math.floor(
                3.6e9 * float(num) / float(den) + 0.5)))
        return pd.DataFrame({key_col: out_k,
                             "n": pd.array(out_n, dtype="int64"),
                             "trend_micro": pd.array(out_t,
                                                     dtype="int64")})

    return keyed_fold(ds, key_col, fold, n_buckets=n_buckets,
                      schema=_carry(key_col, ("n", pa.int64()),
                                    ("trend_micro", pa.int64())),
                      batch_format="pandas")


def pareto_crossings(ds, key_col: str, value_col: str,
                     pcts=(50, 80, 90, 95)):
    """Revenue-concentration curve readout: for each percentage p,
    the minimum number of top keys (by exact cents spend, ties to the
    smaller key) whose cumulative spend reaches ≥ p% of the total —
    the 80/20 answer ("how many customers are 80% of revenue").

    Scale shape: per-batch per-key partial sums → one keyed Sum →
    range-partitioned sort by (spend desc, key asc) → the crossing
    search runs per sorted block given only that block's starting
    offsets (prefix row-count and prefix spend, O(blocks) ints on the
    driver — the zipWithIndex trick ``with_global_row_number`` uses);
    the comparison cum·100 ≥ total·p is exact integer math.  Output:
    (pct int64, n_keys int64), ≤ len(pcts) rows.
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            "_c": _cents(batch.column(value_col)
                         .to_numpy(zero_copy_only=False))})
        g = df.groupby(key_col, sort=False)["_c"].sum().astype("int64")
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    totals = (ds.map_batches(slim, batch_format="pyarrow")
              .groupby(key_col).aggregate(Sum("_c", alias_name="_s")))
    sds = totals.sort(["_s", key_col],
                      descending=[True, False]).materialize()
    refs = sds.to_arrow_refs()

    @ray.remote
    def block_stats(t: pa.Table):
        if t.num_rows == 0 or "_s" not in t.column_names:
            return 0, 0
        col = t.column("_s").to_numpy(zero_copy_only=False)
        return t.num_rows, int(col.sum())

    stats = ray.get([block_stats.remote(r) for r in refs])
    total = sum(s for _, s in stats)
    row_off, spend_off = [], []
    r_acc = s_acc = 0
    for nr, s in stats:
        row_off.append(r_acc)
        spend_off.append(s_acc)
        r_acc += nr
        s_acc += s

    @ray.remote
    def crossings(t: pa.Table, r_off: int, s_off: int) -> pa.Table:
        if t.num_rows == 0 or "_s" not in t.column_names:
            return pa.table({"pct": pa.array([], pa.int64()),
                             "n_keys": pa.array([], pa.int64())})
        cum = s_off + np.cumsum(
            t.column("_s").to_numpy(zero_copy_only=False), dtype=object)
        out_p, out_n = [], []
        for p in pcts:
            th = total * int(p)  # crossing: first rank with cum*100 >= th
            if s_off * 100 >= th:
                continue  # crossed in an earlier block
            hit = np.flatnonzero(cum * 100 >= th)
            if len(hit):
                out_p.append(int(p))
                out_n.append(int(r_off + hit[0] + 1))
        return pa.table({"pct": pa.array(out_p, pa.int64()),
                         "n_keys": pa.array(out_n, pa.int64())})

    parts = [crossings.remote(r, ro, so)
             for r, ro, so in zip(refs, row_off, spend_off)]
    return rd.from_arrow_refs(parts)


def source_fairness(ds, cat_col: str = "source"):
    """Jain's fairness index over per-category row counts, in integer
    micro-units — the crawl-fairness readout ("is the fetch budget
    spread across hosts or hogged by one?"): J = (Σx)² / (n·Σx²),
    1.0 = perfectly even, 1/n = one category has everything.

    Exactness: counts are exact ints; the single division runs on the
    same exact integer products the SQL twin casts to DOUBLE.  Scale
    shape: per-batch partial counts → one keyed Sum over the bounded
    category space → O(categories) finish.  Output: one row
    (n_cats int64, jain_micro int64).
    """
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({cat_col: batch.column(cat_col)
                           .to_pylist()})
        g = df.groupby(cat_col, sort=False).size().rename("_c")
        return pa.Table.from_pandas(g.astype("int64").reset_index(),
                                    preserve_index=False)

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "_n" not in b.column_names:
            return pa.table({"n_cats": pa.array([0], pa.int64()),
                             "jain_micro": pa.array([None], pa.int64())})
        x = [int(v) for v in b.column("_n").to_pylist()]
        n = len(x)
        sx, sxx = sum(x), sum(v * v for v in x)
        jain = int(math.floor(
            1e6 * float(sx * sx) / float(n * sxx) + 0.5))
        return pa.table({"n_cats": pa.array([n], pa.int64()),
                         "jain_micro": pa.array([jain], pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(cat_col).aggregate(Sum("_c", alias_name="_n")))
    return agg.repartition(1).map_batches(finish, batch_format="pyarrow")


def daily_cusum(ds, ts_col: str = "ts", value_col: str = "value"):
    """One-sided CUSUM drift detector over daily revenue in exact
    integer cents: s_0 = 0, s_i = max(0, s_{i-1} + d_i − μ) with
    μ = ⌊total / n_days⌋ — the "revenue has been running above trend
    for a while" accumulator that fires before any single day breaches
    a Bollinger band.

    The sequential recurrence has the closed form
    s_i = p_i − min(0, min_{j≤i} p_j) over the prefix sums
    p_i = Σ_{k≤i}(d_k − μ), so both this engine (vectorized
    cumsum/cummin) and the SQL twin (two window functions) evaluate it
    without a per-row fold — all int64, no floats anywhere.  Scale
    shape: bounded calendar → single tiny finish after the daily
    combiner.  Output per day: (day_id, cusum_cents int64).
    """

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "_s" not in b.column_names:
            return pa.table({"day_id": pa.array([], pa.int64()),
                             "cusum_cents": pa.array([], pa.int64())})
        df = b.to_pandas().sort_values("day_id")
        d = df["_s"].to_numpy(np.int64)
        mu = int(d.sum()) // len(d)
        p = np.cumsum(d - mu)
        floor_ = np.minimum(np.minimum.accumulate(p), 0)
        s = p - floor_
        return pa.table({"day_id": pa.array(df["day_id"].to_numpy(np.int64)),
                         "cusum_cents": pa.array(s.astype(np.int64))})

    return (_daily_cents(ds, ts_col, value_col)
            .repartition(1).map_batches(finish, batch_format="pyarrow"))


def grouped_kendall_tau(ds, key_col: str, value_col: str = "value"):
    """Kendall τ-b between per-key total spend (exact cents) and
    per-key event count, in integer micro-units — "do my heavy users
    also spend more?" as a rank-correlation, robust to outliers where
    Pearson is not.

    Exactness: concordant/discordant/tie pair counts are exact int64,
    the final τ-b is one double division on the same integer products
    the SQL twin evaluates.  Scale shape: the raw shuffle is only the
    keyed Sum/Count pre-aggregation; the pair count runs in ONE task
    over the k aggregate rows — Knight's O(k log k) algorithm (sort by
    (x, y), merge-count strict y-inversions, tie-group corrections),
    with the O(k²) sign-matrix kept as the small-k fast path and as
    the parity twin the tests pin the scale path against.  Output:
    one row (n_keys, tau_micro).
    """
    import math

    from ray.data.aggregate import Count, Sum

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            key_col: batch.column(key_col),
            "_c": pa.array(_cents(batch.column(value_col)
                                  .to_numpy(zero_copy_only=False)),
                           pa.int64())})

    agg = (ds.map_batches(slim, batch_format="pyarrow")
           .groupby(key_col)
           .aggregate(Sum("_c", alias_name="_spend"),
                      Count(alias_name="_n")))

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows < 2 or "_spend" not in b.column_names:
            return pa.table({"n_keys": pa.array([b.num_rows], pa.int64()),
                             "tau_micro": pa.array([None], pa.int64())})
        x = b.column("_spend").to_numpy(zero_copy_only=False)
        y = b.column("_n").to_numpy(zero_copy_only=False)
        nc_nd, tx, ty = kendall_pair_counts(x, y)
        n0 = len(x) * (len(x) - 1) // 2
        den = float(n0 - tx) * float(n0 - ty)
        tau = (int(math.floor(
            1e6 * float(nc_nd) / math.sqrt(den) + 0.5))
            if den > 0 else None)
        return pa.table({"n_keys": pa.array([len(x)], pa.int64()),
                         "tau_micro": pa.array([tau], pa.int64())})

    return agg.repartition(1).map_batches(finish, batch_format="pyarrow")


def kendall_pair_counts(x, y, small_cutoff: int = 512):
    """Exact (nc − nd, tied-in-x, tied-in-y) pair counts for Kendall
    τ-b.  k ≤ ``small_cutoff``: O(k²) numpy sign matrix.  Larger:
    Knight's algorithm — nc − nd = n0 − n1 − n2 + n3 − 2·inv, where
    n1/n2/n3 are the C(t,2) tie sums for x / y / (x,y) groups and
    ``inv`` counts strict y-inversions after sorting by (x, y)
    (merge-based, vectorized ``searchsorted`` per level: O(k log² k),
    no Python row loop).  Both paths return identical integers; the
    tests assert it."""
    x = np.asarray(x)
    y = np.asarray(y)
    k = len(x)
    if k <= small_cutoff:
        dx = np.sign(x[:, None] - x[None, :])
        dy = np.sign(y[:, None] - y[None, :])
        iu = np.triu_indices(k, k=1)
        prod = dx[iu] * dy[iu]
        nc = int((prod > 0).sum())
        nd = int((prod < 0).sum())
        tx = int((dx[iu] == 0).sum())
        ty = int((dy[iu] == 0).sum())
        return nc - nd, tx, ty

    def tie_sum(groups):
        _, counts = np.unique(groups, return_counts=True, axis=0)
        c = counts.astype(object)
        return int((c * (c - 1) // 2).sum())

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n0 = k * (k - 1) // 2
    n1 = tie_sum(xs)
    n2 = tie_sum(y)
    n3 = tie_sum(np.stack([xs, ys], axis=1))

    def inversions(a: np.ndarray, base: int = 256) -> int:
        # strict inversions (a_i > a_j, i < j): O(b²) sign matrix
        # inside base blocks, then bottom-up merge counting — for a
        # sorted left part and any right part, the cross-pair count is
        # Σ_r (len(left) − searchsorted(left, r, 'right')); internal
        # order of the halves is irrelevant to cross pairs, so both
        # stay sorted.  Python iterates over BLOCKS (k/base + merges),
        # never rows.
        total = 0
        segs = []
        for s in range(0, len(a), base):
            blk = a[s:s + base]
            if len(blk) > 1:
                iu = np.triu_indices(len(blk), k=1)
                total += int((blk[:, None] > blk[None, :])[iu].sum())
            segs.append(np.sort(blk, kind="mergesort"))
        while len(segs) > 1:
            nxt = []
            for i in range(0, len(segs) - 1, 2):
                left, right = segs[i], segs[i + 1]
                pos = np.searchsorted(left, right, side="right")
                total += int((len(left) - pos).sum())
                merged = np.concatenate([left, right])
                merged.sort(kind="mergesort")
                nxt.append(merged)
            if len(segs) % 2:
                nxt.append(segs[-1])
            segs = nxt
        return total

    inv = inversions(ys)
    return n0 - n1 - n2 + n3 - 2 * inv, n1, n2


def mutual_information(ds, col_x: str, col_y: str):
    """Mutual information between two categorical columns in integer
    micro-nats — the dataset-curation screen for "does this metadata
    field actually carry signal about that one" (label leakage,
    redundant facets).  From exact pair counts:

        MI = ln N + (Σ c_xy·ln c_xy − Σ c_x·ln c_x − Σ c_y·ln c_y) / N

    — the same expression tree as the SQL twin so the float64 math
    agrees term-for-term before the ``floor(·1e6 + 0.5)`` pin.

    Scale shape: per-batch (x, y) partial counts collapse every block
    before ONE keyed Sum whose group count is bounded by |X|·|Y| (the
    CARDINALITY PRODUCT, not the row count); the marginals + final
    scalar fold run in a single ``repartition(1)`` task over that
    O(|X|·|Y|) aggregate — the driver never holds it.  For
    high-cardinality columns bucket/bin them first; MI over raw ids
    is degenerate anyway.  Output: one row (mi_micro int64).
    """
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([col_x, col_y], sort=False)
             .size().rename("_c").astype("int64").reset_index())
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        cnt = (df.groupby([col_x, col_y], sort=False)["_c"].sum()
               .astype("int64").reset_index())
        c = cnt["_c"].to_numpy(dtype=np.float64)
        n = c.sum()
        scc = (c * np.log(c)).sum()
        a = cnt.groupby(col_x, sort=False)["_c"].sum().to_numpy(np.float64)
        b = cnt.groupby(col_y, sort=False)["_c"].sum().to_numpy(np.float64)
        sa = (a * np.log(a)).sum()
        sb = (b * np.log(b)).sum()
        mi = np.log(n) + (scc - sa - sb) / n
        return pd.DataFrame({"mi_micro": np.asarray(
            [np.floor(mi * 1e6 + 0.5)], dtype=np.int64)})

    pairs = (ds.map_batches(partial, batch_format="pandas")
             .groupby([col_x, col_y]).aggregate(Sum("_c", alias_name="_c")))
    return pairs.repartition(1).map_batches(
        fold, batch_format="pandas", batch_size=None)


def rfm_segments(ds, cust_col: str, date_col: str, price_col: str,
                 n_tiles: int = 5):
    """RFM customer segmentation (recency / frequency / monetary, the
    classic marketing screen): per customer, days since last order
    relative to the corpus max date, order count, lifetime spend in
    exact cents — then NTILE(n) over each metric with a custkey
    tie-break.

    Scale shape: ONE keyed shuffle folds orders into per-customer
    partials (per-batch combiner first, so blocks collapse before the
    exchange); the corpus max date is a scalar off that aggregate.
    The tiling is a global total order — inherently a sort — run as a
    single ``repartition(1)`` task over the O(customers) aggregate
    rows (4 ints each; ~32 MB per 10⁶ customers).  Past ~10⁸
    customers switch to the distributed sort + count-below rank the
    systematic-sample path uses.  Output: (custkey, recency_days,
    frequency, monetary_cents, r_tile, f_tile, m_tile), all int64.
    """
    from ray.data.aggregate import Max, Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df[price_col].to_numpy())
        day = (df[date_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        g = pd.DataFrame({"custkey": df[cust_col].to_numpy(),
                          "_last": day, "_n": np.int64(1), "_c": cents})
        out = g.groupby("custkey", sort=False).agg(
            _last=("_last", "max"), _n=("_n", "sum"),
            _c=("_c", "sum")).reset_index()
        return out.astype({"_last": "int64", "_n": "int64", "_c": "int64"})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("custkey")
           .aggregate(Max("_last", alias_name="last_day"),
                      Sum("_n", alias_name="frequency"),
                      Sum("_c", alias_name="monetary_cents"))
           .materialize())
    mx = int(agg.max("last_day"))

    def tile_all(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("custkey", kind="mergesort").reset_index(
            drop=True)
        rec = (mx - df["last_day"].to_numpy(dtype=np.int64))
        n = len(df)
        base, rem = n // n_tiles, n % n_tiles
        big = rem * (base + 1)

        def ntile(metric: np.ndarray) -> np.ndarray:
            order = np.lexsort((df["custkey"].to_numpy(), metric))
            i = np.empty(n, np.int64)
            i[order] = np.arange(n)
            return np.where(
                i < big, i // max(base + 1, 1),
                rem + np.maximum(i - big, 0) // max(base, 1)) + 1

        return pd.DataFrame({
            "custkey": df["custkey"].astype("int64"),
            "recency_days": rec,
            "frequency": df["frequency"].astype("int64"),
            "monetary_cents": df["monetary_cents"].astype("int64"),
            "r_tile": ntile(rec),
            "f_tile": ntile(df["frequency"].to_numpy(np.int64)),
            "m_tile": ntile(df["monetary_cents"].to_numpy(np.int64))})

    return agg.repartition(1).map_batches(
        tile_all, batch_format="pandas", batch_size=None)


def event_trigrams(ds, user_col: str = "user_id", ts_col: str = "ts",
                   id_col: str = "event_id",
                   type_col: str = "event_type", top_k: int = 20,
                   n_buckets: int = 64):
    """Frequent 3-event sequences (the sequence-mining step up from
    ``event_transitions``' bigrams): per user ordered by (ts, id),
    count global (a → b → c) adjacent triples and keep the top-k by
    (count desc, a, b, c).

    Scale shape: same one-raw-shuffle design as transitions — inside
    a user bucket the two successors are vectorized ``shift`` calls
    and the bucket collapses to per-triple partials, so the second
    shuffle moves O(|alphabet|³ × buckets) int rows; the top-k cut
    runs over that bounded aggregate.  Output: (t1, t2, t3, n).
    """

    def triples(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
        grp = g.groupby(user_col, sort=False)[type_col]
        n1 = grp.shift(-1)
        n2 = grp.shift(-2)
        keep = n2.notna()
        part = (pd.DataFrame({"t1": g[type_col][keep],
                              "t2": n1[keep], "t3": n2[keep]})
                .groupby(["t1", "t2", "t3"], sort=False)
                .size().rename("n").reset_index())
        part["n"] = part["n"].astype("int64")
        return part

    def cut(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "t1", "t2", "t3"],
                            ascending=[False, True, True, True],
                            kind="mergesort").head(top_k)
        return df.reset_index(drop=True).astype({"n": "int64"})

    part = keyed_fold(ds, user_col, triples, n_buckets=n_buckets,
                      schema=_carry(("t1", type_col), ("t2", type_col),
                                    ("t3", type_col), ("n", pa.int64())),
                      batch_format="pandas")
    agg = _sum_partials(part, ["t1", "t2", "t3"], n_buckets)
    return agg.repartition(1).map_batches(cut, batch_format="pandas",
                                          batch_size=None)


def upsert_merge(base_ds, updates_ds, key_col: str, ver_col: str,
                 n_buckets: int = 64):
    """Lakehouse-style MERGE / upsert: overlay ``updates`` onto
    ``base``, latest ``ver_col`` wins per key (ties break to the
    update side — the CDC apply rule).  Both inputs must share a
    schema; the survivor row is kept whole.

    Scale shape: union the two sides with a side tag, ONE bucketed
    key shuffle, and a vectorized in-bucket keep-last under the total
    order (key, ver, side) — base never materializes anywhere.
    Output: merged rows, one per key.
    """
    import pandas as pd

    def tag(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(_side=np.int64(side))
        return fn

    def keep_latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ver_col, "_side"], kind="mergesort")
        out = g.drop_duplicates(key_col, keep="last")
        return out.drop(columns=["_side"]).reset_index(drop=True)

    union = (base_ds.map_batches(tag(0), batch_format="pandas")
             .union(updates_ds.map_batches(tag(1), batch_format="pandas")))
    return keyed_fold(union, key_col, keep_latest, n_buckets=n_buckets,
                      schema=lambda s: s.remove(s.get_field_index("_side")),
                      batch_format="pandas")


def scd2_intervals(ds, key_col: str, ver_col: str,
                   open_sentinel: int = 0, n_buckets: int = 64):
    """Slowly-changing-dimension Type-2 history build: given versioned
    rows per key, emit each version's validity interval —
    ``valid_from = ver``, ``valid_to = next higher ver`` (or
    ``open_sentinel`` for the current row).  The warehouse pattern
    that turns CDC streams into as-of-queryable history.

    Scale shape: ONE bucketed key shuffle, vectorized per-key sort +
    shift inside the bucket.  Duplicate (key, ver) rows are an input
    error and collapse keep-first deterministically.  Output: input
    columns + (valid_from, valid_to) int64.
    """
    import pandas as pd

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([key_col, ver_col], kind="mergesort")
             .drop_duplicates([key_col, ver_col], keep="first"))
        nxt = g.groupby(key_col, sort=False)[ver_col].shift(-1)
        g = g.assign(
            valid_from=g[ver_col].astype("int64"),
            valid_to=nxt.fillna(open_sentinel).astype("int64"))
        return g.reset_index(drop=True)

    return keyed_fold(ds, key_col, fold, n_buckets=n_buckets,
                      schema=lambda s: pa.schema(
                          [*s, ("valid_from", pa.int64()),
                           ("valid_to", pa.int64())]),
                      batch_format="pandas")


def effective_sample_size(ds, weight_col: str):
    """Kish effective sample size of a weighted mixture,
    ``ESS = (Σw)² / Σw²`` — how many "real" samples a weighting
    scheme is worth (severe upweighting collapses ESS long before it
    shows in loss curves).  Weights are integer micro-units (the
    ``lang_temperature_weights`` contract); the two moments stay
    exact int64 through a per-batch combiner and one single-row fold;
    only the final division is float, same expression tree as SQL.
    Output: one row (n_rows, ess_micro) — ESS in micro-rows.
    """
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].to_numpy(dtype=np.int64)
        return pd.DataFrame({"n": [np.int64(len(w))],
                             "sw": [np.int64(w.sum())],
                             "sw2": [np.int64((w * w).sum())]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        n = int(df["n"].sum())
        sw = int(df["sw"].sum())
        sw2 = int(df["sw2"].sum())
        ess = 0 if sw2 == 0 else int(
            np.floor(1e6 * (float(sw * sw) / float(sw2)) + 0.5))
        return pd.DataFrame({"n_rows": pd.array([n], dtype="int64"),
                             "ess_micro": pd.array([ess],
                                                   dtype="int64")})

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(
        fold, batch_format="pandas", batch_size=None)


def decayed_spend(ds, key_col: str, ts_col: str, value_col: str,
                  n_buckets: int = 64):
    """Per-key recency-decayed activity score with a one-day half
    life, in EXACT integer arithmetic: each row contributes
    ``cents // 2^days_ago`` (days_ago relative to the corpus max
    date, capped at 62 so the divisor fits int64).  Powers of two are
    exactly representable doubles, so the SQL twin's
    ``pow(2, LEAST(d, 62))`` divides identically — no float drift,
    unlike an ``exp(-λt)`` score.

    Scale shape: the corpus max day is ONE tiny aggregate; scoring is
    then a pure per-batch map + one bucketed keyed Sum of int64
    partials.  Output: (key, decayed_cents int64), rows with a zero
    score included.
    """
    import pandas as pd

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df[ts_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        return pd.DataFrame({"_d": [np.int64(day.max())]} if len(df)
                            else {"_d": pd.Series([], dtype="int64")})

    mx = int(ds.map_batches(day_partial, batch_format="pandas")
             .max("_d"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df[ts_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        ago = np.clip(mx - day, 0, 62)
        cents = _cents(df[value_col].to_numpy())
        score = cents // (np.int64(1) << ago)
        g = pd.DataFrame({key_col: df[key_col].to_numpy(), "_s": score})
        out = (g.groupby(key_col, sort=False)["_s"].sum()
               .astype("int64").reset_index())
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(key_col, sort=False)["_s"].sum()
               .astype("int64").reset_index()
               .rename(columns={"_s": "decayed_cents"}))
        return out

    return keyed_fold(
        ds.map_batches(partial, batch_format="pandas"), key_col, fold,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("decayed_cents", pa.int64())),
        batch_format="pandas")


def psi_drift(ds, ts_col: str = "ts", value_col: str = "value",
              n_bins: int = 10):
    """Population Stability Index between the corpus' first and second
    half (by median epoch-day split): decile bins fixed on the FIRST
    period, add-1 smoothed counts, ``PSI = Σ (p2−p1)·ln(p2/p1)`` in
    integer micro-nats — the industry drift gate (PSI > 0.2 = retrain).

    Determinism contract: bin edges are the first period's exact
    cents-percentiles (numpy 'linear', 6-dp rounded — the
    events_percentile convention) computed in ONE task over that
    period's O(rows) cents column pulled as a single block; at corpus
    scale swap in ``histogram_quantiles``'s mergeable sketch for the
    edges and keep the rest unchanged.  Counting + the final fold use
    exact int64 and the SQL twin's expression tree.  Output: one row
    (n_first, n_second, psi_micro).
    """
    import pandas as pd

    def day_cents(df: pd.DataFrame) -> pd.DataFrame:
        day = (df[ts_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        return pd.DataFrame({"_day": day,
                             "_c": _cents(df[value_col].to_numpy())})

    rows = ds.map_batches(day_cents, batch_format="pandas").materialize()
    lo = int(rows.min("_day"))
    hi = int(rows.max("_day"))
    mid = (lo + hi) // 2  # first period: day <= mid

    first = rows.filter(expr=f"_day <= {mid}")
    cents1 = first.select_columns(["_c"]).to_pandas()["_c"].to_numpy()
    qs = np.arange(1, n_bins) / n_bins
    edges = np.round(np.percentile(cents1, qs * 100), 6)

    def bin_counts(df: pd.DataFrame) -> pd.DataFrame:
        c = df["_c"].to_numpy(dtype=np.float64)
        b = np.searchsorted(edges, c, side="right")
        isec = (df["_day"].to_numpy() > mid).astype(np.int64)
        g = pd.DataFrame({"_bin": b, "_sec": isec, "_n": np.int64(1)})
        return (g.groupby(["_bin", "_sec"], sort=False)["_n"].sum()
                .astype("int64").reset_index())

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["_bin", "_sec"], sort=False)["_n"].sum()
             .reset_index())
        c1 = np.zeros(n_bins, np.int64)
        c2 = np.zeros(n_bins, np.int64)
        bins = g["_bin"].to_numpy(dtype=np.int64)
        secs = g["_sec"].to_numpy(dtype=np.int64)
        ns = g["_n"].to_numpy(dtype=np.int64)
        np.add.at(c1, bins[secs == 0], ns[secs == 0])
        np.add.at(c2, bins[secs == 1], ns[secs == 1])
        # add-1 smoothing keeps empty bins finite, pinned in the twin
        s1 = (c1 + 1).astype(np.float64)
        s2 = (c2 + 1).astype(np.float64)
        n1f, n2f = s1.sum(), s2.sum()
        p1 = s1 / n1f
        p2 = s2 / n2f
        psi = ((p2 - p1) * np.log(p2 / p1)).sum()
        return pd.DataFrame({
            "n_first": pd.array([int(c1.sum())], dtype="int64"),
            "n_second": pd.array([int(c2.sum())], dtype="int64"),
            "psi_micro": pd.array([int(np.floor(psi * 1e6 + 0.5))],
                                  dtype="int64")})

    counts = rows.map_batches(bin_counts, batch_format="pandas")
    return counts.repartition(1).map_batches(
        fold, batch_format="pandas", batch_size=None)


def ks_statistic(ds, side_col: str, value_col: str,
                 n_buckets: int = 64):
    """Exact two-sample Kolmogorov–Smirnov statistic between the two
    values of ``side_col`` (0/1): ``D = max |F1(v) − F2(v)|`` over
    every observed value, computed in EXACT integers —
    ``max |c1·n2 − c2·n1|`` over cumulative counts, divided once by
    ``n1·n2`` at the end (micro-pinned).  The distribution-shift
    gate that, unlike PSI, needs no binning choices.

    Scale shape: per-batch (cents, side) counts → one keyed Sum whose
    group count is bounded by DISTINCT VALUES (cents dedupe hard); the
    sort + cummax fold runs in a single task over that aggregate —
    for continuous data at web scale, quantize cents first (the
    histogram family's trade).  Output: one row (n1, n2, d_micro).
    """
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df[value_col].to_numpy())
        s = df[side_col].to_numpy(dtype=np.int64)
        g = pd.DataFrame({"_c": c,
                          "_n1": (s == 0).astype(np.int64),
                          "_n2": (s == 1).astype(np.int64)})
        return (g.groupby("_c", sort=False).sum().reset_index()
                .astype({"_n1": "int64", "_n2": "int64"}))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("_c", kind="mergesort")
        c1 = df["_n1"].to_numpy(np.int64).cumsum()
        c2 = df["_n2"].to_numpy(np.int64).cumsum()
        n1 = int(c1[-1]) if len(c1) else 0
        n2 = int(c2[-1]) if len(c2) else 0
        if n1 == 0 or n2 == 0:
            d = 0
        else:
            diff = np.abs(c1 * np.int64(n2) - c2 * np.int64(n1))
            d = int(np.floor(1e6 * (float(diff.max())
                                    / float(n1 * n2)) + 0.5))
        return pd.DataFrame({"n1": pd.array([n1], dtype="int64"),
                             "n2": pd.array([n2], dtype="int64"),
                             "d_micro": pd.array([d], dtype="int64")})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("_c").aggregate(Sum("_n1", alias_name="_n1"),
                                    Sum("_n2", alias_name="_n2")))
    return agg.repartition(1).map_batches(fold, batch_format="pandas",
                                          batch_size=None)


def global_kth_smallest(ds, value_col: str, k: int | None = None,
                        n_bins: int = 1 << 16):
    """Exact global k-th smallest value (default: the lower median,
    ``k = (n+1)//2``) by DISTRIBUTED SELECTION — two streaming count
    passes, never a global sort: pass 1 histograms exact cents into
    ``n_bins`` range buckets and the driver locates the bucket holding
    the k-th; pass 2 counts exact values INSIDE that one bucket (at
    most O(range/n_bins) distinct cents reach the driver) and picks.
    The selection algorithm every "median at 100 TB" answer should be,
    instead of sort-the-world.  Output: one row (n_rows, kth_cents).
    """
    import pandas as pd

    def cents_batch(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"_c": _cents(df[value_col].to_numpy())})

    rows = ds.map_batches(cents_batch, batch_format="pandas").materialize()
    n = rows.count()
    if n == 0:
        return pd.DataFrame({"n_rows": pd.array([0], dtype="int64"),
                             "kth_cents": pd.array([0], dtype="int64")})
    kk = (n + 1) // 2 if k is None else int(k)
    if not 1 <= kk <= n:
        raise ValueError(f"k={kk} out of range 1..{n}")
    lo = int(rows.min("_c"))
    hi = int(rows.max("_c"))
    width = max(1, (hi - lo + n_bins) // n_bins)

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = (df["_c"].to_numpy(np.int64) - lo) // width
        u, c = np.unique(b, return_counts=True)
        return pd.DataFrame({"_bin": u.astype(np.int64),
                             "_n": c.astype(np.int64)})

    hist = (rows.map_batches(hist_partial, batch_format="pandas")
            .to_pandas().groupby("_bin")["_n"].sum().sort_index())
    cum = hist.cumsum()
    target_bin = int(cum.index[np.searchsorted(cum.to_numpy(), kk)])
    below = int(cum.loc[:target_bin].iloc[-2]) if (
        cum.index.get_loc(target_bin) > 0) else 0
    b_lo = lo + target_bin * width
    b_hi = b_lo + width

    def in_bin(df: pd.DataFrame) -> pd.DataFrame:
        c = df["_c"].to_numpy(np.int64)
        c = c[(c >= b_lo) & (c < b_hi)]
        u, cnt = np.unique(c, return_counts=True)
        return pd.DataFrame({"_c": u, "_n": cnt.astype(np.int64)})

    inside = (rows.map_batches(in_bin, batch_format="pandas")
              .to_pandas().groupby("_c")["_n"].sum().sort_index())
    need = kk - below
    kth = int(inside.index[np.searchsorted(inside.cumsum().to_numpy(),
                                           need)])
    return pd.DataFrame({"n_rows": pd.array([n], dtype="int64"),
                         "kth_cents": pd.array([kth], dtype="int64")})


def retention_survival(ds, cust_col: str, date_col: str,
                       n_buckets: int = 64):
    """Kaplan–Meier survival curve of repurchase gaps (Kaplan & Meier
    1958, public): every consecutive same-customer order gap in days
    is an EVENT; each customer's tail gap (corpus max day − last
    order) is CENSORED.  ``S(k) = Π_{j≤k} (1 − d_j/n_j)`` with d =
    events at gap j, n = gaps (either kind) still ≥ j — the retention
    curve that raw histogram gaps get wrong by ignoring censoring.

    Determinism: both engines fold ``exp(cumsum(ln(1 − d/n)))`` in
    ASCENDING gap order (the SQL running-window order), so the float
    op order matches before the micro pin.  Shape: per-customer gaps
    from one bucketed key fold → (gap, censored) partial counts → one
    keyed Sum bounded by DISTINCT GAP VALUES → a single ordered fold.
    Output: (gap_days, n_at_risk, n_events, s_micro) per event time.
    """
    import pandas as pd

    def day_rows(df: pd.DataFrame) -> pd.DataFrame:
        day = (df[date_col].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        return pd.DataFrame({cust_col: df[cust_col].to_numpy(),
                             "_day": day})

    rows = ds.map_batches(day_rows, batch_format="pandas").materialize()
    cmax = int(rows.max("_day"))

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([cust_col, "_day"], kind="mergesort")
        day = g["_day"].to_numpy(np.int64)
        cust = g[cust_col].to_numpy()
        new = np.r_[True, cust[1:] != cust[:-1]]
        gap = day - np.r_[0, day[:-1]]
        ev = pd.DataFrame({"gap": gap[~new], "cens": np.int64(0)})
        last = np.r_[new[1:], True]
        tail = pd.DataFrame({"gap": cmax - day[last],
                             "cens": np.int64(1)})
        out = pd.concat([ev, tail], ignore_index=True)
        return (out.groupby(["gap", "cens"], sort=False).size()
                .rename("_n").astype("int64").reset_index())

    parts = keyed_fold(rows, cust_col, gaps, n_buckets=n_buckets,
                       schema=pa.schema([(c, pa.int64())
                                         for c in ("gap", "cens", "_n")]),
                       batch_format="pandas")
    agg = _sum_partials(parts, ["gap", "cens"], n_buckets)

    def km(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["gap", "cens"], kind="mergesort")
        gap = df["gap"].to_numpy(np.int64)
        cens = df["cens"].to_numpy(np.int64)
        n = df["_n"].to_numpy(np.int64)
        total = int(n.sum())
        # at-risk at time g: all gaps >= g (suffix sums over the
        # ascending distinct-gap axis)
        order = np.argsort(gap, kind="mergesort")
        gs, cs, ns = gap[order], cens[order], n[order]
        uniq = np.unique(gs)
        per_gap = np.zeros(len(uniq), np.int64)
        d_ev = np.zeros(len(uniq), np.int64)
        idx = np.searchsorted(uniq, gs)
        np.add.at(per_gap, idx, ns)
        np.add.at(d_ev, idx[cs == 0], ns[cs == 0])
        at_risk = total - np.r_[0, np.cumsum(per_gap)[:-1]]
        keep = d_ev > 0
        dk, nk = d_ev[keep], at_risk[keep]
        # a time where EVERY at-risk gap converts is terminal: pin its
        # S to exactly 0 (ln(0) errors in the SQL twin; its term is
        # excluded from the running sum, mirroring SUM-skips-NULL)
        dead = dk == nk
        ln_terms = np.where(dead, 0.0, np.log(1.0 - dk / nk))
        s = np.exp(np.cumsum(ln_terms))
        s_micro = np.where(dead, 0,
                           np.floor(s * 1e6 + 0.5)).astype(np.int64)
        return pd.DataFrame({
            "gap_days": uniq[keep],
            "n_at_risk": nk,
            "n_events": dk,
            "s_micro": s_micro})

    return agg.repartition(1).map_batches(km, batch_format="pandas",
                                          batch_size=None)


def mode_per_group(ds, group_col: str, value_col: str,
                   n_buckets: int = 64):
    """Exact mode per group — the most frequent value with a
    (count desc, value asc) tie-break.  Per-batch (group, value)
    partial counts collapse every block; ONE bucketed shuffle keyed
    on the (group, value) CELL (a ``_cell`` key column) folds exact
    counts and cuts per-bucket argmax candidates; a tiny second fold
    keyed on the group picks the true mode.  Output: (group,
    mode_value, n).
    """
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby([group_col, value_col], sort=False)
               .size().rename("_c").astype("int64").reset_index())
        return out.assign(_cell=out[group_col].astype(str) + "\x00"
                          + out[value_col].astype(str))

    def cell_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby([group_col, value_col], sort=False)["_c"].sum()
               .astype("int64").reset_index())
        out = (out.sort_values([group_col, "_c", value_col],
                               ascending=[True, False, True],
                               kind="mergesort")
               .groupby(group_col, sort=False).head(1))
        return out.reset_index(drop=True)

    def final_cut(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([group_col, "_c", value_col],
                           ascending=[True, False, True],
                           kind="mergesort")
             .groupby(group_col, sort=False).head(1)
             .reset_index(drop=True))
        return (g.rename(columns={value_col: "mode_value", "_c": "n"})
                .astype({"n": "int64"}))

    cands = keyed_fold(
        ds.map_batches(partial, batch_format="pandas"), "_cell", cell_fold,
        n_buckets=n_buckets,
        schema=_carry(group_col, value_col, ("_c", pa.int64())),
        batch_format="pandas")
    return keyed_fold(cands, group_col, final_cut, n_buckets=n_buckets,
                      schema=_carry(group_col, ("mode_value", value_col),
                                    ("n", pa.int64())),
                      batch_format="pandas")


def roc_auc(ds, pos_col: str, value_col: str, n_buckets: int = 64):
    """Exact ROC AUC of ``value_col`` as a score predicting the 0/1
    ``pos_col`` label, via the tie-aware Mann–Whitney rank-sum
    identity ``AUC = (R⁺ − n⁺(n⁺+1)/2) / (n⁺·n⁻)`` with average ranks
    on ties — computed in EXACT integers (``2·R⁺`` is integral) and
    micro-pinned only at the final division.

    Scale shape (the ``ks_statistic`` family): per-batch
    (cents, n_pos, n_tot) partials → one keyed Sum bounded by DISTINCT
    score values → a single sorted fold over that aggregate.  For
    continuous scores at web scale, quantize first (same trade as the
    histogram family).  Doubles stay exact while
    ``2·R⁺ < 2^53`` (≈ n⁺·N < 4.5e15) — the documented bound, far past
    any per-slice audit this gate runs on.  Output: one row
    (n_pos, n_neg, auc_micro)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df[value_col].to_numpy())
        p = df[pos_col].to_numpy(dtype=np.int64)
        g = pd.DataFrame({"_c": c, "_p": p,
                          "_t": np.ones(len(c), dtype=np.int64)})
        return (g.groupby("_c", sort=False).sum().reset_index()
                .astype({"_p": "int64", "_t": "int64"}))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("_c", kind="mergesort")
        p = df["_p"].to_numpy(np.int64)
        t = df["_t"].to_numpy(np.int64)
        before = np.concatenate(([0], t.cumsum()[:-1]))
        r2 = int((p * (2 * before + t + 1)).sum())  # 2·R⁺, integral
        n_pos = int(p.sum())
        n_neg = int(t.sum()) - n_pos
        if n_pos == 0 or n_neg == 0:
            auc = 0
        else:
            num = float(r2 - n_pos * (n_pos + 1))
            den = 2.0 * float(n_pos) * float(n_neg)
            auc = int(np.floor(1e6 * (num / den) + 0.5))
        return pd.DataFrame({"n_pos": pd.array([n_pos], dtype="int64"),
                             "n_neg": pd.array([n_neg], dtype="int64"),
                             "auc_micro": pd.array([auc], dtype="int64")})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("_c").aggregate(Sum("_p", alias_name="_p"),
                                    Sum("_t", alias_name="_t")))
    return agg.repartition(1).map_batches(fold, batch_format="pandas",
                                          batch_size=None)


def welch_t(ds, side_col: str, value_col: str):
    """Welch's two-sample t statistic (and its Welch–Satterthwaite
    degrees of freedom) between the two values of ``side_col`` (0/1),
    in integer micro-units.

    Values are half-up-rounded to integer DOLLARS first: t is
    scale-invariant, so the unit choice only bounds the exact int64
    moments (Σx² < 2^63 holds to ~10^9 rows of 10^6-dollar values,
    where cents would overflow at millions of rows); the SQL twin
    rounds identically, and the statistic differs from the unrounded
    t by O(0.5/σ) — noise at any real spread.

    Scale shape: per-batch (side, n, Σx, Σx²) partials → one tiny
    keyed Sum (two groups) → single-row fold whose float expression
    tree — explicit parentheses, no unordered float summation —
    matches the SQL twin token for token.  Output: one row
    (n1, n2, t_micro, df_micro)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = np.floor(np.asarray(df[value_col], dtype=np.float64)
                     + 0.5).astype(np.int64)
        s = df[side_col].to_numpy(dtype=np.int64)
        g = pd.DataFrame({"_s": s, "_n": np.ones(len(v), np.int64),
                          "_x": v, "_q": v * v})
        return (g.groupby("_s", sort=False).sum().reset_index()
                .astype({"_n": "int64", "_x": "int64", "_q": "int64"}))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("_s", kind="mergesort")
        row = {s: (int(n), int(x), int(q)) for s, n, x, q in
               zip(df["_s"], df["_n"], df["_x"], df["_q"])}
        n1, x1, q1 = row.get(0, (0, 0, 0))
        n2, x2, q2 = row.get(1, (0, 0, 0))
        if n1 < 2 or n2 < 2:
            t_micro = df_micro = 0
        else:
            # the SQL twin's exact tree: s*(s*1.0/n) keeps s² out of
            # int64; every paren below appears verbatim in the SQL
            v1 = (float(q1) - float(x1) * (float(x1) / float(n1))) \
                / float(n1 - 1)
            v2 = (float(q2) - float(x2) * (float(x2) / float(n2))) \
                / float(n2 - 1)
            se1 = v1 / float(n1)
            se2 = v2 / float(n2)
            t = (float(x1) / float(n1) - float(x2) / float(n2)) \
                / np.sqrt(se1 + se2)
            dof = ((se1 + se2) * (se1 + se2)) \
                / (se1 * se1 / float(n1 - 1) + se2 * se2 / float(n2 - 1))
            t_micro = int(np.floor(1e6 * t + 0.5))
            df_micro = int(np.floor(1e6 * dof + 0.5))
        return pd.DataFrame({
            "n1": pd.array([n1], dtype="int64"),
            "n2": pd.array([n2], dtype="int64"),
            "t_micro": pd.array([t_micro], dtype="int64"),
            "df_micro": pd.array([df_micro], dtype="int64")})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("_s").aggregate(Sum("_n", alias_name="_n"),
                                    Sum("_x", alias_name="_x"),
                                    Sum("_q", alias_name="_q")))
    return agg.repartition(1).map_batches(fold, batch_format="pandas",
                                          batch_size=None)


def last_touch_attribution(ds, user_col: str = "user_id",
                           ts_col: str = "ts", type_col: str = "event_type",
                           value_col: str = "value",
                           conv_type: str = "purchase",
                           id_col: str = "event_id",
                           n_buckets: int = 64):
    """Last-touch revenue attribution: every ``conv_type`` event's
    value (exact cents) is credited to the LATEST strictly-earlier
    non-conversion event's type for the same user — order
    (``ts_col``, ``id_col``) so timestamp ties are deterministic;
    conversions with no prior touch credit ``'(none)'``.

    Scale shape: ONE user-bucketed shuffle (a user's history lives
    wholly in its bucket); the in-bucket sweep is a vectorized
    ffill-by-cummax over the sorted rows (no per-row loop, no
    per-user group objects); per-bucket (touch, cents, n) partials
    then fold through one tiny keyed Sum over the type vocabulary.
    Output: (touch_type, attr_cents, n_conv) sorted by touch_type.
    """
    import pandas as pd

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
        types = g[type_col].to_numpy(dtype=object)
        users = g[user_col].to_numpy()
        cents = _cents(g[value_col].to_numpy())
        n = len(g)
        idx = np.arange(n)
        nonp = types != conv_type
        last_np = np.maximum.accumulate(np.where(nonp, idx, -1))
        last_before = np.concatenate(([-1], last_np[:-1]))
        # rows before the user's first row don't count
        new_user = np.concatenate(([True], users[1:] != users[:-1]))
        user_start = idx[new_user][np.cumsum(new_user) - 1]
        conv = ~nonp
        ok = conv & (last_before >= user_start)
        touch = np.where(ok, types[np.maximum(last_before, 0)], "(none)")
        out = pd.DataFrame({
            "touch_type": touch[conv],
            "attr_cents": cents[conv],
            "n_conv": np.ones(int(conv.sum()), np.int64)})
        return out.groupby("touch_type", sort=False).sum().reset_index()

    part = keyed_fold(ds, user_col, sweep, n_buckets=n_buckets,
                      schema=_carry(("touch_type", type_col),
                                    ("attr_cents", pa.int64()),
                                    ("n_conv", pa.int64())),
                      batch_format="pandas")
    return _sum_partials(part, ["touch_type"], n_buckets).sort("touch_type")


def gains_table(ds, pos_col: str, value_col: str, id_col: str,
                n_tiles: int = 10):
    """Decile gains table (lift curve): rows ranked by score
    descending (ties broken by ``id_col`` — a total order, so tiling
    is layout-independent), cut into ``n_tiles`` equal-count tiles
    (``((rn−1)·k)//N``, the SQL ntile-by-row_number identity); per
    tile the positive rate and the CUMULATIVE share of all positives
    captured — the model-evaluation twin of ``roc_auc``.  All
    divisions half-up integer micro-units.

    Scale shape: one range-partitioned sort (``with_global_row_number``
    — driver touches O(blocks) counts), one keyed Sum over k tiles,
    one single-row-group fold for the cumulative pass.  Output:
    (tile, n, n_pos, pos_rate_micro, cum_capture_micro)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df[value_col].to_numpy())
        return pd.DataFrame({
            id_col: df[id_col].astype("int64"),
            "_negc": -c, "_pos": df[pos_col].astype("int64")})

    tagged = ds.map_batches(tag, batch_format="pandas")
    rn = with_global_row_number(tagged, ["_negc", id_col])
    n_total = rn.count()

    def tile_of(df: pd.DataFrame) -> pd.DataFrame:
        r = df["rn"].to_numpy(np.int64)
        return pd.DataFrame({
            "tile": (r - 1) * np.int64(n_tiles) // np.int64(n_total),
            "_n": np.ones(len(r), np.int64),
            "_pos": df["_pos"].to_numpy(np.int64)})

    tiles = (rn.map_batches(tile_of, batch_format="pandas")
             .groupby("tile").aggregate(Sum("_n", alias_name="n"),
                                        Sum("_pos", alias_name="n_pos")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("tile", kind="mergesort")
        n = df["n"].to_numpy(np.int64)
        p = df["n_pos"].to_numpy(np.int64)
        tp = int(p.sum())
        cum = np.cumsum(p)
        rate = (2_000_000 * p + n) // (2 * n)
        cap = ((2_000_000 * cum + tp) // (2 * tp) if tp > 0
               else np.zeros(len(n), np.int64))
        return pd.DataFrame({
            "tile": df["tile"].to_numpy(np.int64),
            "n": n, "n_pos": p,
            "pos_rate_micro": rate.astype("int64"),
            "cum_capture_micro": np.asarray(cap, np.int64)})

    return tiles.repartition(1).map_batches(fold, batch_format="pandas",
                                            batch_size=None)


def logistic_gd(ds, feat_cols, label_col: str, iters: int = 3,
                lr: float = 0.1):
    """Distributed logistic regression by ``iters`` full-batch
    gradient-descent rounds — deterministic by construction: each
    row's per-dimension gradient contribution ``(σ(w·x) − y)·x_j``
    is micro-quantized (``floor(g·1e6 + 0.5)``) BEFORE summation, so
    the reduce is an exact int64 keyed Sum (no order-dependent float
    accumulation) and the weight update
    ``w_j ← w_j − lr·(G_j/1e6)/n`` is a fixed float expression tree
    the SQL twin (one unrolled CTE level per iteration) replicates
    token for token.  Intercept is dimension 0 (x_0 ≡ 1).

    Scale shape: weights (d+1 floats) broadcast per iteration in the
    task closure; every batch is one vectorized sigmoid + quantize +
    local per-dim int sum; ONE keyed Sum over d+1 rows per round; the
    driver touches only that (d+1)-int state.  Not a convergence
    claim — a fixed-round training-loop contract, like
    ``kmeans_lloyd``.  Output: (dim, w_micro, grad_micro) — final
    weights (micro-pinned) and the last round's exact gradient sums.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    feat_cols = list(feat_cols)
    d = len(feat_cols) + 1
    w = np.zeros(d, np.float64)
    n_total = ds.count()
    if n_total == 0:
        raise ValueError("logistic_gd needs a non-empty dataset")

    def grad_partials(df: pd.DataFrame, w_now) -> pd.DataFrame:
        x = np.column_stack(
            [np.ones(len(df), np.float64)]
            + [np.asarray(df[c], np.float64) for c in feat_cols])
        y = np.asarray(df[label_col], np.float64)
        # explicit left-to-right sum — the SQL twin's left-assoc
        # (w0 + w1*x1) + w2*x2 tree; a BLAS dot could re-associate
        z = np.full(len(df), w_now[0], np.float64)
        for j in range(1, d):
            z = z + w_now[j] * x[:, j]
        p = 1.0 / (1.0 + np.exp(-z))
        g = (p - y)[:, None] * x
        gm = np.floor(g * 1e6 + 0.5).astype(np.int64)
        return pd.DataFrame({"dim": np.arange(d, dtype=np.int64),
                             "g": gm.sum(axis=0)})

    last = None
    for _ in range(iters):
        w_now = tuple(float(v) for v in w)
        agg = (ds.map_batches(grad_partials, batch_format="pandas",
                              fn_kwargs=dict(w_now=w_now))
               .groupby("dim").aggregate(Sum("g", alias_name="g")))
        rows = agg.to_pandas().sort_values("dim")  # d+1 ints
        g = rows["g"].to_numpy(np.int64)
        last = g
        w = w - lr * ((g.astype(np.float64) / 1e6) / float(n_total))

    return pd.DataFrame({
        "dim": pd.array(np.arange(d, dtype=np.int64), dtype="int64"),
        "w_micro": pd.array(np.floor(w * 1e6 + 0.5).astype(np.int64),
                            dtype="int64"),
        "grad_micro": pd.array(last, dtype="int64")})


def peak_concurrency(ds, dur_us: int, key_col: str = "user_id",
                     ts_col: str = "ts", id_col: str = "event_id",
                     n_buckets: int = 64):
    """Peak concurrent intervals per key: treating each event as the
    interval ``[ts, ts + dur_us)``, the maximum number simultaneously
    open for that key — the +1/−1 boundary-sweep twin of
    ``interval_coverage`` (capacity planning, max parallel sessions).
    Boundary convention: an interval ending exactly when another
    starts does NOT overlap it (ends sort before starts at the same
    instant — the half-open-interval rule; the SQL twin encodes it by
    counting starts ≤ t minus ends ≤ t with end = start + dur).

    Scale shape: one bucketed key shuffle of slim (key, ts) int rows;
    the in-bucket sweep is vectorized (concat +1/−1 deltas, lexsort by
    (key, time, delta) — −1 first on ties — cumsum, per-key max).
    Output: (key, peak) int64."""
    import pandas as pd

    if dur_us <= 0:
        raise ValueError(f"dur_us must be > 0, got {dur_us}")

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        ts = df[ts_col].astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            key_col: df[key_col].astype("int64"), "_start": ts})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        k = np.concatenate([g[key_col].to_numpy(np.int64)] * 2)
        t = np.concatenate([g["_start"].to_numpy(np.int64),
                            g["_start"].to_numpy(np.int64) + dur_us])
        d = np.concatenate([np.ones(len(g), np.int64),
                            -np.ones(len(g), np.int64)])
        order = np.lexsort((d, t, k))  # -1 before +1 on time ties
        k, d = k[order], d[order]
        run = np.cumsum(d)
        out = pd.DataFrame({key_col: k, "_c": run})
        peak = (out.groupby(key_col, sort=False)["_c"].max()
                .rename("peak").reset_index())
        return peak.astype({key_col: "int64", "peak": "int64"})

    return keyed_fold(
        ds.map_batches(slim, batch_format="pandas"), key_col, sweep,
        n_buckets=n_buckets,
        schema=pa.schema([(key_col, pa.int64()), ("peak", pa.int64())]),
        batch_format="pandas")


def als_rank1(ds, user_col: str = "user_id", item_col: str = "event_type",
              n_buckets: int = 32):
    """One exact rank-1 ALS alternation over the implicit (user, item,
    count) rating matrix — the recommender-training loop member of the
    fixed-round family (``kmeans_lloyd``, ``logistic_gd``).  Item
    factors init at 1.0, so the user half-step is the exact RATIONAL
    ``u_i = Σ_j r_ij / |J_i|`` (int64 pair, no floats); the item
    half-step ``v_j = Σ_i r_ij·u_i / Σ_i u_i²`` micro-quantizes each
    term through the SQL twin's expression tree BEFORE the sum, so the
    reduce is an exact int64 keyed Sum and the final division is the
    half-up integer rule.  Everything in the output is int64.

    Scale shape: one (user, item) keyed Count builds the ratings; one
    user-keyed Sum builds the rationals; one ``bucketed_hash_join``
    attaches them back to the ratings; one item-keyed Sum folds the
    quantized terms — four keyed ops, rating-scale rows, O(items)
    driver result.  Output: (item, n_raters, num_micro, den_micro,
    v_micro) sorted by item."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    from .joins import bucketed_hash_join

    ratings = (ds.map_batches(
        lambda df: pd.DataFrame({"_u": df[user_col].astype("int64"),
                                 "_i": df[item_col].astype(str)}),
        batch_format="pandas")
        .groupby(["_u", "_i"]).aggregate(Count(alias_name="r"))
        .map_batches(lambda b: b.select(["_u", "_i", "r"]),
                     batch_format="pyarrow").materialize())
    users = (ratings.groupby("_u")
             .aggregate(Sum("r", alias_name="a"),
                        Count(alias_name="b"))
             .map_batches(lambda b: b.select(["_u", "a", "b"]),
                          batch_format="pyarrow"))
    joined = bucketed_hash_join(ratings, users, key="_u",
                                n_buckets=n_buckets)

    def quantize(b: pa.Table) -> pa.Table:
        r = b.column("r").to_numpy(zero_copy_only=False).astype(np.float64)
        a = b.column("a").to_numpy(zero_copy_only=False).astype(np.float64)
        bb = b.column("b").to_numpy(zero_copy_only=False).astype(np.float64)
        u = a / bb
        num = np.floor((r * u) * 1e6 + 0.5).astype(np.int64)
        den = np.floor((u * u) * 1e6 + 0.5).astype(np.int64)
        return pa.table({
            "item": b["_i"],
            "num": pa.array(num, pa.int64()),
            "den": pa.array(den, pa.int64()),
            "one": pa.array(np.ones(len(num), np.int64), pa.int64())})

    agg = (joined.map_batches(quantize, batch_format="pyarrow")
           .groupby("item")
           .aggregate(Sum("num", alias_name="num_micro"),
                      Sum("den", alias_name="den_micro"),
                      Sum("one", alias_name="n_raters")))
    out = agg.to_pandas()
    num = out["num_micro"].to_numpy(np.int64)
    den = out["den_micro"].to_numpy(np.int64)
    out["v_micro"] = np.where(den > 0,
                              (2_000_000 * num + den)
                              // (2 * np.maximum(den, 1)), 0)
    cols = ["item", "n_raters", "num_micro", "den_micro", "v_micro"]
    out = out[cols].sort_values("item").reset_index(drop=True)
    return out.astype({c: "int64" for c in cols[1:]})


def incremental_agg(base_ds, delta_ds, key_col: str, value_col: str):
    """Incremental aggregate maintenance: given a BASE aggregate table
    (key, n, sum_cents) and a DELTA of raw rows, produce the updated
    aggregate WITHOUT re-reading the base raw data — the streaming/
    micro-batch maintenance identity (count and sum are commutative
    monoids, so base ⊎ agg(delta) folds in one keyed Sum).

    Scale shape: the delta pre-aggregates per batch; ONE keyed Sum
    over (base rows ∪ delta partials) — work proportional to the
    delta + touched keys, never the full history.  Output: (key, n,
    sum_cents), exact cents."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def delta_partial(df: pd.DataFrame) -> pa.Table:
        g = pd.DataFrame({key_col: df[key_col],
                          "n": np.ones(len(df), np.int64),
                          "sum_cents": _cents(df[value_col].to_numpy())})
        out = (g.groupby(key_col, sort=False).sum().reset_index()
               .astype({"n": "int64", "sum_cents": "int64"}))
        # Arrow out: the union with the (Arrow-block) base requires
        # both branches to carry the same block type
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = delta_ds.map_batches(delta_partial, batch_format="pandas")
    merged = (base_ds.union(parts).groupby(key_col)
              .aggregate(Sum("n", alias_name="n"),
                         Sum("sum_cents", alias_name="sum_cents")))
    return merged.map_batches(
        lambda b: pa.table({
            key_col: b[key_col],
            "n": pc.cast(b["n"], pa.int64()),
            "sum_cents": pc.cast(b["sum_cents"], pa.int64())}),
        batch_format="pyarrow")


def zorder_index(ds, x_col: str, y_col: str, bits: int = 16):
    """Morton / Z-order curve index over two non-negative integer
    columns: interleave the low ``bits`` bits of x (even positions)
    and y (odd positions) — the storage-layout clustering key that
    keeps 2-D-close rows file-close (Databricks-style data layout,
    public).  Values ≥ 2^bits raise (silent truncation would interleave
    garbage).  Pure per-batch bit arithmetic — zero shuffle; sorting
    by the emitted key is the caller's (range-partitioned) step.
    Output: input columns + ``zval`` int64."""
    if not 1 <= bits <= 31:
        raise ValueError(f"bits must be in [1, 31], got {bits}")

    def z(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(x) and (x.min() < 0 or y.min() < 0
                       or x.max() >= (1 << bits)
                       or y.max() >= (1 << bits)):
            raise ValueError(
                f"zorder_index: values outside [0, 2^{bits})")
        zv = np.zeros(len(x), np.int64)
        for i in range(bits):
            zv |= ((x >> i) & 1) << (2 * i)
            zv |= ((y >> i) & 1) << (2 * i + 1)
        return batch.append_column("zval", pa.array(zv, pa.int64()))

    return ds.map_batches(z, batch_format="pyarrow")


def pruning_stats(ds, sort_cols, x_col: str, y_col: str,
                  x_lo: int, x_hi: int, y_lo: int, y_hi: int,
                  rows_per_block: int = 256):
    """Zone-map pruning simulator: lay the rows out in ``sort_cols``
    order, cut into fixed-size blocks (``(rn−1) // rows_per_block``),
    record each block's (min, max) for x and y, and count how many
    blocks a reader could SKIP for the box predicate
    ``x ∈ [x_lo, x_hi] ∧ y ∈ [y_lo, y_hi]`` (skip ⇔ the block's range
    misses either interval) — the data-skipping payoff metric that
    quantifies what a ``zorder_index`` layout buys over a naive sort.

    Scale shape: one range-partitioned sort (``with_global_row_number``)
    + one keyed Min/Max over blocks + a single-row fold.  Output: one
    row (n_blocks, n_pruned, n_rows_pruned) int64."""
    import pandas as pd
    from ray.data.aggregate import Count, Max, Min

    if rows_per_block < 1:
        raise ValueError(
            f"rows_per_block must be >= 1, got {rows_per_block}")

    rn = with_global_row_number(ds, sort_cols)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "_blk": (df["rn"].to_numpy(np.int64) - 1) // rows_per_block,
            "_x": df[x_col].to_numpy(np.int64),
            "_y": df[y_col].to_numpy(np.int64)})

    zones = (rn.map_batches(tag, batch_format="pandas")
             .groupby("_blk")
             .aggregate(Min("_x", alias_name="x_min"),
                        Max("_x", alias_name="x_max"),
                        Min("_y", alias_name="y_min"),
                        Max("_y", alias_name="y_max"),
                        Count(alias_name="n")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        pruned = ((df["x_max"] < x_lo) | (df["x_min"] > x_hi)
                  | (df["y_max"] < y_lo) | (df["y_min"] > y_hi))
        return pd.DataFrame({
            "n_blocks": pd.array([len(df)], dtype="int64"),
            "n_pruned": pd.array([int(pruned.sum())], dtype="int64"),
            "n_rows_pruned": pd.array([int(df.loc[pruned, "n"].sum())],
                                      dtype="int64")})

    return zones.repartition(1).map_batches(fold, batch_format="pandas",
                                            batch_size=None)


def late_ship_orders(orders_ds, lineitem_ds, late_days: int = 30,
                     n_buckets: int = 64):
    """EXISTS-with-inequality semi-join (the TPC-H Q4 shape): count
    orders per priority having at least one lineitem shipped more than
    ``late_days`` after the order date — the predicate compares columns
    from BOTH tables, so no static pre-filter can reduce it to a plain
    semi-join.

    Scale shape: lineitem collapses per batch to per-orderkey MAX
    shipdate partials (a true combiner — at most one row per orderkey
    leaves each block), orders slim to (key, priority, date); ONE
    union-then-merge bucketed shuffle on ``hash(orderkey) % n_buckets``
    evaluates the inequality vectorized in-bucket and emits per-bucket
    per-priority partial counts, so the final native groupby folds a
    bounded priorities × buckets keyspace.  Output:
    (o_orderpriority, n_late int64), one row per priority with ≥1 hit.
    """
    late_us = np.int64(late_days) * np.int64(86_400_000_000)

    def o_slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "_k": batch.column("o_orderkey"),
            "_pr": batch.column("o_orderpriority"),
            "_od": batch.column("o_orderdate").cast(pa.timestamp("us"))
                   .cast(pa.int64()),
            "_ms": pa.nulls(batch.num_rows, pa.int64())})

    def l_slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "_k": batch.column("l_orderkey").to_numpy(zero_copy_only=False),
            "_ms": batch.column("l_shipdate").cast(pa.timestamp("us"))
                        .cast(pa.int64())
                        .to_numpy(zero_copy_only=False)})
        g = df.groupby("_k", sort=False)["_ms"].max().reset_index()
        return pa.table({
            "_k": pa.array(g["_k"].to_numpy(np.int64)),
            "_pr": pa.nulls(len(g), pa.string()),
            "_od": pa.nulls(len(g), pa.int64()),
            "_ms": pa.array(g["_ms"].to_numpy(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        orders = g[g["_od"].notna()][["_k", "_pr", "_od"]]
        ships = (g[g["_ms"].notna()].groupby("_k", sort=False)["_ms"]
                 .max().reset_index())
        m = orders.merge(ships, on="_k")
        late = m[m["_ms"].to_numpy(np.int64)
                 > m["_od"].to_numpy(np.int64) + late_us]
        return (late.groupby("_pr", sort=True).size().rename("n_late")
                .rename_axis("o_orderpriority").reset_index())

    union = (orders_ds.map_batches(o_slim, batch_format="pyarrow")
             .union(lineitem_ds.map_batches(l_slim, batch_format="pyarrow")))
    partials = keyed_fold(union, "_k", fold, n_buckets=n_buckets,
                          schema=_carry(("o_orderpriority", "_pr"),
                                        ("n_late", pa.int64())),
                          batch_format="pandas")
    return _sum_partials(partials, ["o_orderpriority"], n_buckets)


def mann_whitney_u(ds, group_col: str, value_col: str,
                   group_a: str, group_b: str, n_buckets: int = 64):
    """Exact two-sample Mann-Whitney U (rank-sum) statistic between two
    groups, with tie-correct average ranks — the nonparametric
    A/B-difference test a drift gate runs when distributions are
    non-normal.

    Scale shape: rows collapse per batch to per-(cents, group) counts,
    ONE bucketed shuffle makes the counts exact, then a range sort over
    the O(distinct values) count rows; the tie-averaged rank sums come
    from per-sorted-block cumulative offsets (O(blocks) driver ints —
    the zipWithIndex trick), never a global materialization.  All rank
    arithmetic is doubled (2×) so tie-averages stay integer: per
    distinct value v with c pool rows strictly below and t rows at v,
    each row's doubled average rank is (2c + t + 1) exactly.
    Output one row: (n_a, n_b, u2_a, u2_b) int64, where u2 = 2·U and
    u2_a + u2_b == 2·n_a·n_b.
    """
    import ray

    def slim(batch: pa.Table) -> pa.Table:
        gv = batch.column(group_col).to_numpy(zero_copy_only=False)
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"_g": gv, "_v": cents})
        df = df[df["_g"].isin([group_a, group_b])]
        piv = (df.groupby(["_v", "_g"], sort=False).size().unstack(
            fill_value=0).reindex(columns=[group_a, group_b], fill_value=0))
        return pa.table({
            "_v": pa.array(piv.index.to_numpy(np.int64)),
            "_na": pa.array(piv[group_a].to_numpy(np.int64)),
            "_nb": pa.array(piv[group_b].to_numpy(np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("_v", sort=False)[["_na", "_nb"]].sum().reset_index()
        return out.astype({"_v": "int64", "_na": "int64", "_nb": "int64"})

    counts = keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), "_v", fold,
        n_buckets=n_buckets,
        schema=pa.schema([(c, pa.int64()) for c in ("_v", "_na", "_nb")]),
        batch_format="pandas")
    sds = counts.sort("_v").materialize()
    refs = sds.to_arrow_refs()

    @ray.remote
    def block_counts(t: pa.Table):
        if t.num_rows == 0:
            return 0, 0
        na = t.column("_na").to_numpy(zero_copy_only=False)
        nb = t.column("_nb").to_numpy(zero_copy_only=False)
        return int(na.sum()), int(nb.sum())

    per_block = ray.get([block_counts.remote(r) for r in refs])
    offs, acc = [], 0
    for na, nb in per_block:
        offs.append(acc)
        acc += na + nb

    @ray.remote
    def block_contrib(t: pa.Table, c_off: int):
        if t.num_rows == 0:
            return 0, 0
        na = t.column("_na").to_numpy(zero_copy_only=False).astype(object)
        nb = t.column("_nb").to_numpy(zero_copy_only=False).astype(object)
        tt = na + nb
        below = c_off + np.concatenate(([0], np.cumsum(tt)[:-1]))
        w = 2 * below + tt + 1  # doubled tie-averaged rank, exact ints
        return int((na * w).sum()), int((nb * w).sum())

    contribs = ray.get([block_contrib.remote(r, o)
                        for r, o in zip(refs, offs)])
    n_a = sum(na for na, _ in per_block)
    n_b = sum(nb for _, nb in per_block)
    r2_a = sum(ca for ca, _ in contribs)
    r2_b = sum(cb for _, cb in contribs)
    return pd.DataFrame({
        "n_a": pd.array([n_a], dtype="int64"),
        "n_b": pd.array([n_b], dtype="int64"),
        "u2_a": pd.array([r2_a - n_a * (n_a + 1)], dtype="int64"),
        "u2_b": pd.array([r2_b - n_b * (n_b + 1)], dtype="int64")})


def dow_seasonality(ds, ts_col: str = "o_orderdate",
                    value_col: str = "o_totalprice"):
    """Day-of-week seasonality index: each ISO weekday's average daily
    revenue relative to the overall average daily revenue, in exact
    integer micro-units (the demand-shape panel behind crawl/recrawl
    scheduling by weekday).

    Scale shape: per-batch partials to (epoch-day, cents) cells, one
    native keyed Sum over the calendar-bounded day keyspace, then an
    O(7) driver finish with arbitrary-precision Python ints (the
    rev × days × 10⁶ product overflows int64 at corpus scale).
    Output: (dow 1-7 Mon-Sun, n_days, revenue_cents, index_micro).
    """
    from ray.data.aggregate import Sum

    def slim(batch: pa.Table) -> pa.Table:
        day = (batch.column(ts_col).cast(pa.timestamp("us"))
               .cast(pa.int64())
               .to_numpy(zero_copy_only=False) // 86_400_000_000)
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        g = (pd.DataFrame({"_day": day, "_c": cents})
             .groupby("_day", sort=False)["_c"].sum().reset_index())
        return pa.table({"_day": pa.array(g["_day"].to_numpy(np.int64)),
                         "_c": pa.array(g["_c"].to_numpy(np.int64))})

    daily = (ds.map_batches(slim, batch_format="pyarrow")
             .groupby("_day").aggregate(Sum("_c", alias_name="_rev")))

    def to_dow(batch: pa.Table) -> pa.Table:
        day = batch.column("_day").to_numpy(zero_copy_only=False)
        dow = (day + 3) % 7 + 1  # epoch day 0 = Thursday = ISO 4
        return pa.table({"dow": pa.array(dow.astype(np.int64)),
                         "_rev": batch.column("_rev"),
                         "_one": pa.array(np.ones(len(day), np.int64))})

    from ray.data.aggregate import Count
    wk = (daily.map_batches(to_dow, batch_format="pyarrow")
          .groupby("dow").aggregate(Sum("_one", alias_name="n_days"),
                                    Sum("_rev", alias_name="revenue_cents"))
          .to_pandas())
    td = int(wk["n_days"].sum())
    tr = int(wk["revenue_cents"].sum())
    wk = wk.sort_values("dow").reset_index(drop=True)
    wk["index_micro"] = [
        (int(r) * td * 1_000_000) // (int(n) * tr)
        for n, r in zip(wk["n_days"], wk["revenue_cents"])]
    wk["index_micro"] = wk["index_micro"].astype("int64")
    return wk.astype({"dow": "int64", "n_days": "int64",
                      "revenue_cents": "int64"})


def daily_theilsen(ds, ts_col: str = "o_orderdate",
                   value_col: str = "o_totalprice"):
    """Theil–Sen robust trend slope of daily revenue: the median of all
    pairwise (Δrevenue/Δday) slopes — outlier-immune where OLS is not.

    Scale shape: the corpus collapses to the calendar-bounded
    (epoch-day, cents) aggregate via per-batch partials + one native
    keyed Sum; the O(days²) pairwise-slope median then runs on the
    driver over ≤ a-few-thousand day rows (bounded by the calendar, not
    the data — the monthly_revenue_delta precedent).  Slopes divide in
    float64 exactly as the SQL twin casts.  Output one row:
    (ts_slope double, n_pairs int64).
    """
    from ray.data.aggregate import Sum

    def slim(batch: pa.Table) -> pa.Table:
        day = (batch.column(ts_col).cast(pa.timestamp("us"))
               .cast(pa.int64())
               .to_numpy(zero_copy_only=False) // 86_400_000_000)
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        g = (pd.DataFrame({"_day": day, "_c": cents})
             .groupby("_day", sort=False)["_c"].sum().reset_index())
        return pa.table({"_day": pa.array(g["_day"].to_numpy(np.int64)),
                         "_c": pa.array(g["_c"].to_numpy(np.int64))})

    daily = (ds.map_batches(slim, batch_format="pyarrow")
             .groupby("_day").aggregate(Sum("_c", alias_name="_rev"))
             .to_pandas().sort_values("_day"))
    d = daily["_day"].to_numpy(np.int64)
    r = daily["_rev"].to_numpy(np.int64)
    i, j = np.triu_indices(len(d), k=1)
    slopes = (r[j] - r[i]).astype(np.float64) / (d[j] - d[i])
    return pd.DataFrame({
        "ts_slope": pd.array([float(np.median(slopes))], dtype="float64"),
        "n_pairs": pd.array([len(slopes)], dtype="int64")})


def dense_topk_per_group(ds, group_col: str, value_col: str, id_col: str,
                         k: int = 3, n_buckets: int = 64):
    """Top-k per group by DISTINCT value with ALL ties kept
    (DENSE_RANK ≤ k) — unlike the row-numbered top-k, every item at a
    qualifying price survives, the catalog-curation semantics.

    Scale shape: a per-batch combiner keeps only rows inside the
    batch-local top-k distinct values per group (sound: a row in the
    global top-k-distinct is in its batch's top-k-distinct), then one
    bucketed shuffle on ``hash(group) % n_buckets`` re-ranks exactly.
    Output: (group, id, value_cents, value_rank), rank 1 = highest.
    """

    def keep_topk(df: pd.DataFrame) -> pd.DataFrame:
        rk = (df.groupby(group_col, sort=False)["_c"]
              .rank(method="dense", ascending=False))
        out = df[rk <= k].copy()
        out["value_rank"] = rk[rk <= k].astype("int64")
        return out

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            group_col: batch.column(group_col).to_numpy(zero_copy_only=False),
            id_col: batch.column(id_col).to_numpy(zero_copy_only=False),
            "_c": _cents(batch.column(value_col)
                         .to_numpy(zero_copy_only=False))})
        out = keep_topk(df).drop(columns=["value_rank"])
        return pa.Table.from_pandas(out, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = keep_topk(g)
        out = out.rename(columns={"_c": "value_cents"})
        out["value_cents"] = out["value_cents"].astype("int64")
        return out.sort_values([group_col, "value_rank", id_col])

    return keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), group_col, fold,
        n_buckets=n_buckets,
        schema=_carry(group_col, id_col, ("value_cents", pa.int64()),
                      ("value_rank", pa.int64())),
        batch_format="pandas")


def increasing_runs(ds, key_col: str, ts_col: str, id_col: str,
                    value_col: str, n_buckets: int = 64):
    """Longest strictly-increasing run of a key's successive values
    under the (ts, id) total order — e.g. each customer's longest
    streak of ever-larger orders (an engagement-momentum signal).

    Scale shape: one keyed shuffle on ``hash(key) % n_buckets``; the
    in-bucket fold is the vectorized change-point scan (boundary mask →
    run lengths via diff of run starts), the same shape as
    ``event_type_runs``.  Values compare in exact int64 cents.
    Output: (key, max_run int64), one row per key.
    """

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            ts_col: batch.column(ts_col).cast(pa.timestamp("us"))
                    .cast(pa.int64())
                    .to_numpy(zero_copy_only=False),
            id_col: batch.column(id_col).to_numpy(zero_copy_only=False),
            "_c": _cents(batch.column(value_col)
                         .to_numpy(zero_copy_only=False))})
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        vals = g["_c"].to_numpy(np.int64)
        n = len(g)
        brk = np.ones(n, dtype=bool)
        brk[1:] = (keys[1:] != keys[:-1]) | (vals[1:] <= vals[:-1])
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, n)).astype(np.int64)
        isl = pd.DataFrame({key_col: keys[starts], "_len": lens})
        out = (isl.groupby(key_col, sort=True)["_len"].max()
               .rename("max_run").reset_index())
        out["max_run"] = out["max_run"].astype("int64")
        return out

    return keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), key_col, fold,
        n_buckets=n_buckets,
        schema=_carry(key_col, ("max_run", pa.int64())),
        batch_format="pandas")


def sequence_gaps(ds, key_col: str, n_buckets: int = 64):
    """GLOBAL gaps-and-islands over a sparse integer key column: how
    many contiguous runs the distinct key set forms, and the widest
    hole — the completeness audit for an allegedly-sequential id space
    (dropped partitions show up as islands).

    Scale shape: per-batch ``np.unique`` partials → one bucketed
    shuffle for exact distincts → range-partitioned sort; each sorted
    block reports (first, last, rows, internal breaks, widest internal
    gap) and the driver stitches block BOUNDARIES with O(blocks) ints —
    islands spanning blocks are counted exactly without any global
    materialization.  Output one row:
    (n_keys, n_islands, max_gap) int64 — max_gap is the widest run of
    MISSING keys between two present ones (0 when dense).
    """
    import ray

    def slim(batch: pa.Table) -> pa.Table:
        v = np.unique(batch.column(key_col).to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"_v": pa.array(v)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "_v": np.unique(g["_v"].to_numpy(np.int64))})

    distinct = keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), "_v", fold,
        n_buckets=n_buckets,
        schema=pa.schema([("_v", pa.int64())]),
        batch_format="pandas")
    sds = distinct.sort("_v").materialize()
    refs = sds.to_arrow_refs()

    @ray.remote
    def block_stats(t: pa.Table):
        if t.num_rows == 0:
            return None
        v = t.column("_v").to_numpy(zero_copy_only=False)
        d = np.diff(v)
        return (int(v[0]), int(v[-1]), len(v),
                int((d > 1).sum()), int(d.max() - 1) if len(d) else 0)

    stats = [s for s in ray.get([block_stats.remote(r) for r in refs])
             if s is not None]
    n_keys = sum(s[2] for s in stats)
    breaks = sum(s[3] for s in stats)
    max_gap = max((s[4] for s in stats), default=0)
    for prev, nxt in zip(stats, stats[1:]):
        boundary = nxt[0] - prev[1]
        if boundary > 1:
            breaks += 1
            max_gap = max(max_gap, boundary - 1)
    return pd.DataFrame({
        "n_keys": pd.array([n_keys], dtype="int64"),
        "n_islands": pd.array([0 if n_keys == 0 else breaks + 1],
                              dtype="int64"),
        "max_gap": pd.array([max_gap], dtype="int64")})


def dow_residuals(ds, ts_col: str = "o_orderdate",
                  value_col: str = "o_totalprice", top_n: int = 10):
    """Seasonal-naive anomaly screen: the days whose revenue deviates
    most from their own weekday's mean — the residual left after the
    weekly cycle is removed, so a Sunday dip isn't flagged just for
    being a Sunday.

    Scale shape: the corpus collapses to the calendar-bounded daily
    aggregate (per-batch partials + one keyed Sum); weekday means and
    residuals are exact integer micro-cents on O(days) driver rows
    (``rev·10⁶ − (dow_total·10⁶) // n_days`` — Python ints, no int64
    cliff).  Output top_n rows:
    (dn, dow, revenue_cents, residual_micro), |residual| desc, dn asc.
    """
    from ray.data.aggregate import Sum

    def slim(batch: pa.Table) -> pa.Table:
        day = (batch.column(ts_col).cast(pa.timestamp("us"))
               .cast(pa.int64())
               .to_numpy(zero_copy_only=False) // 86_400_000_000)
        cents = _cents(batch.column(value_col).to_numpy(zero_copy_only=False))
        g = (pd.DataFrame({"_day": day, "_c": cents})
             .groupby("_day", sort=False)["_c"].sum().reset_index())
        return pa.table({"_day": pa.array(g["_day"].to_numpy(np.int64)),
                         "_c": pa.array(g["_c"].to_numpy(np.int64))})

    daily = (ds.map_batches(slim, batch_format="pyarrow")
             .groupby("_day").aggregate(Sum("_c", alias_name="_rev"))
             .to_pandas())
    daily["dow"] = (daily["_day"] + 3) % 7 + 1
    tot = daily.groupby("dow")["_rev"].agg(["sum", "size"])
    res = []
    for dn, rev, dow in zip(daily["_day"], daily["_rev"], daily["dow"]):
        mean_micro = (int(tot.loc[dow, "sum"]) * 1_000_000) \
            // int(tot.loc[dow, "size"])
        res.append(int(rev) * 1_000_000 - mean_micro)
    daily["residual_micro"] = res
    daily["_abs"] = daily["residual_micro"].abs()
    out = (daily.sort_values(["_abs", "_day"], ascending=[False, True])
           .head(top_n))
    return pd.DataFrame({
        "dn": out["_day"].to_numpy(np.int64),
        "dow": out["dow"].to_numpy(np.int64),
        "revenue_cents": out["_rev"].to_numpy(np.int64),
        "residual_micro": out["residual_micro"].to_numpy(np.int64)})


def abc_classification(ds, key_col: str, value_col: str,
                       a_pct: int = 80, b_pct: int = 95):
    """ABC inventory/revenue classification: rank keys by exact cents
    spend desc, class A while cumulative·100 ≤ total·a_pct, B to
    b_pct, else C — the segmentation behind tiered crawl budgets and
    stock policies.

    Scale shape: per-key partial sums → one keyed Sum →
    range-partitioned sort by (spend desc, key asc); each sorted block
    classifies its rows given only its starting cumulative offset
    (O(blocks) arbitrary-precision driver ints — the pareto_crossings
    trick), so the boundary comparison cum·100 ≤ total·pct never
    rounds.  Output: (key, revenue_cents, abc_class), one row per key.
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            "_c": _cents(batch.column(value_col)
                         .to_numpy(zero_copy_only=False))})
        g = df.groupby(key_col, sort=False)["_c"].sum().astype("int64")
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    totals = (ds.map_batches(slim, batch_format="pyarrow")
              .groupby(key_col).aggregate(Sum("_c", alias_name="_s")))
    sds = totals.sort(["_s", key_col],
                      descending=[True, False]).materialize()
    refs = sds.to_arrow_refs()

    @ray.remote
    def block_sum(t: pa.Table):
        if t.num_rows == 0 or "_s" not in t.column_names:
            return 0
        return int(t.column("_s").to_numpy(zero_copy_only=False)
                   .astype(object).sum())

    sums = ray.get([block_sum.remote(r) for r in refs])
    total = sum(sums)
    offsets, acc = [], 0
    for s in sums:
        offsets.append(acc)
        acc += s

    @ray.remote
    def classify(t: pa.Table, off: int) -> pa.Table:
        if t.num_rows == 0 or "_s" not in t.column_names:
            return pa.table({key_col: pa.array([], pa.int64()),
                             "revenue_cents": pa.array([], pa.int64()),
                             "abc_class": pa.array([], pa.string())})
        s = t.column("_s").to_numpy(zero_copy_only=False).astype(object)
        cum = off + np.cumsum(s)
        cls = ["A" if c * 100 <= total * a_pct
               else ("B" if c * 100 <= total * b_pct else "C")
               for c in cum]
        return pa.table({
            key_col: t.column(key_col),
            "revenue_cents": pa.array([int(x) for x in s], pa.int64()),
            "abc_class": pa.array(cls, pa.string())})

    blocks = ray.get([classify.remote(r, o) for r, o in zip(refs, offsets)])
    return rd.from_arrow(blocks)


def _trunc_div(a: np.ndarray | int, d: int):
    """Integer division TRUNCATING toward zero — DuckDB's ``//``
    semantics (Python's ``//`` floors, which differs on negatives, so
    every oracle-mirrored recursion that can go negative must divide
    through this helper)."""
    if isinstance(a, np.ndarray):
        return np.sign(a) * (np.abs(a) // d)
    return (1 if a >= 0 else -1) * (abs(a) // d)


def holt_trend(ds, ts_col: str = "o_orderdate",
               value_col: str = "o_totalprice", last_n: int = 10):
    """Holt double-exponential smoothing of daily revenue (level +
    trend), α = 1/4, β = 1/2, in exact integer MILLI-cents so the
    recursive-CTE oracle matches bit-for-bit:

        l_t = trunc((y_t·1000 + 3·(l + b)) / 4)
        b_t = trunc((l_t − l_prev + b_prev) / 2)

    (trunc-toward-zero division — DuckDB ``//``; only ``b_t`` can go
    negative).  Scale shape: the corpus collapses to the
    calendar-bounded (day, cents) aggregate via per-batch partials +
    one keyed Sum; the inherently-sequential O(days) recursion runs on
    the driver (daily_theilsen precedent).  Output: the LAST ``last_n``
    days, (day_id, level_mc, trend_mc, forecast_mc = l + b)."""
    daily = (_daily_cents(ds, ts_col, value_col)
             .to_pandas().sort_values("day_id").reset_index(drop=True))
    days = daily["day_id"].to_numpy(np.int64)
    y = daily["_s"].to_numpy(np.int64) * 1000
    lvl = np.zeros(len(y), np.int64)
    trd = np.zeros(len(y), np.int64)
    if len(y):
        lvl[0] = y[0]
    for t in range(1, len(y)):
        lvl[t] = _trunc_div(y[t] + 3 * (lvl[t - 1] + trd[t - 1]), 4)
        trd[t] = _trunc_div(lvl[t] - lvl[t - 1] + trd[t - 1], 2)
    out = pd.DataFrame({"day_id": days, "level_mc": lvl, "trend_mc": trd,
                        "forecast_mc": lvl + trd}).tail(last_n)
    return out.reset_index(drop=True).astype(
        {c: "int64" for c in out.columns})


def clamped_balance(ds, key_col: str = "user_id", ts_col: str = "ts",
                    id_col: str = "event_id", value_col: str = "value",
                    type_col: str = "event_type",
                    debit_types=("purchase", "error"), n_buckets: int = 64):
    """Per-key running balance that CANNOT go negative (wallet / stock
    semantics): credits add ``value``, ``debit_types`` subtract it, and
    b_t = max(0, b_{t−1} + d_t).  The nonlinear recursion has the exact
    closed form  b_t = cs_t − min(0, min_{s≤t} cs_s)  (cs = prefix sum),
    so the in-bucket fold is one pandas groupby-cumsum/cummin — no
    Python loop, and the SQL oracle states the same identity with
    window functions instead of recursion.

    Scale shape: one keyed shuffle on ``hash(key) % n_buckets``.
    Output per key: (key, final_cents, max_cents, n_clamps) where
    n_clamps counts events whose debit was cut short by the floor."""

    def slim(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column(value_col).to_numpy(
            zero_copy_only=False))
        types = batch.column(type_col).to_numpy(zero_copy_only=False)
        debit = np.isin(types, list(debit_types))
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            ts_col: batch.column(ts_col).cast(pa.timestamp("us"))
                    .cast(pa.int64()).to_numpy(zero_copy_only=False),
            id_col: batch.column(id_col).to_numpy(zero_copy_only=False),
            "_d": np.where(debit, -cents, cents)})
        return pa.Table.from_pandas(df, preserve_index=False)

    out_cols = {key_col: "int64", "final_cents": "int64",
                "max_cents": "int64", "n_clamps": "int64"}

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        grp = g.groupby(key_col, sort=True)
        cs = grp["_d"].cumsum().to_numpy(np.int64)
        runmin = np.minimum(pd.Series(cs).groupby(
            g[key_col].to_numpy()).cummin().to_numpy(np.int64), 0)
        bal = cs - runmin
        prev = np.empty_like(bal)
        prev[1:] = bal[:-1]
        prev[0] = 0
        keys = g[key_col].to_numpy()
        first = np.ones(len(g), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        prev[first] = 0
        clamp = (prev + g["_d"].to_numpy(np.int64)) < 0
        res = pd.DataFrame({key_col: keys, "_bal": bal, "_cl": clamp})
        agg = res.groupby(key_col, sort=True).agg(
            final_cents=("_bal", "last"), max_cents=("_bal", "max"),
            n_clamps=("_cl", "sum")).reset_index()
        return agg.astype(out_cols)

    return keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), key_col, fold,
        n_buckets=n_buckets,
        schema=pa.schema([(c, pa.int64()) for c in out_cols]),
        batch_format="pandas")


def dataset_fingerprint(ds, cols, fmt: str | None = None,
                        mod: int = 9223372036854775783):
    """Order-insensitive corpus checksum for resume / replication
    audits: per row h = int(md5("col1|col2|…")[:15hex], 16) (60-bit),
    fingerprint = (Σh mod <largest prime < 2⁶³>, XOR h, count).  Equal
    datasets match all three regardless of row order or layout; the
    SQL twin computes the identical triple (DuckDB md5 = hashlib md5,
    '0x'-cast = int(,16)).  Per-batch partials (one row each) are the
    only thing shuffled; md5-per-row IS the work, vectorization doesn't
    apply.  Output one row: (n_rows, sum_mod, xor_fp) int64."""
    import hashlib

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(c).to_pylist() for c in cols]
        s = 0
        x = 0
        for vals in zip(*arrays):
            h = int(hashlib.md5(
                "|".join(str(v) for v in vals).encode()).hexdigest()[:15],
                16)
            s += h
            x ^= h
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "s": pa.array([s % mod], pa.int64()),
                         "x": pa.array([x], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([{
        "n_rows": int(parts["n"].sum()),
        "sum_mod": int(parts["s"].astype(object).sum() % mod),
        "xor_fp": int(np.bitwise_xor.reduce(
            parts["x"].to_numpy(np.int64))) if len(parts) else 0,
    }]).astype("int64")


def windowed_cooccurrence(ds, user_col: str = "user_id",
                          ts_col: str = "ts", type_col: str = "event_type",
                          window_us: int = 3_600_000_000,
                          n_buckets: int = 64):
    """Skip-gram event-type co-occurrence: ordered (type_a, type_b)
    pair counts where b follows a for the SAME user within
    ``window_us`` (strictly later — equal timestamps never pair, the
    SQL twin's ``b.ts > a.ts`` contract).  The behavioral-sequence
    statistic PMI/embedding trainers consume.

    Scale shape: one keyed shuffle on ``hash(user) % n_buckets``; the
    in-bucket fold sorts each user's events once and enumerates window
    pairs via ``searchsorted`` ends + ``repeat``/``arange`` index
    arithmetic (no Python pair loop), emitting per-bucket (a, b, n)
    partials; one keyed Sum merges buckets.  O(pairs) work — the
    window bounds pairs per event.  Output: (type_a, type_b, n_pairs)."""

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            user_col: batch.column(user_col).to_numpy(
                zero_copy_only=False),
            "_ts": batch.column(ts_col).cast(pa.timestamp("us"))
                   .cast(pa.int64()).to_numpy(zero_copy_only=False),
            type_col: batch.column(type_col).to_numpy(
                zero_copy_only=False)})
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, "_ts"], kind="mergesort")
        users = g[user_col].to_numpy()
        ts = g["_ts"].to_numpy(np.int64)
        types = g[type_col].to_numpy()
        n = len(g)
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        bounds = np.r_[starts, n]
        idx_i_parts, idx_j_parts = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg = ts[s:e]
            # first strictly-later index and last in-window index
            lo = np.searchsorted(seg, seg + 1, side="left")
            hi = np.searchsorted(seg, seg + window_us, side="right")
            cnt = hi - lo
            idx_i_parts.append(np.repeat(np.arange(s, e), cnt))
            off = np.concatenate([np.arange(l, h) for l, h in
                                  zip(lo, hi)]) if cnt.sum() else \
                np.array([], np.int64)
            idx_j_parts.append(off + s)
        ii = np.concatenate(idx_i_parts)
        jj = np.concatenate(idx_j_parts)
        out = (pd.DataFrame({"type_a": types[ii], "type_b": types[jj]})
               .groupby(["type_a", "type_b"], sort=False).size()
               .rename("n_pairs").reset_index())
        return out

    part = keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), user_col, fold,
        n_buckets=n_buckets,
        schema=_carry(("type_a", type_col), ("type_b", type_col),
                      ("n_pairs", pa.int64())),
        batch_format="pandas")
    return _sum_partials(part, ["type_a", "type_b"], n_buckets)


def score_percentiles(ds, id_col: str, value_col: str):
    """Corpus-wide percentile normalization of an integer score (the
    rank-normalize pass quality filters use so thresholds transfer
    across corpora): pct_bp = (count strictly less) · 10⁴ // (n − 1),
    ties share the floor rank (SQL RANK semantics).

    Scale shape: ONE keyed Count over distinct score VALUES (the only
    shuffle — O(value domain) rows, not O(corpus)); the driver sorts
    the distinct values and prefix-sums strict-less counts (bounded by
    the value domain, the ``daily_cents`` precedent); the (values →
    pct) table broadcasts once and every batch assigns by
    ``searchsorted``.  Output: (id, value, pct_bp), int64."""
    import ray
    from ray.data.aggregate import Count

    dist = (ds.groupby(value_col).aggregate(Count(alias_name="_n"))
            ).to_pandas().sort_values(value_col)
    vals = dist[value_col].to_numpy(np.int64)
    cnts = dist["_n"].to_numpy(np.int64)
    n = int(cnts.sum())
    less = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    denom = max(n - 1, 1)
    pct = less * 10_000 // denom
    ref = ray.put((vals, pct))

    def assign(batch: pa.Table, ref) -> pa.Table:
        v_sorted, p = ray.get(ref)
        v = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(v_sorted, v)
        return pa.table({
            id_col: batch.column(id_col),
            value_col: pa.array(v, pa.int64()),
            "pct_bp": pa.array(p[idx], pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow",
                          fn_kwargs=dict(ref=ref))


def lineitem_dashboard(ds):
    """Shared-scan fused dashboard: FOUR aggregates off ONE pass over
    lineitem — at 100 TB the scan IS the cost, so a dashboard that
    reads the table once instead of once per metric is a 4× win before
    any other optimization.  Per batch, partials for every metric emit
    into one LONG-format table (metric, k1, k2, val) and a single
    keyed Sum merges them; the driver pivots nothing (output stays
    long).

    Metrics: ``flag_qty`` (Σqty per returnflag×linestatus),
    ``flag_rev`` (Σ disc-price cents, same keys), ``month_rev``
    (Σ cents per ship YYYYMM), ``qty_hist`` (row count per integer
    quantity).  Output: (metric, k1, k2, val) sorted, all exact."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1 - disc) * 100 + 0.5).astype(np.int64)
        qty = batch.column("l_quantity").to_numpy(
            zero_copy_only=False).astype(np.int64)
        flag = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        stat = batch.column("l_linestatus").to_numpy(zero_copy_only=False)
        month = (batch.column("l_shipdate").cast(pa.timestamp("us"))
                 .to_numpy(zero_copy_only=False)
                 .astype("datetime64[M]"))
        ym = ((month.astype(np.int64) // 12 + 1970) * 100
              + month.astype(np.int64) % 12 + 1)
        df = pd.DataFrame({"flag": flag, "stat": stat, "qty": qty,
                           "cents": cents, "ym": ym})
        fq = (df.groupby(["flag", "stat"], sort=False)
              .agg(q=("qty", "sum"), c=("cents", "sum")).reset_index())
        parts = [
            pd.DataFrame({"metric": "flag_qty", "k1": fq["flag"],
                          "k2": fq["stat"], "val": fq["q"]}),
            pd.DataFrame({"metric": "flag_rev", "k1": fq["flag"],
                          "k2": fq["stat"], "val": fq["c"]}),
        ]
        mr = df.groupby("ym", sort=False)["cents"].sum().reset_index()
        parts.append(pd.DataFrame({
            "metric": "month_rev", "k1": mr["ym"].astype(str),
            "k2": "", "val": mr["cents"]}))
        qh = df.groupby("qty", sort=False).size().reset_index(name="n")
        parts.append(pd.DataFrame({
            "metric": "qty_hist", "k1": qh["qty"].astype(str),
            "k2": "", "val": qh["n"]}))
        out = pd.concat(parts, ignore_index=True)
        out["val"] = out["val"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["metric", "k1", "k2"])
            .aggregate(Sum("val", alias_name="val")))


def time_weighted_average(ds, key_col: str = "user_id",
                          ts_col: str = "ts", id_col: str = "event_id",
                          value_col: str = "value",
                          n_buckets: int = 64):
    """Per-key time-weighted average (TWAP) over irregular samples:
    trapezoid integral of the value path divided by the key's time
    span, twap_cents = Σ(v_i + v_{i+1})·Δt_i // (2·span) — all EXACT
    (per-key segment sums in Python bigints: cents × microsecond spans
    overflow int64, so the fold accumulates object ints; the SQL twin
    sums through HUGEINT).  Keys with zero span (fewer than two
    distinct timestamps) are excluded — mirrored by the twin's
    ``span > 0`` gate.

    Scale shape: one keyed shuffle on ``hash(key) % n_buckets``; the
    in-bucket fold sorts once and computes segments vectorized, only
    the O(keys) result leaves.  Output: (key, twap_cents, span_us)."""

    def slim(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            key_col: batch.column(key_col).to_numpy(zero_copy_only=False),
            "_t": batch.column(ts_col).cast(pa.timestamp("us"))
                  .cast(pa.int64()).to_numpy(zero_copy_only=False),
            id_col: batch.column(id_col).to_numpy(zero_copy_only=False),
            "_v": _cents(batch.column(value_col).to_numpy(
                zero_copy_only=False))})
        return pa.Table.from_pandas(df, preserve_index=False)

    out_cols = {key_col: "int64", "twap_cents": "int64", "span_us": "int64"}

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "_t", id_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        t = g["_t"].to_numpy(np.int64).astype(object)
        v = g["_v"].to_numpy(np.int64).astype(object)
        same = np.ones(len(g), dtype=bool)
        same[0] = False
        same[1:] = keys[1:] == keys[:-1]
        seg = np.where(same, (np.roll(v, 1) + v) * (t - np.roll(t, 1)),
                       0)  # object ints: exact
        res = (pd.DataFrame({key_col: keys, "_seg": seg, "_t": t})
               .groupby(key_col, sort=True)
               .agg(num=("_seg", "sum"), lo=("_t", "min"),
                    hi=("_t", "max")).reset_index())
        span = res["hi"] - res["lo"]
        res = res[span > 0]
        span = span[span > 0]
        res["twap_cents"] = [int(n // (2 * s))
                             for n, s in zip(res["num"], span)]
        res["span_us"] = span.astype("int64")
        return res[[key_col, "twap_cents", "span_us"]].astype(out_cols)

    return keyed_fold(
        ds.map_batches(slim, batch_format="pyarrow"), key_col, fold,
        n_buckets=n_buckets,
        schema=pa.schema([(c, pa.int64()) for c in out_cols]),
        batch_format="pandas")


def markov_stationary(ds, user_col: str = "user_id", ts_col: str = "ts",
                      id_col: str = "event_id",
                      type_col: str = "event_type", n_iter: int = 3,
                      scale: int = 10 ** 6):
    """Stationary distribution of the per-user event-type Markov chain:
    π ← π·P iterated ``n_iter`` times from uniform, in EXACT integers —
    step contribution ``(π[s] · n(s,t)) // rowsum(s)`` — so the
    unrolled-CTE oracle matches bit-for-bit.  (The next-action prior a
    session model starts from.)

    Scale shape: the heavy work is ``event_transitions`` (one bucketed
    user shuffle, then O(alphabet²) count rows); the iteration itself
    runs on the driver over the ALPHABET×ALPHABET matrix — bounded by
    the type alphabet, not the corpus (daily_cents precedent).
    Output: (event_type, pi) int64, π summing to ≈ alphabet·scale."""
    trans = event_transitions(ds, user_col, ts_col, id_col, type_col
                              ).to_pandas()
    types = sorted(set(trans["from_type"]) | set(trans["to_type"]))
    idx = {t: i for i, t in enumerate(types)}
    k = len(types)
    cnt = np.zeros((k, k), dtype=object)
    for f, t, n in zip(trans["from_type"], trans["to_type"], trans["n"]):
        cnt[idx[f], idx[t]] = int(n)
    rowsum = cnt.sum(axis=1)
    pi = np.full(k, scale, dtype=object)
    for _ in range(n_iter):
        nxt = np.zeros(k, dtype=object)
        for s in range(k):
            if rowsum[s] == 0:           # absorbing: mass stays put
                nxt[s] += pi[s]
                continue
            for t in range(k):
                if cnt[s, t]:
                    nxt[t] += (pi[s] * cnt[s, t]) // rowsum[s]
        pi = nxt
    return pd.DataFrame({type_col: types,
                         "pi": pd.array([int(x) for x in pi],
                                        dtype="int64")})


def selectivity_estimate(ds, value_col: str, lo_cents: int,
                         hi_cents: int, mod: int = 16):
    """Sample-based filter-selectivity estimator (the cost-optimizer
    primitive) with its own exactness audit: rows whose ``id-free``
    deterministic hash (md5 of the quantized value and row ordinal-free
    salt) lands in bucket 0 of ``mod`` form the sample; the estimate is
    ``hits · mod`` and the EXACT count rides the same pass, so the
    output (n_rows, n_exact, n_sample_hits, n_estimate, err_bp) is
    fully deterministic and SQL-mirrorable.  One streaming pass,
    per-batch partial sums."""
    import hashlib

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column(value_col).to_numpy(
            zero_copy_only=False))
        inside = (cents >= lo_cents) & (cents <= hi_cents)
        in_sample = np.array(
            [int(hashlib.md5(str(c).encode()).hexdigest()[:8], 16) % mod
             == 0 for c in cents])
        return pa.table({
            "n": pa.array([len(cents)], pa.int64()),
            "exact": pa.array([int(inside.sum())], pa.int64()),
            "hits": pa.array([int((inside & in_sample).sum())],
                             pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("exact", alias_name="exact"),
                      Sum("hits", alias_name="hits")))
    n = int(agg["n"] or 0)
    exact = int(agg["exact"] or 0)
    hits = int(agg["hits"] or 0)
    est = hits * mod
    err_bp = (abs(est - exact) * 10_000 // exact) if exact else 0
    return pd.DataFrame([{
        "n_rows": n, "n_exact": exact, "n_sample_hits": hits,
        "n_estimate": est, "err_bp": err_bp}]).astype("int64")


def percent_rank_table(ds, key_col: str = "event_type",
                       value_col: str = "value",
                       id_col: str = "event_id"):
    """Per-key PERCENT_RANK and CUME_DIST of ``value_col`` — the SQL
    window pair ``RANK()-1 / (n-1)`` and ``count(<=v)/n`` in exact
    integer micro-units (``//`` both sides, so the DuckDB twin is
    bit-equal).  Ties take the MIN rank (RANK semantics).

    Scale shape: percent-rank needs each key's full value ORDER, so
    this is one keyed ``map_groups`` with a vectorized in-group
    searchsorted (no per-row loop).  Partitioning assumption: one
    key's rows fit one group task — valid for bounded key vocabularies
    (event types, languages); an unbounded-cardinality percent-rank
    would need the 2-pass histogram approach of ``stages/sketch.py``.
    Output: one row per input row (id, key, pr_micro, cume_micro).
    A null ``value_col`` raises ``ValueError`` before the fold runs:
    ``np.sort`` would rank it as NaN, last, where SQL ranks NULL by its
    own rules.
    """
    import pandas as pd
    from ray.data.aggregate import Count

    ds = ds.materialize()  # read once: the null check, then the fold
    n_null = ds.count() - ds.aggregate(
        Count(value_col, ignore_nulls=True, alias_name="n"))["n"]
    if n_null:
        raise ValueError(
            f"percent_rank_table: {n_null} rows with a null {value_col!r}")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        v = g[value_col].to_numpy(np.float64)
        order = np.sort(v)
        n = len(v)
        rank = np.searchsorted(order, v, side="left").astype(np.int64) + 1
        cume = np.searchsorted(order, v, side="right").astype(np.int64)
        pr = ((rank - 1) * 1_000_000) // (n - 1) if n > 1 \
            else np.zeros(n, np.int64)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            key_col: g[key_col].to_numpy(),
            "pr_micro": pr,
            "cume_micro": (cume * 1_000_000) // n,
        }).astype({"pr_micro": "int64", "cume_micro": "int64"})

    return (ds.groupby(key_col).map_groups(fold, batch_format="pandas")
            .sort(id_col))


def linear_attribution(ds, user_col: str = "user_id", ts_col: str = "ts",
                       type_col: str = "event_type",
                       id_col: str = "event_id",
                       conv_type: str = "purchase", n_buckets: int = 64):
    """Linear multi-touch attribution: every ``conv_type`` event
    credits 1/n (exact ``1000000 // n`` micro-units) to EACH of the
    user's DISTINCT strictly-earlier non-conversion event types —
    the equal-split counterpart of ``last_touch_attribution``.

    Scale shape: ONE user-bucketed shuffle (a user's history lives
    wholly in its bucket); in-bucket the prior-touch set is a single
    vectorized merge (events x same-user conversions, ts-filtered,
    distinct-typed) — per-user cost is |events| x |conversions| for
    that user, bounded per user, never cross-user; per-bucket
    (type, credit, touches) partials fold through one tiny keyed Sum
    over the type vocabulary.  Output: (touch_type, credit_micro,
    n_touches) sorted by touch_type.
    """
    import pandas as pd

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        conv = g[g[type_col] == conv_type]
        touches = g[g[type_col] != conv_type]
        if conv.empty or touches.empty:
            return pd.DataFrame()
        m = touches[[user_col, ts_col, type_col]].merge(
            conv[[user_col, ts_col, id_col]].rename(
                columns={ts_col: "_cts", id_col: "_cid"}), on=user_col)
        m = m[m[ts_col] < m["_cts"]]
        d = m[["_cid", type_col]].drop_duplicates()
        n_per = d.groupby("_cid")[type_col].transform("size").to_numpy()
        credit = 1_000_000 // n_per
        out = pd.DataFrame({"touch_type": d[type_col].to_numpy(),
                            "credit_micro": credit,
                            "n_touches": np.ones(len(d), np.int64)})
        return out.groupby("touch_type", sort=False).sum().reset_index()

    part = keyed_fold(ds, user_col, fold, n_buckets=n_buckets,
                      schema=_carry(("touch_type", type_col),
                                    ("credit_micro", pa.int64()),
                                    ("n_touches", pa.int64())),
                      batch_format="pandas")
    return _sum_partials(part, ["touch_type"], n_buckets).sort("touch_type")

"""``keyed_fold`` driven directly (no crawl), and the graph and analytics
operators that run on it checked for Ray Data's "different schema"
warning."""

import logging

import numpy as np
import pyarrow as pa
import pytest

from markdown_lab_ray.stages.bucketing import key_buckets, keyed_fold

_SCHEMA = pa.schema([("k", pa.int64()), ("n", pa.int64())])


def _keys(n_rows: int = 60, n_keys: int = 7, n_blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "k": pa.array(np.arange(n_rows) % n_keys, pa.int64()),
        "x": pa.array(np.arange(n_rows), pa.int64())})).repartition(n_blocks)


def _blocks(ds) -> list:
    import ray

    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def _counts(ds) -> dict:
    df = ds.to_pandas()
    return dict(zip(df["k"].tolist(), df["n"].tolist()))


class _Records(logging.Handler):
    """The ``ray.data`` logger's messages while in the ``with`` block."""

    def __enter__(self):
        self.messages: list[str] = []
        logging.getLogger("ray.data").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("ray.data").removeHandler(self)

    def emit(self, record):
        self.messages.append(record.getMessage())

    def schema_drift(self) -> list[str]:
        return [m for m in self.messages if "different schema" in m]


def _counter(even_only: bool = False):
    """An Arrow fold counting rows per key (built here: a test module's
    top-level function does not unpickle in Ray's workers)."""
    def count(rows: pa.Table) -> pa.Table:
        out = rows.group_by("k").aggregate([("k", "count")])
        k = out.column("k").to_numpy()
        keep = k % 2 == 0 if even_only else np.ones(len(k), bool)
        return pa.table({"k": k[keep],
                         "n": out.column("k_count").to_numpy()[keep]})
    return count


@pytest.mark.parametrize("n_buckets", [1, 16])
def test_arrow_fold_counts_every_key_once(ray_session, n_buckets):
    """7 keys over 16 buckets leaves buckets empty: they emit no block,
    and every block carries the fold's schema."""
    out = keyed_fold(_keys(), "k", _counter(), n_buckets=n_buckets,
                     schema=_SCHEMA)
    assert _counts(out) == {k: 60 // 7 + (k < 60 % 7) for k in range(7)}
    blocks = _blocks(out)
    assert blocks and all(b.num_rows for b in blocks)
    assert all(b.schema == _SCHEMA for b in blocks)
    assert len(blocks) <= min(n_buckets, 7)


def test_pandas_fold_sees_one_whole_bucket_with_kwargs(ray_session):
    """A pandas fold gets each bucket's rows (and only that bucket's) as
    one DataFrame, without the bucket column, plus ``fn_kwargs``; its
    float result is cast to the int64 ``schema``."""
    def fold(g, scale):
        assert "_b" not in g.columns
        assert len(set(key_buckets(g["k"].to_numpy(), 8))) == 1
        n = g.groupby("k").size() * scale
        return n.astype("float64").rename("n").reset_index()

    out = keyed_fold(_keys(), "k", fold, n_buckets=8, schema=_SCHEMA,
                     fn_kwargs=dict(scale=10), batch_format="pandas")
    assert _counts(out) == {k: 10 * (60 // 7 + (k < 60 % 7))
                            for k in range(7)}
    assert all(b.schema == _SCHEMA for b in _blocks(out))


def test_fold_shuffles_one_bucket_range_per_cpu(ray_session):
    """Keys in all 64 buckets on the 4-CPU session: at most 4 blocks come
    back (one contiguous bucket range per CPU, not one partition per
    bucket), each carrying the schema, and each bucket is folded exactly
    once (one call, one bucket, all its rows)."""
    schema = pa.schema([("b", pa.int64()), ("n_b", pa.int64()),
                        ("n", pa.int64())])
    assert len(set(key_buckets(np.arange(640), 64))) == 64

    def per_call(rows: pa.Table) -> pa.Table:
        b = np.unique(key_buckets(rows.column("k").to_numpy(), 64))
        return pa.table({"b": [int(b[0])], "n_b": [len(b)],
                         "n": [rows.num_rows]})

    out = keyed_fold(_keys(n_rows=1280, n_keys=640), "k", per_call,
                     n_buckets=64, schema=schema)
    blocks = _blocks(out)
    assert 1 <= len(blocks) <= 4
    assert all(b.schema == schema for b in blocks)
    df = out.to_pandas()
    assert sorted(df["b"]) == list(range(64))
    assert set(df["n_b"]) == {1} and df["n"].sum() == 1280


def test_null_key_raises(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array([1, None, 2], pa.int64()),
                                 "x": pa.array([1, 2, 3], pa.int64())}))
    with pytest.raises(Exception, match="1 rows with a null 'k'"):
        keyed_fold(ds, "k", _counter(), n_buckets=4, schema=_SCHEMA)


def test_empty_results_keep_the_schema_and_log_no_drift(ray_session):
    """A fold that returns no rows for some buckets, chained into a
    second fold and a map, logs no "different schema"; a fold that
    returns no rows at all leaves only empty blocks, each carrying the
    schema."""
    with _Records() as records:
        first = keyed_fold(_keys(), "k", _counter(even_only=True),
                           n_buckets=16, schema=_SCHEMA)
        second = keyed_fold(first, "k", _counter(even_only=True),
                            n_buckets=16, schema=_SCHEMA)
        mapped = first.map_batches(lambda b: b, batch_format="pyarrow")
        assert _counts(second) == {0: 1, 2: 1, 4: 1, 6: 1}
        assert mapped.count() == 4
    assert not records.schema_drift()

    nothing = keyed_fold(_keys(), "k", lambda rows: rows.slice(0, 0),
                         n_buckets=4, schema=_SCHEMA)
    blocks = _blocks(nothing)
    assert blocks and not any(b.num_rows for b in blocks)
    assert all(b.schema == _SCHEMA for b in blocks)


def test_graph_operators_log_no_schema_drift(ray_session):
    """Every graph operator on ``keyed_fold``, on small Arrow inputs and
    their distributed paths (``small_cutoff=0``), with the default bucket
    counts (so most buckets are empty), logs no "different schema"."""
    import ray.data as rd

    from markdown_lab_ray.stages.graph import (
        association_rules,
        clustering_coefficient,
        cooccurrence_counts,
        cooccurrence_edges,
        degree_assortativity,
        degree_histogram,
        distinct_nodes,
        edge_reciprocity,
        link_prediction,
        triangle_count,
    )

    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 9)]
    uv = rd.from_arrow(pa.table({
        "u": pa.array([e[0] for e in k4], pa.int64()),
        "v": pa.array([e[1] for e in k4], pa.int64())})).repartition(3)
    rng = np.random.RandomState(5)
    baskets = rd.from_arrow(pa.table({
        "oid": pa.array(rng.randint(0, 20, 80), pa.int64()),
        "pid": pa.array(rng.randint(0, 12, 80), pa.int64())})
    ).repartition(3)
    moves = rd.from_arrow(pa.table({
        "from_type": ["view", "click", "view", "cart", "buy"],
        "to_type": ["click", "view", "cart", "buy", "buy"]}))
    hosts = rd.from_arrow(pa.table({
        "src": ["a.com", "b.com", "c.com"],
        "dst": ["b.com", "a.com", "a.com"]})).materialize()

    with _Records() as records:
        assert triangle_count(uv, small_cutoff=0) == 4
        assert clustering_coefficient(uv, small_cutoff=0).count() == 5
        assert degree_assortativity(uv, small_cutoff=0).count() == 1
        assert cooccurrence_edges(baskets, "oid", "pid").count() > 0
        assert cooccurrence_counts(baskets, "oid", "pid").count() > 0
        assert association_rules(baskets, "oid", "pid").count() > 0
        assert link_prediction(baskets, "oid", "pid").count() > 0
        hist = degree_histogram(baskets, "oid", "pid").to_pandas()
        assert hist["n_nodes"].sum() == baskets.to_pandas()[
            "oid"].nunique()
        assert edge_reciprocity(moves).to_pandas()[
            "n_reciprocal"].tolist() == [2]
        assert sorted(distinct_nodes(hosts).to_pandas()["node"]) == [
            "a.com", "b.com", "c.com"]
    assert not records.schema_drift(), records.schema_drift()


def test_analytics_operators_log_no_schema_drift(ray_session):
    """The analytics operators on ``keyed_fold`` (chained folds, partials
    summed by a second fold, a fold after a union or before a sort, folds
    that return no rows), on small Arrow inputs with the default 64
    buckets (so most buckets are empty), log no "different schema";
    ``event_transitions`` feeds ``edge_reciprocity`` as its graph query
    does."""
    import ray.data as rd

    from markdown_lab_ray.stages import analytics as an
    from markdown_lab_ray.stages.graph import edge_reciprocity

    rng = np.random.RandomState(7)
    n = 40
    ev = rd.from_arrow(pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(rng.randint(0, 6, n), pa.int64()),
        "ts": pa.array(np.sort(rng.randint(0, 10**10, n))
                       + 1_700_000_000_000_000).cast(pa.timestamp("us")),
        "event_type": rng.choice(["view", "click", "cart", "purchase"], n),
        "value": rng.randint(1, 9999, n) / 100.0})).repartition(3)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 2, 3, 3, 3], pa.int64()),
        "ver": pa.array([1, 1, 2, 1, 2, 3], pa.int64()),
        "text": ["a", "b", "c", "d", "e", "f"]})).repartition(2)
    orders = rd.from_arrow(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderpriority": ["1-URGENT", "2-HIGH", "1-URGENT"],
        "o_orderdate": pa.array([0, 0, 10], pa.date32())}))
    lineitem = rd.from_arrow(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_shipdate": pa.array([40, 5, 3, 11], pa.date32())}))

    with _Records() as records:
        assert an.rolling_sum_cents(ev).count() == n
        assert an.rank_in_group(ev, "user_id", "value",
                                "event_id").count() == n
        assert an.distinct_count(ev, "event_type", "user_id").count() == 4
        assert an.mode_per_group(ev, "user_id", "event_type").count() == 6
        assert an.funnel_steps(ev, ["view", "click"]).count() <= 6
        assert an.conversion_lag(ev, "view", "purchase").count() <= 6
        assert an.retention_cohorts(ev).count() > 0
        assert an.state_dwell_time(ev).count() > 0
        assert an.interarrival_cv(ev).count() <= 6
        assert an.mad_outliers(ev, "user_id", "value",
                               "event_id", k=100.0).count() == 0
        assert an.winsorize_per_key(ev, "user_id", "value",
                                    "event_id").count() == n
        assert an.event_trigrams(ev).count() > 0
        assert an.windowed_cooccurrence(ev).count() > 0
        assert an.last_touch_attribution(ev).count() > 0
        assert an.linear_attribution(ev).count() > 0
        assert an.retention_survival(ev, "user_id", "ts").count() > 0
        assert an.mann_whitney_u(ev, "event_type", "value", "view",
                                 "click")["n_a"].iloc[0] >= 0
        assert an.sequence_gaps(ev, "event_id")["n_islands"].tolist() == [1]
        assert sorted(an.upsert_merge(docs, docs, "doc_id", "ver")
                      .to_pandas()["ver"]) == [1, 2, 3]
        assert an.scd2_intervals(docs, "doc_id", "ver").count() == 6
        assert an.late_ship_orders(orders, lineitem, late_days=30
                                   ).to_pandas()["n_late"].tolist() == [1]
        assert edge_reciprocity(an.event_transitions(ev)).count() == 1
    assert not records.schema_drift(), records.schema_drift()

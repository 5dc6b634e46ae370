"""``keyed_fold`` driven directly (no crawl), and the graph operators that
run on it checked for Ray Data's "different schema" warning."""

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

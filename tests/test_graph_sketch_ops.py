"""Graph + frequency/cardinality sketch operators:

- integer PageRank (stages/graph.py) vs a hand-rolled single-process
  power iteration and the DuckDB unrolled-CTE twin on sf0.001
- Misra-Gries heavy hitters (sketch-then-recount) vs exact DuckDB
- HyperLogLog distinct estimate vs exact, plus merge-order invariance
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _rd():
    import ray.data as rd
    return rd


def _pagerank_local(edges, n_iter=3, scale=10 ** 9, damping=85):
    """Single-process integer power iteration (the semantics oracle)."""
    from collections import Counter, defaultdict

    outdeg = Counter(s for s, _ in edges)
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    base = (scale * (100 - damping)) // 100
    rank = {n: scale for n in nodes}
    for _ in range(n_iter):
        inc = defaultdict(int)
        for s, d in edges:
            inc[d] += (rank[s] * damping) // (100 * outdeg[s])
        rank = {n: base + inc[n] for n in nodes}
    out = pd.DataFrame({"node": nodes,
                        "rank": [rank[n] for n in nodes]})
    if out["node"].dtype != object:          # string keys stay strings
        out = out.astype({"node": "int64"})
    return out.astype({"rank": "int64"})


def test_pagerank_matches_local_power_iteration(ray_session):
    from markdown_lab_ray.stages.graph import pagerank_integer

    rng = np.random.RandomState(7)
    edges = sorted({(int(rng.randint(0, 40)), int(rng.randint(40, 60)))
                    for _ in range(150)})
    # add a chain + a sink so dangling/no-inbound paths are covered
    edges += [(60, 61), (61, 62)]
    ds = _rd().from_pandas(pd.DataFrame(edges, columns=["src", "dst"])
                           .astype("int64")).repartition(5)
    got = (pagerank_integer(ds, n_iter=3, n_buckets=8).to_pandas()
           .sort_values("node").reset_index(drop=True)
           .astype({"node": "int64", "rank": "int64"}))
    want = _pagerank_local(edges)
    pd.testing.assert_frame_equal(got, want)


def test_pagerank_query_matches_duckdb_twin(ray_session):
    import duckdb

    import __ray_entry__ as entry

    got = entry.q_pagerank(SF).astype({"node": "int64", "rank": "int64"})
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    want = con.execute(entry.SQL_PAGERANK).df().astype(
        {"node": "int64", "rank": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


def test_heavy_hitters_exact_matches_duckdb(ray_session):
    import duckdb

    import __ray_entry__ as entry

    got = entry.q_heavy_hitters(SF).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(entry.SQL_HEAVY_HITTERS).df().astype(
        {"n_term": "int64"})
    assert len(want) > 0, "oracle should be non-trivial at sf0.001"
    pd.testing.assert_frame_equal(got, want)


def test_heavy_hitters_candidate_bound(ray_session):
    """The candidate set is O(k²) by the mass argument — checked on a
    skewed synthetic corpus where most tokens are noise."""
    from markdown_lab_ray.stages.sketch import heavy_hitters_exact

    rng = np.random.RandomState(11)
    rows = []
    for i in range(400):
        toks = ["hot"] * 20 + [f"noise{rng.randint(0, 5000)}"
                               for _ in range(30)]
        rng.shuffle(toks)
        rows.append(" ".join(toks))
    ds = _rd().from_pandas(pd.DataFrame({"text": rows})).repartition(8)
    out = heavy_hitters_exact(ds, k=10)
    # 'hot' is 40% of tokens — must be found with its exact count
    assert out.iloc[0]["term"] == "hot"
    assert out.iloc[0]["n_term"] == 400 * 20
    n_total = 400 * 50
    assert (out["n_term"] * 10 > n_total).all()


def test_hll_within_error_and_merge_invariant(ray_session):
    from markdown_lab_ray.stages.sketch import (
        _hll_partial,
        hll_distinct_terms,
        hll_estimate,
    )

    # estimator accuracy on a corpus with a known large vocabulary
    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(3000)]
    rows = [" ".join(rng.choice(vocab, 40)) for _ in range(500)]
    exact = len({t for r in rows for t in r.split()})
    ds = _rd().from_pandas(pd.DataFrame({"text": rows})).repartition(6)
    est = hll_distinct_terms(ds, p=12)["distinct_estimate"].iloc[0]
    assert abs(est - exact) / exact < 0.05

    # merging partials is order-invariant and equals the one-shot sketch
    a = _hll_partial([f"x{i}" for i in range(100)], p=10)
    b = _hll_partial([f"x{i}" for i in range(50, 200)], p=10)
    one = _hll_partial([f"x{i}" for i in range(200)], p=10)
    assert np.array_equal(np.maximum(a, b), np.maximum(b, a))
    assert np.array_equal(np.maximum(a, b), one)


def test_hll_small_range_linear_counting():
    from markdown_lab_ray.stages.sketch import _hll_partial, hll_estimate

    regs = _hll_partial([f"v{i}" for i in range(30)], p=12)
    est = hll_estimate(regs)
    assert abs(est - 30) <= 2  # linear-counting regime is near-exact


def test_crawl_host_rank_matches_local_and_deterministic(ray_session):
    """The crawl → host-graph → PageRank composition equals a local
    power iteration over the same edges, and the string-keyed graph
    path (hosts, not int ids) works end-to-end."""
    import __ray_entry__ as entry

    got = entry.q_crawl_host_rank(SF)
    assert len(got) > 1
    assert got["host"].is_unique

    # rebuild the edges locally from a second identical crawl and run
    # the reference power iteration on string keys
    import tempfile

    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.crawl import read_host_edges, run_crawl_ray
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(n_hosts=8, pages_per_host=12, n_images=40)
    cfg = EngineConfig(requests_per_second=1.0, round_seconds=60.0,
                       max_rounds=2, max_depth=1, seen_shards=4)
    with tempfile.TemporaryDirectory() as tmp:
        run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), tmp, cfg)
        edges = [(r["src"], r["dst"])
                 for r in read_host_edges(tmp).take_all()]
    want = _pagerank_local(sorted(set(edges))).rename(
        columns={"node": "host"})
    want["host"] = want["host"].astype(object)
    pd.testing.assert_frame_equal(
        got.astype({"rank": "int64"}),
        want.astype({"rank": "int64"}))

"""Round-3 operators: bucketed as-of join, pair-bucketed minhash
verify, IVF sampling bias fix, sketch key-cardinality bound."""

import numpy as np
import pandas as pd
import pytest


def _rd():
    import ray.data as rd
    return rd


# ---------------------------------------------------------------------------
# bucketed_asof_join
# ---------------------------------------------------------------------------

def _asof_oracle(left: pd.DataFrame, right: pd.DataFrame, key, left_on,
                 right_on, how: str) -> pd.DataFrame:
    """Single-process pandas merge_asof over the WHOLE input — the
    semantics the bucketed operator must reproduce."""
    merged = pd.merge_asof(
        left.sort_values(left_on, kind="mergesort"),
        right.sort_values(right_on, kind="mergesort").assign(__m=1),
        left_on=left_on, right_on=right_on, by=key)
    if how == "inner":
        merged = merged[merged["__m"].notna()]
    return merged.drop(columns="__m")


@pytest.mark.parametrize("how", ["inner", "left"])
def test_asof_join_matches_global_merge_asof(ray_session, how):
    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "k": rng.randint(0, 30, 800),
        "t": rng.randint(0, 2000, 800).astype("int64"),
        "lid": np.arange(800),
    })
    right = pd.DataFrame({
        "k": rng.randint(0, 40, 300),
        "rt": rng.randint(0, 2000, 300).astype("int64"),
        "val": rng.rand(300).round(4),
    }).drop_duplicates(subset=["k", "rt"])  # deterministic as-of ties

    from markdown_lab_ray.stages.joins import bucketed_asof_join

    out = bucketed_asof_join(
        _rd().from_pandas(left).repartition(4),
        _rd().from_pandas(right).repartition(3),
        key="k", left_on="t", right_on="rt", n_buckets=8,
        how=how).to_pandas()
    oracle = _asof_oracle(left, right, "k", "t", "rt", how)

    cols = ["k", "t", "lid", "rt", "val"]
    got = out.sort_values("lid").reset_index(drop=True)[cols]
    want = (oracle.sort_values("lid").reset_index(drop=True)[cols]
            .astype(got.dtypes.to_dict()))
    assert got.equals(want)


def test_asof_join_exact_timestamp_match(ray_session):
    """Backward as-of INCLUDES an exactly-equal right timestamp."""
    from markdown_lab_ray.stages.joins import bucketed_asof_join

    left = pd.DataFrame({"k": [1, 1], "t": [10, 9], "lid": [0, 1]})
    right = pd.DataFrame({"k": [1], "rt": [10], "val": [0.5]})
    out = bucketed_asof_join(_rd().from_pandas(left),
                             _rd().from_pandas(right),
                             key="k", left_on="t",
                             right_on="rt").to_pandas()
    assert out["lid"].tolist() == [0]
    assert out["val"].tolist() == [0.5]


def test_asof_join_rejects_bad_how(ray_session):
    from markdown_lab_ray.stages.joins import bucketed_asof_join

    with pytest.raises(ValueError, match="how"):
        bucketed_asof_join(_rd().range(1), _rd().range(1),
                           key="id", left_on="id", right_on="id",
                           how="outer")


# ---------------------------------------------------------------------------
# join key-type compatibility (ADVICE r02)
# ---------------------------------------------------------------------------

def test_join_key_type_mismatch_raises(ray_session):
    """string-vs-int keys can't representation-normalize — must raise,
    not silently return an empty join."""
    from markdown_lab_ray.stages.joins import bucketed_hash_join

    left = _rd().from_pandas(pd.DataFrame({"k": [1, 2], "x": [1, 2]}))
    right = _rd().from_pandas(pd.DataFrame({"k": ["1", "2"], "y": [3, 4]}))
    with pytest.raises(TypeError, match="incompatible"):
        bucketed_hash_join(left, right, key="k")


def test_join_int_float_keys_promote(ray_session):
    """int64-vs-float64 keys hash on a common float64 representation —
    equal logical keys land in the same bucket and join."""
    from markdown_lab_ray.stages.joins import bucketed_hash_join

    left = _rd().from_pandas(pd.DataFrame(
        {"k": np.arange(50, dtype=np.int64), "x": np.arange(50)}))
    right = _rd().from_pandas(pd.DataFrame(
        {"k": np.arange(50, dtype=np.float64), "y": np.arange(50) * 2}))
    out = bucketed_hash_join(left, right, key="k", n_buckets=8).to_pandas()
    assert len(out) == 50
    assert (out.sort_values("x")["y"].to_numpy()
            == np.arange(50) * 2).all()


# ---------------------------------------------------------------------------
# pair-bucketed minhash verify (VERDICT r02 #2)
# ---------------------------------------------------------------------------

def test_pair_buckets_collapse_group_count():
    """10k candidate pairs must verify in ≤ n_pair_buckets groups —
    ≥ 5× fewer than the one-group-per-pair shape."""
    from markdown_lab_ray.stages.dedup import pair_bucket_ids

    rng = np.random.RandomState(0)
    a = rng.randint(0, 1 << 40, 10_000)
    b = rng.randint(0, 1 << 40, 10_000)
    pb = pair_bucket_ids(a, b, 64)
    n_groups = len(np.unique(pb))
    assert n_groups <= 64
    assert n_groups * 5 <= 10_000
    # process-stable: same pairs → same buckets
    assert (pair_bucket_ids(a, b, 64) == pb).all()


def test_minhash_pairs_dataset_mode_matches_pandas_mode(ray_session):
    """as_dataset=True must return the same verified pairs as the
    pandas return path (it's the same plan minus the driver collect)."""
    from markdown_lab_ray.stages.dedup import minhash_near_dup_pairs

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(60)]
    base = " ".join(rng.choice(vocab, 80))
    texts, ids = [], []
    for i in range(40):
        words = base.split()
        for _ in range(rng.randint(0, 6)):  # light mutation → near-dups
            words[rng.randint(len(words))] = rng.choice(vocab)
        texts.append(" ".join(words))
        ids.append(i)
    # plus unrelated docs
    for i in range(40, 60):
        texts.append(" ".join(rng.choice(vocab[:30], 40)) + f" uniq{i}")
        ids.append(i)
    ds = _rd().from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))

    as_pd = minhash_near_dup_pairs(ds, jaccard_threshold=0.5)
    as_ds = (minhash_near_dup_pairs(ds, jaccard_threshold=0.5,
                                    as_dataset=True)
             .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert len(as_pd) > 0  # the fixture must actually exercise pairs
    pd.testing.assert_frame_equal(as_pd, as_ds[as_pd.columns.tolist()])


# ---------------------------------------------------------------------------
# IVF training-sample bias (VERDICT r02 #5)
# ---------------------------------------------------------------------------

def test_ivf_sample_not_first_blocks(ray_session):
    """A storage-order-clustered corpus: all of cluster A first, then
    cluster B.  First-block sampling would train every centroid on A
    and probe lists that miss B entirely; the Bernoulli sample must
    recover the B-side brute-force answer."""
    from markdown_lab_ray.stages.similarity import knn_brute_force, knn_ivf

    rng = np.random.RandomState(11)
    dim = 16
    a = rng.randn(3000, dim) * 0.05 + 5.0    # cluster A (first blocks)
    b = rng.randn(3000, dim) * 0.05 - 5.0    # cluster B (last blocks)
    mat = np.vstack([a, b])
    df = pd.DataFrame({"vec_id": np.arange(6000),
                       "embedding": [row.tolist() for row in mat]})
    # many small blocks so limit(sample_size) would see ONLY cluster A
    ds = _rd().from_pandas(df).repartition(24)
    query = (-5.0 * np.ones(dim))  # deep inside cluster B

    brute = knn_brute_force(ds, query, k=10)
    ivf = knn_ivf(ds, query, k=10, n_lists=8, n_probe=2,
                  sample_size=512, seed=11)
    # probed lists must cover cluster B: exact agreement with brute force
    assert ivf["vec_id"].tolist() == brute["vec_id"].tolist()


# ---------------------------------------------------------------------------
# status --timings on a real resumed crawl dir (VERDICT r02 #9) and the
# streaming seen-restore (VERDICT r02 #3)
# ---------------------------------------------------------------------------

def test_status_timings_on_resumed_crawl(ray_session, tmp_path, capsys):
    from markdown_lab_ray.cli import main
    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(n_hosts=3, pages_per_host=8)
    cfg = EngineConfig(requests_per_second=0.2, round_seconds=60.0,
                       max_rounds=1, max_depth=1, seen_shards=2)
    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg)
    # resume for one more round (the earlier round's seen runs carry over)
    cfg2 = cfg.update(max_rounds=2)
    res = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out,
                        cfg2, resume=True)
    assert res.rounds == 2

    assert main(["status", "--out", out, "--timings"]) == 0
    text = capsys.readouterr().out
    assert "execution=" in text


# ---------------------------------------------------------------------------
# sketch key-cardinality (VERDICT r02 #8)
# ---------------------------------------------------------------------------

def test_histogram_quantiles_at_1e4_keys(ray_session):
    """10^4 distinct keys through the two-pass sketch: every key's p50
    within one bin width PLUS the key's max adjacent-order-stat gap of
    the exact pandas quantile (the sketch approximates the cumulative-
    histogram order stat; pandas interpolates between bracketing order
    stats, which for sparse keys can sit up to one gap away)."""
    from markdown_lab_ray.stages.sketch import histogram_quantiles

    rng = np.random.RandomState(5)
    n_keys = 10_000
    keys = np.repeat(np.arange(n_keys), 8)
    vals = rng.rand(len(keys)) * 100
    ds = _rd().from_pandas(pd.DataFrame({"k": keys, "v": vals})
                           ).repartition(16)
    out = histogram_quantiles(ds, "k", "v", qs=(0.5,), n_bins=256
                              ).to_pandas().set_index("k")
    assert len(out) == n_keys
    df = pd.DataFrame({"k": keys, "v": vals})
    g = df.groupby("k")["v"]
    exact = g.quantile(0.5)
    spans = g.agg(lambda s: s.max() - s.min())
    gaps = g.agg(lambda s: np.diff(np.sort(s)).max())
    err = (out["p50"] - exact).abs()
    assert (err <= spans / 256 + gaps + 1e-9).all()


# ---------------------------------------------------------------------------
# allpairs_cosine_exact
# ---------------------------------------------------------------------------

def _brute_pairs(df, threshold):
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    sims = (mat @ mat.T) / np.outer(norms, norms)
    ids = df["vec_id"].to_numpy()
    ii, jj = np.triu_indices(len(df), k=1)
    keep = sims[ii, jj] >= threshold
    return {(int(min(a, b)), int(max(a, b)))
            for a, b in zip(ids[ii[keep]], ids[jj[keep]])}


@pytest.mark.parametrize("n_blocks", [1, 3, 5])
def test_allpairs_cosine_exact_recall_1_no_dups(ray_session, n_blocks):
    """Every qualifying pair exactly once, regardless of block count —
    the block-pair explode neither drops cross-block pairs nor
    double-emits within-block ones."""
    from markdown_lab_ray.stages.similarity import allpairs_cosine_exact

    rng = np.random.RandomState(13)
    base = rng.randn(8, 16)
    vecs = base[rng.randint(0, 8, 120)] + rng.randn(120, 16) * 0.6
    df = pd.DataFrame({"vec_id": np.arange(120, dtype=np.int64),
                       "embedding": list(vecs.astype(np.float32))})
    out = allpairs_cosine_exact(
        _rd().from_pandas(df).repartition(4), threshold=0.8,
        n_blocks=n_blocks).to_pandas()
    got = list(zip(out["a"].astype(int), out["b"].astype(int)))
    assert len(got) == len(set(got))  # no duplicate emissions
    assert set(got) == _brute_pairs(df, 0.8)
    assert (out["a"] < out["b"]).all()
    assert (out["cos"] >= 0.8 - 1e-9).all()

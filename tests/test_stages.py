import pyarrow as pa

from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb, page_html
from markdown_lab_ray.stages.convert import (
    char_chunk_explode_batch,
    chunk_explode_batch,
    convert_fused_batch,
    parse_batch,
    render_batch,
)

SPEC = SiteSpec(n_hosts=3, pages_per_host=5, n_images=20)


def _pages_table(n=3):
    urls = [SPEC.page_url(0, j) for j in range(n)]
    htmls = [page_html(SPEC, 0, j) for j in range(n)]
    return pa.table({"url": urls, "html": htmls})


def test_parse_batch_schema_and_content():
    out = parse_batch(_pages_table())
    assert out.column_names == ["url", "doc"]
    doc = out.column("doc").to_pylist()[1]
    assert doc["title"].startswith("Page 1")
    assert any(h["level"] == 1 for h in doc["headings"])
    assert doc["paragraphs"]
    assert doc["images"]
    # strip-targets removed
    assert all("BUY" not in p for p in doc["paragraphs"])


def test_parse_batch_bad_html_tolerated():
    t = pa.table({"url": ["https://e.com/x"], "html": [None]})
    out = parse_batch(t)
    assert out.num_rows == 1
    assert out.column("doc").to_pylist()[0]["title"] == "No Title"


def test_render_batch_formats():
    docs = parse_batch(_pages_table(1))
    md = render_batch(docs, "markdown")
    assert md.column("payload").to_pylist()[0].startswith("# Page 0")
    xml = render_batch(docs, "xml")
    assert "<Document>" in xml.column("payload").to_pylist()[0]
    with_meta = render_batch(docs, "markdown", with_metadata=True)
    assert "*Source: https://h000.example.com/page/0*" in \
        with_meta.column("payload").to_pylist()[0]


def test_chunk_explode():
    docs = parse_batch(_pages_table(2))
    md = render_batch(docs, "markdown")
    chunks = chunk_explode_batch(md)
    assert chunks.num_rows >= 2
    assert set(chunks.column("source_url").to_pylist()) == \
        set(md.column("url").to_pylist())
    assert all(t in ("section", "content_chunk", "text_chunk")
               for t in chunks.column("chunk_type").to_pylist())


def test_char_chunk_explode():
    md = pa.table({"url": ["u1"], "payload": ["# H\n" + "word " * 400]})
    chunks = char_chunk_explode_batch(md, chunk_size=200, chunk_overlap=50)
    assert chunks.num_rows > 1
    assert chunks.column("heading").to_pylist()[0] == "H"
    densities = chunks.column("semantic_density").to_pylist()
    assert all(d >= 0 for d in densities)


def test_convert_fused():
    out = convert_fused_batch(_pages_table(3))
    assert out.num_rows == 3
    assert all(n > 0 for n in out.column("n_chunks").to_pylist())
    assert all(n > 0 for n in out.column("n_links").to_pylist())
    assert out.column("payload").to_pylist()[0].startswith("# Page 0")


def test_fused_on_dataset(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(_pages_table(5)).map_batches(
        convert_fused_batch, batch_format="pyarrow", zero_copy_batch=True)
    rows = ds.take_all()
    assert len(rows) == 5
    assert all(r["n_chunks"] > 0 for r in rows)


def test_histogram_quantiles_within_bin_width(ray_session):
    """Sketch quantiles must sit within one bin width of exact numpy
    quantiles per key, and be deterministic across block layouts."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from markdown_lab_ray.stages.sketch import histogram_quantiles

    rng = np.random.RandomState(0)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 30_000),
        "v": np.concatenate([rng.normal(10, 3, 15_000),
                             rng.exponential(5, 15_000)]),
    })
    out = (histogram_quantiles(rd.from_pandas(df).repartition(8),
                               "k", "v", qs=(0.5, 0.95), n_bins=2048)
           .to_pandas().set_index("k"))
    out2 = (histogram_quantiles(rd.from_pandas(df).repartition(3),
                                "k", "v", qs=(0.5, 0.95), n_bins=2048)
            .to_pandas().set_index("k"))
    for key, g in df.groupby("k"):
        width = (g["v"].max() - g["v"].min()) / 2048
        for q, col in ((0.5, "p50"), (0.95, "p95")):
            exact = np.percentile(g["v"].to_numpy(), q * 100)
            assert abs(out.loc[key, col] - exact) <= width * 1.5, (key, col)
            # deterministic regardless of block layout
            assert out.loc[key, col] == out2.loc[key, col]


def test_histogram_quantiles_constant_and_single_row(ray_session):
    import pandas as pd
    import ray.data as rd

    from markdown_lab_ray.stages.sketch import histogram_quantiles

    df = pd.DataFrame({"k": ["x"] * 100 + ["y"],
                       "v": [7.0] * 100 + [3.5]})
    out = (histogram_quantiles(rd.from_pandas(df), "k", "v", qs=(0.5,))
           .to_pandas().set_index("k"))
    assert out.loc["x", "p50"] == 7.0
    assert out.loc["y", "p50"] == 3.5


def test_random_projection_jl_property_and_determinism(ray_session):
    """Seeded JL projection: pairwise distances roughly preserved,
    identical output at any partitioning, invalid dims raise."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from markdown_lab_ray.stages.similarity import random_projection

    rng = np.random.RandomState(3)
    n, dim, out_dim = 120, 64, 24
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [v.tolist() for v in vecs]})

    def run(parts):
        out = (random_projection(rd.from_pandas(df).repartition(parts),
                                 dim=dim, out_dim=out_dim)
               .to_pandas().sort_values("vec_id"))
        return np.stack(out["proj"].to_numpy())

    p2, p5 = run(2), run(5)
    assert p2.shape == (n, out_dim)
    assert np.array_equal(p2, p5)            # partitioning-independent
    # JL: projected pairwise distances within a loose factor of originals
    idx = rng.choice(n, size=(40, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    d_orig = np.linalg.norm(vecs[idx[:, 0]] - vecs[idx[:, 1]], axis=1)
    d_proj = np.linalg.norm(p2[idx[:, 0]] - p2[idx[:, 1]], axis=1)
    ratio = d_proj / d_orig
    assert 0.5 < ratio.min() and ratio.max() < 1.6
    with pytest.raises(ValueError):
        random_projection(rd.from_pandas(df), dim=dim, out_dim=0)

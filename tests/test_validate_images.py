"""End-to-end crawl → image join → PSNR/caption validation (the graft's
image+caption invariants over actually-crawled pages)."""

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.sources.synth import (
    SiteSpec,
    SyntheticWeb,
    build_images_table,
    reference_pixels_fn,
)

SPEC = SiteSpec(n_hosts=4, pages_per_host=8, n_images=60)
CFG = EngineConfig(requests_per_second=1.0, round_seconds=60.0, max_rounds=1,
                   max_depth=0, seen_shards=2)


def test_crawled_images_validate(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    out = str(tmp_path / "crawl")
    res = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, CFG)
    assert res.fetched == 32

    validated = validate_crawled_images(
        out, build_images_table(SPEC), ref_fn=reference_pixels_fn(SPEC))
    rows = validated.take_all()
    assert rows, "pages must reference at least one image"
    # every referenced image decodes within the PSNR gate
    assert all(r["pixels_ok"] for r in rows)
    # alt text in the page equals the table caption (caption invariant)
    assert all(r["caption_ok"] for r in rows)
    # stored phash matches the phash recomputed from the decode
    assert all(r["phash"] == r["phash_decoded"] for r in rows)
    assert all(r["page_url"].startswith("https://h") for r in rows)


def test_caption_mismatch_detected(ray_session, tmp_path):
    import pyarrow as pa

    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    out = str(tmp_path / "crawl2")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, CFG)

    table = build_images_table(SPEC)
    corrupted = table.set_column(
        table.schema.get_field_index("caption"), "caption",
        pa.array(["WRONG"] * table.num_rows))
    validated = validate_crawled_images(out, corrupted,
                                        ref_fn=reference_pixels_fn(SPEC))
    rows = validated.take_all()
    assert rows and not any(r["caption_ok"] for r in rows)


def test_missing_image_refs_become_failure_rows(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    out = str(tmp_path / "crawl3")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, CFG)
    truncated = build_images_table(SPEC).slice(0, 5)  # most ids missing
    rows = validate_crawled_images(out, truncated,
                                   ref_fn=reference_pixels_fn(SPEC)).take_all()
    missing = [r for r in rows if not r["pixels_ok"]]
    assert missing, "missing table entries must surface as failure rows"
    assert all(r["page_url"] for r in missing)


def test_seen_mark_idempotent_within_round():
    from markdown_lab_ray.state.seen import LocalSeen

    seen = LocalSeen(1 << 10)
    # round 3 marks; a task RETRY re-marks the same keys in round 3
    assert seen.check_and_add(["k1", "k2"], round_no=3) == [True, True]
    assert seen.check_and_add(["k1", "k2"], round_no=3) == [True, True]
    # a later round sees them as already-fetched
    assert seen.check_and_add(["k1", "k3"], round_no=4) == [False, True]
    # default (-1) marking is never retry-idempotent
    assert seen.check_and_add(["k9"]) == [True]
    assert seen.check_and_add(["k9"]) == [False]


# ---------------------------------------------------------------------------
# join strategies (VERDICT r03 #1: bucketed hash join replaces broadcast)
# ---------------------------------------------------------------------------

def _refs_table():
    import pyarrow as pa
    # include misses ("nope") and a BIG int64 phash probe downstream
    return pa.table({
        "page_url": pa.array([f"https://h/p{i}" for i in range(6)]),
        "alt": pa.array([f"alt{i}" for i in range(6)]),
        "src": pa.array([f"https://img/x{i}.png" for i in range(6)]),
        "image_id": pa.array(["img000000", "img000001", "nope",
                              "img000002", "nope2", "img000001"]),
    })


def _sorted_rows(ds):
    rows = ds.take_all()
    return sorted(rows, key=lambda r: (r["page_url"], r["image_id"]))


def test_choose_join_strategy_thresholds():
    import pyarrow as pa

    from markdown_lab_ray.pipelines.validate_images import choose_join_strategy

    small = build_images_table(SiteSpec(n_images=10))
    assert choose_join_strategy(small, broadcast_max_bytes=64 << 20) == \
        "broadcast"
    assert choose_join_strategy(small, broadcast_max_bytes=10) == "bucketed"
    assert choose_join_strategy("a/path.lance", 64 << 20) == "bucketed"
    assert choose_join_strategy(None, 64 << 20) == "bucketed"


def test_attach_image_table_broadcast_equals_bucketed(ray_session):
    import ray.data as rd

    from markdown_lab_ray.pipelines.validate_images import attach_image_table

    table = build_images_table(SiteSpec(n_images=20))
    refs = rd.from_arrow(_refs_table())
    a = _sorted_rows(attach_image_table(refs, table, strategy="broadcast"))
    b = _sorted_rows(attach_image_table(refs, table, strategy="bucketed"))
    assert a == b
    found = [r for r in a if r["found"]]
    missing = [r for r in a if not r["found"]]
    assert len(found) == 4 and len(missing) == 2
    assert all(r["bytes"] is None and r["phash"] is None for r in missing)
    # int64 phash survives the bucketed path bit-exact (no float64
    # widening on miss-bearing columns)
    by_id = {r["image_id"]: r for r in found}
    import pyarrow.compute as pc
    idx = table.column("image_id").to_pylist().index("img000001")
    assert by_id["img000001"]["phash"] == table.column("phash")[idx].as_py()


def test_bucketed_path_never_broadcasts_table(ray_session, monkeypatch,
                                              tmp_path):
    """The 100-TB shape: image table given as a PATH (streaming read).
    The bucketed path must not construct the broadcast stage nor
    ray.put the full image table on the driver."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    import markdown_lab_ray.pipelines.validate_images as vi
    from markdown_lab_ray.sources.io import read_image_table

    table = build_images_table(SiteSpec(n_images=30))
    pq_path = str(tmp_path / "images.parquet")
    pq.write_table(table, pq_path)

    def boom(*a, **k):
        raise AssertionError("broadcast stage used on bucketed path")

    monkeypatch.setattr(vi.JoinImageTable, "__init__", boom)
    real_put = ray.put

    def guarded_put(obj, **kw):
        import pyarrow as pa
        assert not (isinstance(obj, pa.Table)
                    and "bytes" in getattr(obj, "column_names", [])), \
            "full image table ray.put on bucketed path"
        return real_put(obj, **kw)

    monkeypatch.setattr(ray, "put", guarded_put)
    refs = rd.from_arrow(_refs_table())
    images = read_image_table(
        pq_path, columns=["image_id", "bytes", "w", "h", "fmt",
                          "caption", "phash"])
    out = vi.attach_image_table(refs, images, strategy="bucketed")
    rows = out.take_all()
    assert len(rows) == 6
    assert sum(r["found"] for r in rows) == 4


def test_validate_crawled_images_bucketed_matches_broadcast(ray_session,
                                                            tmp_path):
    """End-to-end: the two join strategies produce identical validation
    rows (the fixture-lock for the flagship join)."""
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, CFG)
    table = build_images_table(SPEC)
    ref = reference_pixels_fn(SPEC)

    def key(r):
        return (r["page_url"], r["image_id"])

    a = sorted(validate_crawled_images(out, table, ref_fn=ref,
                                       strategy="broadcast").take_all(),
               key=key)
    b = sorted(validate_crawled_images(out, table, ref_fn=ref,
                                       strategy="bucketed").take_all(),
               key=key)
    assert a == b
    assert len(a) > 0 and all(r["pixels_ok"] for r in a)


def test_validate_crawled_images_from_path(ray_session, tmp_path):
    """images_path variant: column-pruned read feeds the bucketed join."""
    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), out, CFG)
    table = build_images_table(SPEC)
    pq_path = str(tmp_path / "images.parquet")
    pq.write_table(table, pq_path)

    rows = validate_crawled_images(
        out, images_path=pq_path, ref_fn=reference_pixels_fn(SPEC)
    ).take_all()
    assert rows and all(r["pixels_ok"] and r["caption_ok"] for r in rows)


def test_image_dedup_keep_best_pipeline(ray_session):
    """Flagship image-dedup composition: every 10th synth image is a
    near-dup of its predecessor — each such pair must collapse to ONE
    survivor (the higher-resolution copy), singletons all survive."""
    import ray.data as rd

    from markdown_lab_ray.stages.images import image_dedup_keep_best

    spec = SiteSpec(n_images=100)
    table = build_images_table(spec)
    out = image_dedup_keep_best(rd.from_arrow(table)).take_all()
    survivors = {r["image_id"] for r in out}
    n_imgs = table.num_rows
    by_id = {r["image_id"]: (r["w"], r["h"]) for r in
             table.select(["image_id", "w", "h"]).to_pylist()}

    # near-dup construction: k % 10 == 9 duplicates k-1 (same dims)
    dup_pairs = [(spec.image_id(k - 1), spec.image_id(k))
                 for k in range(1, n_imgs) if k % 10 == 9]
    assert len(out) < n_imgs  # something actually collapsed
    collapsed = 0
    for a, b in dup_pairs:
        both = (a in survivors) + (b in survivors)
        if both == 1:
            collapsed += 1
            winner = a if a in survivors else b
            loser = b if a in survivors else a
            wa, ha = by_id[winner]
            wl, hl = by_id[loser]
            # keep-best: max pixel count, ties to smallest id
            assert (wa * ha, loser) >= (wl * hl, winner), (winner, loser)
    # phash bands at threshold 6 catch most of the jittered copies
    assert collapsed >= len(dup_pairs) * 2 // 3
    assert len(out) == n_imgs - collapsed
    # determinism
    out2 = image_dedup_keep_best(rd.from_arrow(table)).take_all()
    assert sorted(r["image_id"] for r in out2) == sorted(survivors)


def test_zero_image_refs_both_strategies(ray_session, tmp_path):
    """Docs whose pages reference no images at all (empty lists and
    nulls): both join strategies yield an empty result, no crash."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.validate_images import validate_crawled_images

    ddir = str(tmp_path / "rounds" / "round=0" / "docs")
    os.makedirs(ddir)
    img_t = pa.list_(pa.struct([("alt", pa.string()), ("src", pa.string())]))
    pq.write_table(
        pa.table({"url": pa.array(["https://h/p0", "https://h/p1"]),
                  "images": pa.array([[], None], img_t)}),
        os.path.join(ddir, "part.parquet"))
    table = build_images_table(SiteSpec(n_images=5))
    for strategy in ("broadcast", "bucketed"):
        out = validate_crawled_images(str(tmp_path), table,
                                      strategy=strategy)
        assert out.count() == 0, strategy

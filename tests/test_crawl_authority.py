"""Host-authority budget weighting: kernel determinism, oracle
semantics, Ray parity, resume."""

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

SPEC = SiteSpec(n_hosts=6, pages_per_host=12, n_images=40)
BASE = dict(requests_per_second=0.05, round_seconds=60.0,  # budget 3/host
            max_rounds=4, max_depth=2, seen_shards=4)


def _web():
    return SyntheticWeb(SPEC)


def test_local_pagerank_hosts_matches_pagerank_integer(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from markdown_lab_ray.stages.graph import pagerank_integer
    from markdown_lab_ray.state.authority import local_pagerank_hosts

    edges = {("a.com", "b.com"), ("a.com", "c.com"), ("b.com", "c.com"),
             ("c.com", "a.com"), ("d.com", "c.com")}
    local = local_pagerank_hosts(edges, n_iter=3, scale=10 ** 6)
    pairs = sorted(edges)
    ds = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.string()),
        "dst": pa.array([b for _, b in pairs], pa.string())}))
    dist = (pagerank_integer(ds, n_iter=3, scale=10 ** 6)
            .to_pandas().set_index("node")["rank"].to_dict())
    assert local == {str(k): int(v) for k, v in dist.items()}


def test_authority_multipliers_band_rule():
    from markdown_lab_ray.state.authority import authority_multipliers

    ranks = {"a": 100, "b": 50, "c": 49, "d": 10}
    assert authority_multipliers(ranks, 2) == {"a": 2, "b": 2}
    assert authority_multipliers(ranks, 1) == {}
    assert authority_multipliers({}, 3) == {}


def test_merge_edges_cap_is_deterministic():
    from markdown_lab_ray.state.authority import merge_edges

    a = {("b", "x"), ("a", "y")}
    b = {("c", "z"), ("a", "b")}
    capped1 = merge_edges(set(a), set(b), 3)
    capped2 = merge_edges(set(b), set(a), 3)
    assert capped1 == capped2 == {("a", "b"), ("a", "y"), ("b", "x")}


def test_oracle_authority_boost_changes_order():
    off = run_crawl_oracle(_web().resolve, SPEC.seed_urls(),
                           EngineConfig(**BASE))
    on = run_crawl_oracle(_web().resolve, SPEC.seed_urls(),
                          EngineConfig(**BASE, authority_boost=2))
    assert on["order"] != off["order"]
    assert on["fetched"] >= off["fetched"]
    # the boost only ever widens a round's schedule: round-0 output
    # (no edges yet) is identical
    d_on = on["order_detail"]
    d_off = off["order_detail"]
    assert (d_on[d_on["round"] == 0]["loc"].tolist()
            == d_off[d_off["round"] == 0]["loc"].tolist())
    # budget cap respected: ≤ 3 normally, ≤ 6 for boosted hosts
    per = d_on.groupby(["round", "host"]).size()
    assert per.max() <= 6


def test_ray_authority_crawl_matches_oracle(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    cfg = EngineConfig(**BASE, authority_boost=2)
    oracle = run_crawl_oracle(_web().resolve, SPEC.seed_urls(), cfg)
    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(),
                           out, cfg)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    assert result.fetched == oracle["fetched"]


def test_ray_authority_resume(ray_session, tmp_path):
    import pandas as pd

    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    cfg = EngineConfig(**BASE, authority_boost=2)
    full_dir = str(tmp_path / "full")
    part_dir = str(tmp_path / "part")
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), full_dir,
                  cfg)
    cfg_half = EngineConfig(**{**cfg.__dict__, "max_rounds": 2})
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg_half)
    run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(), part_dir,
                  cfg, resume=True)
    full = read_crawl_order(full_dir)
    resumed = read_crawl_order(part_dir)
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  resumed.reset_index(drop=True))


def test_crawl_cli_authority_flag(ray_session, tmp_path):
    """--authority-boost reaches EngineConfig and the run produces the
    same order the oracle does under the same config."""
    from markdown_lab_ray.cli import main
    from markdown_lab_ray.pipelines.crawl import read_crawl_order

    out = str(tmp_path / "cli_crawl")
    code = main(["crawl", "--out", out, "--hosts", "4", "--pages", "8",
                 "--rps", "0.05", "--max-rounds", "3", "--max-depth", "2",
                 "--authority-boost", "2"])
    assert code == 0
    spec = SiteSpec(n_hosts=4, pages_per_host=8)
    cfg = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                       max_rounds=3, max_depth=2, authority_boost=2)
    oracle = run_crawl_oracle(SyntheticWeb(spec).resolve,
                              spec.seed_urls(), cfg)
    assert read_crawl_order(out)["loc"].tolist() == oracle["order"]


def test_arrow_netloc_regex_equals_urlparse():
    """The authority fold's Arrow host kernel (``[^/?#]*`` after the
    scheme) must equal urlparse().netloc for every http(s) URL shape —
    the contract that lets the per-link fold skip Python parsing."""
    from urllib.parse import urlparse

    import pyarrow as pa
    import pyarrow.compute as pc

    urls = ["http://a.com/x", "https://u:p@h.com:8080/p?q#f",
            "http://h.com?q=1", "http://h.com#f", "http://h.com",
            "https://h.com/", "http://[::1]:8080/x",
            "https://sub.h.co.uk/p/q", "http://h.com:80",
            "http://h.com/path#frag?notquery", "https://h.com//double",
            # urlsplit strips \t\r\n ANYWHERE (WHATWG); the kernel
            # mirrors that with a pre-clean pass
            "http://a.\tcom/x", "http://h.com\r\n/p", "htt\tp://x.com/"]
    cleaned = pc.replace_substring_regex(
        pa.array(urls), pattern="[\\t\\r\\n]", replacement="")
    got = pc.struct_field(
        pc.extract_regex(cleaned,
                         pattern=r"^https?://(?P<host>[^/?#]*)"),
        "host").to_pylist()
    assert got == [urlparse(u).netloc for u in urls]

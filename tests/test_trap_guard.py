"""Crawler-trap guard: path_template kernel, per-page per-template link
cap, and engine-vs-oracle parity over a trap-emitting web."""

import pytest

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.kernels.urls import path_template
from markdown_lab_ray.pipelines.crawl_spec import links_to_frontier_rows
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle


def test_path_template_collapses_generated_parts():
    assert (path_template("http://a.com/cal/2020-01-15")
            == path_template("http://a.com/cal/2021-12-31")
            == "a.com/cal/N-N-N")
    # long hex (session ids) collapse; short hex-looking words survive
    assert (path_template("http://a.com/s/deadbeef0123/x")
            == path_template("http://a.com/s/cafebabe9988/x"))
    assert (path_template("http://a.com/feed")
            != path_template("http://a.com/face"))
    # query VALUES drop, keys sort, host case-folds
    assert (path_template("http://A.com/p?page=9&d=20200101")
            == path_template("http://a.com/p?d=1&page=2")
            == "a.com/p?d&page")
    assert path_template("http://a.com/about") == "a.com/about"


def test_links_to_frontier_rows_trap_cap():
    links = ([f"http://t.test/cal/2020-{m:02d}-01" for m in range(1, 10)]
             + ["http://t.test/about",
                "http://other.test/cal/2020-01-01"])
    # cap 3: first 3 calendar links kept IN PAGE ORDER; /about untouched;
    # other.test's template differs by host → its own budget
    rows = links_to_frontier_rows(0, links, trap_cap=3)
    kept = [r["loc"] for r in rows]
    assert kept == ["http://t.test/cal/2020-01-01",
                    "http://t.test/cal/2020-02-01",
                    "http://t.test/cal/2020-03-01",
                    "http://t.test/about",
                    "http://other.test/cal/2020-01-01"]
    # cap 0 = disabled (all 11 pass)
    assert len(links_to_frontier_rows(0, links)) == 11


def test_trap_cap_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(trap_links_per_template=-1).validate()
    assert (EngineConfig(trap_links_per_template=3).validate()
            .trap_links_per_template == 3)


def _trap_site() -> dict:
    """One seed page linking a 12-month calendar trap plus two real
    pages; every leaf is a dead end (ScriptedWeb page dict)."""
    base = "http://trap.test"
    cal = "".join(f'<a href="/cal/2020-{m:02d}-01">m{m}</a>'
                  for m in range(1, 13))
    leaf = ("<html><head><title>leaf</title></head>"
            "<body><main><p>leaf</p></main></body></html>")
    sitemap = ('<?xml version="1.0" encoding="UTF-8"?>'
               '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
               f"<url><loc>{base}/</loc></url></urlset>")
    pages = {
        # robots is probed https-first (status 0 falls back to http);
        # ScriptedWeb 404s unknown URLs, so declare robots on BOTH
        "https://trap.test/robots.txt": (
            200, f"User-agent: *\nSitemap: {base}/sitemap.xml\n"),
        f"{base}/sitemap.xml": (200, sitemap),
        f"{base}/": (200,
                     "<html><head><title>t</title></head><body><main>"
                     f'{cal}<a href="/about">about</a>'
                     '<a href="/team">team</a></main></body></html>'),
        f"{base}/about": (200, leaf),
        f"{base}/team": (200, leaf),
    }
    for m in range(1, 13):
        pages[f"{base}/cal/2020-{m:02d}-01"] = (200, leaf)
    return pages


def test_trap_guard_parity_and_cut(ray_session, tmp_path):
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    seeds = ["http://trap.test/"]
    cfg = EngineConfig(max_rounds=3, max_depth=2, seen_shards=2,
                       requests_per_second=100.0,
                       round_seconds=1.0, trap_links_per_template=2)
    from markdown_lab_ray.sources.synth import ScriptedWeb

    pages = _trap_site()
    oracle = run_crawl_oracle(ScriptedWeb(pages).resolve, seeds, cfg)
    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: ScriptedWeb(pages), seeds, out, cfg)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    # guard engaged: exactly 2 of the 12 calendar URLs ever scheduled
    cal = [loc for loc in order["loc"] if "/cal/" in loc]
    assert cal == ["http://trap.test/cal/2020-01-01",
                   "http://trap.test/cal/2020-02-01"]
    # non-trap links untouched
    assert any("/about" in loc for loc in order["loc"])
    assert any("/team" in loc for loc in order["loc"])
    assert result.fetched == oracle["fetched"]

    # guard off: all 12 calendar pages crawl (and parity still holds)
    cfg_off = EngineConfig(max_rounds=3, max_depth=2, seen_shards=2,
                           requests_per_second=100.0,
                           round_seconds=1.0)
    oracle_off = run_crawl_oracle(ScriptedWeb(pages).resolve, seeds, cfg_off)
    out_off = str(tmp_path / "crawl_off")
    run_crawl_ray(lambda: ScriptedWeb(pages), seeds, out_off, cfg_off)
    order_off = read_crawl_order(out_off)
    assert order_off["loc"].tolist() == oracle_off["order"]
    assert sum("/cal/" in loc for loc in order_off["loc"]) == 12


def test_crawl_convert_parses_each_page_once(monkeypatch):
    """One parse per 200 page gives both its Document and its links;
    failed and redirected pages are not parsed at all.  The same body
    on two URLs is parsed twice: links resolve against each page's own
    base URL."""
    import pyarrow as pa

    import markdown_lab_ray.kernels.html_kernels as html_kernels
    from markdown_lab_ray.pipelines.crawl import crawl_convert_batch

    calls = {"n": 0}
    real = html_kernels.parse_html

    def counting(html):
        calls["n"] += 1
        return real(html)

    monkeypatch.setattr(html_kernels, "parse_html", counting)
    body = ("<html><head><title>T</title></head><body><main>"
            '<p>hello</p><a href="/y">y</a></main></body></html>')
    batch = pa.table({
        "loc": ["http://a.test/x", "http://b.test/x", "http://a.test/gone",
                "http://a.test/old"],
        "host": ["a.test", "b.test", "a.test", "a.test"],
        "depth": [0, 0, 0, 0],
        "status": pa.array([200, 200, 404, 301], pa.int32()),
        "html": [body, body, "not found", "/new"],
    })
    out = crawl_convert_batch(batch)
    assert calls["n"] == 2
    links = out.column("links").to_pylist()
    assert links[0] == ["http://a.test/y"]
    assert links[1] == ["http://b.test/y"]
    assert links[2] == []
    assert links[3] == ["http://a.test/new"]
    assert out.column("title").to_pylist() == ["T", "T", "No Title",
                                               "No Title"]


def test_robots_wildcards_and_allow_precedence():
    from markdown_lab_ray.state.robots import parse_robots

    r = parse_robots(
        "User-agent: *\n"
        "Disallow: /private\n"          # plain prefix (old semantics)
        "Disallow: /*.pdf$\n"           # wildcard + end anchor
        "Disallow: /shop/\n"
        "Allow: /shop/sale\n"           # longer match overrides
        "Disallow: /a*b\n")
    assert not r.allows("http://x.test/private/page")
    assert r.allows("http://x.test/pub/page")
    assert not r.allows("http://x.test/docs/file.pdf")
    assert r.allows("http://x.test/docs/file.pdfx")   # $ anchors end
    assert not r.allows("http://x.test/shop/cart")
    assert r.allows("http://x.test/shop/sale/item")   # Allow wins (longer)
    assert not r.allows("http://x.test/aXYZb")        # * spans chars
    # query participates in matching (RFC 9309 path+query target)
    r2 = parse_robots("User-agent: *\nDisallow: /s?*session=\n")
    assert not r2.allows("http://x.test/s?a=1&session=42")
    assert r2.allows("http://x.test/s?a=1")
    # tie length: Allow beats Disallow
    r3 = parse_robots("User-agent: *\nDisallow: /p\nAllow: /p\n")
    assert r3.allows("http://x.test/p/x")


def test_freshness_priority_parity_and_reorder(ray_session, tmp_path):
    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(seed=5, n_hosts=3, pages_per_host=12)
    # small budget so ordering (not just membership) is visible
    cfg = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                       max_rounds=2, max_depth=1, seen_shards=2)
    base = run_crawl_oracle(SyntheticWeb(spec).resolve, spec.seed_urls(),
                            cfg)
    fresh = run_crawl_oracle(SyntheticWeb(spec).resolve, spec.seed_urls(),
                             cfg, freshness_priority=True)
    # the synthetic sitemaps carry changefreq values → order must move
    assert base["order"] != fresh["order"]
    assert base["seen"] != fresh["seen"] or base["order"] != fresh["order"]
    out = str(tmp_path / "crawl")
    run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), out, cfg,
                  freshness_priority=True)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == fresh["order"]
    assert set(order["seen_key"]) == fresh["seen"]

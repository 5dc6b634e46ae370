"""HttpResolver over a local http.server fixture (hermetic — no
external network): retry taxonomy, HEAD, and an end-to-end Ray crawl
over localhost matching the sequential oracle."""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.http import HttpResolver


def _site(base: str) -> dict:
    """path -> (status, content_type, body).  Three linked pages, a
    robots-declared sitemap, one disallowed area, one binary blob."""
    page = (
        "<html><head><title>Page {n}</title></head><body>"
        "<main><h1>Page {n}</h1><p>content {n}</p>"
        '<a href="/page/{next}">next</a>'
        '<a href="/private/secret">secret</a></main></body></html>')
    sitemap = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
        + "".join(f"<url><loc>{base}/page/{n}</loc></url>" for n in range(3))
        + "</urlset>")
    site = {
        "/robots.txt": (200, "text/plain",
                        "User-agent: *\nDisallow: /private\n"
                        f"Sitemap: {base}/sitemap.xml\n"),
        "/sitemap.xml": (200, "application/xml", sitemap),
        "/blob.bin": (200, "application/octet-stream", b"\x00\x01\x02\xff"),
    }
    for n in range(3):
        site[f"/page/{n}"] = (200, "text/html",
                              page.format(n=n, next=(n + 1) % 3))
    return site


class _Handler(BaseHTTPRequestHandler):
    site: dict = {}
    flaky_fails = 2
    counters: dict = {}
    lock = threading.Lock()

    def _lookup(self):
        if self.path == "/flaky":
            with self.lock:
                n = self.counters["flaky"] = self.counters.get("flaky", 0) + 1
            if n <= self.flaky_fails:
                return 503, "text/plain", "overloaded"
            return 200, "text/plain", "recovered"
        return self.site.get(self.path, (404, "text/plain", ""))

    def _respond(self, with_body: bool):
        import hashlib

        status, ctype, body = self._lookup()
        data = body.encode() if isinstance(body, str) else body
        etag = hashlib.md5(data).hexdigest()
        if (status == 200
                and self.headers.get("If-None-Match") == etag):
            self.send_response(304)
            self.end_headers()
            return
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        if status == 200:
            self.send_header("ETag", etag)
        self.end_headers()
        if with_body:
            self.wfile.write(data)

    def do_GET(self):
        self._respond(True)

    def do_HEAD(self):
        self._respond(False)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_site():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    base = f"http://127.0.0.1:{server.server_port}"
    _Handler.site = _site(base)
    _Handler.counters = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield base
    server.shutdown()
    server.server_close()


def test_resolve_text_binary_and_404(http_site):
    with HttpResolver(sleeper=lambda s: None) as web:
        status, body = web.resolve(f"{http_site}/page/0")
        assert status == 200 and "Page 0" in body and isinstance(body, str)
        status, blob = web.resolve(f"{http_site}/blob.bin")
        assert status == 200 and blob == b"\x00\x01\x02\xff"
        status, body = web.resolve(f"{http_site}/nope")
        assert status == 404 and body == ""  # non-retryable: no retries


def test_retryable_status_backs_off_then_succeeds(http_site):
    sleeps = []
    _Handler.counters.pop("flaky", None)
    with HttpResolver(max_retries=3, sleeper=sleeps.append) as web:
        status, body = web.resolve(f"{http_site}/flaky")
    assert (status, body) == (200, "recovered")
    assert sleeps == [1.0, 2.0]  # 2**attempt exponential backoff


def test_retries_exhausted_becomes_status_row(http_site):
    _Handler.counters.pop("flaky", None)
    with HttpResolver(max_retries=1, sleeper=lambda s: None) as web:
        status, body = web.resolve(f"{http_site}/flaky")
    assert (status, body) == (503, "")


def test_connection_failure_becomes_status_zero():
    with HttpResolver(max_retries=0, timeout=0.5,
                      sleeper=lambda s: None) as web:
        # RFC 5737 TEST-NET address: unroutable, fails fast
        status, body = web.resolve("http://127.0.0.1:1/never")
    assert (status, body) == (0, "")


def test_head_status_and_headers(http_site):
    with HttpResolver(sleeper=lambda s: None) as web:
        status, headers = web.head(f"{http_site}/page/1")
    assert status == 200
    assert int(headers["content-length"]) > 0
    assert headers["content-type"] == "text/html"


def test_ray_crawl_over_localhost_matches_oracle(http_site, ray_session,
                                                 tmp_path):
    """The north-rule gate over a REAL socket: crawl order + URL-seen
    set of the Ray engine equal the sequential oracle's."""
    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    cfg = EngineConfig(requests_per_second=0.05, round_seconds=60.0,
                       max_rounds=3, max_depth=2, seen_shards=2)
    # max_retries=0: the https→http robots fallback's first probe fails
    # at connection level; retrying it would only add backoff sleeps
    oracle = run_crawl_oracle(HttpResolver(max_retries=0).resolve,
                              [http_site], cfg)
    assert oracle["fetched"] > 0

    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: HttpResolver(max_retries=0),
                           [http_site], out, cfg)
    order = read_crawl_order(out)
    assert order["loc"].tolist() == oracle["order"]
    assert set(order["seen_key"]) == oracle["seen"]
    assert result.fetched == oracle["fetched"]
    assert result.failed == oracle["failed"]
    # robots Disallow honored: the /private link never scheduled
    assert not any("/private" in loc for loc in order["loc"])


def test_resolve_full_and_conditional_304(http_site):
    with HttpResolver(max_retries=0) as r:
        status, body, etag = r.resolve_full(f"{http_site}/page/0")
        assert status == 200 and "Page 0" in body and etag
        # unchanged → 304, empty body, same validator
        assert r.resolve_conditional(f"{http_site}/page/0", etag) == \
            (304, "", etag)
        # stale validator → full 200 answer with the current etag
        s2, b2, e2 = r.resolve_conditional(f"{http_site}/page/0", "stale")
        assert (s2, b2, e2) == (200, body, etag)
        # non-200 carries no etag
        s404, _, e404 = r.resolve_full(f"{http_site}/nope")
        assert (s404, e404) == (404, None)


def test_cached_resolver_revalidates_over_http(http_site):
    from markdown_lab_ray.state.cache import CachedResolver

    clock = {"t": 0.0}
    with HttpResolver(max_retries=0) as r:
        cache = CachedResolver(r.resolve, ttl=10.0,
                               clock=lambda: clock["t"],
                               full_fn=r.resolve_full,
                               conditional_fn=r.resolve_conditional)
        url = f"{http_site}/page/1"
        s1, b1 = cache.resolve(url)
        assert s1 == 200 and cache.misses == 1
        clock["t"] = 5.0           # fresh → pure cache hit
        assert cache.resolve(url) == (s1, b1) and cache.hits == 1
        clock["t"] = 20.0          # expired → 304 revalidation
        assert cache.resolve(url) == (s1, b1)
        assert cache.revalidated == 1 and cache.misses == 1
        assert cache.has_fresh(url)  # TTL refreshed by the 304

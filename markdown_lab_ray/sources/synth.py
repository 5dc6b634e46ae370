"""Deterministic synthetic web corpus (FIXTURES.md §1-2, no external data).

The "web" is a pure function of (spec, url): robots.txt bodies, sitemap
XML (urlset / two-level sitemapindex / robots-declared / well-known
probed), page HTML exercising every element class the parser handles,
and image bytes via the fake codec.  Because content is derived, not
stored, a fetch task can serve any URL of a 10^10-URL frontier in O(1)
with zero storage — the scale path the crawl engine is designed for.

Host layout (spec.n_hosts hosts, ``h{i:03d}.example.com``):
- ``i % 3 == 0`` robots.txt declares ``/custom_sitemap.xml``
- ``i % 3 == 1`` robots.txt exists but has no Sitemap lines → the four
  well-known locations are probed in order (ref sitemap_utils.py:325-348)
- ``i % 3 == 2`` no robots.txt (404) → well-known probing; of these,
  ``i % 6 == 5`` hosts 404 ``/sitemap.xml`` and serve a two-level
  ``sitemap_index.xml`` instead (probe-order + recursion coverage)

Images live on ``img.example.com/{image_id}.{fmt}``; page ``<img>`` alt
text equals the table caption (the caption-equality invariant).  Every
10th image is a near-duplicate of its predecessor (phash/minhash
positives).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..stages.images import FORMATS, fake_decode, fake_encode, perceptual_hash, synth_pixels
from ..stages.schemas import IMAGES_SCHEMA

_WORDS = (
    "data model system process analysis function method algorithm stream "
    "table batch row column merge join sort filter window hash key value "
    "graph node edge crawl fetch parse render chunk index shard actor "
    "Spark Tokyo Berlin Amsterdam quartz velvet orbit lantern meadow"
).split()

_CHANGEFREQ = ["daily", "weekly", "monthly", None]


def _rng_for(*parts) -> np.random.RandomState:
    key = ":".join(str(p) for p in parts)
    return np.random.RandomState(zlib.crc32(key.encode()) & 0x7FFFFFFF)


def _words(rng: np.random.RandomState, n: int) -> str:
    return " ".join(_WORDS[i] for i in rng.randint(0, len(_WORDS), n))


@dataclass(frozen=True)
class SiteSpec:
    n_hosts: int = 9
    pages_per_host: int = 40
    n_images: int = 300
    seed: int = 42
    image_size_min: int = 16
    image_size_max: int = 40
    # every Nth host with a robots.txt declares ``Crawl-delay:
    # crawl_delay_seconds`` (0 = no host does; keeps the default web,
    # and every fixture derived from it, unchanged)
    crawl_delay_every: int = 0
    crawl_delay_seconds: float = 1.0
    # every Nth host serves ``error_status`` for all PAGE urls (robots
    # and sitemaps still work, so the host gets discovered + scheduled
    # and then fails every fetch — the circuit-breaker scenario).
    # 0 = no host fails (default web unchanged).
    error_host_every: int = 0
    error_status: int = 503

    # every Nth page per host 301-redirects instead of serving HTML
    # (0 = no redirects; default web and derived fixtures unchanged).
    # Every second redirecting page points CROSS-HOST so the frontier
    # path's politeness/seen handling of foreign targets is exercised.
    redirect_every: int = 0

    def is_error_host(self, host_i: int) -> bool:
        return (self.error_host_every > 0
                and host_i % self.error_host_every == 0)

    def is_redirect_page(self, page_j: int) -> bool:
        return (self.redirect_every > 0 and page_j > 0
                and page_j % self.redirect_every == 0)

    def redirect_target_url(self, host_i: int, page_j: int) -> str:
        cross = (page_j % (2 * self.redirect_every)) == 0
        target_host = (host_i + 1) % self.n_hosts if cross else host_i
        return self.page_url(target_host,
                             (page_j + 1) % self.pages_per_host)

    def host(self, i: int) -> str:
        return f"h{i:03d}.example.com"

    def hosts(self) -> list[str]:
        return [self.host(i) for i in range(self.n_hosts)]

    def page_url(self, host_i: int, page_j: int) -> str:
        return f"https://{self.host(host_i)}/page/{page_j}"

    def seed_urls(self) -> list[str]:
        return [f"https://{h}" for h in self.hosts()]

    def image_id(self, k: int) -> str:
        return f"img{k % self.n_images:06d}"


# ---------------------------------------------------------------------------
# images table
# ---------------------------------------------------------------------------

def image_meta(spec: SiteSpec, k: int) -> tuple[str, int, int, str, str]:
    """(image_id, w, h, fmt, caption) for image index k."""
    image_id = spec.image_id(k)
    rng = _rng_for("imgmeta", spec.seed, image_id)
    w = int(rng.randint(spec.image_size_min, spec.image_size_max + 1))
    h = int(rng.randint(spec.image_size_min, spec.image_size_max + 1))
    fmt = FORMATS[k % len(FORMATS)]
    caption = _words(rng, 5 + k % 4)
    return image_id, w, h, fmt, caption


def image_pixels(spec: SiteSpec, k: int) -> np.ndarray:
    image_id, w, h, _, _ = image_meta(spec, k)
    if k % 10 == 9 and k > 0:
        # near-duplicate: predecessor's base pixels + tiny deterministic noise
        pid, pw, ph, _, _ = image_meta(spec, k - 1)
        base = synth_pixels(pid, pw, ph, spec.seed).astype(np.int16)
        rng = _rng_for("neardup", spec.seed, image_id)
        jitter = rng.randint(-2, 3, size=base.shape)
        return np.clip(base + jitter, 0, 255).astype(np.uint8)
    return synth_pixels(image_id, w, h, spec.seed)


def image_bytes(spec: SiteSpec, k: int) -> bytes:
    _, _, _, fmt, _ = image_meta(spec, k)
    return fake_encode(image_pixels(spec, k), fmt)


def build_images_table(spec: SiteSpec) -> pa.Table:
    """The graft input table (input_hint schema).  ``phash`` is computed
    on the decoded round-trip so it matches what a consumer computes."""
    ids, blobs, ws, hs, fmts, captions, phashes = [], [], [], [], [], [], []
    for k in range(spec.n_images):
        image_id, w, h, fmt, caption = image_meta(spec, k)
        blob = image_bytes(spec, k)
        pixels = image_pixels(spec, k)
        if k % 10 == 9 and k > 0:  # near-dup keeps predecessor's dimensions
            h, w = pixels.shape[:2]
        decoded, _ = fake_decode(blob)
        ids.append(image_id)
        blobs.append(blob)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        captions.append(caption)
        phashes.append(perceptual_hash(decoded))
    return pa.table({
        "image_id": ids, "bytes": blobs, "w": ws, "h": hs,
        "fmt": fmts, "caption": captions, "phash": phashes,
    }, schema=IMAGES_SCHEMA)


def reference_pixels_fn(spec: SiteSpec):
    """Reference-decode function for ``DecodeValidate`` over this corpus:
    reproduces near-dup derivations (``image_id`` encodes the index)."""
    def ref(image_id: str, w: int, h: int) -> np.ndarray:
        return image_pixels(spec, int(image_id[3:]))
    return ref


def page_image_indices(spec: SiteSpec, host_i: int, page_j: int) -> list[int]:
    rng = _rng_for("pageimgs", spec.seed, host_i, page_j)
    n = int(rng.randint(1, 4))
    return [int(x) for x in rng.randint(0, spec.n_images, n)]


# ---------------------------------------------------------------------------
# site content
# ---------------------------------------------------------------------------

def robots_body(spec: SiteSpec, host_i: int) -> str | None:
    delay = ""
    if (spec.crawl_delay_every > 0
            and host_i % spec.crawl_delay_every == 0):
        delay = f"Crawl-delay: {spec.crawl_delay_seconds:g}\n"
    if host_i % 3 == 0:
        host = spec.host(host_i)
        return (f"User-agent: *\nDisallow: /private\n{delay}"
                f"Sitemap: https://{host}/custom_sitemap.xml\n")
    if host_i % 3 == 1:
        return f"User-agent: *\nDisallow: /private\n{delay}"
    return None  # 404


def _sitemap_entry(spec: SiteSpec, host_i: int, page_j: int) -> str:
    loc = spec.page_url(host_i, page_j)
    parts = [f"  <url>\n    <loc>{loc}</loc>\n"]
    if page_j % 7 != 0:
        parts.append(f"    <priority>{((page_j * 13) % 10) / 10:.1f}</priority>\n")
    if page_j % 5 != 4:
        parts.append(f"    <lastmod>2023-{1 + page_j % 9:02d}-{10 + page_j % 18}</lastmod>\n")
    freq = _CHANGEFREQ[page_j % len(_CHANGEFREQ)]
    if freq:
        parts.append(f"    <changefreq>{freq}</changefreq>\n")
    parts.append("  </url>\n")
    return "".join(parts)


def _urlset(entries: list[str]) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
            + "".join(entries) + "</urlset>\n")


def _uses_index(spec: SiteSpec, host_i: int) -> bool:
    return host_i % 3 == 2 and host_i % 6 == 5


def sitemap_body(spec: SiteSpec, host_i: int, path: str) -> str | None:
    """Sitemap XML for (host, path), or None (404)."""
    host = spec.host(host_i)
    pages = range(spec.pages_per_host)

    if host_i % 3 == 0:
        if path == "/custom_sitemap.xml":
            return _urlset([_sitemap_entry(spec, host_i, j) for j in pages])
        return None
    if _uses_index(spec, host_i):
        if path == "/sitemap.xml":
            return None  # force the second well-known probe
        if path == "/sitemap_index.xml":
            return ('<?xml version="1.0" encoding="UTF-8"?>\n'
                    '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
                    f"  <sitemap><loc>https://{host}/sitemap_a.xml</loc></sitemap>\n"
                    f"  <sitemap><loc>https://{host}/sitemap_b.xml</loc></sitemap>\n"
                    "</sitemapindex>\n")
        half = spec.pages_per_host // 2
        if path == "/sitemap_a.xml":
            return _urlset([_sitemap_entry(spec, host_i, j) for j in pages[:half]])
        if path == "/sitemap_b.xml":
            return _urlset([_sitemap_entry(spec, host_i, j) for j in pages[half:]])
        return None
    if path == "/sitemap.xml":
        return _urlset([_sitemap_entry(spec, host_i, j) for j in pages])
    return None


def page_html(spec: SiteSpec, host_i: int, page_j: int) -> str:
    host = spec.host(host_i)
    url = spec.page_url(host_i, page_j)
    rng = _rng_for("page", spec.seed, url)
    n_pages = spec.pages_per_host

    paragraphs = "\n".join(
        f"<p>{_words(rng, 20 + int(rng.randint(0, 30)))}.</p>"
        for _ in range(2 + page_j % 3)
    )

    body_links = [
        f'<a href="/page/{(page_j + 1) % n_pages}">next {(page_j + 1) % n_pages}</a>',
        f'<a href="/page/{(page_j * 7 + 3) % n_pages}">see {(page_j * 7 + 3) % n_pages}</a>',
    ]
    if page_j % 5 == 0:
        other = (host_i + 1 + page_j) % spec.n_hosts
        body_links.append(
            f'<a href="{spec.page_url(other, page_j % n_pages)}">friend</a>')
    body_links.append('<a href="javascript:void(0)">js-trap</a>')
    body_links.append('<a href="#top">top</a>')

    images = []
    for k in page_image_indices(spec, host_i, page_j):
        image_id, _, _, fmt, caption = image_meta(spec, k)
        images.append(
            f'<img src="https://img.example.com/{image_id}.{fmt}" alt="{caption}">')

    items = "".join(f"<li>{_words(rng, 3)}</li>" for _ in range(3))
    code = f"def f_{page_j}():\n    return {page_j * 17}"

    return f"""<html><head><title>Page {page_j} — {host}</title>
<script>track({page_j});</script><style>.x{{color:red}}</style></head>
<body>
<nav><a href="/page/0">home</a></nav>
<header>site header</header>
<main>
<h1>Page {page_j} on {host}</h1>
<h2>Overview</h2>
{paragraphs}
{' '.join(body_links)}
{' '.join(images)}
<ul>{items}</ul>
<ol><li>first</li><li>second</li></ol>
<pre><code class="language-python">{code}</code></pre>
<blockquote>{_words(rng, 8)}</blockquote>
<h3>Notes {page_j}</h3>
<p>Numbers {page_j * 11} and {page_j * 13} appear here.</p>
</main>
<div class="ad">BUY {page_j}</div>
<div class="sidebar">sidebar junk</div>
<footer>footer {host}</footer>
</body></html>"""


# ---------------------------------------------------------------------------
# the "network"
# ---------------------------------------------------------------------------

class SyntheticWeb:
    """Pure-function web: ``resolve(url) -> (status, body)``.

    Body is ``str`` for text resources, ``bytes`` for images.  Unknown
    URLs → (404, "").  Cheap to hold per worker process (it stores only
    the spec; content is derived on demand).
    """

    def __init__(self, spec: SiteSpec, version: int = 0):
        self.spec = spec
        self._host_index = {spec.host(i): i for i in range(spec.n_hosts)}
        # bumping ``version`` simulates content change for the ETag /
        # revalidation path: page bodies gain a version comment (v > 0
        # only, so default behavior is byte-identical to before)
        self.version = version

    def resolve(self, url: str):
        return self._versioned(*self._resolve_raw(url))

    def _resolve_raw(self, url: str):
        from urllib.parse import urlsplit
        parts = urlsplit(url)
        host, path = parts.netloc, parts.path or "/"

        if host == "img.example.com":
            name = path.rsplit("/", 1)[-1]
            stem = name.rsplit(".", 1)[0]
            if stem.startswith("img") and stem[3:].isdigit():
                k = int(stem[3:])
                if k < self.spec.n_images:
                    return 200, image_bytes(self.spec, k)
            return 404, b""

        host_i = self._host_index.get(host)
        if host_i is None:
            return 404, ""
        if path == "/robots.txt":
            body = robots_body(self.spec, host_i)
            return (200, body) if body is not None else (404, "")
        if path.endswith(".xml"):
            body = sitemap_body(self.spec, host_i, path)
            return (200, body) if body is not None else (404, "")
        if path.startswith("/page/"):
            tail = path[len("/page/"):]
            if tail.isdigit() and int(tail) < self.spec.pages_per_host:
                if self.spec.is_error_host(host_i):
                    return self.spec.error_status, ""
                if self.spec.is_redirect_page(int(tail)):
                    # 301 body IS the Location (the resolver contract)
                    return 301, self.spec.redirect_target_url(
                        host_i, int(tail))
                return 200, page_html(self.spec, host_i, int(tail))
        if path == "/":
            if self.spec.is_error_host(host_i):
                return self.spec.error_status, ""
            return 200, page_html(self.spec, host_i, 0)
        return 404, ""

    @staticmethod
    def etag_for(body) -> str:
        """Strong validator: md5 of the exact payload bytes."""
        import hashlib

        raw = body if isinstance(body, bytes) else str(body).encode()
        return hashlib.md5(raw).hexdigest()

    def _versioned(self, status: int, body):
        if (self.version and status == 200 and isinstance(body, str)
                and body.startswith("<")):
            body = body + f"<!-- v{self.version} -->"
        return status, body

    def resolve_full(self, url: str):
        """GET with validator: (status, body, etag) — etag only on 200
        (the CachedResolver revalidation contract).  ``resolve`` applies
        the same version suffix, so both entry points see one
        consistent web."""
        status, body = self.resolve(url)
        return status, body, (self.etag_for(body) if status == 200
                              else None)

    def resolve_conditional(self, url: str, etag: str):
        """Conditional GET (If-None-Match): 304 with empty body when the
        current payload still matches ``etag``, else the full answer."""
        status, body, new_etag = self.resolve_full(url)
        if status == 200 and new_etag == etag:
            return 304, "", etag
        return status, body, new_etag

    def head(self, url: str):
        """HEAD: status + headers, no body (reference client.py:100-114).
        Synthetic headers derive from the body the GET would return."""
        status, body = self.resolve(url)
        if isinstance(body, bytes):
            ctype = "application/octet-stream"
            length = len(body)
        else:
            ctype = ("application/xml" if url.endswith(".xml")
                     else "text/html")
            length = len(body.encode())
        headers = {"content-type": ctype, "content-length": length}
        if 300 <= status < 400 and isinstance(body, str) and body:
            headers["location"] = body
        return status, headers


class ScriptedWeb:
    """Minimal dict-backed resolver for tests and examples:
    ``pages`` maps full URL → (status, body); everything else is 404.
    Picklable plain state, so fetch tasks can ship one."""

    def __init__(self, pages: dict):
        self.pages = dict(pages)

    def resolve(self, url: str):
        return self.pages.get(url, (404, ""))

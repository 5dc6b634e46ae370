from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb
from markdown_lab_ray.state.cache import CachedResolver


def test_cached_resolver_hit_miss_ttl():
    calls = []

    def source(url):
        calls.append(url)
        return 200, f"body:{url}"

    clock = {"t": 0.0}
    cache = CachedResolver(source, ttl=10.0, clock=lambda: clock["t"])
    assert cache.resolve("u1") == (200, "body:u1")
    assert cache.resolve("u1") == (200, "body:u1")  # hit
    assert calls == ["u1"]
    assert cache.hits == 1 and cache.misses == 1
    clock["t"] = 11.0  # expire
    cache.resolve("u1")
    assert calls == ["u1", "u1"]


def test_cached_resolver_byte_cap_eviction():
    def source(url):
        return 200, "x" * 100

    cache = CachedResolver(source, ttl=1e9, max_bytes=250,
                           clock=lambda: 0.0)
    for u in ("a", "b", "c"):  # 300 bytes > cap → oldest evicted
        cache.resolve(u)
    assert cache.stats()["entries"] == 2
    cache.resolve("a")  # re-fetch (was evicted)
    assert cache.misses == 4


def test_cached_resolver_over_synthetic_web():
    spec = SiteSpec(n_hosts=2, pages_per_host=4)
    cache = CachedResolver(SyntheticWeb(spec).resolve, ttl=1e9)
    url = spec.page_url(0, 1)
    first = cache.resolve(url)
    second = cache.resolve(url)
    assert first == second and cache.hit_rate == 0.5


def test_synthetic_web_conditional_revalidation():
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(seed=7, n_hosts=1, pages_per_host=2)
    web = SyntheticWeb(spec)
    url = f"https://{spec.host(0)}/page/0"
    status, body, etag = web.resolve_full(url)
    assert status == 200 and etag == web.etag_for(body)
    assert web.resolve_conditional(url, etag) == (304, "", etag)
    # bump the content version: validator must miss, body must change
    web.version = 1
    s2, b2, e2 = web.resolve_conditional(url, etag)
    assert (s2, e2 != etag) == (200, True)
    assert b2.endswith("<!-- v1 -->") and b2 != body
    # resolve() sees the same versioned web (one consistent surface)
    assert web.resolve(url) == (200, b2)
    # non-200 paths carry no validator
    s404, _, e404 = web.resolve_full(f"https://{spec.host(0)}/nope")
    assert (s404, e404) == (404, None)


def test_cached_resolver_revalidation_paths():
    from markdown_lab_ray.state.cache import CachedResolver

    calls = {"full": 0, "cond": 0}
    content = {"v": "body-1"}

    def full(url):
        calls["full"] += 1
        return 200, content["v"], f"etag-{content['v']}"

    def cond(url, etag):
        calls["cond"] += 1
        if etag == f"etag-{content['v']}":
            return 304, "", etag
        return full(url)

    clock = {"t": 0.0}
    cache = CachedResolver(lambda u: (_ for _ in ()).throw(
        AssertionError("resolve_fn must not be called when full_fn set")),
        ttl=10.0, clock=lambda: clock["t"], full_fn=full,
        conditional_fn=cond)
    assert cache.resolve("u") == (200, "body-1")
    assert calls == {"full": 1, "cond": 0}
    clock["t"] = 20.0          # expired, unchanged → 304 refresh
    assert cache.resolve("u") == (200, "body-1")
    assert calls == {"full": 1, "cond": 1}
    assert cache.revalidated == 1 and cache.stats()["revalidated"] == 1
    assert cache.has_fresh("u")
    clock["t"] = 40.0          # expired, CHANGED → conditional full answer
    content["v"] = "body-2"
    assert cache.resolve("u") == (200, "body-2")
    assert calls == {"full": 2, "cond": 2}  # cond delegated to full
    assert cache.misses == 2 and cache.revalidated == 1
    clock["t"] = 45.0          # fresh again
    assert cache.resolve("u") == (200, "body-2") and cache.hits == 1

"""Robots rules: parsing + per-host cache.

The reference only scans robots.txt for ``Sitemap:`` lines
(``sitemap_utils.py:94-127``); the north rule calls for robots cache
actors with an allow check, so this adds minimal ``Disallow:`` prefix
handling for ``User-agent: *`` groups (the only agent the engine sends).

``RobotsRules`` is the pure parsed form; ``RobotsCacheActor`` (created
via ``create_robots_cache``) memoizes one fetch per host.  Stages that
hold a fetcher locally (the synthetic web) can use ``LocalRobotsCache``
without actor hops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..kernels.sitemap import sitemaps_from_robots

_PATTERN_CACHE: dict[str, re.Pattern] = {}


def _rule_regex(pattern: str) -> re.Pattern:
    """RFC 9309 rule → anchored regex: ``*`` matches any octet
    sequence, a trailing ``$`` anchors the end; everything else is
    literal.  Matches from the start of path(+query) — plain-prefix
    rules behave exactly as the old ``startswith``."""
    rx = _PATTERN_CACHE.get(pattern)
    if rx is None:
        body = pattern[:-1] if pattern.endswith("$") else pattern
        parts = [re.escape(p) for p in body.split("*")]
        rx = re.compile("^" + ".*".join(parts)
                        + ("$" if pattern.endswith("$") else ""))
        _PATTERN_CACHE[pattern] = rx
    return rx


def _rule_octets(pattern: str) -> int:
    """RFC 9309 specificity length of a rule.  A trailing ``$`` anchor
    matches zero octets, so it is excluded (an anchored rule must not
    outrank its unanchored twin on a tie).  ``*`` wildcards ARE counted
    — google/robotstxt (the de-facto reference implementation by the
    RFC's authors) ranks by raw pattern length, so ``Disallow: /p*``
    outranks ``Allow: /p`` and the page stays blocked; for a polite
    crawler the conservative (block-on-ambiguity) reading is the safe
    one."""
    return len(pattern) - (1 if pattern.endswith("$") else 0)


@dataclass
class RobotsRules:
    sitemaps: list[str] = field(default_factory=list)
    disallow: list[str] = field(default_factory=list)
    allow: list[str] = field(default_factory=list)
    fetched: bool = False  # False → robots.txt was absent (everything allowed)
    crawl_delay: float | None = None  # UA:* Crawl-delay seconds (None = none)

    def allows(self, url: str) -> bool:
        """RFC 9309 precedence: the LONGEST matching rule wins (octet
        length of the pattern), Allow beating Disallow on ties; no
        match → allowed.  ``*``/``$`` wildcards supported in both rule
        kinds.  Specificity counts the pattern's octets with the
        trailing ``$`` anchor excluded (it matches zero octets, so a
        ``$``-anchored rule gains nothing over an unanchored one on a
        tie) and ``*`` counted, matching google/robotstxt's raw-length
        ranking — mixed Allow/Disallow wildcard ties resolve the way
        major crawlers resolve them (block).  The match target is
        path + '?query' when present."""
        parts = urlsplit(url)
        target = (parts.path or "/") + (
            f"?{parts.query}" if parts.query else "")
        best_len, best_allow = -1, True
        for is_allow, rules in ((False, self.disallow),
                                (True, self.allow)):
            for rule in rules:
                if rule and _rule_regex(rule).match(target):
                    n = _rule_octets(rule)
                    if n > best_len or (n == best_len and is_allow):
                        best_len, best_allow = n, is_allow
        return best_allow


def parse_robots(body: str) -> RobotsRules:
    """Parse sitemap lines plus Allow / Disallow / Crawl-delay rules in
    ``User-agent: *`` groups (invalid or non-positive delays ignored —
    the de-facto standard big crawlers follow)."""
    rules = RobotsRules(sitemaps=sitemaps_from_robots(body), fetched=True)
    applies = False
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field_name, value = line.split(":", 1)
        field_name = field_name.strip().lower()
        value = value.strip()
        if field_name == "user-agent":
            applies = value == "*"
        elif field_name == "disallow" and applies and value:
            rules.disallow.append(value)
        elif field_name == "allow" and applies and value:
            rules.allow.append(value)
        elif field_name == "crawl-delay" and applies and value:
            try:
                delay = float(value)
            except ValueError:
                continue
            if delay > 0:
                rules.crawl_delay = delay
    return rules


class LocalRobotsCache:
    """host → RobotsRules, fetching each host's robots.txt once through
    the provided resolver (``resolve(url) -> (status, body)``)."""

    def __init__(self, resolve_fn):
        self.resolve_fn = resolve_fn
        self.cache: dict[str, RobotsRules] = {}

    def rules_for(self, host: str) -> RobotsRules:
        rules = self.cache.get(host)
        if rules is None:
            status, body = self.resolve_fn(f"https://{host}/robots.txt")
            if status == 0:
                # connection-level failure (real-network resolvers return
                # status 0; http-only hosts can't serve https): retry the
                # plain-http scheme before concluding "no robots.txt"
                status, body = self.resolve_fn(f"http://{host}/robots.txt")
            rules = parse_robots(body) if status == 200 and body else RobotsRules()
            self.cache[host] = rules
        return rules


def create_robots_cache(resolve_fn):
    """Robots cache as a Ray actor (shared across worker processes)."""
    import ray

    @ray.remote(num_cpus=0)  # bookkeeping actor: never reserve a CPU
    class RobotsCacheActor(LocalRobotsCache):
        pass

    return RobotsCacheActor.remote(resolve_fn)


def create_robots_shards(num_shards: int, web_factory):
    """Robots cache as a SHARDED actor tier addressed by
    ``crc32(host) % num_shards`` (north rule: "robots.txt cache
    actors").  Each shard owns its own resolver (built from
    ``web_factory`` inside the actor) and fetches a host's robots.txt
    exactly ONCE cluster-wide — a real-network crawl otherwise
    re-fetches it once per worker process per host.  ``n_fetches``
    exposes the fetch count so tests can assert the exactly-once
    property."""
    import ray

    @ray.remote(num_cpus=0)
    class RobotsShard:
        def __init__(self, factory):
            self.cache = LocalRobotsCache(factory().resolve)
            self.fetches = 0

        def rules_for(self, host: str) -> RobotsRules:
            known = host in self.cache.cache
            rules = self.cache.rules_for(host)
            if not known:
                self.fetches += 1
            return rules

        def n_fetches(self) -> int:
            return self.fetches

    return [RobotsShard.remote(web_factory) for _ in range(num_shards)]


class ActorRobotsCache:
    """Worker-side client for the robots shard tier: two-tier lookup
    (in-process memo → shard actor → one real fetch).  Same
    ``rules_for(host)`` surface as ``LocalRobotsCache``, so the crawl's
    group fns and filter stages take either interchangeably.  Actor
    handles pickle into tasks; the memo bounds RPCs to one per
    (worker process, host)."""

    def __init__(self, shards):
        self.shards = shards
        self.local: dict[str, RobotsRules] = {}

    def rules_for(self, host: str) -> RobotsRules:
        import ray
        import zlib as _z

        rules = self.local.get(host)
        if rules is None:
            shard = self.shards[_z.crc32(host.encode()) % len(self.shards)]
            rules = ray.get(shard.rules_for.remote(host))
            self.local[host] = rules
        return rules

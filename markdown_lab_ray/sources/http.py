"""Real-network resolver for the fetch tier.

Re-expresses the reference ``HttpClient`` (markdown_lab/core/
client.py:49-217: a ``requests.Session`` with custom User-Agent +
connection-pool adapter, ``2**attempt`` exponential backoff, every
failure normalized into the NetworkError taxonomy) behind the
``resolve(url) -> (status, body)`` / ``head(url) -> (status, headers)``
contract the crawl engine's ``FetchStage`` takes — so a real-network
crawl is ``run_crawl_ray(lambda: HttpResolver(...), seeds, ...)`` with
zero engine changes.

Division of labour (SURVEY §2.3): the SESSION + retry/backoff live
here, once per worker process (the crawl's fetch tasks share that
process's resolver, built once from the factory); per-host politeness
pacing and the payload cache stay in the engine (``state/politeness.py``,
``state/cache.py``) — this class never sleeps for rate limiting, only
for backoff.

Terminal failures become STATUS ROWS, never exceptions (S3 per-URL
error tolerance, reference ``get_many`` client.py:116-133): a
connection-level failure after all retries resolves to ``(0, "")``; an
HTTP error status resolves to ``(status, "")``.
"""

from __future__ import annotations

from ..kernels.errors import (
    RETRYABLE_STATUSES,
    HttpStatusError,
    NetworkError,
    retry_with_backoff,
)

DEFAULT_USER_AGENT = "markdown-lab-ray/1.0 (+https://example.invalid/bot)"

_TEXT_HINTS = ("text/", "html", "xml", "json", "javascript")


def _is_text(content_type: str) -> bool:
    ct = (content_type or "").lower()
    return any(h in ct for h in _TEXT_HINTS)


class _StatusOnly:
    """Marker for 'retries exhausted on an HTTP error status'."""

    def __init__(self, status: int):
        self.status = status


class HttpResolver:
    """One per worker process (session state in ``__init__``,
    reference T2).  ``sleeper`` is injectable so tests never sleep
    through the backoff."""

    def __init__(self, timeout: float = 30.0, max_retries: int = 3,
                 backoff_base: float = 2.0,
                 user_agent: str = DEFAULT_USER_AGENT,
                 pool_connections: int = 10, pool_maxsize: int = 20,
                 max_body_bytes: int = 64 << 20, sleeper=None):
        import time

        import requests

        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.sleeper = sleeper or time.sleep
        self.max_body_bytes = max_body_bytes
        session = requests.Session()
        # reference header set (client.py:59-76)
        session.headers.update({
            "User-Agent": user_agent,
            "Accept": ("text/html,application/xhtml+xml,application/xml;"
                       "q=0.9,*/*;q=0.8"),
            "Accept-Language": "en-US,en;q=0.5",
        })
        adapter = requests.adapters.HTTPAdapter(
            pool_connections=pool_connections, pool_maxsize=pool_maxsize)
        session.mount("http://", adapter)
        session.mount("https://", adapter)
        self.session = session

    def _request(self, method: str, url: str, headers=None):
        """requests.Response | _StatusOnly (retryable status exhausted)
        | None (connection-level terminal failure).  ``headers`` are
        per-request extras merged over the session defaults (the
        conditional-GET validators ride through here so revalidation
        gets the same retry/backoff as every other network path)."""
        import requests

        def attempt():
            try:
                # never follow redirects transparently: the crawl
                # frontier owns redirect targets (kernels/urls.py
                # redirect_target) so cross-host hops respect the
                # TARGET host's politeness budget and seen-set
                resp = self.session.request(method, url,
                                            timeout=self.timeout,
                                            allow_redirects=False,
                                            headers=headers)
            except requests.exceptions.RequestException as exc:
                raise NetworkError(str(exc), url=url) from exc
            if resp.status_code in RETRYABLE_STATUSES:
                raise HttpStatusError(url, resp.status_code)
            return resp

        try:
            return retry_with_backoff(
                attempt, max_retries=self.max_retries,
                backoff_base=self.backoff_base, sleeper=self.sleeper)
        except HttpStatusError as exc:
            return _StatusOnly(exc.status)
        except NetworkError:
            return None

    def resolve(self, url: str):
        """GET → (status, body).  Body is ``str`` for text content types
        and ``bytes`` for binary (the SyntheticWeb contract); oversized
        bodies truncate at ``max_body_bytes``."""
        resp = self._request("GET", url)
        if resp is None:
            return 0, ""
        if isinstance(resp, _StatusOnly):
            return resp.status, ""
        return resp.status_code, self._body_of(resp)

    def _body_of(self, resp):
        if 300 <= resp.status_code < 400:
            # resolver contract: a 3xx body IS the Location
            return resp.headers.get("location", "")
        if _is_text(resp.headers.get("content-type", "text/html")):
            return resp.text[: self.max_body_bytes]
        return resp.content[: self.max_body_bytes]

    def resolve_full(self, url: str):
        """GET with validator capture: (status, body, etag) — the
        CachedResolver revalidation contract (etag None unless the
        server sent one on a 200)."""
        resp = self._request("GET", url)
        if resp is None:
            return 0, "", None
        if isinstance(resp, _StatusOnly):
            return resp.status, "", None
        etag = (resp.headers.get("etag")
                if resp.status_code == 200 else None)
        return resp.status_code, self._body_of(resp), etag

    def resolve_conditional(self, url: str, etag: str):
        """Conditional GET: ``If-None-Match`` → (304, "", etag) when the
        server confirms the cached payload is still current.  Routed
        through ``_request`` so a transient 429/503/connection blip
        during revalidation gets the same retry/backoff as a full GET
        (it would otherwise surface a perfectly cached page as a failed
        fetch for the round)."""
        resp = self._request("GET", url,
                             headers={"If-None-Match": etag})
        if resp is None:
            return 0, "", None
        if isinstance(resp, _StatusOnly):
            return resp.status, "", None
        if resp.status_code == 304:
            return 304, "", etag
        new_etag = (resp.headers.get("etag")
                    if resp.status_code == 200 else None)
        return resp.status_code, self._body_of(resp), new_etag

    def head(self, url: str):
        """HEAD → (status, lowercase header dict) — never a body
        (reference client.head, client.py:100-114)."""
        resp = self._request("HEAD", url)
        if resp is None:
            return 0, {}
        if isinstance(resp, _StatusOnly):
            return resp.status, {}
        return resp.status_code, {k.lower(): v
                                  for k, v in resp.headers.items()}

    def close(self) -> None:
        self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_val, exc_tb):
        self.close()

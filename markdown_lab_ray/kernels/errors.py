"""Error taxonomy + unified retry with exponential backoff (T9).

Reference: ``markdown_lab/core/errors.py:408-533`` — a NetworkError
hierarchy keyed by status/cause and ``retry_with_backoff`` with
``backoff_base ** attempt`` sleeps.  In the Ray engine, fetch-level
retries stay inside the fetch stage (politeness-aware); worker-death
retries are Ray's job.  Terminal failures become ``status`` rows, never
batch-aborting exceptions.

``sleeper`` is injectable so tests never sleep.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class MarkdownLabError(Exception):
    def __init__(self, message: str, code: str = "GENERAL"):
        super().__init__(message)
        self.code = code


class NetworkError(MarkdownLabError):
    def __init__(self, message: str, url: str = "",
                 status: Optional[int] = None, code: str = "NETWORK"):
        super().__init__(message, code)
        self.url = url
        self.status = status


class HttpStatusError(NetworkError):
    def __init__(self, url: str, status: int):
        super().__init__(f"HTTP {status} for {url}", url, status,
                         f"HTTP_{status}")


RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


def is_retryable(exc: Exception) -> bool:
    if isinstance(exc, HttpStatusError):
        return exc.status in RETRYABLE_STATUSES
    return isinstance(exc, NetworkError)


def retry_with_backoff(fn: Callable, max_retries: int = 3,
                       backoff_base: float = 2.0,
                       sleeper: Callable[[float], None] = time.sleep,
                       retry_if: Callable[[Exception], bool] = is_retryable):
    """Call ``fn()`` with up to ``max_retries`` retries; sleeps
    ``backoff_base ** attempt`` between attempts.  The last exception is
    re-raised (wrapped into NetworkError if it isn't one)."""
    last: Optional[Exception] = None
    for attempt in range(max_retries + 1):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — taxonomy conversion below
            last = exc
            if attempt >= max_retries or not retry_if(exc):
                break
            sleeper(backoff_base ** attempt)
    if isinstance(last, MarkdownLabError) or not retry_if(last):
        # programming errors (TypeError, KeyError, …) surface unchanged
        # — wrapping them as NetworkError would misclassify a code bug
        # as a transient network failure
        raise last
    raise NetworkError(str(last)) from last

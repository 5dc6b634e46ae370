"""Engine configuration.

Mirrors the knob surface of the reference config
(``/root/reference/markdown_lab/core/config.py:22-69``) plus the
Ray-specific per-stage knobs the rebuild needs (batch sizes, shard
counts).  Env-var overrides use the same ``MARKDOWN_LAB_*`` prefix as
the reference (``config.py:119-151``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields


@dataclass
class EngineConfig:
    # -- politeness / fetch (reference: requests_per_second, timeout, retries)
    requests_per_second: float = 1.0
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 2.0

    # -- chunking (reference: chunk_size=1000, chunk_overlap=200)
    chunk_size: int = 1000
    chunk_overlap: int = 200
    words_per_char_ratio: int = 5

    # -- output
    default_output_format: str = "markdown"
    include_metadata: bool = True

    # -- crawl scheduling (new: per-host budget per BSP round)
    round_seconds: float = 60.0        # politeness window one round represents
    max_rounds: int = 10
    max_depth: int = 3

    # -- Ray stage sizing
    parse_batch_size: int = 256        # HTML rows can be up to 10 MB each
    fetch_batch_size: int = 64         # smaller batches → deeper fetch pipeline
    chunk_batch_size: int = 256
    image_batch_size: int = 64         # binary payload rows stay small
    fetch_mode: str = "tasks"          # the one fetch tier: tasks, one
                                       # fetcher per worker process
    seen_shards: int = 16              # host buckets of the URL-seen
                                       # runs and the frontier's
                                       # partition count; fixed for a
                                       # crawl's life, resume keeps
                                       # the recorded count
    payload_cache_ttl: float = 0.0     # >0 → per-worker-process TTL/LRU cache
    pacing_rps: float = 0.0            # >0 → realtime per-host pacing in
                                       # the fetcher (sleeps!); buckets are
                                       # per worker process, so divide by
                                       # the worker count for a global
                                       # rate; the round budget still
                                       # bounds volume
    seen_capacity_per_shard: int = 1 << 20  # the oracle's LocalSeen
                                       # filter; a crawl's seen runs
                                       # size their filters to their keys
    robots_cache: str = "worker"       # "worker" (per-process cache) |
                                       # "actor" (sharded robots actors:
                                       # one fetch per host cluster-wide
                                       # — use for real networks)
    robots_shards: int = 4
    # -- per-host circuit breaker (0 = disabled): after
    # ``breaker_threshold`` consecutive failed fetches with no
    # intervening success, the host is skipped (its frontier rows
    # deferred, never dropped) for ``breaker_cooldown_rounds`` rounds,
    # then re-enters half-open with a fresh streak
    breaker_threshold: int = 0
    breaker_cooldown_rounds: int = 2
    # -- crawler-trap guard (0 = disabled): max links per path
    # template (digit/hex runs collapsed) leaving any single page —
    # cuts calendar/session-id traps at the source (kernels/urls.py
    # path_template)
    trap_links_per_template: int = 0
    # -- host-authority budget weighting (≤1 = disabled): hosts in the
    # top PageRank band of the observed cross-host link graph earn
    # ``authority_boost``× the round budget (Crawl-delay still caps);
    # the edge set is capped deterministically at authority_edge_cap
    authority_boost: int = 0
    authority_edge_cap: int = 1_000_000
    authority_iters: int = 2

    # -- misc
    seed: int = 42
    extra: dict = field(default_factory=dict)

    def validate(self) -> "EngineConfig":
        """Reference-parity constraint checks (core/config.py:71-117:
        positive rps/timeout/retries, overlap < size, known output
        format).  Called by the file/dict/env/update constructors; direct
        dataclass construction stays unchecked for test flexibility."""
        if self.requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if not 0 <= self.chunk_overlap < self.chunk_size:
            raise ValueError("chunk_overlap must be in [0, chunk_size)")
        if self.default_output_format not in ("markdown", "json", "xml"):
            raise ValueError("default_output_format must be 'markdown', "
                             "'json', or 'xml'")
        if self.fetch_mode != "tasks":
            raise ValueError(
                "fetch_mode must be 'tasks': the 'actors' fetch tier was "
                "removed; every fetch runs as a task through a "
                "per-worker-process fetcher")
        if self.robots_cache not in ("worker", "actor"):
            raise ValueError("robots_cache must be 'worker' or 'actor'")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")
        if self.breaker_threshold > 0 and self.breaker_cooldown_rounds < 1:
            raise ValueError("breaker_cooldown_rounds must be >= 1 when "
                             "the circuit breaker is enabled")
        if self.trap_links_per_template < 0:
            raise ValueError("trap_links_per_template must be non-negative")
        if self.authority_edge_cap < 1:
            raise ValueError("authority_edge_cap must be positive")
        if self.seen_shards < 1:
            raise ValueError("seen_shards must be positive: it is the "
                             "seen runs' host-bucket modulus")
        return self

    @classmethod
    def from_dict(cls, config_dict: dict) -> "EngineConfig":
        """Reference ``from_dict`` (core/config.py:153-163); unknown
        keys are rejected by the dataclass constructor."""
        return cls(**config_dict).validate()

    @classmethod
    def from_file(cls, config_path) -> "EngineConfig":
        """Load json/yaml config by suffix (reference
        core/config.py:166-202 semantics: FileNotFoundError for a
        missing path, ImportError without PyYAML, ValueError for an
        unsupported suffix)."""
        import pathlib

        path = pathlib.Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"Configuration file not found: {path}")
        suffix = path.suffix.lower()
        if suffix == ".json":
            import json
            with open(path) as f:
                config_dict = json.load(f)
        elif suffix in (".yml", ".yaml"):
            try:
                import yaml
            except ImportError as exc:
                raise ImportError("PyYAML is required to load YAML "
                                  "configuration files") from exc
            with open(path) as f:
                config_dict = yaml.safe_load(f)
        else:
            raise ValueError(
                f"Unsupported configuration file format: {path.suffix}")
        return cls.from_dict(config_dict or {})

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)

    def save_to_file(self, config_path) -> None:
        """Write json/yaml by suffix (reference core/config.py:215-245)."""
        import pathlib

        path = pathlib.Path(config_path)
        suffix = path.suffix.lower()
        if suffix == ".json":
            import json
            with open(path, "w") as f:
                json.dump(self.to_dict(), f, indent=2)
        elif suffix in (".yml", ".yaml"):
            try:
                import yaml
            except ImportError as exc:
                raise ImportError("PyYAML is required to save YAML "
                                  "configuration files") from exc
            with open(path, "w") as f:
                yaml.dump(self.to_dict(), f, default_flow_style=False)
        else:
            raise ValueError(
                f"Unsupported configuration file format: {path.suffix}")

    def update(self, **kwargs) -> "EngineConfig":
        """New instance with the given fields replaced (reference
        core/config.py:247-262 — immutable update, not in-place)."""
        config_dict = self.to_dict()
        config_dict.update(kwargs)
        return self.from_dict(config_dict)

    @classmethod
    def env_overrides(cls) -> dict:
        """The ``MARKDOWN_LAB_<FIELD>`` env values present right now,
        typed — reusable by any layered construction (file → env →
        flags)."""
        kwargs = {}
        for f in fields(cls):
            env_key = f"MARKDOWN_LAB_{f.name.upper()}"
            if env_key in os.environ:
                raw = os.environ[env_key]
                if f.type in ("int", int):
                    kwargs[f.name] = int(raw)
                elif f.type in ("float", float):
                    kwargs[f.name] = float(raw)
                elif f.type in ("bool", bool):
                    kwargs[f.name] = raw.lower() in ("1", "true", "yes")
                elif f.name != "extra":
                    kwargs[f.name] = raw
        return kwargs

    @classmethod
    def from_env(cls, **overrides) -> "EngineConfig":
        """Build a config applying ``MARKDOWN_LAB_<FIELD>`` env overrides,
        validated like ``from_dict`` and ``update``."""
        kwargs = cls.env_overrides()
        kwargs.update(overrides)
        return cls(**kwargs).validate()


DEFAULT_CONFIG = EngineConfig()

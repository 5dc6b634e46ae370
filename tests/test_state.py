import numpy as np
import pandas as pd

from markdown_lab_ray.state.politeness import (
    TokenBucket,
    round_budget,
    schedule_group,
)
from markdown_lab_ray.state.robots import LocalRobotsCache, parse_robots
from markdown_lab_ray.state.seen import CuckooFilter, LocalSeen


def test_cuckoo_basic():
    f = CuckooFilter(1000)
    keys = [f"key{i}" for i in range(500)]
    for k in keys:
        assert f.add(k)
    assert all(f.contains(k) for k in keys)  # no false negatives
    misses = sum(f.contains(f"other{i}") for i in range(10000))
    assert misses / 10000 < 0.01  # low false-positive rate


def test_cuckoo_load():
    f = CuckooFilter(1 << 12)
    added = sum(f.add(f"k{i}") for i in range((1 << 12)))
    assert added / (1 << 12) > 0.9


def test_local_seen_exactly_once():
    seen = LocalSeen(1 << 12)
    first = seen.check_and_add(["a", "b", "a"])
    assert first == [True, True, False]
    assert seen.check_and_add(["b", "c"]) == [False, True]
    assert seen.contains_many(["a", "b", "c", "d"]) == [True, True, True, False]
    assert seen.size() == 3


def test_local_seen_restore():
    seen = LocalSeen(1 << 10)
    seen.check_and_add(["x", "y"])
    snap = seen.snapshot()
    other = LocalSeen(1 << 10)
    other.restore(snap)
    assert other.check_and_add(["x", "z"]) == [False, True]


def test_seen_saturation_falls_back_to_exact():
    seen = LocalSeen(capacity=8)  # tiny filter saturates fast
    keys = [f"k{i}" for i in range(200)]
    assert all(seen.check_and_add(keys))
    assert seen.check_and_add(keys[:5]) == [False] * 5
    assert seen.size() == 200


def test_token_bucket():
    b = TokenBucket(rate=2.0, capacity=2.0)
    assert b.try_acquire(0.0)
    assert b.try_acquire(0.0)
    assert not b.try_acquire(0.0)
    assert b.try_acquire(1.0)  # refilled 2 tokens after 1s
    assert b.try_acquire(1.0)
    assert not b.try_acquire(1.0)  # drained again
    assert b.next_available(1.0) == 1.5  # 1 token at rate 2/s


def test_round_budget():
    assert round_budget(1.0, 60.0) == 60
    assert round_budget(0.001, 60.0) == 1  # floor ≥ 1


def _frame(rows):
    return pd.DataFrame(rows, columns=["loc", "priority", "seq_no", "host"])


def test_schedule_group_order_and_budget():
    df = _frame([
        ("https://h/a", 0.2, 1, "h"),
        ("https://h/b", None, 2, "h"),   # None → 0.5
        ("https://h/c", 0.9, 3, "h"),
        ("https://h/d", 0.5, 0, "h"),
    ])
    out = schedule_group(df, budget=2)
    ordered = out["loc"].tolist()
    # 0.9 first; then 0.5 ties broken by seq_no (d seq 0 before b seq 2)
    assert ordered == ["https://h/c", "https://h/d", "https://h/b", "https://h/a"]
    assert out["scheduled"].tolist() == [True, True, False, False]
    assert out["fetch_order"].tolist() == [0, 1, -1, -1]


def test_robots_parse_and_allow():
    rules = parse_robots(
        "User-agent: *\nDisallow: /private\nDisallow:\n"
        "Sitemap: https://e.com/s.xml\n"
        "User-agent: bot\nDisallow: /\n")
    assert rules.sitemaps == ["https://e.com/s.xml"]
    assert rules.disallow == ["/private"]  # only the * group, empty skipped
    assert rules.allows("https://e.com/public/x")
    assert not rules.allows("https://e.com/private/x")


def test_robots_cache_fetch_once():
    calls = []

    def resolve(url):
        calls.append(url)
        return 200, "User-agent: *\nDisallow: /no\n"

    cache = LocalRobotsCache(resolve)
    r1 = cache.rules_for("a.com")
    r2 = cache.rules_for("a.com")
    assert r1 is r2
    assert len(calls) == 1
    assert not r1.allows("https://a.com/no/x")


def test_robots_absent_allows_all():
    cache = LocalRobotsCache(lambda url: (404, ""))
    assert cache.rules_for("b.com").allows("https://b.com/anything")


def test_engine_config_env(monkeypatch):
    from markdown_lab_ray.config import EngineConfig

    monkeypatch.setenv("MARKDOWN_LAB_CHUNK_SIZE", "512")
    monkeypatch.setenv("MARKDOWN_LAB_REQUESTS_PER_SECOND", "2.5")
    monkeypatch.setenv("MARKDOWN_LAB_DEFAULT_OUTPUT_FORMAT", "xml")
    cfg = EngineConfig.from_env(max_rounds=7)
    assert cfg.chunk_size == 512
    assert cfg.requests_per_second == 2.5
    assert cfg.default_output_format == "xml"
    assert cfg.max_rounds == 7


# ---------------------------------------------------------------------------
# TTL expiry / recrawl support (expire_before + cuckoo delete)
# ---------------------------------------------------------------------------

def test_expire_before_forgets_old_rounds_only():
    from markdown_lab_ray.state.seen import LocalSeen

    seen = LocalSeen(capacity=1 << 12)
    for r in range(4):
        assert seen.check_and_add([f"u{r}-{i}" for i in range(20)],
                                  round_no=r) == [True] * 20
    n = seen.expire_before(2)
    assert n == 40  # rounds 0 and 1
    old = [f"u{r}-{i}" for r in (0, 1) for i in range(20)]
    new = [f"u{r}-{i}" for r in (2, 3) for i in range(20)]
    assert seen.contains_many(old) == [False] * 40  # refetchable again
    assert seen.contains_many(new) == [True] * 40   # recent stay seen
    # expired keys can be re-marked (the recrawl)
    assert seen.check_and_add(old[:5], round_no=4) == [True] * 5


def test_expire_no_false_negatives_for_survivors():
    """Cuckoo deletion must never make a SURVIVING key look unseen
    (false negative = double fetch = broken exactly-once)."""
    from markdown_lab_ray.state.seen import LocalSeen

    seen = LocalSeen(capacity=1 << 13)
    old = [f"https://h{i % 97}.example.com/old/{i}" for i in range(2500)]
    new = [f"https://h{i % 97}.example.com/new/{i}" for i in range(2500)]
    seen.check_and_add(old, round_no=0)
    seen.check_and_add(new, round_no=1)
    assert seen.expire_before(1) == 2500
    assert all(seen.contains_many(new))
    assert not any(seen.contains_many(old))
    assert seen.filter.count == len(seen.exact) or not seen.filter_ok


def test_expire_after_saturation_stays_exact_only():
    from markdown_lab_ray.state.seen import LocalSeen

    seen = LocalSeen(capacity=8)  # tiny: saturates fast
    keys = [f"k{i}" for i in range(500)]
    seen.check_and_add(keys, round_no=0)
    assert not seen.filter_ok  # saturated
    seen.check_and_add([f"late{i}" for i in range(50)], round_no=1)
    seen.expire_before(1)
    assert not seen.filter_ok  # never re-enabled
    late = [f"late{i}" for i in range(50)]
    assert all(seen.contains_many(late))
    assert not any(seen.contains_many(keys))


def test_expire_restored_keys_counts_as_old():
    from markdown_lab_ray.state.seen import LocalSeen

    seen = LocalSeen(capacity=1 << 10)
    seen.restore(["a", "b"])  # round -1: from an earlier run
    seen.check_and_add(["c"], round_no=0)
    assert seen.expire_before(0) == 2  # a, b expire; c stays
    assert seen.contains_many(["a", "b", "c"]) == [False, False, True]


def test_cuckoo_delete_duplicate_copy_safety():
    from markdown_lab_ray.state.seen import CuckooFilter

    f = CuckooFilter(capacity=64)
    # same key inserted twice stores two copies; one delete leaves one
    f.add("dup")
    f.add("dup")
    assert f.delete("dup") and f.contains("dup")
    assert f.delete("dup") and not f.contains("dup")
    assert not f.delete("dup")  # nothing left to delete


# ---------------------------------------------------------------------------
# seen runs (the crawl's on-disk URL-seen set)
# ---------------------------------------------------------------------------

def test_run_probe_matches_local_seen():
    """The crawl's probe over k sorted runs equals ``LocalSeen`` holding
    the same keys.  The runs' filters are packed full (capacity = their
    key count), so filter false positives occur and must be settled by
    the runs' keys; one run's filter saturates and has none."""
    import random

    from markdown_lab_ray.state.seen import SeenRun, runs_contain

    rng = random.Random(7)
    members = [f"{rng.getrandbits(128):032x}" for _ in range(6 * 28)]
    runs = [SeenRun.build(members[i:i + 28], capacity=28)
            for i in range(0, len(members), 28)]
    runs.append(SeenRun.build([f"sat{i}" for i in range(40)], capacity=4))
    assert runs[-1].filter is None
    assert all(run.filter is not None for run in runs[:-1])
    local = LocalSeen(1 << 12)
    local.check_and_add(members + [f"sat{i}" for i in range(40)])

    probe = np.array(members[::3] + ["sat3", "sat99"]
                     + [f"{rng.getrandbits(128):032x}" for _ in range(30000)],
                     dtype=object)
    got = runs_contain(probe, runs)
    assert got.tolist() == local.contains_many(list(probe))
    false_positives = sum(
        int((run.filter.contains_many(probe) & ~run.contains_many(probe))
            .sum()) for run in runs[:-1])
    assert false_positives > 0


def test_seen_run_round_trips_through_its_files(tmp_path):
    """A run written as its parquet part plus the ``.cuckoo`` filter next
    to it opens with the same filter and answers the same probes."""
    import pyarrow.parquet as pq

    from markdown_lab_ray.state.seen import SeenRun

    keys = [f"k{i:03d}" for i in range(50)]
    run = SeenRun.build(keys[::-1])
    assert run.keys().tolist() == keys  # sorted
    path = str(tmp_path / "part-x.parquet")
    pq.write_table(run.table(), path)
    run.save_filter(path)
    opened = SeenRun.open(path)
    assert np.array_equal(opened.filter.slots, run.filter.slots)
    probe = np.array(keys + ["k050", "zzz", ""], dtype=object)
    assert opened.contains_many(probe).tolist() == [True] * 50 + [False] * 3


def test_cuckoo_bulk_and_scalar_paths_agree():
    """``add_many``/``contains_many`` hash a key column once; the scalar
    ``add``/``contains`` are the same filter one key at a time."""
    keys = [f"https://h{i % 7}.example.com/p/{i}" for i in range(300)]
    bulk, scalar = CuckooFilter(512, seed=3), CuckooFilter(512, seed=3)
    assert bulk.add_many(keys)
    assert all(scalar.add(k) for k in keys)
    assert np.array_equal(bulk.slots, scalar.slots)
    probe = keys + [f"other{i}" for i in range(300)]
    assert bulk.contains_many(probe).tolist() == [
        scalar.contains(k) for k in probe]

"""Circuit-breaker exactness when one host's pages land in several fetch
batches.

Any 200 in a round closes a host's streak, and the batch that holds the
200 cannot know that another batch failed.  So with the breaker on every
fetch task sends a row for every host of its batch, and the round's
bucketed fold sums them before ``breaker_update`` sees the host.
"""

import pyarrow as pa

from markdown_lab_ray.config import EngineConfig
from markdown_lab_ray.pipelines.oracle import run_crawl_oracle
from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb
from markdown_lab_ray.state.politeness import breaker_update

# every 3rd page of a host 301-redirects; budget 6 per host per round,
# fetched 4 rows per batch, so a host's round spans fetch batches
SPEC = SiteSpec(n_hosts=4, pages_per_host=12, redirect_every=3)
CFG = EngineConfig(requests_per_second=0.1, round_seconds=60.0,  # budget 6
                   fetch_batch_size=4, breaker_threshold=2,
                   breaker_cooldown_rounds=1, max_rounds=4, seen_shards=2)


def _docs(host: str, status: int, n: int) -> pa.Table:
    return pa.table({
        "url": [f"https://{host}/page/{status}/{i}" for i in range(n)],
        "host": [host] * n,
        "status": pa.array([status] * n, pa.int32()),
        "links": pa.array([[] for _ in range(n)], pa.list_(pa.string())),
    })


def test_breaker_fold_sums_a_host_across_batches():
    """One all-301 batch and one all-200 batch of one host fold to
    ``ok=3, n=6``, and the round's 200s close the host's streak."""
    from markdown_lab_ray.pipelines.crawl import _fold_hosts, _host_tally
    from markdown_lab_ray.stages.bucketing import tag_buckets_batch

    host = "h003.example.com"
    tallies = [_host_tally(_docs(host, status, 3), all_hosts=True)
               for status in (301, 200)]
    # without the breaker the all-200 batch sends nothing: a per-batch
    # filter alone would see only the three failures
    assert _host_tally(_docs(host, 200, 3)).num_rows == 0
    rows = tag_buckets_batch(pa.concat_tables(tallies), "host", 32)
    folded = _fold_hosts(rows, keep_hosts=frozenset({host}))
    assert folded.to_pylist() == [{"host": host, "ok": 3, "n": 6,
                                   "dsts": []}]
    r = folded.to_pylist()[0]
    assert breaker_update(1, r["ok"], r["n"] - r["ok"],
                          CFG.breaker_threshold) == (0, False)


def test_ray_breaker_mixed_batches_match_oracle(ray_session, tmp_path):
    """Mixed 200/301 hosts split across fetch batches: the crawl order
    with its rounds and the fetched/failed counts equal the oracle's, and
    each round's manifest counts equal its docs parts."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.crawl import read_crawl_order, run_crawl_ray

    oracle = run_crawl_oracle(SyntheticWeb(SPEC).resolve, SPEC.seed_urls(),
                              CFG)
    out = str(tmp_path / "crawl")
    result = run_crawl_ray(lambda: SyntheticWeb(SPEC), SPEC.seed_urls(),
                           out, CFG)
    # rounds too: a host tripped by mistake fetches the same pages one
    # cooldown later, in the same loc order
    order = read_crawl_order(out)
    detail = oracle["order_detail"]
    assert (list(zip(order["round"], order["loc"]))
            == list(zip(detail["round"], detail["loc"])))
    assert (result.fetched, result.failed) == (oracle["fetched"],
                                               oracle["failed"])
    assert result.failed > 0
    for m in result.manifest:
        if not m["scheduled"]:
            continue
        docs = pq.read_table(f"{out}/rounds/round={m['round']}/docs",
                             columns=["status"])
        assert m["scheduled"] == docs.num_rows
        assert m["failed"] == pc.sum(
            pc.not_equal(docs.column("status"), 200)).as_py()

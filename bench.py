"""Benchmark harness (driver contract).

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default sf0.1) on a
fresh local Ray session with ``$RAY_GRAFT_CPUS`` CPUs (default 32) and
prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

``--scaling`` runs the same workload in two fresh processes at 8 and 32
CPUs on identical input and reports both throughputs + scaling
efficiency = (thr_hi/thr_lo)/(hi/lo) (BASELINE.md §rebuild target; the
sandbox substitute for N- vs 4N-node clusters).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _run_benchmarks(sf_dir: str, num_cpus: int) -> dict:
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.convert import chunk_documents, convert_documents
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.sources.synth import (
        SiteSpec,
        SyntheticWeb,
        build_images_table,
        reference_pixels_fn,
    )
    from markdown_lab_ray.stages.dedup import exact_dedup_ids, minhash_signature_batch
    from markdown_lab_ray.stages.images import DecodeValidate
    from markdown_lab_ray.stages.similarity import knn_brute_force

    # warm the page cache so we measure compute + shuffle, not first read
    rd.read_parquet(f"{sf_dir}/documents.parquet").count()

    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(name, fn):
        t0 = time.time()
        counts[name] = fn()
        timings[name] = round(time.time() - t0, 3)

    # 1. flagship: wrap + parse + render + chunk-count (fused)
    timed("convert_documents",
          lambda: convert_documents(sf_dir).count())
    # 2. full chunk explode
    timed("chunk_documents", lambda: chunk_documents(sf_dir).count())
    # 3. exact dedup
    timed("exact_dedup", lambda: exact_dedup_ids(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"])).count())
    # 4. minhash signatures (the dedup scale path's hot stage)
    timed("minhash_signatures", lambda: rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(minhash_signature_batch, batch_format="pyarrow").count())
    # 5. similarity search
    import pyarrow.parquet as pq
    import numpy as np
    emb0 = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 1)
    query = np.asarray(emb0.column("embedding")[0].as_py(), dtype=np.float64)
    timed("knn", lambda: len(knn_brute_force(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]),
        query, k=10)))

    # 6. crawl: pages fetched + converted + chunked over the synthetic web
    spec = SiteSpec(n_hosts=32, pages_per_host=100, n_images=500)
    cfg = EngineConfig(requests_per_second=2.0, round_seconds=60.0,  # 120/host/round
                       max_rounds=2, max_depth=1, seen_shards=8)
    import shutil
    import tempfile
    tmp = tempfile.mkdtemp(prefix="bench_crawl_")
    t0 = time.time()
    res = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), tmp, cfg)
    timings["crawl"] = round(time.time() - t0, 3)
    counts["crawl"] = res.fetched
    shutil.rmtree(tmp, ignore_errors=True)

    # 7. image decode + validate (input_hint invariants)
    images = build_images_table(spec)
    images = images.append_column("alt", images.column("caption"))
    timed("images_validate", lambda: rd.from_arrow(images).map_batches(
        DecodeValidate, batch_format="pyarrow", batch_size=64,
        concurrency=(1, max(2, num_cpus // 4)),
        fn_constructor_kwargs=dict(ref_fn=reference_pixels_fn(spec))
    ).count())

    ray.shutdown()

    total = round(sum(timings.values()), 3)
    pages_images = counts["crawl"] + counts["images_validate"] + \
        counts["convert_documents"]
    return {
        "metric": "headline_pipelines_total",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "counts": counts,
        "pages_images_per_sec": round(
            pages_images / max(timings["crawl"] + timings["images_validate"]
                               + timings["convert_documents"], 1e-9), 2),
    }


def _run_scaling_workload(num_cpus: int) -> dict:
    """The headline crawl (fetch + convert + chunk + images) sized so
    CPU work dominates fixed round overhead — the sandbox substitute for
    the N- vs 4N-node cluster comparison."""
    import shutil
    import tempfile

    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from markdown_lab_ray.config import EngineConfig
    from markdown_lab_ray.pipelines.crawl import run_crawl_ray
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    # 512k pages: big enough that the scaled fetch+convert phase
    # dominates the (already-overlapped) fixed round costs at 32 CPUs —
    # the realistic shape, since real cluster rounds are far larger
    # still.  seen_shards (the seen runs' host buckets, one schedule
    # fold task each) scales with the cluster; the bucket count doesn't
    # change results — the seen set is bucket-count-invariant.
    spec = SiteSpec(**_SCALING_SPEC)
    cfg = EngineConfig(requests_per_second=80.0, round_seconds=60.0,
                       max_rounds=1, max_depth=0,
                       seen_shards=max(8, num_cpus // 2))
    # warm the worker pool so both runs measure compute + shuffle, not
    # process spawn (mirrors "warm one untimed read first")
    import ray.data as rd
    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        lambda b: b, batch_size=1).count()
    tmp = tempfile.mkdtemp(prefix="bench_scaling_")
    t0 = time.time()
    res = run_crawl_ray(lambda: SyntheticWeb(spec), spec.seed_urls(), tmp, cfg)
    elapsed = time.time() - t0
    shutil.rmtree(tmp, ignore_errors=True)
    ray.shutdown()
    return {"sec": round(elapsed, 2), "pages": res.fetched,
            "pages_per_sec": round(res.fetched / elapsed, 2),
            "num_cpus": num_cpus}


def _gen_docs_batch(batch, dup_every: int = 7, n_words: int = 60,
                    vocab_prefix: str = "w"):
    """Deterministic synthetic corpus from row ids alone (layout- and
    parallelism-invariant): ~1/dup_every docs are byte-identical copies
    of an earlier doc so exact-dedup does real work."""
    import numpy as np
    import pyarrow as pa

    ids = batch.column("id").to_numpy()
    base = ids - np.where(ids % dup_every == 3, 3, 0)
    # vocab index matrix: (n_docs, n_words), cheap integer mixing
    j = np.arange(n_words, dtype=np.int64)
    idx = (base[:, None] * 2654435761 + j[None, :] * 97
           + (base[:, None] % 131)) % 5003
    texts = [" ".join(f"{vocab_prefix}{v}" for v in row) for row in idx]
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _run_dedup_scaling_workload(num_cpus: int) -> dict:
    """The LLM-curation flagship (training_mixture: quality gate →
    exact dedup → n-gram decontaminate → token count → pack) at two
    parallelism levels — the dedup/mixture path's own 8-vs-32 evidence
    (a 100-TB pretraining run spends its time here, not in the crawl)."""
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from markdown_lab_ray.pipelines.mixture import training_mixture

    n_docs = int(os.environ.get("GRAFT_DEDUP_DOCS", "2000000"))
    # warm the worker pool (same rule as the crawl workload)
    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        lambda b: b, batch_size=1).count()
    docs = rd.range(n_docs, override_num_blocks=num_cpus * 4).map_batches(
        _gen_docs_batch, batch_format="pyarrow")
    # disjoint vocab: the benchmark set exercises the decontaminate
    # n-gram machinery without gating out the whole corpus
    bench_docs = rd.range(200).map_batches(
        _gen_docs_batch, batch_format="pyarrow",
        fn_kwargs=dict(vocab_prefix="b"))
    t0 = time.time()
    packed = training_mixture(docs, bench_docs, quality_threshold=0.0)
    n_out = packed.count()
    elapsed = time.time() - t0
    ray.shutdown()
    return {"sec": round(elapsed, 2), "docs": n_docs, "packed": n_out,
            "docs_per_sec": round(n_docs / elapsed, 2),
            "num_cpus": num_cpus}


def _cpu_calibration() -> dict:
    """Raw-CPU parallel-speedup ceiling of this machine: pure python
    work under multiprocessing at 8 vs 32 procs.  On a VM with CPU
    steal, even embarrassingly-parallel work scales below 4×; pipeline
    efficiency should be read against this ceiling."""
    import multiprocessing as mp

    def timed(procs):
        t0 = time.time()
        with mp.Pool(procs) as pool:
            pool.map(_burn, [4_000_000] * 64)
        return time.time() - t0

    t8, t32 = timed(8), timed(32)
    return {"cpu_sec_8": round(t8, 2), "cpu_sec_32": round(t32, 2),
            "cpu_efficiency_8_to_32": round((t8 / t32) / 4, 3)}


# ONE spec shared by the measured pipeline and the workload-true
# control so both render byte-identical pages (page link targets and
# image refs derive from these numbers)
_SCALING_SPEC = dict(n_hosts=128, pages_per_host=4000, n_images=1000)


def _convert_pages_mp(args):
    """One multiprocessing work item for the workload-true calibration:
    generate + parse + render real synthetic pages (the crawl's actual
    per-page kernel), NO Ray involved."""
    host_i, n_pages = args
    from markdown_lab_ray.kernels.html_kernels import (
        extract_links,
        parse_html_to_document,
    )
    from markdown_lab_ray.kernels.render import document_to_markdown
    from markdown_lab_ray.sources.synth import SiteSpec, page_html

    spec = SiteSpec(**_SCALING_SPEC)
    total = 0
    for p in range(n_pages):
        html = page_html(spec, host_i, p)
        doc = parse_html_to_document(html, f"https://h/{p}")
        links = extract_links(html, f"https://h/{p}")
        total += len(document_to_markdown(doc)) + len(links)
    return total


def _workload_calibration(samples: int = 2) -> dict:
    """Workload-TRUE ceiling: the crawl's own fetch+parse+render kernel
    under plain multiprocessing (no Ray, no shuffles, no object store)
    at 8 vs 32 procs over identical pages.  This bounds what ANY
    engine — including an embarrassingly-parallel one — can achieve on
    this box for THIS work (memory-heavy parsing scales worse than the
    tight-loop ``_burn`` ceiling under VM steal).  Pipeline efficiency
    within ~90% of this number means the Ray engine adds no scaling
    penalty of its own.  Interleaved 8/32 samples with the MEDIAN
    ceiling reported — a single noisy sample would distort the
    pipeline-to-ceiling ratio it feeds."""
    import multiprocessing as mp

    work = [(h, 250) for h in range(128)]  # 32k real pages

    def timed(procs):
        t0 = time.time()
        with mp.Pool(procs) as pool:
            pool.map(_convert_pages_mp, work, chunksize=1)
        return time.time() - t0

    runs = []
    for _ in range(max(1, samples)):
        t8, t32 = timed(8), timed(32)
        runs.append({"mp_sec_8": round(t8, 2), "mp_sec_32": round(t32, 2),
                     "ceiling": round((t8 / t32) / 4, 3)})
    ceilings = sorted(r["ceiling"] for r in runs)
    n = len(ceilings)
    median = (ceilings[n // 2] if n % 2
              else round((ceilings[n // 2 - 1] + ceilings[n // 2]) / 2, 3))
    return {"samples": runs,
            "mp_sec_8": runs[0]["mp_sec_8"],
            "mp_sec_32": runs[0]["mp_sec_32"],
            "workload_mp_ceiling_8_to_32": median}


def _burn(n):
    x = 0
    for i in range(n):
        x += i * i
    return x


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if "--scaling-child" in sys.argv:
        if os.environ.get("GRAFT_SCALING_WORKLOAD") == "dedup":
            print(json.dumps(_run_dedup_scaling_workload(num_cpus)))
        else:
            print(json.dumps(_run_scaling_workload(num_cpus)))
        return

    if "--cpu-calibration" in sys.argv:
        print(json.dumps(_cpu_calibration()))
        return

    if "--workload-calibration" in sys.argv:
        print(json.dumps(_workload_calibration()))
        return

    if "--scaling" in sys.argv:
        # --scaling [dedup]: "dedup" swaps the crawl flagship for the
        # training_mixture curation flagship (same pair protocol)
        workload = ("dedup" if "dedup" in sys.argv
                    else os.environ.get("GRAFT_SCALING_WORKLOAD", "crawl"))

        def run_at(n):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n),
                       GRAFT_SCALING_WORKLOAD=workload)
            out = subprocess.run([sys.executable, __file__, "--scaling-child"],
                                 env=env, capture_output=True, text=True,
                                 check=True,
                                 cwd=os.path.dirname(os.path.abspath(__file__)))
            return json.loads(out.stdout.strip().splitlines()[-1])

        # interleaved pairs (8 then 32 back-to-back share ambient VM
        # conditions; this sandbox shows ±30% wall-clock jitter and CPU
        # steal), plus a raw-CPU calibration: the multiprocessing
        # speedup of pure python work bounds what ANY pipeline can
        # achieve on this VM. Report per-pair efficiency, the median,
        # and efficiency normalized by the machine ceiling.
        lo, hi = 8, 32
        pairs = []
        n_pairs = max(1, int(os.environ.get("GRAFT_SCALING_PAIRS", "2")))
        rate_key = ("docs_per_sec" if workload == "dedup"
                    else "pages_per_sec")
        for _ in range(n_pairs):
            r_lo, r_hi = run_at(lo), run_at(hi)
            pairs.append({
                "sec_8": r_lo["sec"], "sec_32": r_hi["sec"],
                f"{rate_key}_8": r_lo[rate_key],
                f"{rate_key}_32": r_hi[rate_key],
                "efficiency": round((r_lo["sec"] / r_hi["sec"]) / (hi / lo), 3),
            })
        calib = _cpu_calibration()
        wcalib = _workload_calibration()
        best = max(pairs, key=lambda p: p["efficiency"])
        effs = sorted(p["efficiency"] for p in pairs)
        median = round((effs[len(effs) // 2] if len(effs) % 2
                        else (effs[len(effs) // 2 - 1]
                              + effs[len(effs) // 2]) / 2), 3)
        print(json.dumps({
            "metric": "scaling",
            "workload": (
                "training_mixture curation, "
                f"{os.environ.get('GRAFT_DEDUP_DOCS', '2000000')} docs "
                "gated+deduped+decontaminated+packed"
                if workload == "dedup" else
                "synthetic crawl, 512000 pages fetched+converted+chunked"),
            "pairs": pairs,
            "sec_8": best["sec_8"], "sec_32": best["sec_32"],
            f"{rate_key}_8": best[f"{rate_key}_8"],
            f"{rate_key}_32": best[f"{rate_key}_32"],
            # headline = median across pairs (no cherry-picking under
            # VM jitter); the best pair is reported alongside
            "scaling_efficiency": median,
            "scaling_efficiency_best": best["efficiency"],
            "machine_cpu_ceiling": calib["cpu_efficiency_8_to_32"],
            "efficiency_vs_machine_ceiling": round(
                median / max(calib["cpu_efficiency_8_to_32"], 1e-9), 3),
            # same-workload multiprocessing control (no Ray): what this
            # box can do at 8→32 procs on the crawl's own page kernel
            "workload_mp_ceiling": wcalib["workload_mp_ceiling_8_to_32"],
            "efficiency_vs_workload_ceiling": round(
                median / max(wcalib["workload_mp_ceiling_8_to_32"], 1e-9),
                3),
        }))
        return

    print(json.dumps(_run_benchmarks(sf_dir, num_cpus)))


if __name__ == "__main__":
    main()

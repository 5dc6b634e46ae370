"""CLI: the reference's convert / sitemap / batch entry points restated
as Dataset pipelines (SURVEY §2.10).

    python -m markdown_lab_ray convert --html page.html --url https://e.com
    python -m markdown_lab_ray convert --input-parquet pages.parquet \
        --out /tmp/out --format markdown --chunks
    python -m markdown_lab_ray crawl --seeds links.txt --out /tmp/crawl \
        [--synthetic] [--rps 1.0] [--max-rounds 5]

(benchmarks live in the repo-root ``bench.py``: ``python bench.py
[--scaling]``)

Owns its Ray session (guarded init) — library code never calls
ray.init.
"""

from __future__ import annotations

import argparse
import sys


_OWNS_RAY = False


def _ensure_ray(num_cpus: int | None = None):
    global _OWNS_RAY
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
        _OWNS_RAY = True
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def cmd_convert(args) -> int:
    from .kernels.html_kernels import parse_html_to_document
    from .kernels.render import render_document
    from .kernels.chunker import create_semantic_chunks

    if args.html:
        with open(args.html, encoding="utf-8") as f:
            html = f.read()
        doc = parse_html_to_document(html, args.url or "https://local.file/")
        payload = render_document(doc, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(payload)
        else:
            print(payload)
        if args.chunks:
            md = render_document(doc, "markdown")
            for c in create_semantic_chunks(md, args.url or ""):
                print(f"# chunk {c['id']} [{c['chunk_type']}] "
                      f"{c['char_count']} chars", file=sys.stderr)
        return 0

    if args.input_parquet:
        _ensure_ray(args.num_cpus)
        import ray.data as rd

        from .sources.io import write_chunks_jsonl, write_rendered_files
        from .stages.convert import chunk_explode_batch, parse_batch, render_batch

        ds = rd.read_parquet(args.input_parquet)
        rendered = (ds.map_batches(parse_batch, batch_format="pyarrow")
                    .map_batches(render_batch, batch_format="pyarrow",
                                 fn_kwargs=dict(fmt=args.format)))
        out = args.out or "/tmp/mlr_convert"
        if args.shard_output:
            # resumable partitioned sink: hash-bucketed shard dirs with
            # per-shard completion sentinels — a killed run re-invoked
            # with the same args skips finished shards
            from .sources.io import write_sharded_parquet

            written = write_sharded_parquet(
                rendered, out, key_col="url", n_shards=args.shard_output)
            print(f"wrote shards {written} of {args.shard_output} "
                  f"to {out}")
        else:
            write_rendered_files(rendered, out, args.format)
        if args.chunks:
            chunks = rendered.map_batches(chunk_explode_batch,
                                          batch_format="pyarrow")
            write_chunks_jsonl(chunks, out + "_chunks")
        if not args.shard_output:
            print(f"wrote {out}")
        return 0

    print("convert: need --html or --input-parquet", file=sys.stderr)
    return 2


def cmd_crawl(args) -> int:
    _ensure_ray(args.num_cpus)
    from .config import EngineConfig
    from .pipelines.crawl import run_crawl_ray
    from .sources.synth import SiteSpec, SyntheticWeb

    # historical CLI defaults (rps=1.0, 5 rounds, depth 2) apply only
    # when no config file is given — precedence: CLI defaults < file <
    # env < explicit flags
    cli_defaults = dict(requests_per_second=1.0, max_rounds=5, max_depth=2)
    flag_overrides = {k: v for k, v in dict(
        requests_per_second=args.rps, max_rounds=args.max_rounds,
        max_depth=args.max_depth,
        authority_boost=args.authority_boost,
        trap_links_per_template=args.trap_cap).items() if v is not None}
    if args.config:
        cfg = EngineConfig.from_file(args.config)
        layered = {**EngineConfig.env_overrides(), **flag_overrides}
        if layered:
            cfg = cfg.update(**layered)
    else:
        # validate() so bad flags/env (e.g. --rps -1) are rejected the
        # same way the --config path rejects them
        cfg = EngineConfig(**{**cli_defaults,
                              **EngineConfig.env_overrides(),
                              **flag_overrides}).validate()

    if args.resolver == "http":
        # real-network fetch tier (sources/http.py): one session per
        # worker process, reference retry taxonomy.  Requires --seeds.
        from .sources.http import HttpResolver
        if cfg.robots_cache == "worker":
            # real network → robots.txt fetched once cluster-wide via
            # the sharded robots actors, not once per worker process
            cfg = cfg.update(robots_cache="actor")
        timeout, retries = cfg.timeout, cfg.max_retries
        web_factory = lambda: HttpResolver(  # noqa: E731
            timeout=timeout, max_retries=retries)
        seeds = []
        if not args.seeds:
            print("crawl --resolver http: --seeds links.txt is required",
                  file=sys.stderr)
            return 2
    else:
        spec = SiteSpec(n_hosts=args.hosts, pages_per_host=args.pages)
        seeds = spec.seed_urls()
        web_factory = lambda: SyntheticWeb(spec)  # noqa: E731

    if args.seeds:
        from .kernels.sitemap import parse_links_file
        with open(args.seeds, encoding="utf-8") as f:
            seeds = parse_links_file(f.read())

    res = run_crawl_ray(web_factory, seeds, args.out, cfg,
                        freshness_priority=args.freshness,
                        resume=args.resume)
    print(f"rounds={res.rounds} fetched={res.fetched} failed={res.failed} "
          f"out={args.out}")
    return 0


def cmd_batch(args) -> int:
    """Reference `mlab batch links.txt` (scraper.py:444-598): fetch the
    listed URLs directly — no sitemap discovery — convert each to the
    requested format, write per-URL rendered files + parquet."""
    _ensure_ray(args.num_cpus)
    from .kernels.sitemap import parse_links_file
    from .pipelines.convert import run_batch_convert

    with open(args.links, encoding="utf-8") as f:
        urls = parse_links_file(f.read())
    if not urls:
        print(f"batch: no URLs in {args.links}", file=sys.stderr)
        return 2

    if args.resolver == "http":
        from .sources.http import HttpResolver
        web_factory = lambda: HttpResolver()  # noqa: E731
    else:
        from .sources.synth import SiteSpec, SyntheticWeb
        spec = SiteSpec(n_hosts=args.hosts, pages_per_host=args.pages)
        web_factory = lambda: SyntheticWeb(spec)  # noqa: E731

    n_ok, n_failed = run_batch_convert(
        web_factory, urls, args.out, fmt=args.format,
        save_chunks=args.chunks)
    print(f"converted={n_ok} failed={n_failed} out={args.out}")
    return 0 if n_ok else 1


def cmd_status(args) -> int:
    """Inspect a crawl output directory: per-round manifests + totals
    (reference cli.py status surface; works on finished, killed and
    resumed runs — no Ray session needed)."""
    import glob
    import json
    import os

    out_dir = args.out
    rounds_glob = os.path.join(out_dir, "rounds", "round=*")
    round_dirs = sorted(glob.glob(rounds_glob),
                        key=lambda p: int(p.rsplit("=", 1)[1]))
    if not os.path.isdir(out_dir) or (
            not round_dirs and not os.path.exists(
                os.path.join(out_dir, "_CRAWL.json"))):
        print(f"status: no crawl output at {out_dir}", file=sys.stderr)
        return 2

    totals = {"scheduled": 0, "fetched": 0, "failed": 0, "deferred": 0}
    print(f"{'round':>5} {'scheduled':>9} {'fetched':>8} {'failed':>7} "
          f"{'deferred':>8}  state")
    for rdir in round_dirs:
        round_no = int(rdir.rsplit("=", 1)[1])
        manifest = os.path.join(rdir, "_MANIFEST.json")
        if not os.path.exists(manifest):
            print(f"{round_no:>5} {'-':>9} {'-':>8} {'-':>7} {'-':>8}  "
                  "PARTIAL (no manifest — will be discarded on resume)")
            continue
        with open(manifest) as f:
            entry = json.load(f)
        for key in totals:
            totals[key] += entry.get(key, 0)
        timings = entry.get("timings") or {}
        t = (" ".join(f"{k}={v}s" for k, v in timings.items())
             if args.timings else "")
        print(f"{round_no:>5} {entry.get('scheduled', 0):>9} "
              f"{entry.get('fetched', 0):>8} {entry.get('failed', 0):>7} "
              f"{entry.get('deferred', 0):>8}  complete {t}")

    crawl_json = os.path.join(out_dir, "_CRAWL.json")
    state = "FINISHED" if os.path.exists(crawl_json) else "IN PROGRESS/KILLED"
    print(f"total {totals['scheduled']:>9} {totals['fetched']:>8} "
          f"{totals['failed']:>7} {totals['deferred']:>8}  [{state}]")

    if getattr(args, "health", False):
        # per-host panel needs a Ray session (distributed fold over
        # the checkpoints); everything above is plain-file reads
        _ensure_ray(getattr(args, "num_cpus", None))
        from .pipelines.crawl import crawl_health
        panel = crawl_health(out_dir)
        print(f"\n{'host':<28} {'sched':>6} {'defer':>6} {'ok':>6} "
              f"{'fail':>5} {'rounds':>6}")
        for r in panel.itertuples(index=False):
            print(f"{r.host:<28} {r.n_scheduled:>6} {r.n_deferred:>6} "
                  f"{r.n_fetched:>6} {r.n_failed:>5} "
                  f"{r.rounds_active:>6}")
    return 0


def cmd_tui(args) -> int:
    """Curses crawl monitor (reference tui.py:432-821 surface — tabs
    for status/rounds/config; ``--once`` renders a single frame to
    stdout so scripts and tests can use it headlessly)."""
    from .tui import run_tui

    return run_tui(args.out, once=args.once, tab=args.tab)


def cmd_report(args) -> int:
    """Dataset-card report over a documents parquet: the corpus
    summary header, per-language mixture panel (counts, sqrt
    temperature weights, chars/token), per-source dedup yield and
    duplicate-cluster provenance — the numbers a corpus release
    publishes, as markdown on stdout (or --out FILE)."""
    _ensure_ray(args.num_cpus)
    import ray.data as rd

    from .stages.dedup import dup_cluster_stats, source_dedup_yield
    from .stages.text import corpus_summary, lang_fertility
    from .stages.trainprep import lang_temperature_weights

    ds = rd.read_parquet(args.docs,
                         columns=["doc_id", "text", "lang", "source"])
    head = corpus_summary(ds).to_pandas().iloc[0]
    langs = (lang_temperature_weights(
        rd.read_parquet(args.docs, columns=["doc_id", "lang"]))
        .to_pandas().sort_values("lang"))
    fert = (lang_fertility(
        rd.read_parquet(args.docs, columns=["lang", "text"]))
        .to_pandas().set_index("lang"))
    srcs = (source_dedup_yield(ds).to_pandas().sort_values("source"))
    clusters = dup_cluster_stats(ds).to_pandas()

    lines = ["# Dataset card", ""]
    lines.append(f"- documents: {head['n_docs']:,}")
    lines.append(f"- whitespace tokens: {head['total_tokens']:,}")
    lines.append(f"- languages: {head['n_langs']}, sources: "
                 f"{head['n_sources']}")
    lines.append(f"- exact-duplicate rate: "
                 f"{head['dup_rate_micro'] / 1e4:.2f}% "
                 f"({head['n_docs'] - head['n_unique_texts']:,} copies)")
    lines += ["", "## Language mixture", "",
              "| lang | docs | sqrt-temp weight | chars/token |",
              "|---|---|---|---|"]
    for r in langs.itertuples(index=False):
        cpt = fert.loc[r.lang, "chars_per_token_micro"] / 1e6
        lines.append(f"| {r.lang} | {r.n_docs:,} | "
                     f"{r.weight_micro / 1e4:.2f}% | {cpt:.2f} |")
    lines += ["", "## Source dedup yield", "",
              "| source | docs | unique | yield |", "|---|---|---|---|"]
    for r in srcs.itertuples(index=False):
        lines.append(f"| {r.source} | {r.n_docs:,} | {r.n_unique:,} | "
                     f"{r.yield_micro / 1e4:.2f}% |")
    n_cl = len(clusters)
    lines += ["", f"## Duplicate clusters (>= 2 copies): {n_cl}"]
    if n_cl:
        worst = clusters.sort_values("n_copies",
                                     ascending=False).head(5)
        for r in worst.itertuples(index=False):
            lines.append(f"- {r.n_copies} copies across {r.n_sources} "
                         f"source(s), doc ids {r.min_doc}..{r.max_doc}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report: wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_mixture(args) -> int:
    """Training-mixture curation over a documents parquet: quality
    gate → exact dedup → decontamination against a benchmark parquet
    → sequence packing; writes (doc_id, n_tokens, pack_id) parquet."""
    _ensure_ray(args.num_cpus)
    import ray.data as rd

    from .pipelines.mixture import training_mixture

    docs = rd.read_parquet(args.docs, columns=["doc_id", "text"])
    bench = rd.read_parquet(args.bench, columns=["doc_id", "text"])
    packed = training_mixture(docs, bench,
                              quality_threshold=args.quality,
                              ngram=args.ngram, budget=args.budget)
    packed.write_parquet(args.out)
    import glob
    n = sum(1 for _ in glob.glob(f"{args.out}/*.parquet"))
    total = rd.read_parquet(args.out).count()
    print(f"packed={total} files={n} out={args.out}")
    return 0


def cmd_compact(args) -> int:
    """Compact per-round crawl checkpoints into consolidated
    hash-sharded parquet (docs or chunks)."""
    _ensure_ray(args.num_cpus)
    from .pipelines.compact import compact_crawl_output

    rounds, n_rows = compact_crawl_output(args.out, args.dest,
                                          what=args.what,
                                          n_shards=args.shards)
    print(f"compacted rounds={rounds} rows={n_rows} dest={args.dest}")
    return 0


def cmd_sitemap(args) -> int:
    """Sitemap-only discovery export: robots → sitemap recursion →
    filters → frontier lines (no fetching; reference sitemap command)."""
    from .pipelines.crawl_spec import discover_seed_frontier
    from .kernels.sitemap import export_frontier_lines
    from .sources.synth import SiteSpec, SyntheticWeb
    from .state.robots import LocalRobotsCache

    spec = SiteSpec(n_hosts=args.hosts, pages_per_host=args.pages)
    web = SyntheticWeb(spec)
    robots = LocalRobotsCache(web.resolve)
    rows = []
    for i, seed in enumerate(args.seed or spec.seed_urls()):
        rows.extend(discover_seed_frontier(
            web.resolve, robots, seed, i,
            min_priority=args.min_priority, limit=args.limit))
    text = export_frontier_lines(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {len(rows)} urls to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_config(args) -> int:
    """Show / save / validate the effective engine config (reference
    cli.py config subcommand surface).  Precedence: file < env."""
    import json as _json

    from .config import EngineConfig

    try:
        if args.load:
            cfg = EngineConfig.from_file(args.load)
            env = EngineConfig.env_overrides()
            if env:
                cfg = cfg.update(**env)
        else:
            cfg = EngineConfig.from_env()
        if args.save:
            cfg.save_to_file(args.save)
            print(f"wrote {args.save}")
        else:
            print(_json.dumps(cfg.to_dict(), indent=2))
    except (ValueError, FileNotFoundError, ImportError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="markdown_lab_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("convert", help="HTML → markdown/json/xml (+chunks)")
    p.add_argument("--html", help="single HTML file")
    p.add_argument("--url", help="base URL for link resolution")
    p.add_argument("--input-parquet", help="parquet with url/html columns")
    p.add_argument("--format", default="markdown",
                   choices=["markdown", "json", "xml"])
    p.add_argument("--chunks", action="store_true")
    p.add_argument("--out")
    p.add_argument("--shard-output", type=int, metavar="N",
                   help="write N hash-bucketed parquet shards with "
                        "per-shard resume sentinels instead of "
                        "per-URL files")
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("crawl", help="BSP crawl over a resolver")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", help="links.txt (default: all synthetic hosts)")
    p.add_argument("--config", help="json/yaml EngineConfig file "
                   "(flags override file values)")
    p.add_argument("--synthetic", action="store_true", default=True)
    p.add_argument("--resolver", choices=["synthetic", "http"],
                   default="synthetic",
                   help="fetch tier: deterministic synthetic web or a "
                        "real HTTP session pool (sources/http.py)")
    p.add_argument("--hosts", type=int, default=9)
    p.add_argument("--pages", type=int, default=40)
    p.add_argument("--rps", type=float)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--authority-boost", type=int,
                   help="top-PageRank-band hosts earn this budget "
                        "multiplier (host-authority frontier weighting)")
    p.add_argument("--trap-cap", type=int,
                   help="crawler-trap guard: max links per path "
                        "template leaving any single page (0 = off)")
    p.add_argument("--freshness", action="store_true",
                   help="map sitemap changefreq to frontier priority "
                        "when a row declares none (freshness-aware "
                        "scheduling)")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_crawl)

    p = sub.add_parser("batch", help="fetch+convert a links file "
                       "directly (no discovery; reference `batch` verb)")
    p.add_argument("links", help="links.txt: one URL per line "
                   "(# comments / blanks skipped)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="markdown",
                   choices=["markdown", "json", "xml"])
    p.add_argument("--chunks", action="store_true",
                   help="also write RAG chunks sidecar parquet")
    p.add_argument("--resolver", choices=["synthetic", "http"],
                   default="synthetic")
    p.add_argument("--hosts", type=int, default=9)
    p.add_argument("--pages", type=int, default=40)
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("status", help="inspect a crawl output dir "
                       "(rounds, counts, partial/resume state)")
    p.add_argument("--out", required=True)
    p.add_argument("--timings", action="store_true",
                   help="show per-phase round timings")
    p.add_argument("--health", action="store_true",
                   help="per-host health panel (fetched/failed/"
                        "deferred/rounds) from the checkpoints")
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("sitemap", help="sitemap-only discovery export "
                       "(no fetching)")
    p.add_argument("--seed", action="append",
                   help="seed URL (repeatable; default: all hosts)")
    p.add_argument("--hosts", type=int, default=9)
    p.add_argument("--pages", type=int, default=40)
    p.add_argument("--min-priority", type=float)
    p.add_argument("--limit", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sitemap)

    p = sub.add_parser("config", help="show/save/validate engine config "
                       "(file < env precedence)")
    p.add_argument("--load", help="json/yaml config file to load first")
    p.add_argument("--save", help="write the effective config here "
                   "(.json/.yaml)")
    p.set_defaults(fn=cmd_config)

    p = sub.add_parser("tui", help="curses crawl monitor (reference "
                       "tui surface; --once prints one frame)")
    p.add_argument("--out", required=True, help="crawl output dir to watch")
    p.add_argument("--once", action="store_true",
                   help="render one frame to stdout and exit")
    p.add_argument("--tab", default="status",
                   choices=("status", "rounds", "config"))
    p.set_defaults(fn=cmd_tui)

    p = sub.add_parser("report", help="dataset-card report over a "
                       "documents parquet (summary, language mixture, "
                       "source yield, dup clusters)")
    p.add_argument("--docs", required=True,
                   help="documents parquet (doc_id, text, lang, source)")
    p.add_argument("--out", help="write markdown here instead of stdout")
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("mixture", help="training-mixture curation: "
                       "quality gate → dedup → decontaminate → pack")
    p.add_argument("--docs", required=True,
                   help="documents parquet (doc_id, text)")
    p.add_argument("--bench", required=True,
                   help="benchmark parquet to decontaminate against")
    p.add_argument("--out", required=True)
    p.add_argument("--quality", type=float, default=0.6)
    p.add_argument("--ngram", type=int, default=5)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_mixture)

    p = sub.add_parser("compact", help="compact per-round crawl "
                       "checkpoints into consolidated sharded parquet")
    p.add_argument("--out", required=True, help="crawl output dir")
    p.add_argument("--dest", required=True, help="fresh destination dir")
    p.add_argument("--what", default="docs", choices=["docs", "chunks"])
    p.add_argument("--shards", type=int, default=16)
    p.add_argument("--num-cpus", type=int)
    p.set_defaults(fn=cmd_compact)

    args = parser.parse_args(argv)
    code = args.fn(args)
    # only tear down a session WE started — an embedding caller (tests,
    # a driver) keeps its own session; Ray-free commands (status,
    # sitemap, config) never pay the ray import at all
    global _OWNS_RAY
    if _OWNS_RAY:
        import ray
        if ray.is_initialized():
            ray.shutdown()
        _OWNS_RAY = False
    return code


def tui_main(argv=None) -> int:
    """``mlab-ray-tui [...]`` == ``mlab-ray tui [...]`` (the reference
    ships a dedicated ``mlab-tui`` console script, pyproject.toml:41)."""
    args = list(sys.argv[1:] if argv is None else argv)
    return main(["tui", *args])


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

from markdown_lab_ray.kernels.errors import (
    HttpStatusError,
    NetworkError,
    retry_with_backoff,
)
from markdown_lab_ray.kernels.markdown_parse import parse_markdown_to_document
from markdown_lab_ray.sources.io import render_js_page


def test_markdown_parse_fallback():
    md = ("# My Title\n\n## Section\n\npara one\n\n```python\nx = 1\n```\n"
          "> quoted\n")
    doc = parse_markdown_to_document(md, "https://e.com")
    assert doc["title"] == "My Title"
    assert {"level": 2, "text": "Section"} in doc["headings"]
    assert "para one" in doc["paragraphs"]
    assert doc["code_blocks"] == [{"language": "python", "code": "x = 1"}]
    assert doc["blockquotes"] == ["quoted"]


def test_markdown_parse_no_title():
    assert parse_markdown_to_document("plain text")["title"] == "No Title"


def test_retry_with_backoff():
    sleeps = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise HttpStatusError("https://x", 503)
        return "ok"

    assert retry_with_backoff(flaky, max_retries=3,
                              sleeper=sleeps.append) == "ok"
    assert sleeps == [1.0, 2.0]  # 2**0, 2**1

    def always_404():
        raise HttpStatusError("https://x", 404)

    with pytest.raises(HttpStatusError):  # 404 not retryable
        retry_with_backoff(always_404, max_retries=3, sleeper=sleeps.append)
    assert len(sleeps) == 2  # no extra sleeps

    with pytest.raises(ZeroDivisionError):  # programming errors surface
        retry_with_backoff(lambda: 1 / 0, max_retries=0,       # unchanged
                           sleeper=sleeps.append)

    with pytest.raises(NetworkError):  # retryable non-taxonomy errors
        retry_with_backoff(lambda: 1 / 0, max_retries=0,       # get wrapped
                           sleeper=sleeps.append,
                           retry_if=lambda e: True)


def test_render_js_stub():
    assert render_js_page("inline://<h1>Hi</h1>") == "<h1>Hi</h1>"
    with pytest.raises(NotImplementedError):
        render_js_page("https://example.com")
    with pytest.raises(TypeError):
        render_js_page(123)


def test_sinks(ray_session, tmp_path):
    import ray.data as rd

    from markdown_lab_ray.sources.io import (
        export_frontier_file,
        read_seed_links,
        write_chunks_json_files,
        write_chunks_jsonl,
        write_rendered_files,
    )

    seeds_file = tmp_path / "links.txt"
    seeds_file.write_text("# comment\nhttps://a.com\n\nhttps://b.com\n")
    seeds = read_seed_links(str(seeds_file))
    assert seeds.count() == 2

    rendered = rd.from_items([
        {"url": "https://e.com/x", "payload": "# X"},
        {"url": "https://e.com/y", "payload": "# Y"},
    ])
    out = write_rendered_files(rendered, str(tmp_path / "md"), "markdown")
    assert sorted(os.listdir(out)) == ["e.com_x.md", "e.com_y.md"]

    chunks = rd.from_items([
        {"chunk_id": "c1", "content": "one"},
        {"chunk_id": "c2", "content": "two"},
    ])
    jl = write_chunks_jsonl(chunks, str(tmp_path / "jl"))
    lines = []
    for f in os.listdir(jl):
        lines += open(os.path.join(jl, f)).read().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["chunk_id"] in ("c1", "c2")

    jd = write_chunks_json_files(chunks, str(tmp_path / "jd"))
    assert sorted(os.listdir(jd)) == ["c1.json", "c2.json"]

    frontier = rd.from_items([
        {"loc": "https://a.com/1", "priority": 0.9, "lastmod": "2023-01-01"},
        {"loc": "https://a.com/2", "priority": None, "lastmod": None},
    ])
    path = export_frontier_file(frontier, str(tmp_path / "urls.txt"))
    body = open(path).read()
    assert "https://a.com/1,0.9,2023-01-01\n" in body
    assert "https://a.com/2\n" in body


def test_cli_convert_single_file(tmp_path):
    html = tmp_path / "page.html"
    html.write_text("<html><head><title>T</title></head><body>"
                    "<h1>H</h1><p>body</p></body></html>")
    out = subprocess.run(
        [sys.executable, "-m", "markdown_lab_ray", "convert",
         "--html", str(html), "--url", "https://e.com"],
        capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 0, out.stderr
    assert "# T" in out.stdout
    assert "# H" in out.stdout


def test_image_transform_and_phash_pairs(ray_session):
    import ray.data as rd

    from markdown_lab_ray.sources.synth import SiteSpec, build_images_table
    from markdown_lab_ray.stages.images import ImageTransform, phash_near_dup_pairs

    spec = SiteSpec(n_images=40)
    table = build_images_table(spec)
    ds = rd.from_arrow(table)
    out = ds.map_batches(ImageTransform, batch_format="pyarrow",
                         batch_size=16, concurrency=(1, 2)).take_all()
    assert len(out) == 40
    assert all(r["decode_ok"] for r in out)
    assert all(len(r["feature"]) == 24 for r in out)

    pairs = phash_near_dup_pairs(ds, hamming_threshold=6)
    got = {tuple(p) for p in pairs[["a", "b"]].to_numpy().tolist()}
    # every 10th image is a near-dup of its predecessor
    assert ("img000008", "img000009") in got
    assert ("img000018", "img000019") in got


def test_embedding_near_dup(ray_session):
    import numpy as np
    import ray.data as rd

    from markdown_lab_ray.stages.similarity import embedding_near_dup_pairs

    rng = np.random.RandomState(0)
    base = rng.normal(size=16)
    rows = [
        {"vec_id": 0, "embedding": base.tolist()},
        {"vec_id": 1, "embedding": (base + 0.01 * rng.normal(size=16)).tolist()},
        {"vec_id": 2, "embedding": rng.normal(size=16).tolist()},
    ]
    pairs = embedding_near_dup_pairs(rd.from_items(rows), dim=16,
                                     cosine_threshold=0.95)
    assert [0, 1] in pairs[["a", "b"]].to_numpy().tolist()
    assert not any(2 in p for p in pairs[["a", "b"]].to_numpy().tolist())


def test_cli_help_and_errors():
    out = subprocess.run([sys.executable, "-m", "markdown_lab_ray", "--help"],
                         capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 0
    assert "convert" in out.stdout and "crawl" in out.stdout
    out = subprocess.run([sys.executable, "-m", "markdown_lab_ray"],
                         capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 2  # missing subcommand → argparse error
    out = subprocess.run([sys.executable, "-m", "markdown_lab_ray",
                          "convert"],
                         capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 2
    assert "need --html or --input-parquet" in out.stderr


def test_microbench_runs():
    out = subprocess.run([sys.executable, "scripts/microbench.py", "--json"],
                         capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 0
    data = json.loads(out.stdout.strip())
    assert any(k.startswith("convert/") for k in data)


def test_write_sharded_parquet_resume(ray_session, tmp_path):
    """Kill-and-resume contract: delete some shards' sentinels + files,
    re-run, and the final read equals the full dataset with no
    duplicates; untouched shards are not rewritten."""
    import glob
    import os
    import shutil

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from markdown_lab_ray.sources.io import (
        read_sharded_parquet,
        write_sharded_parquet,
    )

    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64) % 37,
                       "v": np.arange(500, dtype=np.int64)})
    out = str(tmp_path / "sharded")
    ds = rd.from_pandas(df).repartition(5)
    first = write_sharded_parquet(ds, out, key_col="k", n_shards=8)
    assert first == sorted(first) and len(first) > 0

    # simulate a partial failure: wipe two shards entirely
    victims = sorted(glob.glob(os.path.join(out, "shard=*")))[:2]
    for v in victims:
        shutil.rmtree(v)
    # record mtimes of a surviving shard's files (must not be rewritten)
    survivor = sorted(glob.glob(os.path.join(out, "shard=*")))[0]
    before = {p: os.path.getmtime(p)
              for p in glob.glob(os.path.join(survivor, "*.parquet"))}

    second = write_sharded_parquet(rd.from_pandas(df).repartition(5),
                                   out, key_col="k", n_shards=8)
    assert len(second) == len(victims)

    after = {p: os.path.getmtime(p)
             for p in glob.glob(os.path.join(survivor, "*.parquet"))}
    assert before == after  # resume skipped the finished shard

    got = (read_sharded_parquet(out).to_pandas()
           .sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "v"]], df)


def test_read_sharded_parquet_ignores_incomplete(ray_session, tmp_path):
    import glob
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from markdown_lab_ray.sources.io import (
        read_sharded_parquet,
        write_sharded_parquet,
    )

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64) % 5,
                       "v": np.arange(100, dtype=np.int64)})
    out = str(tmp_path / "sharded2")
    write_sharded_parquet(rd.from_pandas(df), out, key_col="k", n_shards=4)
    # strip one sentinel: that shard must disappear from reads
    sentinels = sorted(glob.glob(os.path.join(out, "shard=*/_SHARD_DONE")))
    os.remove(sentinels[0])
    got = read_sharded_parquet(out).to_pandas()
    assert 0 < len(got) < len(df)


def test_write_sharded_parquet_crash_before_sentinel_no_dups(ray_session,
                                                             tmp_path):
    """A shard whose files landed but whose sentinel didn't (crash
    between the data write and the sentinel pass) must be wiped and
    rewritten on resume — not appended to (which would duplicate every
    row of the shard)."""
    import glob
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from markdown_lab_ray.sources.io import (
        read_sharded_parquet,
        write_sharded_parquet,
    )

    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64) % 37,
                       "v": np.arange(500, dtype=np.int64)})
    out = str(tmp_path / "sharded3")
    write_sharded_parquet(rd.from_pandas(df).repartition(5), out,
                          key_col="k", n_shards=8)
    # simulate the crash: sentinel gone, data files still present
    victim = sorted(glob.glob(os.path.join(out, "shard=*/_SHARD_DONE")))[0]
    os.remove(victim)

    write_sharded_parquet(rd.from_pandas(df).repartition(5), out,
                          key_col="k", n_shards=8)
    got = (read_sharded_parquet(out).to_pandas()
           .sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "v"]], df)  # no duplicates


def test_read_sharded_parquet_empty_dir(ray_session, tmp_path):
    from markdown_lab_ray.sources.io import read_sharded_parquet

    out = str(tmp_path / "nothing")
    import os
    os.makedirs(out)
    assert read_sharded_parquet(out).count() == 0


def test_cli_convert_shard_output(ray_session, tmp_path):
    """`convert --input-parquet --shard-output N` writes the resumable
    sharded sink and a re-run skips the finished shards."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from markdown_lab_ray.cli import main
    from markdown_lab_ray.sources.io import read_sharded_parquet

    src = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": pa.array([f"https://h/p{i}" for i in range(40)]),
        "html": pa.array([f"<html><body><h1>T{i}</h1><p>body {i}"
                          f"</p></body></html>" for i in range(40)]),
    }), src)
    out = str(tmp_path / "shards")
    rc = main(["convert", "--input-parquet", src, "--out", out,
               "--shard-output", "4"])
    assert rc == 0
    got = read_sharded_parquet(out)
    assert got.count() == 40
    # second run: everything already done, nothing rewritten
    rc = main(["convert", "--input-parquet", src, "--out", out,
               "--shard-output", "4"])
    assert rc == 0
    assert read_sharded_parquet(out).count() == 40


def test_cli_batch_links_file(ray_session, tmp_path, capsys):
    """`mlab batch links.txt` end-to-end (reference scraper.py:444-598):
    direct fetch of the listed URLs — no discovery — per-URL rendered
    files + parquet checkpoint + chunks sidecar."""
    import glob

    import pyarrow.parquet as pq

    from markdown_lab_ray.cli import main

    links = tmp_path / "links.txt"
    links.write_text(
        "# seed list\n"
        "https://h000.example.com/page/1\n"
        "\n"
        "https://h001.example.com/page/2\n"
        "https://h000.example.com/page/999\n")  # 404 → failure row
    out = str(tmp_path / "batch_out")
    rc = main(["batch", str(links), "--out", out, "--chunks"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "converted=2 failed=1" in captured
    docs = pq.read_table(glob.glob(f"{out}/docs/*.parquet"))
    assert docs.num_rows == 3
    by_url = dict(zip(docs.column("url").to_pylist(),
                      docs.column("status").to_pylist()))
    assert by_url["https://h000.example.com/page/999"] == 404
    rendered = glob.glob(f"{out}/rendered/*.md")
    assert len(rendered) == 2  # only the 200s
    assert glob.glob(f"{out}/chunks/*.parquet")
    # payload is real markdown from the page parse
    payloads = docs.column("payload").to_pylist()
    assert any("# " in (p or "") for p in payloads)


def test_batch_convert_keeps_chunks_of_repeated_urls(tmp_path):
    """A links list that has one URL in two batches: each batch writes
    its own chunks part, so every page keeps its chunks."""
    import functools
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from markdown_lab_ray.pipelines.convert import _fetch_render_batch
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    spec = SiteSpec(n_hosts=1, pages_per_host=3)
    p0, p1, p2 = (spec.page_url(0, j) for j in range(3))
    out = str(tmp_path / "batch_out")
    for seq, locs in ((0, [p0, p1]), (2, [p0, p2])):
        _fetch_render_batch(
            pa.table({"loc": locs, "seq": [seq, seq + 1]}),
            functools.partial(SyntheticWeb, spec), "markdown", out,
            save_chunks=True)
    chunks = pq.read_table(glob.glob(f"{out}/chunks/*.parquet"))
    assert set(chunks.column("source_url").to_pylist()) == {p0, p1, p2}
    docs = pq.read_table(glob.glob(f"{out}/docs/*.parquet"))
    assert sorted(docs.column("url").to_pylist()) == sorted([p0, p0, p1, p2])


def test_cli_batch_json_format(ray_session, tmp_path):
    from markdown_lab_ray.cli import main

    links = tmp_path / "links.txt"
    links.write_text("https://h000.example.com/page/1\n")
    out = str(tmp_path / "bj")
    rc = main(["batch", str(links), "--out", out, "--format", "json"])
    assert rc == 0
    import glob
    import json

    files = glob.glob(f"{out}/rendered/*.json")
    assert len(files) == 1
    doc = json.loads(open(files[0]).read())
    assert doc["base_url"] == "https://h000.example.com/page/1"

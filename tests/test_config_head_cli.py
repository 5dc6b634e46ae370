"""Round-2 surfaces: EngineConfig file load/update, HEAD fetch tier,
status CLI, sitemap-only export (VERDICT r01 #5-#7)."""

import json

import pytest


# -- config ----------------------------------------------------------------

def test_config_from_file_json_roundtrip(tmp_path):
    from markdown_lab_ray.config import EngineConfig

    cfg = EngineConfig(requests_per_second=2.5, chunk_size=800,
                       max_rounds=4)
    path = tmp_path / "engine.json"
    cfg.save_to_file(path)
    loaded = EngineConfig.from_file(path)
    assert loaded == cfg


def test_config_from_file_yaml_roundtrip(tmp_path):
    from markdown_lab_ray.config import EngineConfig

    cfg = EngineConfig(fetch_mode="tasks", seen_shards=4)
    path = tmp_path / "engine.yaml"
    cfg.save_to_file(path)
    assert EngineConfig.from_file(path) == cfg


def test_config_from_file_errors(tmp_path):
    from markdown_lab_ray.config import EngineConfig

    with pytest.raises(FileNotFoundError):
        EngineConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "engine.toml"
    bad.write_text("x = 1")
    with pytest.raises(ValueError):
        EngineConfig.from_file(bad)


def test_config_update_immutable_and_validated():
    from markdown_lab_ray.config import EngineConfig

    cfg = EngineConfig()
    new = cfg.update(chunk_size=500, chunk_overlap=100)
    assert new.chunk_size == 500 and cfg.chunk_size == 1000
    with pytest.raises(ValueError):
        cfg.update(chunk_overlap=5000)  # overlap >= size
    with pytest.raises(ValueError):
        cfg.update(default_output_format="pdf")
    with pytest.raises(TypeError):
        cfg.update(not_a_field=1)


def test_config_fetch_tier_has_one_mode():
    """``fetch_mode`` has one legal value; the removed actor tier and its
    knobs are rejected, not silently ignored."""
    from markdown_lab_ray.config import EngineConfig

    assert EngineConfig().fetch_mode == "tasks"
    assert EngineConfig.from_dict({"fetch_mode": "tasks"}).fetch_mode == "tasks"
    with pytest.raises(ValueError, match="removed"):
        EngineConfig.from_dict({"fetch_mode": "actors"})
    with pytest.raises(TypeError):  # removed knob: an unknown key
        EngineConfig.from_dict({"parse_concurrency": 0})


def test_config_rejects_non_positive_authority_edge_cap():
    """``merge_edges`` keeps ``sorted(edges)[:cap]``: a negative cap
    would drop the largest edges every round and 0 would turn authority
    off, so neither passes validation."""
    from markdown_lab_ray.config import EngineConfig

    for cap in (-5, 0):
        with pytest.raises(ValueError, match="authority_edge_cap"):
            EngineConfig.from_dict({"authority_boost": 2,
                                    "authority_edge_cap": cap})
    assert EngineConfig.from_dict(
        {"authority_boost": 2, "authority_edge_cap": 1}).authority_edge_cap == 1


def test_config_from_env_validates(monkeypatch):
    """``from_env`` (the submit script's and the CLI's constructor)
    rejects what ``from_dict`` and ``update`` reject, including a
    ``seen_shards`` below 1 (it is the seen runs' bucket modulus)."""
    from markdown_lab_ray.config import EngineConfig

    monkeypatch.setenv("MARKDOWN_LAB_AUTHORITY_EDGE_CAP", "-5")
    with pytest.raises(ValueError, match="authority_edge_cap"):
        EngineConfig.from_env(authority_boost=2)
    monkeypatch.delenv("MARKDOWN_LAB_AUTHORITY_EDGE_CAP")
    monkeypatch.setenv("MARKDOWN_LAB_SEEN_SHARDS", "0")
    with pytest.raises(ValueError, match="seen_shards"):
        EngineConfig.from_env()
    monkeypatch.setenv("MARKDOWN_LAB_SEEN_SHARDS", "3")
    assert EngineConfig.from_env().seen_shards == 3
    with pytest.raises(ValueError, match="seen_shards"):
        EngineConfig().update(seen_shards=0)


def test_config_file_env_flag_layering(tmp_path, monkeypatch):
    """CLI precedence contract: file < env < flags."""
    from markdown_lab_ray.config import EngineConfig

    path = tmp_path / "engine.json"
    EngineConfig(requests_per_second=2.0, max_rounds=7).save_to_file(path)
    monkeypatch.setenv("MARKDOWN_LAB_MAX_ROUNDS", "3")
    cfg = EngineConfig.from_file(path).update(
        **{**EngineConfig.env_overrides(), "requests_per_second": 9.0})
    assert cfg.max_rounds == 3          # env beat file
    assert cfg.requests_per_second == 9.0  # flag beat both


# -- HEAD tier -------------------------------------------------------------

def test_synthetic_web_head_matches_get_status():
    from markdown_lab_ray.sources.synth import SiteSpec, SyntheticWeb

    web = SyntheticWeb(SiteSpec(n_hosts=2, pages_per_host=3))
    ok_url = f"https://{web.spec.host(0)}/page/1"
    bad_url = f"https://{web.spec.host(0)}/page/99"
    for url in (ok_url, bad_url):
        get_status, body = web.resolve(url)
        head_status, headers = web.head(url)
        assert head_status == get_status
        assert headers["content-length"] == len(
            body.encode() if isinstance(body, str) else body)


def test_frontier_freshness_query(ray_session):
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    df = entry.queries()["frontier_freshness"]("unused").to_pandas()
    # every host shows 200s for real pages and 404s for the +2 probes
    assert set(df["status"].unique()) == {200, 404}
    ok = df[df["status"] == 200]
    assert (ok["n_urls"] == 10).all() and len(ok) == 4
    bad = df[df["status"] == 404]
    assert (bad["n_urls"] == 2).all() and (bad["total_bytes"] == 0).all()


# -- status + sitemap CLI --------------------------------------------------

def test_status_cli_reads_manifests(tmp_path, capsys):
    from markdown_lab_ray.cli import main

    rdir = tmp_path / "rounds" / "round=0"
    rdir.mkdir(parents=True)
    (rdir / "_MANIFEST.json").write_text(json.dumps(
        {"round": 0, "scheduled": 10, "fetched": 9, "failed": 1,
         "deferred": 5, "timings": {"schedule": 1.0}}))
    partial = tmp_path / "rounds" / "round=1"
    partial.mkdir()  # killed mid-round: no manifest

    code = main(["status", "--out", str(tmp_path), "--timings"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PARTIAL" in out
    assert "IN PROGRESS/KILLED" in out
    assert "schedule=1.0s" in out

    (tmp_path / "_CRAWL.json").write_text(
        json.dumps({"rounds": 1, "fetched": 9, "failed": 1}))
    main(["status", "--out", str(tmp_path)])
    assert "FINISHED" in capsys.readouterr().out


def test_status_cli_missing_dir(tmp_path, capsys):
    from markdown_lab_ray.cli import main

    assert main(["status", "--out", str(tmp_path / "nope")]) == 2


def test_sitemap_cli_export(tmp_path, capsys):
    from markdown_lab_ray.cli import main

    out = tmp_path / "frontier.txt"
    code = main(["sitemap", "--hosts", "2", "--pages", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    urls = [line for line in lines if line.startswith("http")]
    assert urls and all("example" in u for u in urls)


def test_config_cli_show_save_load(tmp_path, capsys, monkeypatch):
    from markdown_lab_ray.cli import main

    monkeypatch.setenv("MARKDOWN_LAB_CHUNK_SIZE", "750")
    assert main(["config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["chunk_size"] == 750

    out = tmp_path / "engine.yaml"
    assert main(["config", "--save", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.delenv("MARKDOWN_LAB_CHUNK_SIZE")
    assert main(["config", "--load", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["chunk_size"] == 750

    assert main(["config", "--load", str(tmp_path / "nope.json")]) == 2

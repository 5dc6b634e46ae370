"""Ratchet on hand-rolled bucket shuffles (tag → ``groupby("_b")`` →
pandas fold) under ``markdown_lab_ray/stages/``: each module's count may
only fall.  A slice that moves a module onto ``bucketing.keyed_fold``
lowers that module's ceiling here.  There were 85 sites before the graph
operators moved (graph.py held 21) and 64 before the analytics operators
moved (analytics.py held 45)."""

import pathlib

_STAGES = (pathlib.Path(__file__).resolve().parent.parent
           / "markdown_lab_ray" / "stages")

_CEILING = {"text.py": 5, "dedup.py": 4,
            "windows.py": 3, "trainprep.py": 3, "diff.py": 1,
            "images.py": 1, "joins.py": 1, "similarity.py": 1}


def _sites() -> dict:
    return {p.name: p.read_text().count('groupby("_b")')
            for p in sorted(_STAGES.glob("*.py"))}


def test_graph_runs_on_keyed_fold_alone():
    src = (_STAGES / "graph.py").read_text()
    for hand_rolled in ('groupby("_b")', "map_groups", "tag_buckets_batch",
                        "key_buckets"):
        assert hand_rolled not in src, hand_rolled
    # analytics keeps a few groupby(key).map_groups on a real key
    src = (_STAGES / "analytics.py").read_text()
    for hand_rolled in ('groupby("_b")', 'groupby("_b2")',
                        "tag_buckets_batch", "key_buckets"):
        assert hand_rolled not in src, hand_rolled


def test_no_module_gains_a_hand_rolled_shuffle():
    sites = _sites()
    assert sum(sites.values()) <= 19
    over = {m: n for m, n in sites.items() if n > _CEILING.get(m, 0)}
    assert not over, over

"""Round-5 operator wave: percent-rank window pair + linear multi-touch
attribution — hand-case semantics pins (the sf oracles check the full
tables; these pin the tie/edge rules a refactor could silently bend)."""

import numpy as np
import pandas as pd


def test_percent_rank_hand_case(ray_session):
    import ray.data as rd

    from markdown_lab_ray.stages.analytics import percent_rank_table

    # type A: values 10, 20, 20, 30 → RANK 1,2,2,4 → pr 0, 1/3, 1/3, 1
    # cume: 1/4, 3/4, 3/4, 1
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5],
        "event_type": ["A", "A", "A", "A", "B"],
        "value": [10.0, 20.0, 20.0, 30.0, 7.0],
    })
    out = (percent_rank_table(rd.from_pandas(df)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    assert out["pr_micro"].tolist() == [0, 333333, 333333, 1000000, 0]
    assert out["cume_micro"].tolist() == [250000, 750000, 750000,
                                          1000000, 1000000]
    # single-row key → pr 0 (the n==1 branch), cume 1
    assert out.loc[out["event_type"] == "B", "pr_micro"].tolist() == [0]


def test_linear_attribution_hand_case(ray_session):
    import ray.data as rd

    from markdown_lab_ray.stages.analytics import linear_attribution

    ts = pd.to_datetime([1, 2, 3, 4, 5, 6, 7], unit="s")
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6, 7],
        "user_id":  [1, 1, 1, 1, 2, 2, 3],
        "event_type": ["view", "click", "purchase", "purchase",
                       "view", "purchase", "purchase"],
        "ts": ts,
    })
    out = (linear_attribution(rd.from_pandas(df)).to_pandas()
           .set_index("touch_type"))
    # user 1: purchase@3 splits over {view, click} → 500000 each;
    # purchase@4 splits over the same distinct set → another 500000.
    # user 2: purchase@6 credits view fully (1000000).
    # user 3: purchase with no prior touch → contributes nothing.
    assert out.loc["view", "credit_micro"] == 500000 * 2 + 1000000
    assert out.loc["click", "credit_micro"] == 500000 * 2
    assert out.loc["view", "n_touches"] == 3
    assert out.loc["click", "n_touches"] == 2
    assert set(out.index) == {"view", "click"}


def test_percent_rank_rejects_null_values(ray_session):
    """A null value fails fast, with the null count, instead of ranking
    as NaN (last) where the SQL twin follows NULL rules."""
    import pytest
    import ray.data as rd

    from markdown_lab_ray.stages.analytics import percent_rank_table

    df = pd.DataFrame({
        "event_id": [1, 2, 3],
        "event_type": ["A", "A", "B"],
        "value": [10.0, None, 7.0],
    })
    with pytest.raises(ValueError, match="1 rows with a null 'value'"):
        percent_rank_table(rd.from_pandas(df))

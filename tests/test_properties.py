"""Property-based tests (hypothesis) — the reference ships none
(SURVEY §5: "Property/randomized testing: none"); these harden the
kernels beyond its suite."""

from hypothesis import given, settings
from hypothesis import strategies as st

from markdown_lab_ray.kernels.chunker import chunk_markdown_char, create_semantic_chunks
from markdown_lab_ray.kernels.dom import parse_html
from markdown_lab_ray.kernels.html_kernels import (
    convert_page,
    extract_links,
    parse_html_to_document,
)
from markdown_lab_ray.kernels.urls import normalize_url, url_seen_key
from markdown_lab_ray.state.seen import CuckooFilter, LocalSeen

html_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400)


@settings(max_examples=80, deadline=None)
@given(html_text)
def test_dom_never_crashes(text):
    root = parse_html(text)
    assert root is not None
    root.select("p, a[href], .x, #y")


@settings(max_examples=60, deadline=None)
@given(html_text)
def test_parse_document_total(text):
    doc = parse_html_to_document(text, "https://fuzz.example.com")
    assert set(doc) == {"title", "base_url", "headings", "paragraphs",
                        "links", "images", "lists", "code_blocks",
                        "blockquotes"}


_WRAPPERS = [("<nav>", "</nav>"), ("<header>", "</header>"),
             ("<footer>", "</footer>"), ("<script>", "</script>"),
             ('<div class="ad">', "</div>"), ("<p>", "</p>")]
_HREFS = ["", "#x", "javascript:x", "/rel", "http://abs.test/x",
          "mailto:a@b", " sp ace", "HTTP://UP.test:80"]

_anchor = st.builds(lambda href, text: f'<a href="{href}">{text}</a>',
                    st.sampled_from(_HREFS),
                    st.sampled_from(["", "t", "two words"]))
_fragment = st.recursive(
    _anchor | st.sampled_from(["text ", "<a>bare</a>"]),
    lambda inner: st.builds(lambda wrap, parts: wrap[0] + "".join(parts)
                            + wrap[1],
                            st.sampled_from(_WRAPPERS),
                            st.lists(inner, max_size=3)),
    max_leaves=12)
_page = st.lists(_fragment, max_size=5).map(
    lambda parts: "<html><head><title>T</title></head><body>"
    + "".join(parts) + "</body></html>")


@settings(max_examples=80, deadline=None)
@given(_page, st.sampled_from(["https://fuzz.example.com/a/b",
                               "http://h.test"]))
def test_convert_page_matches_document_and_links(html, url):
    """The one-walk kernel gives exactly the Document and the
    select-based ``extract_links`` of the page, anchors inside stripped
    (nav/header/footer/script/ad) subtrees included."""
    assert convert_page(html, url) == (parse_html_to_document(html, url),
                                       extract_links(html, url))


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=2000),
       st.integers(min_value=2, max_value=500),
       st.integers(min_value=0, max_value=100))
def test_char_chunker_invariants(markdown, size, overlap):
    if overlap >= size:
        overlap = size - 1
    chunks = chunk_markdown_char(markdown, size, overlap)
    for c in chunks:
        assert c["content"]
        assert c["word_count"] == len(c["content"].split())
        assert c["char_count"] == len(c["content"])
        assert 0.0 <= c["semantic_density"] <= 1.2
    # positions strictly increasing
    positions = [c["position"] for c in chunks]
    assert positions == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=1500))
def test_section_chunker_no_content_loss(text):
    """Every non-whitespace character of the input appears in some chunk
    (section mode splits on lines/words but never drops content)."""
    chunks = create_semantic_chunks(text, "https://e.com/x")
    joined = " ".join(c["content"] for c in chunks)
    assert sorted("".join(text.split())) == sorted("".join(joined.split()))


@settings(max_examples=100, deadline=None)
@given(st.from_regex(r"https?://[a-z0-9.]{1,20}(/[a-zA-Z0-9._~/-]{0,30})?"
                     r"(\?[a-z=&]{0,10})?(#[a-z]{0,8})?", fullmatch=True))
def test_normalize_idempotent(url):
    once = normalize_url(url)
    assert normalize_url(once) == once
    assert url_seen_key(url) == url_seen_key(once)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=200))
def test_cuckoo_no_false_negatives(keys):
    f = CuckooFilter(4096)
    inserted = [k for k in keys if f.add(k)]
    assert all(f.contains(k) for k in inserted)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=20), max_size=100))
def test_seen_exactly_once(keys):
    seen = LocalSeen(1 << 12)
    flags = seen.check_and_add(keys)
    first_idx = {}
    for i, k in enumerate(keys):
        first_idx.setdefault(k, i)
    for i, (k, is_new) in enumerate(zip(keys, flags)):
        assert is_new == (first_idx[k] == i)


# ---------------------------------------------------------------------------
# round-3 sketch / apportionment kernels (pure, no Ray)
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=10 ** 6))
def test_apportion_quota_property(counts, budget):
    """Hamilton largest-remainder satisfies the quota property and
    sums to the budget exactly."""
    import numpy as np

    from markdown_lab_ray.stages.analytics import apportion_counts

    c = np.asarray(counts, dtype=np.int64)
    b = apportion_counts(c, budget)
    assert int(b.sum()) == budget
    n = int(c.sum())
    lo = (budget * c) // n              # floor(quota)
    hi = -((-budget * c) // n)          # ceil(quota)
    assert (b >= lo).all() and (b <= hi).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                min_size=0, max_size=300))
def test_mg_partial_summary_guarantee(tokens):
    """A Misra-Gries batch summary satisfies the mergeable-summaries
    bound: weight(t) ≥ freq(t) − n/(k+1) for every token, ΣW ≤ n."""
    from collections import Counter

    import pyarrow as pa

    from markdown_lab_ray.stages.sketch import _HH_TOTAL, _mg_partial_batch

    k = 5
    batch = pa.table({"text": pa.array([" ".join(tokens)], pa.string())})
    out = _mg_partial_batch(batch, text_col="text", k=k)
    weights = {t: w for t, w in zip(out.column("term").to_pylist(),
                                    out.column("weight").to_pylist())}
    n = weights.pop(_HH_TOTAL)
    freq = Counter(t.lower() for t in tokens)
    assert n == sum(freq.values())
    assert sum(weights.values()) <= n
    for t, f in freq.items():
        assert weights.get(t, 0) >= f - n / (k + 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4000), st.integers(0, 2 ** 31))
def test_hll_relative_error(n_distinct, seed):
    """HLL at p=12 stays within 6% for vocabularies up to 4k (σ≈1.6%,
    so 6% ≈ 3.7σ — a deterministic-hash sketch either passes for a
    given vocab or it doesn't; no flakiness)."""
    from markdown_lab_ray.stages.sketch import _hll_partial, hll_estimate

    vals = [f"v{seed}_{i}" for i in range(n_distinct)]
    est = hll_estimate(_hll_partial(vals, p=12))
    assert abs(est - n_distinct) / n_distinct < 0.06


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="xyz01", min_size=1, max_size=8),
                min_size=0, max_size=200),
       st.lists(st.text(alphabet="xyz01", min_size=1, max_size=8),
                min_size=0, max_size=200))
def test_hll_merge_is_union(a_vals, b_vals):
    """max-merge of two register arrays equals the sketch of the
    union — the mergeability property the distributed path relies on."""
    import numpy as np

    from markdown_lab_ray.stages.sketch import _hll_partial

    a = _hll_partial(sorted(set(a_vals)), p=10)
    b = _hll_partial(sorted(set(b_vals)), p=10)
    u = _hll_partial(sorted(set(a_vals) | set(b_vals)), p=10)
    assert np.array_equal(np.maximum(a, b), u)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=120))
def test_local_skyline_dominance_property(points):
    """Every kept row is undominated; every dropped row is dominated
    (minimize x, maximize y; ties never dominate)."""
    import pandas as pd

    from markdown_lab_ray.stages.analytics import _local_skyline

    df = pd.DataFrame(points, columns=["x", "y"])
    kept = _local_skyline(df, "x", "y")

    def dominated(row):
        return (((df["x"] <= row.x) & (df["y"] >= row.y)
                 & ((df["x"] < row.x) | (df["y"] > row.y)))).any()

    kept_idx = set(kept.index)
    for row in df.itertuples():
        assert (row.Index in kept_idx) == (not dominated(row))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=80),
       st.integers(1, 10 ** 5))
def test_interval_union_formula_matches_bruteforce(starts, dur):
    """The vectorized sweep (cummax-shift formula) equals a literal
    union of intervals."""
    import numpy as np
    import pandas as pd

    s = np.sort(np.asarray(starts, dtype=np.int64))
    e = s + dur
    cm = pd.Series(e).cummax()
    pm = cm.shift(1).fillna(float(s[0])).to_numpy().astype(np.int64)
    got = int((e - np.minimum(e, np.maximum(s, pm))).sum())

    # exact union length via merged segments
    segs = []
    for a, b in zip(s.tolist(), e.tolist()):
        if segs and a <= segs[-1][1]:
            segs[-1] = (segs[-1][0], max(segs[-1][1], b))
        else:
            segs.append((a, b))
    want = sum(b - a for a, b in segs)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=4, max_size=4),
                min_size=2, max_size=40, unique=True))
def test_hamming1_block_matches_bruteforce(strings):
    import numpy as np

    from markdown_lab_ray.stages.dedup import _hamming1_pairs_block

    arr = np.array(sorted(strings))
    got = set(_hamming1_pairs_block(arr, chunk=7))
    want = {(i, j)
            for i in range(len(arr)) for j in range(i + 1, len(arr))
            if sum(a != b for a, b in zip(arr[i], arr[j])) <= 1}
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=60))
def test_monday_trunc_properties(us_offsets):
    """Truncated week start is a Monday midnight, ≤ ts, within 7 days."""
    import numpy as np

    from markdown_lab_ray.stages.analytics import _WEEK_US, _monday_week_us

    ts = np.asarray(us_offsets, dtype=np.int64)
    wk = _monday_week_us(ts.astype("datetime64[us]"))
    assert (wk <= ts).all()
    assert (ts - wk < _WEEK_US).all()
    # 1970-01-05 was a Monday: week starts are ≡ day 4 (mod 7) in days
    days = wk // (24 * 3600 * 1_000_000)
    assert (days % 7 == 4).all()
    assert (wk % (24 * 3600 * 1_000_000) == 0).all()

"""Kernels vs the reference's own unit tests (src/tests.rs, re-expressed)."""

from markdown_lab_ray.kernels.html_kernels import (
    clean_html,
    extract_links,
    extract_main_content,
    parse_html_to_document,
    resolve_url,
    resolve_url_against_base,
)


def test_extract_main_content():
    # ref src/tests.rs:6-14
    html = ("<html><head><title>Test</title></head><body><main><h1>Main Content"
            "</h1><p>Test paragraph</p></main><footer>Footer content</footer>"
            "</body></html>")
    content = extract_main_content(html).to_html()
    assert "Main Content" in content
    assert "Test paragraph" in content
    assert "Footer content" not in content


def test_unwanted_predicate_matches_selector():
    """``_is_unwanted`` is UNWANTED_SELECTOR as set membership: every
    element of the selector's list, and near misses, agree with the
    selector engine."""
    from markdown_lab_ray.kernels.dom import _matches, parse_html, parse_selector
    from markdown_lab_ray.kernels.html_kernels import (UNWANTED_SELECTOR,
                                                       _is_unwanted)

    parts = [p.strip() for p in UNWANTED_SELECTOR.split(",")]
    html = "".join(
        f'<div class="x {p[1:]}"></div>' if p[0] == "."
        else f'<p id="{p[1:]}"></p>' if p[0] == "#"
        else f"<{p}></{p}>" for p in parts)
    html += ('<div class="adx"></div><p id="cookie"></p><section></section>'
             '<span class="Ad"></span><div class="x"></div>')
    compounds = parse_selector(UNWANTED_SELECTOR)
    elements = list(parse_html(html).iter_elements())
    assert sum(map(_is_unwanted, elements)) == len(parts)
    for el in elements:
        assert _is_unwanted(el) == any(_matches(el, c) for c in compounds)


def test_clean_html():
    # ref src/tests.rs:17-25
    html = ("<div><script>alert('test');</script><p>Keep this content</p>"
            '<style>.test{color:red;}</style><div class="ad">Remove this ad'
            "</div></div>")
    result = clean_html(html)
    assert "Keep this content" in result
    assert "alert('test')" not in result
    assert "Remove this ad" not in result
    assert ".test{color:red;}" not in result


def test_extract_links():
    # ref src/tests.rs:28-38
    html = ('<div><a href="https://example.com">Example</a>'
            '<a href="/relative/path">Relative</a>'
            '<a href="javascript:void(0)">JS Link</a>'
            '<a href="#section">Hash Link</a></div>')
    links = extract_links(html, "https://test.com")
    assert "https://example.com" in links
    assert "https://test.com/relative/path" in links
    assert len(links) == 2


def test_extract_links_sorted_deduped():
    html = ('<a href="/b">B</a><a href="/a">A</a><a href="/b">B again</a>')
    links = extract_links(html, "https://t.com")
    assert links == ["https://t.com/a", "https://t.com/b"]


def test_resolve_url():
    assert resolve_url("https://example.com/path/", "subpage.html") == \
        "https://example.com/path/subpage.html"
    assert resolve_url("https://example.com", "https://other.com/page") == \
        "https://other.com/page"


def test_link_predicate():
    base = "https://example.com"
    assert resolve_url_against_base(base, "javascript:void(0)") is None
    assert resolve_url_against_base(base, "#frag") is None
    assert resolve_url_against_base(base, "") is None
    assert resolve_url_against_base(base, "data:text/html;x") is None
    assert resolve_url_against_base(base, "has space") is None
    assert resolve_url_against_base(base, "::::bad::::") is None
    assert resolve_url_against_base(base, "/ok") == "https://example.com/ok"
    # absolute hrefs get trailing-slash normalization (rust Url::to_string)
    assert resolve_url_against_base(base, "https://other.com") == "https://other.com/"


def test_parse_document_structure():
    html = ("<html><head><title>Test Page</title></head><body>"
            "<h1>Main Title</h1><p>This is a test paragraph.</p>"
            "<ul><li>Item 1</li><li>Item 2</li></ul></body></html>")
    doc = parse_html_to_document(html, "https://example.com")
    assert doc["title"] == "Test Page"
    assert doc["headings"] == [{"level": 1, "text": "Main Title"}]
    assert doc["paragraphs"] == ["This is a test paragraph."]
    assert doc["lists"] == [{"ordered": False, "items": ["Item 1", "Item 2"]}]


def test_parse_document_no_title():
    doc = parse_html_to_document("<p>x</p>", "https://example.com")
    assert doc["title"] == "No Title"


def test_heading_level_order_quirk():
    # M6a: all h1s, then all h2s — NOT document order
    html = "<h2>Second</h2><h1>First</h1><h2>Third</h2>"
    doc = parse_html_to_document(html, "https://e.com")
    assert [h["text"] for h in doc["headings"]] == ["First", "Second", "Third"]
    assert [h["level"] for h in doc["headings"]] == [1, 2, 2]


def test_pre_code_double_match_quirk():
    # M6f: <pre><code> yields two code blocks, language from each element
    html = '<pre><code class="language-rust">fn main() {}</code></pre>'
    doc = parse_html_to_document(html, "https://e.com")
    assert len(doc["code_blocks"]) == 2
    assert doc["code_blocks"][0] == {"language": "", "code": "fn main() {}"}
    assert doc["code_blocks"][1] == {"language": "rust", "code": "fn main() {}"}


def test_images_default_alt():
    html = '<img src="/a.png"><img src="/b.png" alt="B!">'
    doc = parse_html_to_document(html, "https://e.com")
    assert doc["images"] == [
        {"alt": "image", "src": "https://e.com/a.png"},
        {"alt": "B!", "src": "https://e.com/b.png"},
    ]


def test_links_need_text_and_resolvable():
    html = ('<a href="/ok">OK</a><a href="/empty"></a>'
            '<a href="javascript:x">JS</a>')
    doc = parse_html_to_document(html, "https://e.com")
    assert doc["links"] == [{"text": "OK", "url": "https://e.com/ok"}]


def test_ul_before_ol_and_nested_items():
    html = ("<ol><li>o1</li></ol><ul><li>u1<ul><li>u2</li></ul></li></ul>")
    doc = parse_html_to_document(html, "https://e.com")
    # all uls first (outer flattens nested descendants, inner repeated), then ols
    assert doc["lists"][0] == {"ordered": False, "items": ["u1u2", "u2"]}
    assert doc["lists"][1] == {"ordered": False, "items": ["u2"]}
    assert doc["lists"][2] == {"ordered": True, "items": ["o1"]}


def test_blockquotes():
    html = "<blockquote>wise words</blockquote><blockquote>  </blockquote>"
    doc = parse_html_to_document(html, "https://e.com")
    assert doc["blockquotes"] == ["wise words"]


def test_document_strips_unwanted():
    html = ("<nav>menu</nav><p>real</p><script>var x;</script>"
            '<div class="sidebar">side</div>')
    doc = parse_html_to_document(html, "https://e.com")
    assert doc["paragraphs"] == ["real"]

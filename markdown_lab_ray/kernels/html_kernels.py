"""HTML extraction kernels with reference-parity semantics.

Re-implements, row-locally and from scratch, the behavior of the
reference's Rust parser/converter front half:

- ``clean_html`` / unwanted-element removal  (ref ``src/html_parser.rs:104-126``)
- ``extract_main_content``                   (ref ``src/html_parser.rs:63-86``)
- ``extract_links``                          (ref ``src/html_parser.rs:214-252``)
- ``resolve_url``                            (ref ``src/html_parser.rs:268-278``)
- ``get_element_text``                       (ref ``src/html_parser.rs:293-301``)
- ``parse_html_to_document``                 (ref ``src/markdown_converter.rs:76-323``)
- ``convert_page``: the Document and ``extract_links``'s links from one
  parse and one walk (the crawl's kernel)

Intentional quirks preserved (SURVEY.md §7.5): headings are emitted in
level order h1..h6 then document order within a level; the ``pre, code``
selector double-counts ``<pre><code>`` pairs; list item extraction
flattens nested ``li`` descendants; the link predicate differs between
``extract_links`` and the Document link pass.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urljoin, urlsplit, urlunsplit

from .dom import Node, parse_html

# combined unwanted-element selector — same element list as the
# reference's SELECTOR_CACHE["unwanted_elements"] (src/html_parser.rs:31-35)
UNWANTED_SELECTOR = (
    "script, style, iframe, noscript, .advertisement, .ad, .banner, "
    "#cookie-notice, header, footer, nav, .sidebar, .menu, .comments, "
    ".related, .share, .social"
)

MAIN_CONTENT_SELECTOR = "main, article, #content, .content"
_MAIN_FALLBACKS = ("main", "article", "#content", ".content", "body")


_UNWANTED_TAGS = frozenset(
    ["script", "style", "iframe", "noscript", "header", "footer", "nav"])
_UNWANTED_CLASSES = frozenset(
    ["advertisement", "ad", "banner", "sidebar", "menu", "comments",
     "related", "share", "social"])
_UNWANTED_IDS = frozenset(["cookie-notice"])


def _is_unwanted(node: Node) -> bool:
    """Whether an element matches UNWANTED_SELECTOR, as set membership
    over exactly its element list (kept in sync; a test asserts
    equivalence)."""
    return (node.tag in _UNWANTED_TAGS
            or node.attrs.get("id") in _UNWANTED_IDS
            or ("class" in node.attrs
                and not _UNWANTED_CLASSES.isdisjoint(node.classes())))


def clean_dom(root: Node) -> Node:
    """Remove unwanted elements from a parsed tree, in place."""
    _walk(root)
    return root


def clean_html(html: str) -> str:
    """Parse, strip unwanted elements, re-serialize."""
    return clean_dom(parse_html(html)).to_html()


def extract_main_content(html: str) -> Node:
    """First match of the combined main-content selector, else the
    fallback chain main → article → #content → .content → body, else the
    whole document."""
    root = parse_html(html)
    el = root.select_one(MAIN_CONTENT_SELECTOR)
    if el is not None:
        return el
    for sel in _MAIN_FALLBACKS:
        el = root.select_one(sel)
        if el is not None:
            return el
    return root


def _norm_join(base_url: str, href: str) -> Optional[str]:
    """RFC-join ``href`` against ``base_url`` and normalize the way the
    Rust ``url`` crate's ``Url::to_string`` does: lowercase scheme+host,
    empty path on an authority URL becomes ``/``, default ports
    dropped; non-hierarchical absolute schemes (mailto:, tel:, …) pass
    through as-is (Url::join accepts them)."""
    try:
        joined = urljoin(base_url, href)
        parts = urlsplit(joined)
    except ValueError:
        return None
    if not parts.scheme:
        return None
    if not parts.netloc:
        # non-authority scheme like mailto:/tel: — valid absolute URL
        if parts.scheme.lower() in ("http", "https"):
            return None
        return joined
    netloc = parts.netloc.lower()
    scheme = parts.scheme.lower()
    if scheme == "http" and netloc.endswith(":80"):
        netloc = netloc[:-3]
    elif scheme == "https" and netloc.endswith(":443"):
        netloc = netloc[:-4]
    path = parts.path or "/"
    return urlunsplit((scheme, netloc, path, parts.query, parts.fragment))


def resolve_url_against_base(base_url: str, href: str) -> Optional[str]:
    """Link predicate used by the Document link/image passes
    (ref ``src/markdown_converter.rs:282-302``)."""
    href = href.strip()
    low = href.lower()
    if (
        not href
        or href.startswith("#")
        or low.startswith("javascript:")
        or low.startswith("data:")
        or " " in href
        or href.startswith(":")
        or ":::" in href
    ):
        return None
    return _norm_join(base_url, href)


def resolve_url(base_url: str, relative_url: str) -> str:
    """Absolute passthrough, else join (ref ``src/html_parser.rs:268-278``)."""
    if relative_url.startswith(("http://", "https://")):
        return relative_url
    resolved = _norm_join(base_url, relative_url)
    if resolved is None:
        raise ValueError(f"cannot resolve {relative_url!r} against {base_url!r}")
    return resolved


_TITLE_FAST_RE = re.compile(r"<title[^>]*>(.*?)</title>",
                            re.IGNORECASE | re.DOTALL)
_H1_FAST_RE = re.compile(r"<h1[^>]*>(.*?)</h1>", re.IGNORECASE | re.DOTALL)


def extract_title_fast(html: str) -> Optional[str]:
    """Regex title extraction without a full parse: ``<title>`` else
    first ``<h1>`` else None (ref ``core/converter.py:355-367``)."""
    for pattern in (_TITLE_FAST_RE, _H1_FAST_RE):
        if m := pattern.search(html):
            text = re.sub(r"<[^>]+>", "", m.group(1)).strip()
            if text:
                return text
    return None


def get_element_text(el: Node) -> str:
    """Join text nodes with single spaces, collapse whitespace."""
    parts = []
    stack = list(reversed(el.children))
    while stack:
        node = stack.pop()
        if node.tag is None:
            parts.append(node.text)
        else:
            stack.extend(reversed(node.children))
    return " ".join(" ".join(parts).split())


def _resolve_hrefs(hrefs: list[str], base_url: str) -> list[str]:
    """The ``extract_links`` href rule: only ``javascript:`` / ``#`` /
    empty are skipped, and already-absolute http(s) hrefs are passed
    through verbatim (no normalization).  Unique, sorted."""
    out = set()
    for href in hrefs:
        if not href or href.startswith(("javascript:", "#")):
            continue
        if href.startswith(("http://", "https://")):
            out.add(href)
        else:
            resolved = _norm_join(base_url, href)
            if resolved is not None:
                out.add(resolved)
    return sorted(out)


def extract_links(html: str, base_url: str) -> list[str]:
    """Unique absolute URLs from ``a[href]``, sorted
    (ref ``src/html_parser.rs:214-252``).

    The select-based reference for the links ``convert_page`` collects
    in its walk.  Its predicate differs from the Document link pass
    (see ``_resolve_hrefs``), and it reads the uncleaned tree.
    """
    if not urlsplit(base_url).scheme:
        raise ValueError(f"invalid base url {base_url!r}")
    root = parse_html(html)
    return _resolve_hrefs(
        [el.attrs.get("href", "") for el in root.select("a[href]")],
        base_url)


def _el_text(el: Node) -> str:
    return el.text_content().strip()


_DOC_TAGS = frozenset(
    ["title", "p", "a", "img", "ul", "ol", "pre", "code", "blockquote",
     "h1", "h2", "h3", "h4", "h5", "h6"])


def _walk(root: Node, hrefs: Optional[list[str]] = None
          ) -> dict[str, list[Node]]:
    """ONE pre-order walk over a parsed tree.  It detaches the unwanted
    subtrees (``_is_unwanted``) and returns the Document tags outside
    them, in document order (one walk instead of 15 full-tree
    ``select`` walks — the reference's cached selectors, T6).  Given an
    ``hrefs`` list, it also appends every ``a[href]`` value of the
    whole uncleaned tree, unwanted subtrees included, which is what
    ``extract_links`` sees."""
    index: dict[str, list[Node]] = {tag: [] for tag in _DOC_TAGS}
    index["__pre_code"] = []  # `pre, code` interleaved in document order
    doomed = []
    stack = list(reversed(root.children))
    while stack:
        node = stack.pop()
        if node.tag is None:
            continue
        if hrefs is not None and node.tag == "a" and "href" in node.attrs:
            hrefs.append(node.attrs["href"])
        if _is_unwanted(node):
            doomed.append(node)
            if hrefs is not None:
                hrefs.extend(el.attrs["href"] for el in node.iter_elements()
                             if el.tag == "a" and "href" in el.attrs)
            continue  # children die with the subtree
        bucket = index.get(node.tag)
        if bucket is not None:
            bucket.append(node)
            if node.tag in ("pre", "code"):
                index["__pre_code"].append(node)
        stack.extend(reversed(node.children))
    for node in doomed:
        node.detach()
    return index


def _check_base_url(base_url: str) -> None:
    parts = urlsplit(base_url)
    if not parts.scheme or not parts.netloc:
        raise ValueError(f"invalid base url {base_url!r}")


def convert_page(html: str, base_url: str) -> tuple[dict, list[str]]:
    """Full page → (Document dict, ``extract_links`` links) from one
    parse and one walk: the crawl's convert kernel."""
    _check_base_url(base_url)
    hrefs: list[str] = []
    index = _walk(parse_html(html), hrefs)
    return _document(index, base_url), _resolve_hrefs(hrefs, base_url)


def parse_html_to_document(html: str, base_url: str) -> dict:
    """Full page → Document dict (ref ``src/markdown_converter.rs:76-94``):
    ``convert_page`` without the links."""
    _check_base_url(base_url)
    return _document(_walk(parse_html(html)), base_url)


def _document(index: dict[str, list[Node]], base_url: str) -> dict:
    """The Document of a walked, cleaned tree.  Key order matches the
    reference struct so JSON serialization is field-for-field
    identical."""
    title_els = index["title"]
    title = (title_els[0].text_content() if title_els else "No Title").strip()

    doc = {
        "title": title,
        "base_url": base_url,
        "headings": [],
        "paragraphs": [],
        "links": [],
        "images": [],
        "lists": [],
        "code_blocks": [],
        "blockquotes": [],
    }

    # headings: by level, then document order within a level (quirk M6a)
    for level in range(1, 7):
        for el in index[f"h{level}"]:
            text = _el_text(el)
            if text:
                doc["headings"].append({"level": level, "text": text})

    for el in index["p"]:
        text = _el_text(el)
        if text:
            doc["paragraphs"].append(text)

    for el in index["a"]:
        if "href" not in el.attrs:
            continue
        text = _el_text(el)
        if text:
            url = resolve_url_against_base(base_url, el.attrs.get("href", ""))
            if url is not None:
                doc["links"].append({"text": text, "url": url})

    for el in index["img"]:
        if "src" not in el.attrs:
            continue
        src = resolve_url_against_base(base_url, el.attrs.get("src", ""))
        if src is not None:
            # "image" defaults only a MISSING alt; alt="" stays empty
            # (rust attr("alt").unwrap_or("image") keeps Some(""))
            doc["images"].append({"alt": el.attrs.get("alt", "image"),
                                  "src": src})

    # lists: every ul first, then every ol; items = descendant li (quirk M6e)
    for tag, ordered in (("ul", False), ("ol", True)):
        for lst in index[tag]:
            items = [t for li in lst.select("li") if (t := _el_text(li))]
            if items:
                doc["lists"].append({"ordered": ordered, "items": items})

    # code blocks: `pre, code` double-matches nested pairs (quirk M6f)
    for el in index["__pre_code"]:
        code = _el_text(el)
        if code:
            lang = next(
                (c[len("language-"):] for c in el.classes()
                 if c.startswith("language-")),
                "",
            )
            doc["code_blocks"].append({"language": lang, "code": code})

    for el in index["blockquote"]:
        text = _el_text(el)
        if text:
            doc["blockquotes"].append(text)

    return doc

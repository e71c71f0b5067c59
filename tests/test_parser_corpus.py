"""Conformance micro-corpus in the reference's message-example style.

The reference tests style modules with labeled snippets: ``Okay:``
examples must parse with an EMPTY log, code-labeled examples must put
that code in the log (``lexor/command/test.py:150-215``,
``find_failed``). The core engine's own examples live at
``lexor/core/parser.py:417-451``; the HTML-relevant ones are replayed
here against our engine.
"""

from lexor_ray.dialects.registry import get_dialect
from lexor_ray.core.parser import Parser


def codes_for(text: str) -> list[str]:
    p = Parser(get_dialect("html"))
    p.parse(text)
    return [rec["code"] for rec in p.log]


# (snippet, expected_code or None for Okay) — the HTML examples from
# parser.py:426-449 plus dialect-specific cases.
CORPUS = [
    ("<node></node>", None),  # parser.py:426 "Okay: <node></node>"
    ("<node>", "E100"),  # parser.py:430 "E100: <node>"
    ("<a><p>stuff</p><p>stuff</p></a>", None),  # parser.py:445
    ("<a><p>stuff</p><p>stuff</a>", "W100"),  # parser.py:448
    ("<a><p>stuff<p>stuff</a>", "W100"),  # parser.py:449
    # dialect coverage
    ("<br>", None),
    ("<img src='x.png'>", None),
    ("<script>if (a<b) {}</script>", None),
    ("<script>unterminated", "E100"),
    ("<!-- comment -->", None),
    ("<!-- unterminated", "E100"),
    ("<!DOCTYPE html><p>x</p>", None),
    ("<![CDATA[raw <stuff>]]>", None),
    ("<?pi data ?>", None),
    ("&amp;", None),
    ("</stray>", "W101"),
    ("<p a=1 b='2' c=\"3\">x</p>", None),
    ("<div/>", None),
]


def test_corpus():
    failures = []
    for snippet, expected in CORPUS:
        codes = codes_for(snippet)
        if expected is None:
            if codes:
                failures.append((snippet, "expected clean log", codes))
        elif expected not in codes:
            failures.append((snippet, f"expected {expected}", codes))
    assert not failures, failures


def test_msg_example_helper_surface():
    """The public style-author test helpers (lexor_ray.testing) run
    the reference's docstring-labeled example format end-to-end —
    including against a style module's own examples."""
    from lexor_ray.testing import (
        assert_msg_examples,
        compare_with,
        find_failed,
        parse_msg_examples,
        parse_write_roundtrip,
    )

    EXAMPLES = """
    The node parser accepts balanced elements.

    Okay: <node></node>
    Okay: <br>
    E100: <node>
    W101: </stray>
    W100: <a><p>stuff</a>
    """
    pairs = parse_msg_examples(EXAMPLES)
    assert ("<node></node>", None) in pairs
    assert ("<node>", "E100") in pairs
    assert_msg_examples("html", EXAMPLES)
    # a deliberately wrong expectation must be reported, not swallowed
    bad = find_failed([("<node></node>", "E100")], "html")
    assert len(bad) == 1
    # golden roundtrip + diff-friendly compare
    out = parse_write_roundtrip("<p>x</p>", "html")
    compare_with(out, out)
    try:
        compare_with("a\nb", "a\nc")
    except AssertionError as exc:
        assert "strings differ" in str(exc)
    else:
        raise AssertionError("compare_with must raise on mismatch")


def test_autoclose_cascade_order():
    """W100 fires innermost-first when an outer close forces the
    cascade (parser.py:357-383)."""
    p = Parser(get_dialect("html"))
    p.parse("<a><b><c>x</a>")
    w = [rec for rec in p.log if rec["code"] == "W100"]
    assert [rec["arg"][0] for rec in w] == ["c", "b"]


def test_eof_sweep_reports_all_open():
    p = Parser(get_dialect("html"))
    p.parse("<a><b>")
    e = [rec["arg"][0] for rec in p.log if rec["code"] == "E100"]
    assert e == ["a", "b"]


def test_min_one_char_progress_on_lone_lt():
    p = Parser(get_dialect("html"))
    doc = p.parse("a < b & c")
    text = "".join(n.data for n in doc.iter() if n.name in ("#text", "#entity"))
    assert text == "a < b & c"


def test_line_col_tracking():
    p = Parser(get_dialect("html"))
    p.parse("line one\nline two <node>")
    e = [rec for rec in p.log if rec["code"] == "E100"]
    assert e and e[0]["line"] == 2 and e[0]["col"] == 10


def test_attribute_parsing():
    p = Parser(get_dialect("html"))
    doc = p.parse('<a href="http://x" id=5 checked>t</a>')
    el = doc.get_nodes_by_name("a")[0]
    assert el["href"] == "http://x"
    assert el["id"] == "5"
    assert el["checked"] == ""
    assert el.attr_order == ["href", "id", "checked"]


def test_rawtext_keeps_body_verbatim():
    p = Parser(get_dialect("html"))
    doc = p.parse("<style>a > b { x: 1 }</style>")
    raw = doc.get_nodes_by_name("style")[0]
    assert raw.data == "a > b { x: 1 }"
    assert raw.child is None


def test_adjacent_text_merging_spans():
    """Text merged across a dropped lone '<' keeps coalesced spans
    (reference merges adjacent Text eagerly, parser.py:342-355)."""
    p = Parser(get_dialect("html"))
    doc = p.parse("x < y")
    texts = [n for n in doc.child if n.name == "#text"]
    assert len(texts) == 1
    assert texts[0].data == "x < y"
    assert texts[0].spans == [(0, 5)]


def test_autoclosed_span_covers_content():
    """W100 auto-closed elements end where the ancestor's close token
    BEGINS; matched nodes end after their own close token (r4 review:
    auto-closed spans used to stop at the open tag, excluding all
    parsed content)."""
    p = Parser(get_dialect("html"))
    src = "<div><i>hello</div>tail"
    doc = p.parse(src)
    div = doc.child[0]
    i_el = div.child[0]
    assert i_el.name == "i"
    assert src[i_el.span[0] : i_el.span[1]] == "<i>hello"
    assert src[div.span[0] : div.span[1]] == "<div><i>hello</div>"


def _best_parse_s(parser: Parser, text: str, reps: int) -> float:
    """Per-parse time of the fastest of up to 5 rounds of ``reps``
    parses, stopping once 1 s has been spent."""
    import time

    times: list[float] = []
    while len(times) < 5 and sum(times) <= 1.0:
        t0 = time.perf_counter()
        for _ in range(reps):
            parser.parse(text)
        times.append(time.perf_counter() - t0)
    return min(times) / reps


def test_text_scan_is_linear_in_markup_free_tail():
    """The next-candidate search must not re-scan the rest of the text
    from every position: parsing an 8× longer markup-free tail costs
    about 8× (a quadratic scan costs ~64×). The bound is on the ratio,
    not on wall time, so a slow host does not fail it. Each timed
    round repeats the parse until the short text takes ≥ 20 ms, so
    sub-millisecond parses are not decided by scheduler noise."""
    import time

    p = Parser(get_dialect("html"))
    short_text = "<b>x</b>" + "a" * 8_000
    long_text = "<b>x</b>" + "a" * 64_000
    t0 = time.perf_counter()
    p.parse(short_text)
    reps = max(1, int(0.02 / (time.perf_counter() - t0)))
    short = _best_parse_s(p, short_text, reps)
    long = _best_parse_s(p, long_text, reps)
    assert long / short < 24, (reps, short, long)

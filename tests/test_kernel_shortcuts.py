"""The extraction kernels' shortcuts do no work that could change their
output: first-char parser dispatch, in-place conversion of an owned
parse tree, and the markdown stage's markup-free identity rows."""

import random

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from lexor_ray.core.converter import Converter
from lexor_ray.core.dom import Document
from lexor_ray.core.parser import Parser
from lexor_ray.core.writer import Writer
from lexor_ray.dialects.html import _DEFAULT_PARSERS
from lexor_ray.dialects.registry import ConvertRule, Dialect, get_dialect
from lexor_ray.extract import TextSpanWriter
from lexor_ray.ops.transcripts_ops import MarkdownBatch
from lexor_ray.transcripts import generate_transcripts

from test_fast_scan import EDGE_CASES

_MARKUPY = st.text(alphabet='<>&/!?"=\' abc-;#[]{}\nxp*`%$\\', max_size=200)

_LATEX_CASES = [
    r"\section{Intro} text % comment" + "\n" + r"more $x^2$ and \emph{word}",
    r"\begin{itemize}\item a \item b\end{itemize}",
    r"\textbf{bold {nested}} \unknown{x} 100\% done",
]
_MD_CASES = [
    "# Title\n\nsome *em* and **strong** text\n\n- one\n- two\n",
    "1. first\n2. second\n\n> quoted\n\n```\ncode\n```",
    "[link](http://x) ![img](y.png) `tick` plain",
]


# -- first-char dispatch ---------------------------------------------------


def _at(parser: Parser, text: str, caret: int) -> None:
    parser.text, parser.end, parser.caret = text, len(text), caret
    parser._newlines = None
    parser.log = []
    parser.rule_hits = {}
    parser.doc = Document()


def _no_match_outside_first(text: str) -> None:
    parser = Parser(get_dialect("html"))
    for cls in _DEFAULT_PARSERS[1]:
        assert cls.first, cls
        np = cls(parser)
        for caret, ch in enumerate(text):
            if ch in cls.first:
                continue
            _at(parser, text, caret)
            assert np.make_node() is None, (cls.__name__, text, caret)
            assert parser.caret == caret, (cls.__name__, text, caret)
            assert parser.log == [] and parser.rule_hits == {}, cls.__name__


@settings(max_examples=200, deadline=None)
@given(_MARKUPY)
def test_stock_parsers_never_match_outside_first(text):
    _no_match_outside_first(text)


def test_stock_parsers_never_match_outside_first_on_corpus():
    for text in EDGE_CASES:
        _no_match_outside_first(text)
    rng = random.Random(5)
    texts = generate_transcripts(200, seed=11).column("text").to_pylist()
    for text in rng.sample(texts, 40):
        _no_match_outside_first((text or "")[:600])


def test_undeclared_parsers_are_tried_everywhere_in_order():
    """A parser without ``first`` is tried at every caret; declared
    ones only at their characters, and the mapping order holds."""
    from lexor_ray.core.dom import Element
    from lexor_ray.core.parser import NodeParser
    from lexor_ray.dialects.html import ElementParser

    calls = []

    class XParser(NodeParser):  # undeclared: may match anywhere
        def make_node(self):
            p = self.parser
            calls.append(p.caret)
            if p.text.startswith("x", p.caret):
                node = Element("x")
                node.span = (p.caret, p.caret + 1)
                p.update(p.caret + 1)
                return [node]
            return None

    d = Dialect(
        name="x-test",
        parser_mapping={"__default__": ("<x", [XParser, ElementParser])},
        converters={"__default__": ConvertRule()},
        close_prefix="</",
    )
    doc = Parser(d).parse("ax<b>x</b>")
    assert [n.name for n in doc.iter()] == ["#document", "#text", "x", "b", "x"]
    # tried at 0 ('a'), 1 ('x'), 2 ('<' — before ElementParser), 5 ('x')
    assert calls == [0, 1, 2, 5]


# -- in-place conversion of an owned tree ----------------------------------


def _same_tree(a, b, path="doc") -> None:
    assert type(a) is type(b), path
    for attr in ("name", "span", "pos", "index", "data", "spans", "attrs", "attr_order",
                 "lang", "style", "uri", "meta"):
        assert getattr(a, attr, None) == getattr(b, attr, None), (path, attr)
    ac, bc = a.child, b.child
    assert (ac is None) == (bc is None), path
    if ac is None:
        return
    assert len(ac) == len(bc), (path, [n.name for n in ac], [n.name for n in bc])
    for i, (x, y) in enumerate(zip(ac, bc)):
        assert x.parent is a and y.parent is b, (path, i)
        _same_tree(x, y, f"{path}/{i}:{x.name}")


def _check_owned(dialect: str, texts) -> None:
    d = get_dialect(dialect)
    parser, conv = Parser(d), Converter(d)
    writer = Writer(d)
    for text in texts:
        text = text or ""
        parser.rule_hits = {}
        cloned = conv.convert(parser.parse(text))
        want_log = parser.log + conv.log
        want_hits = dict(parser.rule_hits)
        parser.rule_hits = {}
        src = parser.parse(text)
        owned = conv.convert_owned(src)
        assert owned is src  # every stock dialect is copy/drop-only
        assert parser.log + conv.log == want_log, text[:120]
        assert parser.rule_hits == want_hits, text[:120]
        _same_tree(owned, cloned)
        assert TextSpanWriter.write(owned) == TextSpanWriter.write(cloned)
        assert writer.write(owned) == writer.write(cloned), text[:120]


def _corpus(n: int, seed: int):
    return generate_transcripts(n, seed=seed).column("text").to_pylist()


def test_owned_conversion_equals_clone_html_markdown():
    _check_owned("html-markdown", EDGE_CASES + _corpus(600, 21))


def test_owned_conversion_equals_clone_html_text_dom_path():
    _check_owned("html-text", EDGE_CASES + _corpus(600, 22))


def test_owned_conversion_equals_clone_markdown_text():
    _check_owned("markdown-text", EDGE_CASES + _MD_CASES + _corpus(300, 23))


def test_owned_conversion_equals_clone_latex():
    _check_owned("latex-text", EDGE_CASES + _LATEX_CASES + _corpus(300, 24))


@settings(max_examples=200, deadline=None)
@given(_MARKUPY)
def test_owned_conversion_equals_clone_on_fuzz(text):
    _check_owned("html-markdown", [text])


def test_owned_conversion_falls_back_to_clone_for_hooks():
    """A dialect that can transform nodes converts a copy, so the
    caller's tree is never half-rewritten."""
    def upper(conv, node):
        node.data = node.data.upper()
        return node

    base = get_dialect("html-text")
    d = Dialect(
        name="html-text-upper-owned",
        parser_mapping=base.parser_mapping,
        converters={**base.converters, "#text": ConvertRule(start=upper)},
        close_prefix="</",
    )
    assert not d.copy_drop_only() and base.copy_drop_only()
    src = Parser(d).parse("<p>ab<!-- c -->cd</p>")
    out = Converter(d).convert_owned(src)
    assert out is not src
    assert TextSpanWriter.write(out)[0] == "ABCD"
    assert [n.name for n in src.iter()] == ["#document", "p", "#text", "#comment", "#text"]


def test_owned_conversion_honors_root_rule():
    base = get_dialect("html-text")
    d = Dialect(
        name="html-text-empty-root",
        parser_mapping=base.parser_mapping,
        converters={**base.converters, "#document": ConvertRule(copy_children=False)},
    )
    parser, conv = Parser(d), Converter(d)
    cloned = conv.convert(parser.parse("<p>x</p>y"))
    _same_tree(conv.convert_owned(parser.parse("<p>x</p>y")), cloned)
    assert cloned.child == []


# -- MarkdownBatch ---------------------------------------------------------


def _full_markdown(text: str) -> str:
    mb = _MB
    doc = mb.parser.parse(text)
    return mb.writer.write(mb.converter.convert(doc)).strip("\n")


_MB = MarkdownBatch()


def _batch(texts) -> pa.Table:
    return pa.table(
        {
            "conv_id": ["c"] * len(texts),
            "turn_idx": pa.array(range(len(texts)), type=pa.int32()),
            "text": pa.array(texts, type=pa.string()),
        }
    )


# any unicode an Arrow string column can hold (no lone surrogates)
# without the dialect's candidate chars
_MARKUP_FREE = st.text(
    alphabet=st.characters(blacklist_characters="<&", blacklist_categories=("Cs",))
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_MARKUP_FREE, max_size=4))
def test_markdown_identity_rows_equal_full_path(texts):
    """Markup-free rows skip the parser; their markdown must equal the
    full parse → convert → write."""
    assert _MB._cand_re is not None
    got = _MB(_batch(texts))["markdown"].to_pylist()
    assert got == [_full_markdown(t) for t in texts]


def test_markdown_batch_trace_contract():
    """perfbench's traced kernel pass calls ``parser.parse``,
    ``converter.convert`` and ``writer.write`` of a MarkdownBatch; the
    three passes give the batch's own output."""
    texts = _corpus(300, 25) + [None, ""]
    mb = MarkdownBatch()
    got = mb(_batch(texts))["markdown"].to_pylist()
    for text, md in zip(texts, got):
        doc = mb.parser.parse(text or "")
        assert isinstance(doc, Document)
        out = mb.converter.convert(doc)
        assert out is not doc  # the public convert keeps the clone contract
        assert mb.writer.write(out).strip("\n") == md

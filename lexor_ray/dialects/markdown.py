"""HTML → Markdown writer style.

The reference's plugin ecosystem shipped html→markdown converter/writer
styles externally (SURVEY.md intro; plugin contract §2.9). This module
provides that capability through the real NodeWriter machinery
(``lexor_ray.core.writer``): per-node-name writers emitting markdown
through ``endl`` and, for ``<pre>``, the raw toggles. The style never
wraps (see :func:`to_markdown`).

Supported structure: headings h1–h6, paragraphs, bold/italic/code,
links, images, lists (unordered/ordered, nested), blockquote,
horizontal rule, pre/code blocks, entity decode. Everything else
passes through as its text content.
"""

from __future__ import annotations

from ..core.writer import NodeWriter, Writer
from .registry import ConvertRule, Dialect, register_dialect
from .html import _DEFAULT_PARSERS, BOILERPLATE_ELEMENTS


class _Text(NodeWriter):
    def start(self, node) -> None:
        pass


class _Heading(NodeWriter):
    LEVEL = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}

    def start(self, node) -> None:
        self.writer.endl(force=False)
        self.write("#" * self.LEVEL[node.name] + " ")

    def end(self, node) -> None:
        self.writer.endl()
        self.writer.endl()


class _Para(NodeWriter):
    def start(self, node) -> None:
        self.writer.endl(force=False)

    def end(self, node) -> None:
        self.writer.endl()
        self.writer.endl()


class _Bold(NodeWriter):
    def start(self, node) -> None:
        self.write("**")

    def end(self, node) -> None:
        self.write("**")


class _Italic(NodeWriter):
    def start(self, node) -> None:
        self.write("*")

    def end(self, node) -> None:
        self.write("*")


class _Code(NodeWriter):
    def start(self, node) -> None:
        self.write("`")

    def data(self, node) -> None:
        self.write(node.data)

    def end(self, node) -> None:
        self.write("`")


class _Pre(NodeWriter):
    def start(self, node) -> None:
        self.writer.endl(force=False)
        self.write("```\n")
        self.writer.enable_raw()

    def data(self, node) -> None:
        self.write(node.data)

    def end(self, node) -> None:
        self.writer.disable_raw()
        self.write("\n```")
        self.writer.endl()
        self.writer.endl()


class _Link(NodeWriter):
    def start(self, node) -> None:
        self.write("[")

    def end(self, node) -> None:
        self.write("](%s)" % node.attrs.get("href", ""))


class _Image(NodeWriter):
    def start(self, node) -> None:
        self.write(
            "![%s](%s)" % (node.attrs.get("alt", ""), node.attrs.get("src", ""))
        )


class _List(NodeWriter):
    def start(self, node) -> None:
        w = self.writer
        w.list_depth_ = getattr(w, "list_depth_", 0) + 1
        w.list_counter_ = getattr(w, "list_counter_", {})
        w.list_counter_[w.list_depth_] = 0
        w.list_kind_ = getattr(w, "list_kind_", {})
        w.list_kind_[w.list_depth_] = node.name
        if w.list_depth_ == 1:
            w.endl(force=False)

    def end(self, node) -> None:
        w = self.writer
        w.list_depth_ -= 1
        if w.list_depth_ == 0:
            w.endl(force=False)


class _Item(NodeWriter):
    def start(self, node) -> None:
        w = self.writer
        # a stray <li> outside any <ul>/<ol> (messy real-world HTML)
        # must render as a depth-1 unordered item, not crash — the
        # list state dicts only exist once _List.start has run
        # (r4 review)
        depth = getattr(w, "list_depth_", 1)
        counter = w.list_counter_ = getattr(w, "list_counter_", {})
        counter[depth] = counter.get(depth, 0) + 1
        w.endl(force=False)
        indent = "  " * (depth - 1)
        if getattr(w, "list_kind_", {}).get(depth) == "ol":
            self.write(f"{indent}{counter[depth]}. ")
        else:
            self.write(f"{indent}- ")

    def end(self, node) -> None:
        self.writer.endl(force=False)


class _Quote(NodeWriter):
    def start(self, node) -> None:
        self.writer.endl(force=False)
        self.write("> ")

    def end(self, node) -> None:
        self.writer.endl()
        self.writer.endl()


class _Break(NodeWriter):
    def start(self, node) -> None:
        self.writer.endl()


class _Rule(NodeWriter):
    def start(self, node) -> None:
        self.writer.endl(force=False)
        self.write("---")
        self.writer.endl()


_DROP = ConvertRule(copy=False)
_MD_CONVERTERS: dict[str, ConvertRule] = {"__default__": ConvertRule()}
for _name in BOILERPLATE_ELEMENTS:
    _MD_CONVERTERS[_name] = _DROP
for _name in ("#comment", "#doctype", "#cdata-section"):
    _MD_CONVERTERS[_name] = _DROP
_MD_CONVERTERS["?*"] = _DROP

_MD_WRITERS = {
    "__default__": _Text,
    "h1": _Heading,
    "h2": "h1",
    "h3": "h1",
    "h4": "h1",
    "h5": "h1",
    "h6": "h1",
    "p": _Para,
    "div": _Para,
    "section": _Para,
    "article": _Para,
    "b": _Bold,
    "strong": "b",
    "i": _Italic,
    "em": "i",
    "code": _Code,
    "pre": _Pre,
    "a": _Link,
    "img": _Image,
    "ul": _List,
    "ol": "ul",
    "li": _Item,
    "blockquote": _Quote,
    "br": _Break,
    "hr": _Rule,
}

HTML_MARKDOWN = register_dialect(
    Dialect(
        name="html-markdown",
        lang="html",
        parser_mapping={"__default__": _DEFAULT_PARSERS},
        converters=_MD_CONVERTERS,
        writers=_MD_WRITERS,
        close_prefix="</",
    )
)


def to_markdown(text: str) -> str:
    """One-shot: HTML string → markdown (parse → convert → write).

    This style NEVER word-wraps: non-wrapping output is what makes the
    generation-time markdown golden (``transcripts._compose_md``)
    composable, so the reference's ``width`` style parameter — still
    accepted through the CLI/config chain for surface parity — has no
    effect here (r4 review: it used to be threaded into an inert
    ``Writer.width``, advertising a tunable that did nothing)."""
    from ..core.converter import Converter
    from ..core.parser import Parser

    d = HTML_MARKDOWN
    doc = Parser(d).parse(text)
    out = Converter(d).convert_owned(doc)
    md = Writer(d).write(out)
    return md.strip("\n")

"""Per-row main-content extraction: the flagship pure function.

``extract_one(text)`` runs the fused parse → convert → write sequence
of the reference's library entry point ``lexor.lexor``
(``lexor/__init__.py:52-101``: Parser.parse → Converter.convert →
Writer.write, logs merged parser-first) and returns::

    {"extracted_text": str,
     "spans": [(start, end), ...],   # source char ranges, one per run
     "log":   [record, ...]}         # W100/E100/... diagnostics

Semantics: boilerplate subtrees (script/style/head/nav/... — see
``lexor_ray.dialects.html.BOILERPLATE_ELEMENTS``), comments, doctypes,
CDATA and processing instructions are dropped; Text runs are kept
byte-exact from the source; entities contribute their decoded text
with the span of the *source* entity (SURVEY.md §7.4.3). Invariant:
for every non-entity span ``text[s:e]`` equals its contribution to
``extracted_text``; the whole output is the in-order concatenation of
the runs.

This function is the unit-test oracle for the Ray pipeline: the
distributed `map_batches` stage must produce byte-identical output
(BASELINE.json ``north_rule`` per-turn text equality).
"""

from __future__ import annotations

from .core.converter import Converter
from .core.dom import Document, Entity, Text
from .core.parser import Parser
from .dialects.registry import get_dialect
from .fast_scan import scan_extract as _scan_extract


class TextSpanWriter:
    """The flagship "text" writer style: walk the converted tree
    collecting Text/Entity runs + spans (the writer pass P7 of
    SURVEY.md §2.2, specialized — formatted styles use
    ``lexor_ray.core.writer.Writer``)."""

    @staticmethod
    def write(doc: Document) -> tuple[str, list[tuple[int, int]]]:
        parts: list[str] = []
        spans: list[tuple[int, int]] = []
        for node in doc.iter():
            if isinstance(node, Text):
                parts.append(node.data)
                spans.extend(node.spans)
            elif isinstance(node, Entity):
                parts.append(node.data)
                spans.append(node.span)
            # RawText bodies that survive conversion (none do in the
            # html-text dialect) are intentionally not emitted: they
            # are code, not content.
        return "".join(parts), spans


class Extractor:
    """Parse+convert+write state bundle — built once per worker
    process (the §2.7 registry state, held in the per-worker cache
    ``ops.util.cached``), then applied per row."""

    def __init__(self, dialect: str = "html-text") -> None:
        d = get_dialect(dialect)
        self.parser = Parser(d)
        self.converter = Converter(d)
        # candidate start chars of the dialect's token grammar (the
        # __default__ next-check class) — rows containing none of them
        # extract to themselves. Compiled as a regex class (NOT set()
        # of the raw source, which would mis-read escapes like '\n'
        # and ranges like '0-9').
        import re as _re

        self._cand_re = _re.compile(
            "[%s]" % d.resolved_parser_mapping()["__default__"][0], _re.DOTALL
        )
        # When every converter rule is a pure copy/drop (no start/end
        # hooks, no copy-without-children), conversion followed by the
        # text writer is equivalent to one walk of the parse tree that
        # skips dropped subtrees — same output, no clone/normalize
        # pass (~25% of per-row time). Hook-bearing dialects take the
        # full Converter path.
        self._drop_names = frozenset(
            name
            for name, rule in d.converters.items()
            if not rule.copy and name != "?*"
        )
        default = d.converters.get("__default__")
        from .dialects.html import _DEFAULT_PARSERS as _STOCK_HTML

        self._pure = (
            all(
                rule.start is None
                and rule.end is None
                and (rule.copy_children or not rule.copy)
                for rule in d.converters.values()
            )
            and (default is None or default.copy)
            # the scanner unconditionally EMITS text and entity runs,
            # so their effective rules must be copies — a '#text' or
            # '#entity' DROP rule passes the all() above but would
            # silently diverge from the Converter path (r5 review)
            and d.convert_rule("#text").copy
            and d.convert_rule("#entity").copy
            and not d.hooks  # lifecycle hooks force the full Converter path
            # the flat scanner hardcodes the stock HTML token grammar;
            # a dialect with a customized parser_mapping must take the
            # real parse path
            and d.parser_mapping == {"__default__": _STOCK_HTML}
        )
        # the markup-free identity shortcut is only valid when nothing
        # can transform a pure-text document: no lifecycle hooks and a
        # plain-copy #text rule (r4 review: the shortcut used to
        # silently bypass hook-bearing dialects; _pure implies this,
        # but element-rule-bearing dialects still qualify — elements
        # cannot occur without candidate chars)
        t_rule = d.convert_rule("#text")
        # the '#document' rule can transform even a markup-free doc
        # (copy_children=False empties it; start/end hooks rewrite it)
        # — the shortcut must respect it like _pure does (r5 review)
        doc_rule = d.convert_rule("#document")
        self._identity_ok = (
            not d.hooks
            and t_rule.copy
            and t_rule.start is None
            and t_rule.end is None
            and doc_rule.copy
            and doc_rule.copy_children
            and doc_rule.start is None
            and doc_rule.end is None
        )

    def extract_one(self, text: str, uri: str | None = None) -> dict:
        if self._identity_ok and self._cand_re.search(text) is None:
            # fast path: none of the dialect's candidate start chars
            # appear — extraction is the identity.
            return {
                "extracted_text": text,
                "spans": [(0, len(text))] if text else [],
                "log": [],
            }
        if self._pure:
            # DOM-free flat scan — byte-identical to the parse→convert
            # →write path for pure copy/drop dialects (property-tested
            # in tests/test_fast_scan.py), ~3x the throughput.
            extracted, spans, log = _scan_extract(
                text,
                self._drop_names,
                self.parser.dialect.drop_classes,
                rule_hits=self.parser.rule_hits,
            )
            return {"extracted_text": extracted, "spans": spans, "log": log}
        doc = self.parser.parse(text, uri)
        plog = self.parser.log
        out = self.converter.convert(doc)
        # parser log precedes converter log (lexor/__init__.py:94-95)
        log = plog + self.converter.log
        extracted, spans = TextSpanWriter.write(out)
        return {"extracted_text": extracted, "spans": spans, "log": log}

    def parse(self, text: str, uri: str | None = None) -> Document:
        return self.parser.parse(text, uri)


def extract_one(text: str, dialect: str = "html-text") -> dict:
    """Module-level convenience for tests / single-shot use. One
    :class:`Extractor` per requested dialect NAME lives in the per-worker
    cache (``ops.util.cached``): keyed by the argument, not Dialect.name,
    so an alias (e.g. 'xml' for the 'html' dialect) is not rebuilt per
    call."""
    from .ops.util import cached

    return cached(("extractor", dialect), lambda: Extractor(dialect)).extract_one(text)

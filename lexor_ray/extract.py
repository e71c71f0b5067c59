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
        # candidate start chars of the dialect's token grammar — rows
        # containing none of them extract to themselves
        self._cand_re = d.candidate_re()
        # For a copy/drop-only dialect (``Dialect.copy_drop_only``),
        # conversion followed by the text writer is one walk of the
        # parse tree that skips dropped subtrees, which the flat
        # scanner does without building the tree.
        self._drop_names = frozenset(
            name
            for name, rule in d.converters.items()
            if not rule.copy and name != "?*"
        )
        default = d.converters.get("__default__")
        from .dialects.html import _DEFAULT_PARSERS as _STOCK_HTML

        self._pure = (
            d.copy_drop_only()
            and (default is None or default.copy)
            # the scanner unconditionally EMITS text and entity runs,
            # so their effective rules must be copies — a '#text' or
            # '#entity' DROP rule is copy/drop-only but would
            # silently diverge from the Converter path (r5 review)
            and d.convert_rule("#text").copy
            and d.convert_rule("#entity").copy
            and not d.hooks  # the scanner runs no parser or writer hooks
            # the flat scanner hardcodes the stock HTML token grammar;
            # a dialect with a customized parser_mapping must take the
            # real parse path
            and d.parser_mapping == {"__default__": _STOCK_HTML}
        )
        self._identity_ok = d.plain_text_identity()

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
        out = self.converter.convert_owned(doc)
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

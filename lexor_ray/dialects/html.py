"""HTML dialect: node parsers + conversion rules.

The reference ships language plugins externally (discovered on
``LEXOR_PATH``, ``lexor/command/lang.py:45-51``); the HTML style itself
is not in the repo. This module defines the HTML dialect against the
reference's *plugin contract* (``lexor/core/parser.py:16-79`` NodeParser,
``converter.py:30-76`` NodeConverter) with standard HTML5 lexical rules:
open/close tags with attributes, void elements, raw-text elements
(``<script>``/``<style>``/...), comments, doctype, CDATA, character
entities, processing instructions.

Auto-close (W100) and unclosed-at-EOF (E100) semantics come from the
core engine (``parser.py:357-383, 408-410``) and are exercised by the
message-example corpus in ``tests/test_parser_corpus.py`` (the
reference's own ``Okay:``/``W100:``/``E100:`` examples at
``parser.py:417-451``).
"""

from __future__ import annotations

import html as _htmlmod
import re

from ..core.dom import (
    CData,
    Comment,
    DocumentType,
    Element,
    Entity,
    ProcessingInstruction,
    RawText,
    Text,
    Void,
)
from ..core.parser import NodeParser
from .registry import ConvertRule, Dialect, register_dialect

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
RAWTEXT_ELEMENTS = frozenset("script style textarea title".split())

_TAG_OPEN = re.compile(r"<([a-zA-Z][a-zA-Z0-9:_.-]*)")
_ATTR_NAME = re.compile(r"([^\s=/>]+)")
_WS = re.compile(r"\s*")
_UNQUOTED = re.compile(r"[^\s>]*")
_CLOSE_CACHE: dict[str, re.Pattern] = {}


def _close_re(name: str) -> re.Pattern:
    pat = _CLOSE_CACHE.get(name)
    if pat is None:
        pat = re.compile(r"</%s\s*>" % re.escape(name), re.IGNORECASE)
        _CLOSE_CACHE[name] = pat
    return pat


class ElementParser(NodeParser):
    """Open/close tags with attributes; voids, raw-text and
    self-closing forms are returned *complete* (the list / childless
    forms of ``parser.py:29-57``)."""

    first = "<"

    def make_node(self):
        p = self.parser
        text, caret = p.text, p.caret
        m = _TAG_OPEN.match(text, caret)
        if m is None:
            return None
        name = m.group(1).lower()
        pos = p.copy_pos()
        i = m.end()
        end = p.end
        attrs: list[tuple[str, str]] = []
        self_closing = False
        terminated = False
        while i < end:
            i = _WS.match(text, i).end()
            if i >= end:
                break
            c = text[i]
            if c == ">":
                i += 1
                terminated = True
                break
            if c == "/" and text.startswith("/>", i):
                i += 2
                self_closing = True
                terminated = True
                break
            am = _ATTR_NAME.match(text, i)
            if am is None:
                i += 1
                continue
            aname = am.group(1).lower()
            i = am.end()
            j = _WS.match(text, i).end()
            aval = ""
            if j < end and text[j] == "=":
                j = _WS.match(text, j + 1).end()
                if j < end and text[j] in "\"'":
                    q = text[j]
                    k = text.find(q, j + 1)
                    if k == -1:
                        aval = text[j + 1 :]
                        i = end
                    else:
                        aval = text[j + 1 : k]
                        i = k + 1
                else:
                    vm = _UNQUOTED.match(text, j)
                    aval = vm.group(0)
                    i = vm.end()
                    # HTML5 unquoted-attribute-value rule: '/' is value
                    # data — '<a href=http://x/>' keeps the trailing
                    # slash and the tag is NOT self-closing, matching
                    # browsers (r5 review; the old special case
                    # truncated the URL and emptied the link text).
                    # Explicit self-closing still works with a space:
                    # '<p a=1 />'.
            else:
                i = j if j > i else i
            attrs.append((aname, aval))
        if not terminated:
            self.msg("E200", pos, [name])
        start = caret
        p.update(i)
        if name in VOID_ELEMENTS:
            node = Void(name)
            for k, v in attrs:
                node[k] = v
            node.span = (start, i)
            node.pos = pos
            return node
        if name in RAWTEXT_ELEMENTS and not self_closing:
            cm = _close_re(name).search(text, i)
            if cm is None:
                data_end, consume_to = end, end
                self.msg("E100", pos, [name])
            else:
                data_end, consume_to = cm.start(), cm.end()
            node = RawText(name, text[i:data_end])
            for k, v in attrs:
                node[k] = v
            node.span = (start, consume_to)
            node.pos = pos
            p.update(consume_to)
            return node
        node = Element(name)
        for k, v in attrs:
            node[k] = v
        node.span = (start, i)
        node.pos = pos
        if self_closing or not terminated:
            return [node]
        return node

    def close(self, node):
        p = self.parser
        m = _close_re(node.name).match(p.text, p.caret)
        if m is None:
            return None
        pos = p.copy_pos()
        p.update(m.end())
        return pos


class StrayCloseParser(NodeParser):
    """A ``</name>`` with no matching open node: consumed and dropped
    with W101 (the close-polling in ``parser.py:385-395`` never saw a
    match, so without this rule the '<' would leak into text one char
    at a time)."""

    first = "<"

    _RE = re.compile(r"</([a-zA-Z][a-zA-Z0-9:_.-]*)\s*>")

    def make_node(self):
        p = self.parser
        m = self._RE.match(p.text, p.caret)
        if m is None:
            return None
        pos = p.copy_pos()
        self.msg("W101", pos, [m.group(1).lower()])
        p.update(m.end())
        return Text("")


class CommentParser(NodeParser):
    """``<!-- ... -->``; unterminated comments run to EOF with E100."""

    first = "<"

    def make_node(self):
        p = self.parser
        text, caret = p.text, p.caret
        if not text.startswith("<!--", caret):
            return None
        pos = p.copy_pos()
        k = text.find("-->", caret + 4)
        if k == -1:
            data_end = consume_to = p.end
            self.msg("E100", pos, ["#comment"])
        else:
            data_end, consume_to = k, k + 3
        node = Comment(text[caret + 4 : data_end])
        node.span = (caret, consume_to)
        node.pos = pos
        p.update(consume_to)
        return node


class DoctypeParser(NodeParser):
    """``<!doctype ...>`` (case-insensitive)."""

    first = "<"

    _RE = re.compile(r"<!doctype", re.IGNORECASE)

    def make_node(self):
        p = self.parser
        m = self._RE.match(p.text, p.caret)
        if m is None:
            return None
        pos = p.copy_pos()
        k = p.text.find(">", m.end())
        if k == -1:
            data_end = consume_to = p.end
            self.msg("E100", pos, ["#doctype"])
        else:
            data_end, consume_to = k, k + 1
        node = DocumentType(p.text[m.end() : data_end].strip())
        node.span = (p.caret, consume_to)
        node.pos = pos
        p.update(consume_to)
        return node


class CDataParser(NodeParser):
    """``<![CDATA[ ... ]]>``."""

    first = "<"

    def make_node(self):
        p = self.parser
        text, caret = p.text, p.caret
        if not text.startswith("<![CDATA[", caret):
            return None
        pos = p.copy_pos()
        k = text.find("]]>", caret + 9)
        if k == -1:
            data_end = consume_to = p.end
            self.msg("E100", pos, ["#cdata-section"])
        else:
            data_end, consume_to = k, k + 3
        node = CData(text[caret + 9 : data_end])
        node.span = (caret, consume_to)
        node.pos = pos
        p.update(consume_to)
        return node


class PIParser(NodeParser):
    """``<?target ... ?>`` processing instruction. The node name is
    ``'?target'`` (reference ``elements.py:58-81``). PI *execution*
    (``converter.py:394-447``) is deliberately not carried — see
    SURVEY.md §2.8; the extraction converter drops PIs."""

    first = "<"

    _RE = re.compile(r"<\?([a-zA-Z][a-zA-Z0-9:_-]*)")

    def make_node(self):
        p = self.parser
        m = self._RE.match(p.text, p.caret)
        if m is None:
            return None
        pos = p.copy_pos()
        k = p.text.find("?>", m.end())
        if k == -1:
            data_end = consume_to = p.end
            self.msg("E100", pos, ["?" + m.group(1)])
        else:
            data_end, consume_to = k, k + 2
        node = ProcessingInstruction("?" + m.group(1), p.text[m.end() : data_end])
        node.span = (p.caret, consume_to)
        node.pos = pos
        p.update(consume_to)
        return node


class EntityParser(NodeParser):
    """``&name;`` / ``&#nn;`` / ``&#xhh;`` — decoded via the public
    HTML5 entity table (stdlib ``html.unescape``). ``data`` is the
    decoded text; ``span`` covers the source entity, so spans stay
    source-accurate while decode changes width (SURVEY.md §7.4.3)."""

    first = "&"

    _RE = re.compile(r"&(?:#[0-9]{1,7};|#[xX][0-9a-fA-F]{1,6};|[a-zA-Z][a-zA-Z0-9]{1,31};)")

    def make_node(self):
        p = self.parser
        m = self._RE.match(p.text, p.caret)
        if m is None:
            return None
        raw = m.group(0)
        node = Entity(_htmlmod.unescape(raw))
        node.span = (p.caret, m.end())
        node.pos = p.copy_pos()
        p.update(m.end())
        return node


# ---------------------------------------------------------------------------
# Dialect assembly

# ElementParser first: its regex requires a letter after '<' so it is
# disjoint from the '<!'/'<?'/'</' forms, and open tags + entities are
# by far the most frequent tokens — ordering is a measured hot-loop
# win with identical results.
_DEFAULT_PARSERS = (
    "<&",
    [
        ElementParser,
        EntityParser,
        CommentParser,
        CDataParser,
        DoctypeParser,
        PIParser,
        StrayCloseParser,
    ],
)

#: Elements whose subtrees are boilerplate for main-content extraction
#: (the ``copy = False`` surface of ``converter.py:30-44``).
BOILERPLATE_ELEMENTS = frozenset(
    "script style head template noscript iframe frame frameset object embed "
    "applet nav footer aside svg math link meta base param".split()
)

_DROP = ConvertRule(copy=False)

_TEXT_CONVERTERS: dict[str, ConvertRule] = {"__default__": ConvertRule()}
for _name in BOILERPLATE_ELEMENTS:
    _TEXT_CONVERTERS[_name] = _DROP
for _name in ("#comment", "#doctype", "#cdata-section"):
    _TEXT_CONVERTERS[_name] = _DROP
_TEXT_CONVERTERS["?*"] = _DROP  # all processing instructions

#: Parse-only dialect: full-fidelity DOM, nothing dropped on convert.
HTML = register_dialect(
    Dialect(
        name="html",
        lang="html",
        parser_mapping={"__default__": _DEFAULT_PARSERS},
        converters={"__default__": ConvertRule()},
        close_prefix="</",
    )
)

#: class-attribute boilerplate heuristic (FIXTURES.md F2)
BOILERPLATE_CLASSES = frozenset(
    "ad ads advert banner sidebar cookie-notice popup menu".split()
)

#: The flagship extraction dialect: parse HTML, drop boilerplate
#: subtrees + comments/doctypes/PIs + ad/banner-class elements, keep
#: Text and decoded entities.
HTML_TEXT = register_dialect(
    Dialect(
        name="html-text",
        lang="html",
        parser_mapping={"__default__": _DEFAULT_PARSERS},
        converters=_TEXT_CONVERTERS,
        drop_classes=BOILERPLATE_CLASSES,
        close_prefix="</",
    )
)

"""Flat-scan extraction: the DOM-free fast path.

For *pure copy/drop* dialects (no converter hooks, no kept-childless
rules — the flagship ``html-text``), main-content extraction does not
need a materialized DOM: a single left-to-right scan with an open-tag
stack and a drop-depth counter produces byte-identical
``(extracted_text, spans, log, rule_hits)`` to the full
parse → convert → write pipeline, without allocating a node per token.
This cuts both CPU and memory traffic per turn (the parse path's
allocation pressure is what saturates a many-core node first).

Semantics mirrored exactly from the engine (and property-tested
against it in ``tests/test_fast_scan.py``):

- token grammar of the HTML dialect (``dialects/html.py``): tags with
  the same attribute scanner, comments, doctype, CDATA, PIs, entities,
  rawtext elements, voids, self-closing, stray closes;
- the auto-close cascade: ``</name>`` pops inner open tags with W100
  (innermost-first), stray closes log W101, unterminated constructs
  log E100/E200, open tags at EOF log E100 (outermost-first) —
  reference ``lexor/core/parser.py:357-410``;
- drop semantics: subtree dropped for boilerplate names, boilerplate
  classes, all comments/doctype/CDATA/PI/rawtext bodies (none of which
  ever contribute extracted text);
- span coalescing: adjacent plain-text runs merge when contiguous;
  entity spans always stand alone.

The hot loop makes one regex match per token (``_TOKEN``): the text
run, then an entity, close tag or attribute-less open tag. Any other
token goes through the per-character chain at its ``<``/``&``.
"""

from __future__ import annotations

import bisect
import html as _htmlmod
import re

from .dialects.html import (
    RAWTEXT_ELEMENTS,
    VOID_ELEMENTS,
    _ATTR_NAME,
    _TAG_OPEN,
    _UNQUOTED,
    _WS,
    DoctypeParser,
    EntityParser,
    PIParser,
    StrayCloseParser,
    _close_re,
)

_PI = PIParser._RE
_DOCTYPE = DoctypeParser._RE

#: one token per match, in the dialect's own grammar: the text run up
#: to the next '<'/'&' (group 1), then an entity (2), a close tag's
#: name (3) or an attribute-less open tag's name (4). These three forms
#: are 93% of the tokens of the generated transcripts; at any other
#: candidate the match ends at its '<'/'&'.
_TOKEN = re.compile(
    "([^<&]*)(?:(%s)|%s|%s>)?"
    % (EntityParser._RE.pattern, StrayCloseParser._RE.pattern, _TAG_OPEN.pattern)
)

_ENGINE = "lexor_ray.core.parser"


def _scan_tag(text: str, c: int, end: int):
    """Shared open-tag scanner — the exact attribute grammar of
    ``ElementParser.make_node`` (``dialects/html.py``). Returns
    (name, class_attr, i, self_closing, terminated) or None."""
    m = _TAG_OPEN.match(text, c)
    if m is None:
        return None
    name = m.group(1).lower()
    i = m.end()
    self_closing = False
    terminated = False
    class_attr = None
    while i < end:
        i = _WS.match(text, i).end()
        if i >= end:
            break
        ch = text[i]
        if ch == ">":
            i += 1
            terminated = True
            break
        if ch == "/" and text.startswith("/>", i):
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
                # HTML5: '/' is unquoted-value data (mirror of the
                # dialect scanner — byte-identity contract)
        else:
            i = j if j > i else i
        if aname == "class":
            # last duplicate wins — Element.__setitem__ overwrite
            # semantics (core/dom.py)
            class_attr = aval
    return name, class_attr, i, self_closing, terminated


def scan_extract(
    text: str,
    drop_names: frozenset,
    drop_classes: frozenset,
    rule_hits: dict | None = None,
):
    """One-pass extraction. Returns (extracted_text, spans, log)."""
    end = len(text)
    parts: list[str] = []
    spans: list[tuple[int, int]] = []
    last_text = False  # last emitted run was plain text (coalescible)
    # raw log: (module, code, offset, args) — args may hold the W100
    # close-position placeholder resolved at the end
    rawlog: list = []
    # stack of (name, dropped, open_offset)
    stack: list[tuple[str, bool, int]] = []
    drop_depth = 0
    hits = rule_hits if rule_hits is not None else {}
    n_element = n_entity = 0  # hot-loop rule hits, added to hits at the end
    token = _TOKEN.match

    pos = 0
    while pos < end:
        m = token(text, pos)
        c = m.end(1)
        if c > pos and not drop_depth:
            parts.append(m.group(1))
            if last_text and spans[-1][1] == pos:
                spans[-1] = (spans[-1][0], c)
            else:
                spans.append((pos, c))
            last_text = True
        kind = m.lastindex
        if kind == 2:  # entity
            n_entity += 1
            if not drop_depth:
                parts.append(_htmlmod.unescape(m.group(2)))
                spans.append((c, m.end()))
                last_text = False
            pos = m.end()
            continue
        if kind == 3:  # close tag
            name = m.group(3).lower()
            pos = m.end()
            # find matching open tag, innermost-out (parser.py:357-383)
            idx = len(stack) - 1
            while idx >= 0 and stack[idx][0] != name:
                idx -= 1
            if idx < 0:
                hits["StrayCloseParser"] = hits.get("StrayCloseParser", 0) + 1
                rawlog.append(("StrayCloseParser", "W101", c, [name]))
                continue
            # W100 cascade for inner unclosed tags, innermost-first
            for si in range(len(stack) - 1, idx, -1):
                iname, idropped, ioff = stack[si]
                rawlog.append((_ENGINE, "W100", ioff, [iname, ("POS", c)]))
                if idropped:
                    drop_depth -= 1
            if stack[idx][1]:
                drop_depth -= 1
            del stack[idx:]
            last_text = False
            continue
        if kind == 4:  # attribute-less open tag
            name, class_attr, i = m.group(4).lower(), None, m.end()
            self_closing, terminated = False, True
        else:
            if c >= end:
                break
            # any other token at the candidate c: the per-char chain
            head = text[c : c + 2]
            rule = tag = None
            if head == "<!":
                if text.startswith("<!--", c):
                    rule, close, skip, arg = "CommentParser", "-->", 4, "#comment"
                elif text.startswith("<![CDATA[", c):
                    rule, close, skip, arg = "CDataParser", "]]>", 9, "#cdata-section"
                elif _DOCTYPE.match(text, c):
                    rule, close, skip, arg = "DoctypeParser", ">", 9, "#doctype"
            elif head == "<?":
                pm = _PI.match(text, c)
                if pm is not None:
                    rule, close, skip, arg = "PIParser", "?>", pm.end() - c, "?" + pm.group(1)
            elif head != "</" and head[0] == "<":
                tag = _scan_tag(text, c, end)
            if rule is not None:
                hits[rule] = hits.get(rule, 0) + 1
                k = text.find(close, c + skip)
                if k == -1:
                    rawlog.append((rule, "E100", c, [arg]))
                    pos = end
                else:
                    pos = k + len(close)
                last_text = False
                continue
            if tag is None:
                # a literal '<' or '&' (no token starts here): one char
                # of text, coalesced with the run before it
                if not drop_depth:
                    parts.append(head[0])
                    if last_text and spans[-1][1] == c:
                        spans[-1] = (spans[-1][0], c + 1)
                    else:
                        spans.append((c, c + 1))
                    last_text = True
                pos = c + 1
                continue
            name, class_attr, i, self_closing, terminated = tag
            if not terminated:
                rawlog.append(("ElementParser", "E200", c, [name]))
        n_element += 1
        if name in VOID_ELEMENTS:
            pos = i
            last_text = False
            continue
        if name in RAWTEXT_ELEMENTS and not self_closing:
            cm = _close_re(name).search(text, i)
            if cm is None:
                rawlog.append(("ElementParser", "E100", c, [name]))
                pos = end
            else:
                pos = cm.end()
            last_text = False
            continue
        if self_closing or not terminated:
            pos = i
            last_text = False
            continue
        dropped = name in drop_names or (
            drop_classes
            and class_attr is not None
            and not drop_classes.isdisjoint(class_attr.split())
        )
        stack.append((name, bool(dropped), c))
        if dropped:
            drop_depth += 1
        last_text = False
        pos = i
    if n_element:
        hits["ElementParser"] = hits.get("ElementParser", 0) + n_element
    if n_entity:
        hits["EntityParser"] = hits.get("EntityParser", 0) + n_entity
    # EOF sweep: open tags log E100 outermost-first (parser.py:408-410)
    for name, _dropped, off in stack:
        rawlog.append((_ENGINE, "E100", off, [name]))

    if not rawlog:
        return "".join(parts), spans, []
    # resolve offsets → line/col via one newline index
    nl: list[int] = []
    i = text.find("\n")
    while i != -1:
        nl.append(i)
        i = text.find("\n", i + 1)

    def line_col(off: int) -> tuple[int, int]:
        line = bisect.bisect_right(nl, off - 1)
        col = off - (nl[line - 1] + 1 if line > 0 else 0) + 1
        return line + 1, col

    log = []
    for module, code, off, args in rawlog:
        line, col = line_col(off)
        out_args = []
        for a in args:
            if isinstance(a, tuple) and a[0] == "POS":
                cl, cc = line_col(a[1])
                out_args.extend([str(cl), str(cc)])
            else:
                out_args.append(str(a))
        log.append(
            {"module": module, "code": code, "line": line, "col": col, "arg": out_args}
        )
    return "".join(parts), spans, log

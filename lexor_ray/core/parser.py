"""Regex-dispatch parsing engine.

Re-expresses the reference's ``Parser`` (``lexor/core/parser.py:84-410``)
semantics exactly — the behavioral heart of the engine:

- per-container-name NodeParser dispatch with a compiled
  ``[chars]`` next-candidate regex per name
  (``parser.py:137-144, 313-319``; the reference's ``.*?[chars]``
  finds the same index, but re-scans to the end of the text from
  every start position once no candidate is left — quadratic in a
  markup-free tail),
- text-run consumption with eager adjacent-Text merging and minimum
  one-character progress (``parser.py:337-355``),
- the open-node stack with innermost-out ``close()`` polling, the
  W100 auto-close cascade and the E100 unclosed-at-EOF sweep
  (``parser.py:357-383, 385-410``),
- caret + ``[line, col]`` tracking by newline counting
  (``parser.py:256-284``).

Differences from the reference (deliberate):

- The registry is built from a :class:`~lexor_ray.dialects.registry.Dialect`
  object resolved from a plain dict registry, not from filesystem
  style-module discovery (``lexor/command/lang.py:140-173``); this is
  the per-worker state of SURVEY.md §2.7 — a Parser is constructed
  ONCE per worker process (the per-worker cache, ``ops/util.cached``)
  and reused for every row of every batch.
- The log is a plain list of dict records instead of a Document of
  ``Void('msg')`` nodes (``parser.py:287-303``); it becomes an Arrow
  ``list<struct>`` column downstream.
- Every produced node carries a character ``span``; ``pos`` line/col
  is kept only for log records.
"""

from __future__ import annotations

import re

from .dom import Document, Node, Text


class NodeParser:
    """Abstract node parser — the reference's ``NodeParser``
    (``parser.py:16-79``).

    ``first`` (optional) names the characters at which ``make_node``
    can match. A parser that declares it promises that at any other
    caret character ``make_node`` returns None with no side effect
    (caret, log and rule hits untouched), so the engine never calls it
    there. ``None`` (the default) means "may match anywhere": the
    parser is tried at every caret, as in the reference."""

    first: str | None = None

    def __init__(self, parser: "Parser") -> None:
        self.parser = parser

    def make_node(self):
        """Return None (no match at caret), a Node (open — ``close``
        will be polled), or ``[Node]`` (complete element, never
        polled). Nodes without a ``child`` list are complete by
        construction (``parser.py:29-57``)."""
        raise NotImplementedError(f"{self.__class__} did not implement make_node")

    def close(self, _node):
        """Return the ``[line, col]`` close position after consuming
        the closing sequence, else None (``parser.py:59-75``)."""
        raise NotImplementedError(f"{self.__class__} did not implement close")

    def msg(self, code: str, pos, arg=()) -> None:
        self.parser.msg(self.__class__.__name__, code, pos, arg)


class Parser:
    """The parsing engine. Construct once (per worker process), call
    :meth:`parse` per row."""

    def __init__(self, dialect) -> None:
        """``dialect`` is a resolved Dialect (see
        ``lexor_ray/dialects/registry.py``). Compilation of the
        next-check regex table happens here, once — the reference
        re-used it across documents via its ``_reload`` flag
        (``parser.py:159-160``)."""
        self.dialect = dialect
        # per container name: (caret char -> the node parsers that can
        # start there, in mapping order; the undeclared parsers, tried
        # at every other char)
        self._dispatch: dict[str, tuple[dict, list[NodeParser]]] = {}
        self._next_check: dict[str, re.Pattern] = {}
        self._instances: dict[type, NodeParser] = {}
        for name, (chars, np_classes) in dialect.resolved_parser_mapping().items():
            self._next_check[name] = re.compile("[%s]" % chars)
            nps = [self._instance(c) for c in np_classes]
            anywhere = [np for np in nps if np.first is None]
            by_char = {
                ch: [np for np in nps if np.first is None or ch in np.first]
                for np in nps
                if np.first is not None
                for ch in np.first
            }
            self._dispatch[name] = (by_char, anywhere)
        # hit counters for lineage records (north rule): parser-rule
        # name -> number of nodes it produced. Reset externally.
        self.rule_hits: dict[str, int] = {}
        # per-parse state
        self.text: str = ""
        self.end: int = 0
        self.caret: int = 0
        self.pos: list[int] = [1, 1]
        self._newlines: list[int] | None = None
        self.doc: Document | None = None
        self.log: list[dict] = []
        self._in_progress: list[tuple[Node, NodeParser]] = []

    def _instance(self, cls: type) -> NodeParser:
        if cls not in self._instances:
            self._instances[cls] = cls(self)
        return self._instances[cls]

    # -- position tracking ------------------------------------------------
    # The reference maintains [line, col] eagerly on every caret move
    # (``parser.py:256-284``). Diagnostics are rare, so here positions
    # are plain char offsets in the hot path and line/col is derived
    # lazily from a newline index built on first use — same observable
    # [line, col] values in every log record, none of the per-token
    # counting cost.
    def update(self, index: int) -> None:
        self.caret = index

    def compute(self, index: int) -> int:
        return index

    def copy_pos(self) -> int:
        return self.caret

    def line_col(self, offset: int) -> tuple[int, int]:
        """[line, col] for a char offset (reference ``compute``
        semantics), via bisect over the lazily-built newline index."""
        nl = self._newlines
        if nl is None:
            nl = []
            i = self.text.find("\n")
            while i != -1:
                nl.append(i)
                i = self.text.find("\n", i + 1)
            self._newlines = nl
        import bisect

        line = bisect.bisect_right(nl, offset - 1)
        col = offset - (nl[line - 1] + 1 if line > 0 else 0) + 1
        return line + 1, col

    # -- log (reference parser.py:287-303, flattened to records) ---------
    def msg(self, module: str, code: str, pos, arg=()) -> None:
        if isinstance(pos, int):
            line, col = self.line_col(pos)
        elif pos:
            line, col = int(pos[0]), int(pos[1])
        else:
            line, col = 0, 0
        self.log.append(
            {
                "module": module,
                "code": code,
                "line": line,
                "col": col,
                "arg": [str(a) for a in arg],
            }
        )

    # -- main loop (reference parser.py:305-410) -------------------------
    def parse(self, text: str, uri: str | None = None) -> Document:
        self.text = text
        self.end = len(text)
        self.caret = 0
        self.pos = [1, 1]
        self._newlines = None
        self.doc = Document(self.dialect.lang)
        self.doc.uri = uri
        self.doc.span = (0, self.end)
        self.log = []
        hooks = self.dialect.hooks
        pre = hooks.get("parser_pre")
        if pre is not None:  # reference pre_process (parser.py:174-175)
            pre(self)
        self._parse()
        post = hooks.get("parser_post")
        if post is not None:  # reference post_process (parser.py:177-178)
            post(self)
        return self.doc

    def _get_next_check(self, node: Node) -> int:
        checker = self._next_check.get(node.name, self._next_check["__default__"])
        match = checker.search(self.text, self.caret)
        if match is None:
            return -1
        return match.start()

    def _process_node(self, crt: Node, node, processor: NodeParser):
        """Reference ``parser.py:321-335``."""
        hits = self.rule_hits
        name = processor.__class__.__name__
        hits[name] = hits.get(name, 0) + 1
        if isinstance(node, Text):
            if crt.child and isinstance(crt.child[-1], Text):
                crt.child[-1].merge(node)
            else:
                crt.append_child(node)
        elif isinstance(node, list):  # complete element
            crt.append_child(node[0])
        else:
            crt.append_child(node)
            if isinstance(node.child, list):
                self._in_progress.append((node, processor))
                return node
        return None

    def _process_text(self, crt: Node) -> None:
        """Reference ``parser.py:337-355`` — consume plain text up to
        the next index where a node parser might match; guarantee
        one-character progress."""
        index = self._get_next_check(crt)
        start = self.caret
        if index == -1:
            index = self.end
        elif index - start == 0:
            index += 1
        content = self.text[start:index]
        self.update(index)
        if crt.child and isinstance(crt.child[-1], Text):
            crt.child[-1].append_data(content, (start, index))
        else:
            crt.append_child(Text(content, (start, index)))

    def _close_node(self):
        """Reference ``parser.py:357-383`` — poll ``close()`` from the
        innermost open node out; when an outer node closes first, the
        inner ones auto-close with W100 in innermost-first order."""
        prog = self._in_progress
        num = len(prog)
        # caret at poll time is the START of the (yet-unconsumed)
        # close token — the span end for nodes auto-closed by it
        close_start = self.caret
        autoclose = None
        for node, processor in reversed(prog):
            num -= 1
            autoclose = processor.close(node)
            if autoclose is not None:
                break
        if autoclose is not None:
            if isinstance(autoclose, int):
                close_line, close_col = self.line_col(autoclose)
            else:
                close_line, close_col = autoclose[0], autoclose[1]
            for i in range(len(prog) - 1, num, -1):
                inner = prog[i][0]
                self.msg(
                    "lexor_ray.core.parser",
                    "W100",
                    inner.pos,
                    (inner.name, close_line, close_col),
                )
                # auto-closed nodes end where the ancestor's close
                # token BEGINS (the matched node below ends after it,
                # since that token is its own) — without this their
                # span stopped at the open tag, excluding all parsed
                # content (r4 review; dom.py span contract)
                inner.span = (inner.span[0], close_start)
                inner.pos = None
                del prog[i]
            closed = prog[num][0]
            closed.span = (closed.span[0], self.caret)
            closed.pos = None
            del prog[num]
            if prog:
                return prog[-1][0]
            return self.doc
        return None

    def _parse(self) -> None:
        """Reference ``parser.py:385-410``. The close-poll is guarded
        by the dialect's ``close_prefix`` (all HTML closes start with
        ``"</"``) — identical behavior, skips the innermost-out poll
        loop at every non-close position."""
        crt: Node = self.doc
        self._in_progress = []
        close_prefix = self.dialect.close_prefix
        text = self.text
        dispatch = self._dispatch
        default = dispatch["__default__"]
        by_char, anywhere = dispatch.get(crt.name, default)
        while self.caret < self.end:
            if self._in_progress and (
                close_prefix is None or text.startswith(close_prefix, self.caret)
            ):
                tmp = self._close_node()
                if tmp is not None:
                    crt = tmp
                    by_char, anywhere = dispatch.get(crt.name, default)
                    continue
            match = False
            node = None
            processor = None
            for processor in by_char.get(text[self.caret], anywhere):
                node = processor.make_node()
                if node is not None:
                    match = True
                    break
                elif self.caret == self.end:
                    break
            if not match:
                self._process_text(crt)
            elif self._process_node(crt, node, processor) is node:
                crt = node
                by_char, anywhere = dispatch.get(crt.name, default)
        for node, _processor in self._in_progress:
            self.msg("lexor_ray.core.parser", "E100", node.pos, [node.name])
            node.span = (node.span[0], self.end)
            node.pos = None
        self._in_progress = []


MSG = {
    "E100": 'closing string for `Node` of name "{0}" not found',
    "W100": 'auto-closing `Node` of name "{0}" at {1}:{2}',
}

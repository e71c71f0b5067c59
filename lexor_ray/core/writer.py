"""Tree-walk writer: the serialized form of one row's DOM (SURVEY P7-P9).

One loop calls each node's :class:`NodeWriter` ``start``, ``data``,
``child`` (``None`` skips the subtree and its ``end``) and ``end``. Text
goes through one column-tracked state machine: raw (the default), indent
(``indent`` leads each line; empty ones only with ``_indent_empty``) or
wrap (a pending line that ``_fold`` cuts to ``width`` columns). An in-UDF
utility, never a dataset-level stage.
"""

from __future__ import annotations

import re


def replace(string: str, *key_val) -> str:
    """Apply every ``(old, new)`` pair in one left-to-right scan, so no
    replacement is replaced again; earlier pairs win at the same place."""
    new_for = dict(key_val)
    alternatives = "|".join(re.escape(old) for old, _ in key_val)
    return re.sub(alternatives, lambda m: new_for[m.group(0)], string)


class NodeWriter:
    """start / data / child / end callbacks for one node name."""

    def __init__(self, writer: "Writer") -> None:
        self.writer = writer

    def write(self, string: str, split: bool = False) -> None:
        self.writer.write_str(string, split)

    def start(self, node) -> None:
        pass

    def data(self, node) -> None:
        self.writer.write_str(node.data)

    def child(self, _node):
        return True

    def end(self, node) -> None:
        pass


class DefaultWriter(NodeWriter):
    """XML-ish tag emitter."""

    def start(self, node) -> None:
        items = node.items() if hasattr(node, "items") else []
        tag = [node.name, *('%s="%s"' % (k, v) for k, v in items)]
        self.write("<%s>" % " ".join(tag))

    def end(self, node) -> None:
        self.write("</%s>" % node.name)


class Writer:
    """Built once per worker with a dialect; ``write(root)`` returns the
    serialized string. ``width`` (the CLI ``style[width=N]`` parameter)
    survives ``write``; all other state starts over."""

    def __init__(self, dialect=None) -> None:
        self.dialect = dialect
        self._nw: dict[str, NodeWriter] = {"__default__": DefaultWriter(self)}
        passthrough = NodeWriter(self)
        for name in ("#document", "#document-fragment", "#text", "#entity"):
            self._nw[name] = passthrough
        own = dialect.writers.items() if dialect is not None else ()
        self._nw.update((k, v(self)) for k, v in own if not isinstance(v, str))
        self._nw.update((k, self._nw[v]) for k, v in own if isinstance(v, str))
        self.width = 70
        self._reset()

    def _reset(self) -> None:
        self._out: list[str] = []
        self._col = 0  # characters emitted since the last newline
        self._verbatim = True  # raw mode; wins over _folding
        self._folding = False  # wrap mode
        self._line = ""  # wrap mode: the pending, not yet emitted line
        self._cuts: list[str] = []  # split hints not yet tried
        self._lead = ""  # the indent
        self._indent_empty = False
        self.prev_str = "\n"  # the last non-empty emitted string

    def _emit(self, s: str) -> None:
        if s:
            self._out.append(s)
            self.prev_str = s
            nl = s.rfind("\n")
            self._col = self._col + len(s) if nl < 0 else len(s) - nl - 1

    def write_str(self, string: str, split: bool = False) -> None:
        """Send ``string`` through the current mode. In wrap mode,
        ``split`` also makes ``string`` a cut point for the next fold."""
        if self._verbatim or not (self._folding or self._lead):
            self._emit(string)
        elif self._folding:
            if split:
                self._cuts.append(string)
            for i, piece in enumerate(string.split("\n")):
                if i:
                    self.flush_buffer()
                    self._emit("\n")
                self._line += piece
                self._fold()
        else:
            lines = string.split("\n")
            for i, line in enumerate(lines):
                if (line or self._indent_empty) and (i or not self._col):
                    lines[i] = self._lead + line
            self._emit("\n".join(lines))

    def _fold(self) -> None:
        """Cut full lines off the pending line while it overruns the
        budget: at the last space or split hint inside it, else at the
        first space past it. The first cut uses up every split hint."""
        line = self._line
        lead = "" if self._col else self._lead
        while True:
            room = self.width - self._col - len(lead)
            if len(line) <= room:
                break
            skip = int(line.startswith(" "))
            cut = line.rfind(" ", skip, room + 1)
            for hint in self._cuts:
                at = line.find(hint, skip)
                if 0 <= at <= room:
                    cut = max(cut, at)
            self._cuts.clear()
            if cut < 0:
                cut = line.find(" ", room)
                if cut < 0:
                    break
            self._emit(lead + line[skip:cut] + "\n")
            line = line[cut:].removeprefix(" ")
            lead = self._lead
        self._line = line

    def flush_buffer(self, tail: bool = True) -> None:
        """Emit the pending line as it stands; ``tail=False`` drops one
        trailing space, and a line start drops one leading space."""
        line, self._line = self._line, ""
        if not tail:
            line = line.removesuffix(" ")
        if not self._col:
            line = line.removeprefix(" ")
            if line or self._indent_empty:
                line = self._lead + line
        self._emit(line)

    def endl(self, force: bool = True, tot: int = 1, tail: bool = False) -> None:
        """Flush, then end the line with ``tot`` newlines. Without
        ``force`` nothing is added after a newline or a bare indent."""
        before = self.last()
        self.flush_buffer(tail)
        if force or not (before.endswith("\n") or before == self._lead):
            self._emit("\n" * tot)

    def last(self) -> str:
        """The last emitted string followed by the pending line."""
        pending = self._line if self._col else self._line.removeprefix(" ")
        return self.prev_str + pending

    def enable_raw(self) -> None:
        self.flush_buffer()
        self._verbatim = True

    def disable_raw(self) -> None:
        self._verbatim = False

    def enable_wrap(self) -> None:
        self._folding = True

    def disable_wrap(self) -> None:
        self.flush_buffer()
        self._folding = False

    @property
    def indent(self) -> str:
        return self._lead

    @indent.setter
    def indent(self, value: str) -> None:
        self.flush_buffer(tail=False)
        self._lead = value

    def write(self, root) -> str:
        self._reset()
        hooks = self.dialect.hooks if self.dialect is not None else {}
        pre, post = hooks.get("writer_pre"), hooks.get("writer_post")
        if pre is not None:
            pre(self, root)
        # document order in one loop: an entered element stays on
        # ``open_`` as [node, its NodeWriter, the index of the child
        # being walked] until its ``end``
        table, fallback = self._nw, self._nw["__default__"]
        open_: list = []
        node = root
        while True:
            nw = table.get(node.name, fallback)
            nw.start(node)
            if hasattr(node, "data"):
                nw.data(node)
                nw.end(node)
            elif not node.child:
                nw.end(node)
            elif nw.child(node) is not None:
                open_.append([node, nw, 0])
                node = node.child[0]
                continue
            while open_:
                top = open_[-1]
                top[2] += 1
                if top[2] < len(top[0].child):
                    node = top[0].child[top[2]]
                    break
                open_.pop()
                top[1].end(top[0])
            else:
                break
        self.flush_buffer()
        if post is not None:
            post(self, root)
        return "".join(self._out)

"""Tree-walk writer/serializer.

Re-expresses the reference's ``Writer`` (``lexor/core/writer.py``):

- the start/data/child/end NodeWriter traversal (``writer.py:482-516``),
- the ``DefaultWriter`` XML-ish tag emitter (``writer.py:102-118``),
- the word-wrap / indent buffered engine with break hints, raw mode and
  ``_indent_empty`` (``writer.py:221-353``),
- the one-pass multi-string ``replace`` helper (``writer.py:19-39``).

Output goes to an ``io.StringIO``; this is an in-UDF utility (the
serialized form of one row's DOM), never a dataset-level stage.
"""

from __future__ import annotations

import io
import re


def _replacer(*key_val):
    """One-pass multi-replacement (reference ``writer.py:19-27``)."""
    replace_dict = dict(key_val)
    pattern = re.compile("|".join(re.escape(k) for k, _ in key_val), re.M)
    return lambda string: pattern.sub(lambda m: replace_dict[m.group(0)], string)


def replace(string: str, *key_val) -> str:
    """Replacement of strings done in one pass (``writer.py:30-39``)."""
    return _replacer(*key_val)(string)


def find_whitespace(line: str, start: int, lim: int) -> int:
    """First whitespace before ``lim``, else look ahead
    (``writer.py:42-51``)."""
    index = line.rfind(" ", start, lim + 1)
    if index != -1:
        return index
    index = line.find(" ", lim)
    if index != -1:
        return index
    return len(line)


class NodeWriter:
    """start / data / child / end contract (``writer.py:54-99``)."""

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
    """XML-ish tag emitter (``writer.py:102-118``)."""

    def start(self, node) -> None:
        items = node.items() if hasattr(node, "items") else []
        att = " ".join('%s="%s"' % (k, v) for k, v in items)
        if att:
            self.write("<%s %s>" % (node.name, att))
        else:
            self.write("<%s>" % node.name)

    def end(self, node) -> None:
        self.write("</%s>" % node.name)


class Writer:
    """Construct once per worker with a dialect; ``write(node)`` returns
    the serialized string. Reference state machine ``writer.py:123-516``
    minus the filesystem plumbing (``ds.write_parquet`` is the sink)."""

    def __init__(self, dialect=None) -> None:
        self.dialect = dialect
        self._nw: dict[str, NodeWriter] = {}
        self._nw["__default__"] = DefaultWriter(self)
        passthrough = NodeWriter(self)
        for name in ("#document", "#document-fragment", "#text", "#entity"):
            self._nw[name] = passthrough
        if dialect is not None:
            aliases = []
            for key, val in dialect.writers.items():
                if isinstance(val, str):
                    aliases.append((key, val))
                else:
                    self._nw[key] = val(self)
            for key, target in aliases:
                self._nw[key] = self._nw[target]
        # wrap-engine state (writer.py:381-390)
        self._file: io.StringIO = io.StringIO()
        self._raw = True
        self._wrap = False
        self._buffer = ""
        self._break_hint: list[str] = []
        self._indent = ""
        self._indent_empty = False
        self.pos = [1, 1]
        self.width = 70
        self.prev_str = "\n"

    # -- buffered write engine (writer.py:221-353) -----------------------
    def _write_str(self, string: str) -> None:
        if string != "":
            self.prev_str = string
            self._file.write(string)
            nlines = string.count("\n")
            self.pos[0] += nlines
            if nlines > 0:
                self.pos[1] = len(string) - string.rfind("\n")
            else:
                self.pos[1] += len(string)

    def write_str(self, string: str, split: bool = False) -> None:
        if self._raw:
            self._write_str(string)
            return
        if not self._wrap:
            if self._indent != "":
                lines = string.split("\n")
                if self.pos[1] == 1:
                    if lines[0] != "" or self._indent_empty:
                        lines[0] = self._indent + lines[0]
                for num in range(1, len(lines)):
                    if lines[num] != "" or self._indent_empty:
                        lines[num] = self._indent + lines[num]
                self._write_str("\n".join(lines))
            else:
                self._write_str(string)
            return
        if split:
            self._break_hint.append(string)
        lines = string.split("\n")
        num = 0
        while num < len(lines) - 1:
            self._buffer += lines[num]
            self.normalize_buffer()
            self.flush_buffer()
            self._write_str("\n")
            num += 1
        self._buffer += lines[num]
        self.normalize_buffer()

    def flush_buffer(self, tail: bool = True) -> None:
        if not tail and self._buffer.endswith(" "):
            self._buffer = self._buffer[:-1]
        if self.pos[1] == 1:
            if self._buffer.startswith(" "):
                self._buffer = self._buffer[1:]
            if self._buffer != "":
                self._write_str(self._indent + self._buffer)
            elif self._indent_empty:
                self._write_str(self._indent)
        else:
            self._write_str(self._buffer)
        self._buffer = ""

    def normalize_buffer(self) -> None:
        line = self._buffer
        indent = self._indent
        if self.pos[1] > 1:
            indent = ""
        limit = self.width - self.pos[1] - len(indent) + 1
        while len(line) > limit:
            start = 0
            if line[start : start + 1] == " ":
                start += 1
            end = find_whitespace(line, start, limit)
            while self._break_hint:
                index = line.find(self._break_hint[0], start)
                del self._break_hint[0]
                if -1 < index <= limit:
                    if end > limit or index > end:
                        end = index
            if end == len(line):
                break
            self._write_str(indent + line[start:end] + "\n")
            if line[end : end + 1] == " ":
                line = line[end + 1 :]
            else:
                line = line[end:]
            indent = self._indent
            limit = self.width - self.pos[1] - len(indent) + 1
        self._buffer = line

    def enable_wrap(self) -> None:
        self._wrap = True

    def disable_wrap(self) -> None:
        self.flush_buffer()
        self._wrap = False

    def enable_raw(self) -> None:
        self.flush_buffer()
        self._raw = True

    def disable_raw(self) -> None:
        self._raw = False

    @property
    def indent(self) -> str:
        return self._indent

    @indent.setter
    def indent(self, value: str) -> None:
        self.flush_buffer(tail=False)
        self._indent = value

    def endl(self, force: bool = True, tot: int = 1, tail: bool = False) -> None:
        prev_str = self.last()
        self.flush_buffer(tail)
        if force or (not prev_str.endswith("\n") and prev_str != self._indent):
            self._write_str("\n" * tot)

    def last(self) -> str:
        if self.pos[1] == 1 and self._buffer.startswith(" "):
            return self.prev_str + self._buffer[1:]
        return self.prev_str + self._buffer

    # -- traversal (writer.py:448-516) -----------------------------------
    def _get(self, name: str) -> NodeWriter:
        return self._nw.get(name, self._nw["__default__"])

    def write(self, root) -> str:
        self._file = io.StringIO()
        self._raw = True
        self._wrap = False
        self._buffer = ""
        self._break_hint = []
        self._indent = ""
        self._indent_empty = False
        self.pos = [1, 1]
        # NOT reset here: ``width`` is writer CONFIGURATION (the CLI
        # ``style[width=N]`` parameter), set once after construction —
        # resetting it per write() silently discarded it (r3 bug fix)
        self.prev_str = "\n"
        hooks = self.dialect.hooks if self.dialect is not None else {}
        pre = hooks.get("writer_pre")
        if pre is not None:  # reference pre_process (writer.py:395-396)
            pre(self, root)
        self._write(root)
        self.flush_buffer()
        post = hooks.get("writer_post")
        if post is not None:  # reference post_process (writer.py:399-400)
            post(self, root)
        return self._file.getvalue()

    def _get_direction(self, crt) -> str:
        if hasattr(crt, "data"):
            self._get(crt.name).data(crt)
            self._get(crt.name).end(crt)
            return "r"
        elif crt.child:
            if self._get(crt.name).child(crt) is None:
                return "r"
            return "d"
        else:
            self._get(crt.name).end(crt)
            return "r"

    def _write(self, root) -> None:
        crt = root
        self._get(crt.name).start(crt)
        if hasattr(crt, "data"):
            self._get(crt.name).data(crt)
            self._get(crt.name).end(crt)
            return
        if crt.child:
            if self._get(crt.name).child(crt) is None:
                return
            direction = "d"
        else:
            self._get(crt.name).end(crt)
            return
        while True:
            if direction == "d":
                crt = crt.child[0]
            elif direction == "r":
                if crt.next is None:
                    direction = "u"
                    continue
                crt = crt.next
            elif direction == "u":
                self._get(crt.parent.name).end(crt.parent)
                if crt.parent is root:
                    break
                if crt.parent.next is None:
                    crt = crt.parent
                    continue
                crt = crt.parent.next
            self._get(crt.name).start(crt)
            direction = self._get_direction(crt)

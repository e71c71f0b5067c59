"""Tree-copy converter pass.

Re-expresses the reference's ``Converter._convert`` traversal
(``lexor/core/converter.py:331-376``): per node-name rule deciding
``copy`` / ``copy_children``, ``start``/``end`` rewrite hooks, and
``normalize()`` on ascent. Equivalent semantics, expressed as a
recursive copy with return values instead of the reference's
direction-state machine (a ``copy=False`` rule in the reference clones
an empty ``Text('')`` placeholder, skips the subtree, and relies on
``normalize`` to delete it — ``converter.py:324-329, 362``; returning
``None`` here is the same observable result).

Rules come from a :class:`~lexor_ray.dialects.registry.Dialect`; the
rule table is per-worker state (SURVEY.md §2.7).

A caller that parsed a tree only to convert it can hand it over with
:meth:`Converter.convert_owned`: for a copy/drop-only dialect
(``Dialect.copy_drop_only``) the tree itself is pruned and normalized,
with the same result as the clone, and no node is copied.
"""

from __future__ import annotations

from .dom import Document, Element, Node, Text


class Converter:
    def __init__(self, dialect) -> None:
        self.dialect = dialect
        self.log: list[dict] = []
        self._in_place = dialect.copy_drop_only()

    def msg(self, module: str, code: str, arg=()) -> None:
        self.log.append(
            {
                "module": module,
                "code": code,
                "line": 0,
                "col": 0,
                "arg": [str(a) for a in arg],
            }
        )

    def convert(self, doc: Document) -> Document:
        """Convert ``doc`` into a new Document (the reference returns a
        clone, never mutates the source — ``converter.py:337``)."""
        self.log = []
        out = doc.clone_node()  # shallow: root always copied (converter.py:333-337)
        init = self.dialect.hooks.get("convert_init")
        if init is not None:  # reference init_conversion (converter.py:339-340)
            init(self, out)
        root_rule = self.dialect.convert_rule(doc.name)
        if root_rule.start is not None:
            out = root_rule.start(self, out) or out
        if root_rule.copy_children and doc.child:
            for ch in doc.child:
                conv = self._convert_node(ch)
                if conv is not None:
                    out.append_child(conv)
        if root_rule.end is not None:
            out = root_rule.end(self, out) or out
        out.normalize()
        done = self.dialect.hooks.get("convert_done")
        if done is not None:  # reference style-level convert (converter.py:215-216)
            out = done(self, out) or out
        return out

    def convert_owned(self, doc: Document) -> Document:
        """Convert a document the caller will not use again. The result
        equals :meth:`convert`'s node for node (names, attrs, data,
        ``span``/``spans``, ``pos`` cleared); for a copy/drop-only
        dialect it is ``doc`` itself, pruned in place, and any other
        dialect takes the clone walk."""
        if not self._in_place or type(doc) is not Document:
            return self.convert(doc)
        self.log = []
        rule_of = self.dialect.convert_rule
        dc = self.dialect.drop_classes
        doc.pos = None
        doc.attrs, doc.attr_order = {}, []  # clone_node copies no root attrs
        if not rule_of(doc.name).copy_children:
            doc.remove_children()
            return doc
        # Kept nodes keep their children (copy_drop_only), and a node's
        # normalize only reads its Text children, which nothing below
        # changes — so each child list is filtered and normalized on
        # the way down, in one pass.
        stack = [doc]
        while stack:
            node = stack.pop()
            out: list[Node] = []
            for ch in node.child:
                if not rule_of(ch.name).copy or (
                    dc
                    and isinstance(ch, Element)
                    and "class" in ch.attrs
                    and not dc.isdisjoint(ch.class_list())
                ):
                    continue
                if isinstance(ch, Text):
                    if ch.data == "":
                        continue
                    if out and isinstance(out[-1], Text):
                        out[-1].merge(ch)
                        continue
                elif ch.child:
                    stack.append(ch)
                ch.parent = node
                ch.index = len(out)
                ch.pos = None
                out.append(ch)
            node.child = out
        return doc

    def _enter(self, node: Node):
        """Descend step: drop / shallow-clone / start-hook. Returns
        ``None`` (node + subtree dropped) or ``(clone, rule,
        child_iterator_or_None)``."""
        rule = self.dialect.convert_rule(node.name)
        if not rule.copy:
            return None  # drop node + subtree (reference Text('') + normalize)
        dc = self.dialect.drop_classes
        if (
            dc
            and isinstance(node, Element)
            and "class" in node.attrs
            and not dc.isdisjoint(node.class_list())
        ):
            return None
        clone = node.clone_node()  # shallow for every node type
        if rule.start is not None:
            clone = rule.start(self, clone) or clone
        it = iter(node.child) if rule.copy_children and node.child else None
        return clone, rule, it

    def _finish(self, clone: Node, rule) -> Node:
        """Ascend step: end-hook + normalize (converter.py:362)."""
        if rule.end is not None:
            clone = rule.end(self, clone) or clone
        clone.normalize()
        return clone

    def _convert_node(self, node: Node) -> Node | None:
        """Iterative (explicit-frame) post-order copy — recursion
        depth used to equal DOM depth, which on pathological ~20k-deep
        tool output could overflow the C stack regardless of
        ``sys.setrecursionlimit`` (r4 review; the writer and the flat
        scanner were already iterative)."""
        ent = self._enter(node)
        if ent is None:
            return None
        clone, rule, it = ent
        if it is None:
            return self._finish(clone, rule)
        stack = [(clone, rule, it)]
        while True:
            clone, rule, it = stack[-1]
            descended = False
            for ch in it:
                e = self._enter(ch)
                if e is None:
                    continue  # dropped subtree
                c2, r2, it2 = e
                if it2 is None:  # leaf (or childless / no-copy-children)
                    done = self._finish(c2, r2)
                    clone.append_child(done)
                    continue
                stack.append((c2, r2, it2))
                descended = True
                break
            if descended:
                continue
            stack.pop()
            done = self._finish(clone, rule)
            if not stack:
                return done
            stack[-1][0].append_child(done)

"""Dialect registry — the reference's style/plugin contract
re-expressed as plain Python objects (SURVEY.md §2.9).

The reference discovers "style" modules on a filesystem path and loads
them by naming convention (``lexor/command/lang.py:45-51, 140-173``),
then compiles three registries from each module's ``MAPPING``:
parser (``lexor/core/parser.py:123-144``), converter
(``converter.py:276-297``), writer (``writer.py:411-431``).

Here a dialect is a :class:`Dialect` object registered in a module
dict. A Ray task receives the *dialect name* (a small string, cheap
to ship with every task) and resolves + compiles the tables once per
worker process through the per-worker cache
(``ops.util.cached``), amortized over all batches
(SURVEY.md §2.7).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class ConvertRule:
    """Per-node-name conversion behavior — the reference's
    ``NodeConverter`` contract (``lexor/core/converter.py:30-76``)."""

    copy: bool = True
    copy_children: bool = True
    # hooks receive (node) and return the node or a replacement
    start: object = None
    end: object = None


@dataclass
class Dialect:
    """One parse/convert/write behavior bundle.

    ``parser_mapping`` follows the reference MAPPING shape
    (``parser.py:137-144``): ``{container_name: (next_char_class,
    [NodeParser classes]) | alias_str}``; ``'__default__'`` is
    required. ``converters``/``writers`` map node names to rules
    (``'__default__'`` fallback, reference ``converter.py:289``,
    ``writer.py:418``).
    """

    name: str
    lang: str = "html"
    parser_mapping: dict = field(default_factory=dict)
    converters: dict = field(default_factory=dict)
    writers: dict = field(default_factory=dict)
    #: OPT-IN: if every close() sequence of this dialect starts with
    #: this string (``"</"`` for HTML), the engine skips the
    #: innermost-out close-polling loop (``parser.py:357-383``) unless
    #: the caret sits on a possible close — behaviorally identical for
    #: such dialects, a large constant-factor win. The default None
    #: polls every iteration like the reference, which is the only
    #: safe default for plugin dialects whose close() may fire on
    #: arbitrary conditions (blank lines, dedents, ...).
    close_prefix: str | None = None
    #: class-attribute boilerplate heuristic (reference Q2 surface,
    #: ``elements.py:397-429``): any element whose class list
    #: intersects this set is dropped with its subtree.
    drop_classes: frozenset = frozenset()
    #: lifecycle hooks — the reference's style-module hook surface
    #: (§2.9): ``parser_pre(parser)`` / ``parser_post(parser)``
    #: (``parser.py:174-178``), ``convert_init(converter, doc)`` /
    #: ``convert_done(converter, doc)`` (``converter.py:339-340,
    #: 215-216``), ``writer_pre(writer, node)`` / ``writer_post
    #: (writer, node)`` (``writer.py:395-400``).
    hooks: dict = field(default_factory=dict)

    def resolved_parser_mapping(self) -> dict:
        """Resolve string aliases (reference ``parser.py:139-144``)."""
        out = {}
        aliases = []
        for key, val in self.parser_mapping.items():
            if isinstance(val, str):
                aliases.append((key, val))
            else:
                out[key] = val
        for key, target in aliases:
            out[key] = out[target]
        return out

    def copy_drop_only(self) -> bool:
        """True when conversion can only keep or drop nodes: no rule
        has a ``start``/``end`` hook, every kept node keeps its
        children, and there is no ``convert_init``/``convert_done``
        hook. Converting such a dialect is "drop the dropped subtrees,
        then normalize", which the flat scanner and the in-place
        conversion of an owned tree both rely on."""
        return (
            all(
                rule.start is None
                and rule.end is None
                and (rule.copy_children or not rule.copy)
                for rule in self.converters.values()
            )
            and "convert_init" not in self.hooks
            and "convert_done" not in self.hooks
        )

    def candidate_re(self) -> re.Pattern:
        """The ``__default__`` next-check class compiled as a regex
        class (NOT ``set()`` of the raw source, which would mis-read
        escapes like ``\\n`` and ranges like ``0-9``): the characters
        at which a node parser may start."""
        return re.compile(
            "[%s]" % self.resolved_parser_mapping()["__default__"][0], re.DOTALL
        )

    def plain_text_identity(self) -> bool:
        """True when a text with no :meth:`candidate_re` character
        converts to itself: it parses to one Text under the root, and
        no hook or ``#document``/``#text`` rule can transform that
        (``copy_children=False`` on ``#document`` would empty it;
        ``start``/``end`` would rewrite it). Element rules do not
        matter: elements cannot occur without candidate chars."""
        t_rule = self.convert_rule("#text")
        doc_rule = self.convert_rule("#document")
        return (
            not self.hooks
            and t_rule.copy
            and t_rule.start is None
            and t_rule.end is None
            and doc_rule.copy
            and doc_rule.copy_children
            and doc_rule.start is None
            and doc_rule.end is None
        )

    def convert_rule(self, name: str) -> ConvertRule:
        rule = self.converters.get(name)
        if rule is not None:
            return rule
        if name.startswith("?") and "?*" in self.converters:
            return self.converters["?*"]
        return self.converters.get("__default__", _DEFAULT_RULE)


_DEFAULT_RULE = ConvertRule()

_REGISTRY: dict[str, Dialect] = {}


def register_dialect(dialect: Dialect) -> Dialect:
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> Dialect:
    # import side-effect registration of the built-ins
    from . import html as _html  # noqa: F401
    from . import latex as _latex  # noqa: F401
    from . import markdown as _markdown  # noqa: F401
    from . import lexor_lang as _lexor_lang  # noqa: F401
    from . import markdown_src as _markdown_src  # noqa: F401

    # 'xml' aliases the html dialect (the reference's default parse
    # lang is 'xml'; reference users' parse(text, 'xml') must work)
    _REGISTRY.setdefault("xml", _REGISTRY["html"])
    if name not in _REGISTRY and _discover_style(name):
        pass  # installed-style miss → search path loaded it
    if name not in _REGISTRY:
        raise KeyError(f"unknown dialect {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


# ---------------------------------------------------------------------------
# Installed styles (the reference's S7 `lexor install` surface,
# `lexor/command/install.py:41-110`: a style IS a Python module; install
# loads it, validates its metadata and copies it into a discovered
# styles directory; consumers then resolve it by name). Re-expressed:
# a style module defines a module-level ``DIALECT`` (or ``DIALECTS``
# list) of :class:`Dialect` objects; `install_style` validates-by-
# loading then copies it under the styles dir; `get_dialect` falls
# back to the search path on a registry miss — which is also how Ray
# WORKER processes resolve a plugin dialect (they receive only the
# dialect NAME in task args and re-load from the shared filesystem;
# on a multi-node cluster ship the styles dir via runtime_env or a
# shared mount).


def styles_search_path() -> list[str]:
    """``$LEXOR_RAY_STYLE_PATH`` (colon-separated) then
    ``~/.lexor_ray/styles`` — the reference's user-site install dir
    surface (``install.py:135-163``)."""
    import os

    out = []
    env = os.environ.get("LEXOR_RAY_STYLE_PATH")
    if env:
        out.extend(p for p in env.split(":") if p)
    out.append(os.path.join(os.path.expanduser("~"), ".lexor_ray", "styles"))
    return out


def load_style_file(path: str) -> list[Dialect]:
    """Exec one style module (the reference used ``imp.load_source``,
    ``install.py:43``) and register its ``DIALECT``/``DIALECTS``."""
    import importlib.util
    import os

    modname = "lexor_ray_style_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(modname, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    dialects: list[Dialect] = []
    if hasattr(mod, "DIALECT"):
        dialects.append(mod.DIALECT)
    dialects.extend(getattr(mod, "DIALECTS", ()) or ())
    if not dialects:
        raise ValueError(
            f"style module {path!r} defines no DIALECT/DIALECTS"
        )
    for d in dialects:
        if not isinstance(d, Dialect):
            raise TypeError(f"{path!r}: DIALECT entries must be Dialect objects")
        register_dialect(d)
    return dialects


def install_style(src: str, styles_dir: str | None = None) -> str:
    """Validate-by-loading then copy a style module into the styles
    dir (named after its primary dialect), so every later process —
    including Ray workers — resolves it by name. Returns the installed
    path. (Reference ``install_style``, ``install.py:41-76``.)"""
    import os
    import shutil

    dialects = load_style_file(src)
    # install into the FIRST search-path entry ($LEXOR_RAY_STYLE_PATH
    # when configured, else the user dir) — the reference's
    # --path/--user install-dir precedence
    dst_dir = styles_dir or styles_search_path()[0]
    os.makedirs(dst_dir, exist_ok=True)
    dst = os.path.join(dst_dir, f"{dialects[0].name}.py")
    if os.path.abspath(src) != os.path.abspath(dst):
        shutil.copyfile(src, dst)
    return dst


def develop_style(src: str, cfg_path: str | None = None) -> str:
    """Register a style module path for IN-PLACE development: the
    config file's ``[develop]`` section maps dialect name → source
    path, and dialect resolution loads the in-development file BEFORE
    any installed copy — so edits take effect without re-installing.
    Validates by loading first. Returns a ``name --> path`` summary.
    (Reference ``develop`` command, ``lexor/command/develop.py:29-59``;
    develop entries win over installed versions at
    ``lang.py:145-152``.)"""
    import os

    from .. import config as _config

    dialects = load_style_file(src)
    path = cfg_path or _config.config_path() or os.path.join(".", "lexor.config")
    cfg = _config.read_config(path)
    if not cfg.has_section("develop"):
        cfg.add_section("develop")
    abspath = os.path.abspath(src)
    for d in dialects:
        cfg.set("develop", d.name, abspath)
    with open(path, "w") as fh:
        cfg.write(fh)
    return "\n".join(f"{d.name} --> {abspath}" for d in dialects)


def dist_style(src: str, out_dir: str = ".") -> str:
    """Package a style for distribution: validate-by-loading, then zip
    the style module plus its aux dir (``<name>/*.py``) and sibling
    conformance tests (``test_<name>.py`` and ``test_<name>/*.py``)
    as ``lexor_ray.<lang>.<name>.zip`` in ``out_dir``. The produced
    zip's members install with ``--install`` on the receiving side.
    Returns the zip path. (Reference ``dist`` command,
    ``lexor/command/dist.py:59-103`` — same inclusion rules; the
    reference's INFO-version zip suffix is package versioning here.)"""
    import os
    import zipfile

    dialects = load_style_file(src)
    name = dialects[0].name
    src = os.path.abspath(src)
    base = os.path.splitext(src)[0]
    parent = os.path.dirname(src)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"lexor_ray.{dialects[0].lang}.{name}.zip")
    with zipfile.ZipFile(out, "w") as z:
        z.write(src, os.path.basename(src))
        if os.path.isdir(base):  # aux modules (reference: moddir/*.py)
            for f in sorted(os.listdir(base)):
                if f.endswith(".py"):
                    z.write(
                        os.path.join(base, f),
                        os.path.join(os.path.basename(base), f),
                    )
        stem = os.path.basename(base)
        tfile = os.path.join(parent, f"test_{stem}.py")
        if os.path.exists(tfile):  # the --scaffold sibling test
            z.write(tfile, os.path.basename(tfile))
        tdir = os.path.join(parent, f"test_{stem}")
        if os.path.isdir(tdir):  # reference: test_<name>/*.py
            for f in sorted(os.listdir(tdir)):
                if f.endswith(".py"):
                    z.write(os.path.join(tdir, f), os.path.join(f"test_{stem}", f))
    return out


def _discover_style(name: str) -> bool:
    """Registry-miss fallback: the config file's ``[develop]`` entry
    first (develop wins over installed, reference ``lang.py:145-152``),
    then ``<name>.py`` on the styles search path, then scan remaining
    style modules."""
    import os

    import warnings

    def _try(path: str) -> bool:
        try:
            load_style_file(path)
        except Exception as exc:  # noqa: BLE001
            # a broken installed style must be VISIBLE, not a bare
            # 'unknown dialect' later (r3 review finding)
            warnings.warn(
                f"installed style {path!r} failed to load: {exc!r}",
                stacklevel=3,
            )
            return False
        return name in _REGISTRY

    from .. import config as _config

    tried: set[str] = set()

    dev = _config.read_config()
    if dev.has_option("develop", name):
        cand = dev.get("develop", name)
        if os.path.exists(cand):
            tried.add(os.path.abspath(cand))
            if _try(cand):
                return True

    for d in styles_search_path():
        cand = os.path.join(d, f"{name}.py")
        if os.path.exists(cand):
            tried.add(os.path.abspath(cand))
            if _try(cand):
                return True
    # scan-all fallback: skip files the exact-name pass already exec'd
    # (r5 review: a candidate registering a differently-named dialect
    # was executed twice — double registration side effects)
    for d in styles_search_path():
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            p = os.path.join(d, f)
            if (
                f.endswith(".py")
                and os.path.abspath(p) not in tried
                and _try(p)
            ):
                return True
    return False

"""lexor_ray — a Ray-Data-native data-processing / extraction engine.

A from-scratch reimplementation of the query and transform
capabilities of the reference document-conversion engine
(LaudateCorpus1/lexor, surveyed in ``SURVEY.md``), re-expressed as
``ray.data.Dataset`` pipelines: ``read_parquet → map_batches`` over
zero-copy Arrow batches with compiled dialect registries cached per
worker process, plus the wide operators (dedup, similarity search, text
analysis, windowed aggregation) a large-scale training-data pipeline
needs.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` —
sessions are owned by ``bench.py``, CLI entry points and the test
fixture (driver contract, ``__ray_entry__.py``).
"""

from .extract import Extractor, extract_one

__version__ = "0.1.0"

#: extension → parse dialect (the reference's DEFAULTS alias table,
#: ``lexor/command/lang.py:24-37``, including its markdown aliases)
EXTENSION_DIALECTS = {
    ".html": "html",
    ".htm": "html",
    ".xml": "html",
    ".md": "markdown",
    ".markdown": "markdown",
    ".mdown": "markdown",
    ".mkdn": "markdown",
    ".mkd": "markdown",
    ".mdwn": "markdown",
    ".mdtxt": "markdown",
    ".mdtext": "markdown",
    ".text": "markdown",
    ".tex": "latex-text",
    ".latex": "latex-text",
    ".lex": "lexor-text",
}


def parse(text: str, lang: str = "html"):
    """Parse markup → (Document, log) — the reference's ``lexor.parse``
    (``lexor/__init__.py:104-110``).

    Deliberate divergence: the reference defaults ``lang='xml'``; here
    the default is the html dialect (the engine's flagship input), and
    ``'xml'`` is registered as an alias of it so reference-style
    ``parse(text, 'xml')`` calls keep working."""
    from .core.parser import Parser
    from .dialects.registry import get_dialect

    p = Parser(get_dialect(lang))
    doc = p.parse(text)
    return doc, list(p.log)


def resolve_input(path: str, search: str | None = None) -> str | None:
    """Search-path file resolution — the reference's ``LEXORINPUTS``
    fallback (``lexor/__init__.py:32-49`` ``_read_text`` and
    ``get_input``, ``lexor/command/to.py:196-222``): if ``path`` does
    not exist as given, try each directory in the colon-separated
    ``search`` list (default: the ``LEXORINPUTS`` environment
    variable). Returns the resolved path, or None if nowhere found."""
    import os

    if os.path.exists(path):
        return path
    if os.path.isabs(path):
        return None
    roots = (search if search is not None else os.environ.get("LEXORINPUTS", ""))
    for root in roots.split(":"):
        if not root:
            continue
        cand = os.path.join(root, path)
        if os.path.exists(cand):
            return cand
    return None


def read(path: str, lang: str | None = None):
    """Parse a file, inferring the dialect from its extension — the
    reference's ``lexor.read`` + extension inference
    (``lexor/__init__.py:113-127, 76-80``). Unknown extensions fall
    back to the html dialect WITH a warning (the reference fails
    loudly; silent misparsing of .rst/.txt as HTML would be worse
    than either)."""
    import os

    if lang is None:
        ext = os.path.splitext(path)[1].lower()
        lang = EXTENSION_DIALECTS.get(ext)
        if lang is None:
            import warnings

            warnings.warn(
                f"no dialect registered for extension {ext!r}; "
                f"parsing {path!r} as html",
                stacklevel=2,
            )
            lang = "html"
    resolved = resolve_input(path)
    if resolved is None:
        raise FileNotFoundError(path)
    with open(resolved) as fh:
        return parse(fh.read(), lang)


def convert(doc, dialect: str = "html-text"):
    """Convert a parsed Document with a dialect's rules →
    (Document, log) — the reference's ``lexor.convert``
    (``lexor/__init__.py:130-141``)."""
    from .core.converter import Converter
    from .dialects.registry import get_dialect

    c = Converter(get_dialect(dialect))
    out = c.convert(doc)
    return out, list(c.log)


def write(node, dialect: str | None = None) -> str:
    """Serialize a node/Document → string — the reference's
    ``lexor.write`` (``lexor/__init__.py:144-168``); with no dialect
    the stock XML-ish writer is used."""
    from .core.writer import Writer
    from .dialects.registry import get_dialect

    d = get_dialect(dialect) if dialect else None
    return Writer(d).write(node)


__all__ = [
    "Extractor",
    "extract_one",
    "parse",
    "read",
    "resolve_input",
    "convert",
    "write",
    "EXTENSION_DIALECTS",
    "__version__",
]

"""Writer engine (XML default + wrap) , markdown style, selector subset."""

from lexor_ray.core.parser import Parser
from lexor_ray.core.selector import matches, remove_matching, select
from lexor_ray.core.dom import Document, Element
from lexor_ray.core.writer import Writer, replace
from lexor_ray.dialects.markdown import to_markdown
from lexor_ray.dialects.registry import Dialect, get_dialect


def parse(text):
    return Parser(get_dialect("html")).parse(text)


def test_replace_one_pass():
    """The reference's doctest (writer.py:30-39)."""
    assert (
        replace("a < b && b < c", ("<", "&lt;"), ("&", "&amp;"))
        == "a &lt; b &amp;&amp; b &lt; c"
    )


#: wrap-engine scripts run inside a ``writer_pre`` hook: each step is
#: ``(method, *args)``, or ``(".attr", value)`` / ``(":attr", value)``
#: to set a property or a state field. Each golden pins the output and
#: ``last()`` after every step.
'tiny\nextraordinarily\nlong\nwords\nend\n'
['\n', '\n', '\n', 'long\nwords', 'words\nend', '\n']

'ab\ncd\nef'
['\n', '\n', '\n', 'cd\nef']

'abcdef'
['\n', '\n', '\n', '\nabcdef', 'abcdef']

'key=value\n,other=thing,\nx ya\nb\n/cdefgh/ij/zz\n'
['\n', '\n', '\n', '\nkey=value,other=thing', 'key=value\n,other=thing,', ',other=thing,\nx y', 'x ya\nb/cdefgh/ij', 'b\n/cdefgh/ij/', 'b\n/cdefgh/ij/zz', '\n']

'ab::cd::\nefgh ijkl\nmnop::qrqr\n\n'
['\n', '\n', '\n', '\nab::cd', '\nab::cd::', 'efgh ijkl\nmnop::qr', 'efgh ijkl\nmnop::qrqr', '\n\n']

'one twothree\n  four five\n  six\nseven eight\n\tnine ten'
['\n', '\n', '\n', '\none two ', 'one two', '  four five\nsix', '\n', '\n', '\nseven  ', 'seven ', 'eight\nnine ten']

'> a\n> \n> b\n> c\n\n> quoted\n> text\n> wraps\n> here\n> \n> again\n> \n> '
['\n', '\n', '\n', '> a\n> \n> b\n> ', 'c', '\n\n', '\n\n', '\n\n', '\nagain', '\n', '\n']

'  a\n\n  b\n  \n  '
['\n', '\n', '  a\n\n  b\n', '  a\n\n  b\n', '  a\n\n  b\n', '  ', '\n  ']

'  x \n\n   y'
['\n', '\n', '\n', '\n', '  ', '  ', '  ', '  x ', '\n\n', '  ', '  ', '   y']

'lorem\nipsum\ndolorRAW TEXT LONGER THAN TEN\nsit amet\nconsecteturplain\nlines x|'
['\n', '\n', '\n', 'ipsum\ndolor', 'dolor', 'RAW TEXT LONGER THAN TEN\n', 'RAW TEXT LONGER THAN TEN\n', 'sit amet\nconsectetur', 'consectetur', 'plain\nlines', 'plain\nlines', 'plain\nlines x', ' x', '|']

'\tabcdefghijk l m\n\tn o p\n\tlead\n\tq \n\n\n'
['\n', '\n', '\n', '\tabcdefghij', '\tabcdefghij', 'k l m\nn o p', '\n', '\tlead\n', '\tlead\n', '\tlead\nq  ', '\n\n\n']

'  \n  a\n  b\n  \n  c\n  \n  d\n'
['\n', '\n', '\n', '\n', '  \nc', '  \nd', '  d', '\n']

WRAP_GOLDENS = [
    # look-ahead cut: a word longer than the budget runs to the next space
    (
        [
            (".width", 8), ("disable_raw",), ("enable_wrap",),
            ("write_str", "tiny extraordinarily long words"),
            ("write_str", " end"), ("endl",),
        ],
        "tiny\nextraordinarily\nlong\nwords\nend\n",
        [
            "\n", "\n", "\n", "long\nwords", "words\nend", "\n",
        ],
    ),
    # last space at or before the budget
    (
        [
            (".width", 4), ("disable_raw",), ("enable_wrap",),
            ("write_str", "ab cd ef"),
        ],
        "ab\ncd\nef",
        [
            "\n", "\n", "\n", "cd\nef",
        ],
    ),
    # no space anywhere: the line stays whole
    (
        [
            (".width", 3), ("disable_raw",), ("enable_wrap",),
            ("write_str", "abcdef"), ("flush_buffer",),
        ],
        "abcdef",
        [
            "\n", "\n", "\n", "\nabcdef", "abcdef",
        ],
    ),
    # split hints: extra cut points, used once and then dropped
    (
        [
            (".width", 10), ("disable_raw",), ("enable_wrap",),
            ("write_str", "key=value,other=thing"), ("write_str", ",", True),
            ("write_str", " x y"), ("write_str", "a b/cdefgh/ij"),
            ("write_str", "/", True), ("write_str", "zz", True),
            ("endl", False),
        ],
        "key=value\n,other=thing,\nx ya\nb\n/cdefgh/ij/zz\n",
        [
            "\n", "\n", "\n", "\nkey=value,other=thing",
            "key=value\n,other=thing,", ",other=thing,\nx y",
            "x ya\nb/cdefgh/ij", "b\n/cdefgh/ij/", "b\n/cdefgh/ij/zz", "\n",
        ],
    ),
    (
        [
            (".width", 12), ("disable_raw",), ("enable_wrap",),
            ("write_str", "ab::cd"), ("write_str", "::", True),
            ("write_str", " efgh ijkl mnop::qr"), ("write_str", "qr", True),
            ("endl", True, 2),
        ],
        "ab::cd::\nefgh ijkl\nmnop::qrqr\n\n",
        [
            "\n", "\n", "\n", "\nab::cd", "\nab::cd::", "efgh ijkl\nmnop::qr",
            "efgh ijkl\nmnop::qrqr", "\n\n",
        ],
    ),
    # indent set mid-line drops one trailing space of the pending line
    (
        [
            (".width", 12), ("disable_raw",), ("enable_wrap",),
            ("write_str", "one two "), (".indent", "  "),
            ("write_str", "three four five six"), ("endl",), (".indent", ""),
            ("write_str", "seven  "), (".indent", "\t"),
            ("write_str", "eight nine ten"),
        ],
        "one twothree\n  four five\n  six\nseven eight\n\tnine ten",
        [
            "\n", "\n", "\n", "\none two ", "one two", "  four five\nsix",
            "\n", "\n", "\nseven  ", "seven ", "eight\nnine ten",
        ],
    ),
    # _indent_empty pads empty lines too, in indent and wrap mode
    (
        [
            (":_indent_empty", True), ("disable_raw",), (".indent", "> "),
            ("write_str", "a\n\nb\n"), ("write_str", "c"), ("endl", True, 2),
            ("enable_wrap",), (".width", 9),
            ("write_str", "quoted text wraps here\n\nagain"), ("endl",),
            ("endl",),
        ],
        "> a\n> \n> b\n> c\n\n> quoted\n> text\n> wraps\n> here\n> \n> again\n> \n> ",
        [
            "\n", "\n", "\n", "> a\n> \n> b\n> ", "c", "\n\n", "\n\n", "\n\n",
            "\nagain", "\n", "\n",
        ],
    ),
    (
        [
            ("disable_raw",), (".indent", "  "), ("write_str", "a\n\nb\n"),
            ("write_str", ""), (":_indent_empty", True), ("write_str", ""),
            ("write_str", "\n"),
        ],
        "  a\n\n  b\n  \n  ",
        [
            "\n", "\n", "  a\n\n  b\n", "  a\n\n  b\n", "  a\n\n  b\n", "  ",
            "\n  ",
        ],
    ),
    # endl(force=False) right after an indent writes no newline
    (
        [
            (":_indent_empty", True), ("disable_raw",), ("enable_wrap",),
            (".indent", "  "), ("flush_buffer",), ("endl", False),
            ("endl", False, 1, True), ("write_str", "x "),
            ("endl", False, 2, True), ("endl", False), ("endl", True, 0),
            ("write_str", " y"),
        ],
        "  x \n\n   y",
        [
            "\n", "\n", "\n", "\n", "  ", "  ", "  ", "  x ", "\n\n", "  ",
            "  ", "   y",
        ],
    ),
    # raw toggles flush the pending line
    (
        [
            (".width", 10), ("disable_raw",), ("enable_wrap",),
            ("write_str", "lorem ipsum dolor"), ("enable_raw",),
            ("write_str", "RAW TEXT LONGER THAN TEN\n"), ("disable_raw",),
            ("write_str", "sit amet consectetur"), ("disable_wrap",),
            ("write_str", "plain\nlines"), ("enable_wrap",),
            ("write_str", " x"), ("enable_raw",), ("write_str", "|"),
        ],
        "lorem\nipsum\ndolorRAW TEXT LONGER THAN TEN\nsit amet\n"
        "consecteturplain\nlines x|",
        [
            "\n", "\n", "\n", "ipsum\ndolor", "dolor",
            "RAW TEXT LONGER THAN TEN\n", "RAW TEXT LONGER THAN TEN\n",
            "sit amet\nconsectetur", "consectetur", "plain\nlines",
            "plain\nlines", "plain\nlines x", " x", "|",
        ],
    ),
    # past the budget: the column is already beyond width when wrap starts
    (
        [
            (".width", 6), ("disable_raw",), (".indent", "\t"),
            ("write_str", "abcdefghij"), ("enable_wrap",),
            ("write_str", "k l m n o p"), ("endl", False, 1, True),
            ("write_str", " lead  "), ("flush_buffer", False),
            ("write_str", "q  "), ("endl", False, 3, False),
        ],
        "\tabcdefghijk l m\n\tn o p\n\tlead\n\tq \n\n\n",
        [
            "\n", "\n", "\n", "\tabcdefghij", "\tabcdefghij", "k l m\nn o p",
            "\n", "\tlead\n", "\tlead\n", "\tlead\nq  ", "\n\n\n",
        ],
    ),
    # leading spaces at a line start and a budget of zero
    (
        [
            (".width", 2), ("disable_raw",), ("enable_wrap",),
            (".indent", "  "), ("write_str", " a b  c"),
            ("write_str", "\n d"), ("flush_buffer", True), ("write_str", " "),
        ],
        "  \n  a\n  b\n  \n  c\n  \n  d\n",
        [
            "\n", "\n", "\n", "\n", "  \nc", "  \nd", "  d", "\n",
        ],
    ),
]


def _play(script):
    lasts = []

    def pre(w, _root):
        for name, *args in script:
            if name[0] in ".:":
                setattr(w, name[1:], *args)
            else:
                getattr(w, name)(*args)
            lasts.append(w.last())

    d = Dialect(name="wrap-golden", hooks={"writer_pre": pre})
    return Writer(d).write(Document()), lasts


def test_wrap_engine_goldens():
    for script, out, lasts in WRAP_GOLDENS:
        assert _play(script) == (out, lasts), script


def test_default_writer_roundtrips_xmlish():
    doc = parse('<div class="x"><p>hi</p><br></div>')
    out = Writer().write(doc)
    assert out == '<div class="x"><p>hi</p><br></br></div>'


def test_wrap_engine():
    def pre(w, _root):
        w.disable_raw()
        w.enable_wrap()
        w.width = 20

    doc = Document()
    doc.append_child("aaa bbb ccc ddd eee fff ggg hhh")
    out = Writer(Dialect(name="wrap-20", hooks={"writer_pre": pre})).write(doc)
    assert all(len(line) <= 20 for line in out.split("\n"))
    assert out.replace("\n", " ") == "aaa bbb ccc ddd eee fff ggg hhh"


def test_deep_chain_writes_without_recursion():
    doc = Document()
    node = doc
    for _ in range(10_000):
        node = node.append_child(Element("b"))
    node.append_child("x")
    out = Writer().write(doc)
    assert out == "<b>" * 10_000 + "x" + "</b>" * 10_000


MD_GOLDEN = [
    ("<h2>T</h2>", "## T"),
    ("<p>a <b>b</b> <i>c</i></p>", "a **b** *c*"),
    ('<a href="u">t</a>', "[t](u)"),
    ('<img src="s" alt="a">', "![a](s)"),
    ("<ul><li>x</li><li>y</li></ul>", "- x\n- y"),
    ("<ol><li>x</li><li>y</li></ol>", "1. x\n2. y"),
    ("<blockquote>q</blockquote>", "> q"),
    ("<pre>a\n b</pre>", "```\na\n b\n```"),
    ("<p>x &amp; y</p>", "x & y"),
    ("<script>drop</script><p>keep</p>", "keep"),
]


def test_markdown_golden():
    failures = []
    for src, want in MD_GOLDEN:
        got = to_markdown(src)
        if got != want:
            failures.append((src, want, got))
    assert not failures, failures


def test_selector_quick_paths():
    doc = parse(
        '<div id="main" class="a b"><p class="a">x</p>'
        '<span data-x="1">y</span><p>z</p></div>'
    )
    assert [n.name for n in select(doc, "#main")] == ["div"]
    assert [n.name for n in select(doc, ".a")] == ["div", "p"]
    assert [n.name for n in select(doc, "p")] == ["p", "p"]
    assert [n.name for n in select(doc, "p.a")] == ["p"]
    assert [n.name for n in select(doc, "[data-x]")] == ["span"]
    assert [n.name for n in select(doc, "[data-x=1]")] == ["span"]
    assert [n.name for n in select(doc, "p.a, span")] == ["p", "span"]
    assert not matches(doc.child[0], "#other")


def test_remove_matching_drops_subtree():
    doc = parse("<div><nav><a>m</a></nav><p>keep</p></div>")
    n = remove_matching(doc, "nav")
    assert n == 1
    from lexor_ray.extract import TextSpanWriter

    text, _ = TextSpanWriter.write(doc)
    assert text == "keep"


def test_scaffold_style_generates_working_dialect(tmp_path):
    """The `--scaffold` skeleton (reference `lexor paste` semantics)
    loads, registers, parses its own grammar, and its MSG examples
    conform."""
    from lexor_ray.__main__ import convert_one, scaffold_style
    from lexor_ray.dialects.registry import load_style_file
    from lexor_ray.testing import assert_msg_examples

    style, test = scaffold_style("demo_style", str(tmp_path))
    dialects = load_style_file(style)
    assert dialects[0].name == "demo_style-text"
    out = convert_one("@{b}hello@@ world", to="text", lang="demo_style")
    assert "hello" in out and "world" in out
    assert_msg_examples("demo_style-text", open(style).read())
    import pytest as _pytest

    with _pytest.raises(FileExistsError):
        scaffold_style("demo_style", str(tmp_path))

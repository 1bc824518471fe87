"""The hyper-graph reader against its line-walk reference.

`parse_hypergraph` reads a text in the plain form that `serialize_hypergraph`
writes in bulk, and every other text line by line. The reference in
`_fixtures` walks every text. Both must give the same graph (equal edges,
equal `repr`s) or the same error message, for plain, decorated and broken
texts alike, and a plain text must never reach the line walk.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import _parse_hypergraph_reference

from kshg import FAMILIES, FamilySpec, ValidationError, cli, family_edge_pairs, generate
from kshg.cli import parse_hypergraph, serialize_hypergraph

HUGE = "7" * 5000  # past Python's 4,300-digit limit for reading an int


def outcome(parse, text: str):
    """What a parse does: ("ok", k, edges, repr of edges) or ("error", type, message)."""
    try:
        h = parse(text)
    except ValidationError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", h.vertex_count, h.edges, repr(h.edges))


def assert_same(text: str):
    got = outcome(parse_hypergraph, text)
    assert got == outcome(_parse_hypergraph_reference, text)
    return got


def walked(text: str) -> bool:
    """Parse `text` with the reference check, and tell whether the line walk ran."""
    with mock.patch.object(cli, "_walk_hypergraph", wraps=cli._walk_hypergraph) as walk:
        assert_same(text)
    return walk.called


@st.composite
def graphs(draw):
    """(k, [(i, j, weight)]) with 1-based, distinct pairs in random order and orientation."""
    k = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=15)) if pairs else []
    weight = st.integers(0, 3) | st.integers(0, 10**60)
    return k, [(j, i, draw(weight)) if draw(st.booleans()) else (i, j, draw(weight)) for i, j in chosen]


def lines_of(k: int, edges) -> list[str]:
    return [f"vertices {k}"] + [f"edge {i} {j} {w}" for i, j, w in edges]


def plain(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


@st.composite
def decorated(draw, lines: list[str]) -> str:
    """`lines` with comments, blank lines, tabs, CRLF, `+` signs, leading
    zeros, Unicode spaces and swapped endpoints, and maybe no final newline."""
    out = []
    for line in lines:
        words = line.split()
        if words[0] == "edge" and draw(st.booleans()):
            words[1], words[2] = words[2], words[1]
        words = [draw(st.sampled_from(("", "", "+", "0", "00", "+0"))) + w if w.isdigit() else w for w in words]
        separators = st.sampled_from((" ", " ", "  ", "\t", "\u00a0", "\u2003", " \t"))
        text = words[0] + "".join(draw(separators) + w for w in words[1:])
        text = draw(st.sampled_from(("", "", " ", "\t"))) + text + draw(st.sampled_from(("", "", " # note", "#", " \t")))
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(("", "# comment", "   ", "\t# edge 0 0 0"))))
        out.append(text)
    endings = st.sampled_from(("\n", "\n", "\r\n"))
    body = "".join(line + draw(endings) for line in out)
    return body.rstrip("\r\n") if draw(st.booleans()) else body


# Faulty lines by kind, for a file of k vertices. `broken` inserts them below
# the first line, and makes `vertices 0`, a duplicate edge and `edge` before
# `vertices` itself.
FAULTS = {
    "index-0": "edge 0 {k} 1",
    "index-k+1": "edge 1 {past} 1",
    "self-loop": "edge {k} {k} 0",
    "negative-weight": "edge 1 2 -3",
    "second-vertices": "vertices {k}",
    "field-count": "edge 1 2",
    "extra-field": "edge 1 2 1 1",
    "unknown-directive": "edges 1 2 1",
    "huge-field": "edge 1 2 " + HUGE,
    "underscore": "edge 1 2 1_0",
    "arabic-indic": "edge 1 2 \u0663",
    "arabic-indic-tail": "edge 1 2 1\u0663",  # `\d` would take it, and `int` reads 13
}


@st.composite
def broken(draw, k: int, edges, faults: int = 1) -> list[str]:
    """The lines of (k, edges) with `faults` faults, each drawn from FAULTS,
    a duplicate edge in either orientation, `vertices 0` or `edge` before
    `vertices`."""
    lines = lines_of(k, edges)
    for _ in range(faults):
        kind = draw(st.sampled_from(sorted(FAULTS) + ["duplicate", "vertices-0", "edge-first"]))
        if kind == "vertices-0":
            lines[next(n for n, line in enumerate(lines) if line.startswith("vertices"))] = "vertices 0"
            continue
        if kind == "edge-first":
            lines.insert(0, "edge 1 2 1")
            continue
        if kind == "duplicate" and not edges:
            added = ["edge 1 2 0", "edge 2 1 0"]  # a fault at k = 1 as well
        elif kind == "duplicate":
            i, j, _ = draw(st.sampled_from(edges))
            added = [f"edge {j} {i} 1" if draw(st.booleans()) else f"edge {i} {j} 1"]
        else:
            added = [FAULTS[kind].format(k=k, past=k + 1)]
        for line in added:
            lines.insert(draw(st.integers(1, len(lines))), line)
    return lines


class TestSameGraphOrSameError:
    @settings(max_examples=300, deadline=None)
    @given(graph=graphs())
    def test_plain_texts(self, graph):
        text = plain(lines_of(*graph))
        assert not walked(text)
        assert outcome(parse_hypergraph, text)[0] == "ok"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), graph=graphs())
    def test_decorated_texts(self, data, graph):
        text = data.draw(decorated(lines_of(*graph)))
        assert assert_same(text) == outcome(parse_hypergraph, plain(lines_of(*graph)))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), graph=graphs(), decorate=st.booleans())
    def test_broken_texts(self, data, graph, decorate):
        lines = data.draw(broken(*graph))
        text = data.draw(decorated(lines)) if decorate else plain(lines)
        assert assert_same(text)[0] == "error"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), graph=graphs())
    def test_two_faults_report_the_first(self, data, graph):
        text = plain(data.draw(broken(*graph, faults=2)))
        assert assert_same(text)[0] == "error"

    @pytest.mark.parametrize("text,message", (
        ("vertices 2\nedge 1 3 1\n", "line 2: vertex index 3 out of range 1..2"),
        ("vertices 2\nedge 0 1 1\n", "line 2: vertex index 0 out of range 1..2"),
        ("vertices 3\nedge 2 2 0\n", "line 2: self-loop at vertex 2"),
        ("vertices 3\nedge 1 2 1\nedge 2 1 4\n", "line 3: duplicate edge (1, 2)"),
        ("vertices 3\nedge 2 3 1\nedge 2 3 4\n", "line 3: duplicate edge (2, 3)"),
        ("vertices 0\n", "line 1: vertex count must be positive, got 0"),
        ("vertices 2\nvertices 2\n", "line 2: duplicate 'vertices' directive"),
        ("edge 1 2 1\nvertices 2\n", "line 1: 'edge' before 'vertices'"),
        ("vertices 2\nedge 1 2\n", "line 2: expected 'edge <i> <j> <n>'"),
        ("vertices 2\nedges 1 2 1\n", "line 2: unknown directive 'edges'"),
        (f"vertices 2\nedge 1 2 {HUGE}\n", "line 2: edge fields must be integers"),
        (f"vertices {HUGE}\n", f"line 1: vertex count '{HUGE}' is not an integer"),
        ("vertices 3\nedge 1 2 -1\n", "line 2: negative weight -1"),
        ("vertices 3\nedge 1 2 1\u0663\n", "line 2: edge fields must be integers"),
        ("vertices 1\u0663\n", "line 1: vertex count '1\u0663' is not an integer"),
        ("\ufeffvertices 2\nedge 1 2 1\n", "line 1: unknown directive '\\ufeffvertices'"),
        ("vertices 3\nedge 1 4 1\nedge 1 1 1\n", "line 2: vertex index 4 out of range 1..3"),
        ("vertices 3\nedge 1 2 1\nedge 3 3 1\nedge 2 1 1\n", "line 3: self-loop at vertex 3"),
        ("", "missing 'vertices' directive"),
    ))
    def test_refusals_word_the_first_faulty_line(self, text, message):
        assert assert_same(text) == ("error", ValidationError, message)


# A small instance of every catalogue family, with the parameters it reads.
FAMILY_SIZES = {
    "complete": dict(k=6), "linear": dict(k=7), "cyclic": dict(k=5), "fractal-tree": dict(k=4),
    "fractal-cyclic": dict(k=3), "square-lattice": dict(mx=3, my=4), "torus-lattice": dict(mx=3, my=4),
    "wheel7": {},
}


class TestPlainFilesTakeTheBulkRoute:
    def test_sizes_cover_the_catalogue(self):
        assert set(FAMILY_SIZES) == set(FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("weights", ("0", "1", "2", "mixed"))
    def test_every_family(self, family, weights):
        size = FAMILY_SIZES[family]
        if weights == "mixed":
            m = len(family_edge_pairs(FamilySpec(family, **size)))
            spec = FamilySpec(family, weights=tuple(range(m)), **size)
        else:
            spec = FamilySpec(family, weights=int(weights), **size)
        h = generate(spec)
        text = serialize_hypergraph(h)
        assert not walked(text)
        back = parse_hypergraph(text)
        assert (back.vertex_count, back.edges, repr(back.edges)) == (h.vertex_count, h.edges, repr(h.edges))

    @pytest.mark.parametrize("text", ("vertices 1\n", "vertices 5\n", f"vertices {10**40}\n"))
    def test_zero_edges(self, text):
        assert not walked(text)

    @pytest.mark.parametrize("text", (
        "vertices 3\nedge 1 2 1",  # no final newline
        "vertices 3\r\nedge 1 2 1\r\n",
        "vertices 3\nedge 1 2 1\n\n",
        "# a triangle\nvertices 3\nedge 1 2 1\n",
        "vertices 3\nedge 1 2 1  # first\n",
        "vertices 3\nedge\t1 2 1\n",
        "vertices 3\nedge 1  2 1\n",
        " vertices 3\nedge 1 2 1\n",
        "vertices +3\nedge 1 2 1\n",
        "vertices 3\nedge 01 2 1\n",
        "vertices 3\nedge 1 2 00\n",
        "vertices 3\nedge 1\u00a02 1\n",
        "vertices 3\nedge 2 1\u20031\n",
    ))
    def test_decorated_texts_take_the_walk(self, text):
        assert walked(text)
        assert outcome(parse_hypergraph, text)[0] == "ok"

    @pytest.mark.parametrize("text", (
        "vertices 2\nedge 1 3 1\n", "vertices 3\nedge 2 2 0\n", "vertices 3\nedge 1 2 1\nedge 2 1 4\n",
        f"vertices 2\nedge 1 2 {HUGE}\n", "vertices 0\n", "vertices 3\nedge 1 2 -1\n", "vertices 3\nedge 1 2\n",
        "\ufeffvertices 2\nedge 1 2 1\n",
    ))
    def test_broken_texts_take_the_walk(self, text):
        assert walked(text)


def cli_run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", (
    serialize_hypergraph(generate(FamilySpec("fractal-tree", k=4, weights=1))),
    "vertices 5\n",
    "vertices 3\r\nedge +3 1 2  # heavy\r\n\tedge 2 3 0",
    "vertices 3\nedge 1 4 1\nedge 1 1 1\n",
    "vertices 3\nedge 1 2 1\nedge 2 1 4\n",
    f"vertices 2\nedge 1 2 {HUGE}\n",
    "vertices 2\nedge 1 2 1_0\n",
))
@pytest.mark.parametrize("flags", ((), ("--json",)))
def test_cli_prints_the_reference_bytes(tmp_path, text, flags):
    path = tmp_path / "g.hg"
    path.write_text(text, encoding="utf-8", newline="")
    argv = ["bound", str(path), *flags]
    with mock.patch.object(cli, "parse_hypergraph", _parse_hypergraph_reference):
        expected = cli_run(argv)
    assert cli_run(argv) == expected

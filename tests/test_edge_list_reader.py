"""``read_edge_list``'s columnar pass is the line reader on its domain.

The reference is the line-by-line reader (``repro.graphs.io._read_lines``,
the reader every file went through before the columnar pass, kept as its
fallback).  Over random files -- int, float and exponent weights, tab,
space and mixed separators, CRLF, comments and blank lines anywhere,
negative and over-long ids, missing and extra fields, mixed weight
presence, headerless and empty files -- ``read_edge_list`` must give the
reference's graph (the same values *and* weight types) or raise what it
raises, message and line number included.  Files of the pass's own
domain must also come back as column graphs, so the pass is what ran.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import EdgeListError, read_edge_list
from repro.graphs.io import _read_lines


def _outcome(read, path):
    try:
        graph = read(path)
    except Exception as exc:  # the reference's refusals are part of its output
        return ("raises", type(exc), str(exc), getattr(exc, "lineno", None))
    return (
        "graph",
        graph.num_vertices,
        graph.name,
        graph.edges,
        [(type(src), type(dst)) for src, dst in graph.edges],
        graph.weights,
        None if graph.weights is None else [type(w) for w in graph.weights],
    )


def _agree(tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("edges") / "graph.tsv"
    path.write_bytes(data)
    got = _outcome(read_edge_list, path)
    assert got == _outcome(_read_lines, path)
    return got


ids = st.one_of(
    st.integers(min_value=0, max_value=60).map(str),
    st.integers(min_value=0, max_value=10**18 - 1).map(str),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2).map(str),
    st.integers(min_value=2**63, max_value=2**80).map(str),
    st.integers(min_value=-5, max_value=-1).map(str),
    st.integers(min_value=0, max_value=99).map(lambda v: f"00{v}"),
)
weights = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.integers(min_value=0, max_value=10**20).map(str),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(["1e-3", "-4E2", "2.5", "1.0", "0.0", "7e2", "nan", "inf", "heavy"]),
)
separators = st.sampled_from(["\t", "\t", "\t", " ", "  ", "\t ", " \t"])


@st.composite
def rows(draw):
    fields = [draw(ids) for _ in range(draw(st.sampled_from([2, 2, 2, 1, 4])))]
    if len(fields) == 2 and draw(st.booleans()):
        fields.append(draw(weights))
    line = fields[0]
    for field in fields[1:]:
        line += draw(separators) + field
    return line


@st.composite
def any_file(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(f"# vertices {draw(st.sampled_from(['70', '0', 'many', '5']))}")
    if draw(st.booleans()):
        lines.append("# name drawn")
    body = draw(st.lists(
        st.one_of(
            rows(), rows(), rows(), rows(),
            st.sampled_from(["", "   ", "# a comment", "# vertices 9", "#name x"]),
        ),
        max_size=12,
    ))
    lines.extend(body)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text.encode("utf-8")


@st.composite
def plain_file(draw):
    """A file of the columnar pass's domain."""
    weighted = draw(st.booleans())
    count = draw(st.integers(min_value=0, max_value=12))
    lines = []
    if draw(st.booleans()):
        lines.append(f"# vertices {draw(st.integers(min_value=0, max_value=80))}")
        if draw(st.booleans()):
            lines.append("# name plain")
    digits = st.integers(min_value=0, max_value=10**18 - 1).map(str)
    small = st.integers(min_value=0, max_value=60).map(str)
    for _ in range(count):
        fields = [draw(st.one_of(small, digits)) for _ in range(3 if weighted else 2)]
        lines.append("\t".join(fields))
    text = "\n".join(lines)
    if lines and draw(st.booleans()):
        text += "\n"
    return text.encode("ascii")


class TestColumnarPassIsTheLineReader:
    @settings(max_examples=300, deadline=None)
    @given(data=any_file())
    def test_random_files(self, tmp_path_factory, data):
        _agree(tmp_path_factory, data)

    @settings(max_examples=150, deadline=None)
    @given(data=plain_file())
    def test_plain_files_take_the_columnar_pass(self, tmp_path_factory, data):
        got = _agree(tmp_path_factory, data)
        assert got[0] == "graph"
        path = tmp_path_factory.mktemp("edges") / "again.tsv"
        path.write_bytes(data)
        assert "edges" not in vars(read_edge_list(path))

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"# vertices 4\n",
            b"# vertices 4\n# name g\n0\t1\n2\t3",
            b"\n\n# vertices 4\n\n0\t1\t5\n",
            b"0\t1\t5\r\n1\t2\t6\r\n",
            b"0\t1\n# late comment\n1\t2\n",
            b"0\t1\t5\n1\t2\n",
            b"0\t1\n\n1\t2\n",
            b"0 1 5\n",
            b"0\t1\t2.5\n1\t2\t1.0\n",
            b"0\t1\t1e3\n",
            b"0\t1\t1_000\n",
            b"1_0\t1\n",
            b"0\t-1\n",
            b"0\t1\t2\t3\n",
            b"7\n",
            b"1234567890123456789\t1\n",
            b"123456789012345678\t1\n",
            b"\t0\t1\n",
            b"0\t1\t\n",
            b"# vertices many\n0\t1\n",
            b"# name \xc3\xa9\n0\t1\n",
            b"\xff\xfe0\t1\n",
            b"0\t1\n# name \xff\n",
            b"# vertices 5\r0\t1\n",
        ],
    )
    def test_edge_cases(self, tmp_path_factory, data):
        _agree(tmp_path_factory, data)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"0\t18446744073709551616\n", 1),
            (b"0\t1\n9223372036854775808\t1\t3\n", 2),
        ],
    )
    def test_an_id_past_int64_is_refused(self, tmp_path_factory, data, line):
        got = _agree(tmp_path_factory, data)
        assert got[:2] == ("raises", EdgeListError) and got[3] == line
        assert "must be below 2**63" in got[2]

    def test_the_largest_int64_id_is_read(self, tmp_path_factory):
        data = b"# vertices 9223372036854775808\n9223372036854775807\t0\n"
        got = _agree(tmp_path_factory, data)
        assert got[0] == "graph" and got[3] == [(2**63 - 1, 0)]

    def test_a_refusal_names_its_line(self, tmp_path_factory):
        got = _agree(tmp_path_factory, b"# vertices 3\n0\t1\t4\n1\tx\t2\n")
        assert got[:2] == ("raises", EdgeListError) and got[3] == 3

"""Row texts of p/tail tables (`distribution_rows` against `format_scalar`) and rendering."""

import json
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import model_specs, parse_csv, reference_render_csv, reference_render_structured
from onoffqueue import (
    NumericConfig,
    build_joint_chain,
    from_strings,
    joint_stationary,
    queue_distribution,
    queue_marginal,
)
from onoffqueue import tables
from onoffqueue.cli import _distribution_table, load_model, main
from onoffqueue.model import suffix_sums
from onoffqueue.tables import (
    CHUNK_ROWS,
    OutputTable,
    csv_chunks,
    distribution_rows,
    format_scalar,
    render_csv,
    structured_chunks,
)


def per_row(p, tail):
    return [(str(k), format_scalar(x), format_scalar(y)) for k, (x, y) in enumerate(zip(p, tail))]


def tails_of(p):
    """P(Q>k) = 1 - (p[0] + ... + p[k]) for each k, in the numbers of p."""
    out, left = [], 1
    for value in p:
        left -= value
        out.append(left)
    return out


@pytest.fixture
def conversions(monkeypatch):
    """Integers `distribution_rows` converted directly, in call order."""
    seen = []

    def counted(value):
        seen.append(value)
        return format_scalar(value)

    monkeypatch.setattr(tables, "format_scalar", counted)
    return seen


class TestDistributionCells:
    @settings(max_examples=60, deadline=None)
    @given(model_specs(backend="exact"), st.integers(0, 120))
    def test_exact_models_match_per_cell(self, spec, k_max):
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=k_max))
        assert list(distribution_rows(zip(dist.p, dist.tail))) == per_row(dist.p, dist.tail)

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_one_conversion_per_row(self, request, conversions, name):
        # row 0 also converts its denominator and tail numerator: tail[-1] = 1
        spec = request.getfixturevalue(f"{name}_exact")
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=200))
        cells = list(distribution_rows(zip(dist.p, dist.tail)))
        assert cells == per_row(dist.p, dist.tail)
        assert len(conversions) == len(cells) + 2
        assert conversions[3:] == [p.numerator for p in dist.p[1:]]

    def test_broken_tail_identity_converts_the_numerator(self, conversions):
        base = 3**200
        p = [Fraction(1, base), Fraction(2, 3 * base)]
        tail = [1 - p[0], 1 - p[0] - p[1] + Fraction(1, 3 * base)]  # off by 1/(3*base)
        assert list(distribution_rows(zip(p, tail))) == per_row(p, tail)
        # row 1 derives its denominator (ratio 3) but not its tail numerator
        assert conversions[3:] == [2, tail[1].numerator]

    def test_unrelated_large_denominators(self, conversions):
        p = [Fraction(1, 5**300), Fraction(1, 7**300)]
        tail = [Fraction(2, 11**300), Fraction(3, 13**300)]
        assert list(distribution_rows(zip(p, tail))) == per_row(p, tail)
        assert len(conversions) == 8  # every integer of both rows

    def test_float_and_mixed_rows(self, conversions):
        base = 3**200
        p = [0.5, -0.0, Fraction(1, base), 0.25, Fraction(1, 7), 1, Fraction(1, 3 * base)]
        tail = [0.5, 0.5, 1 - p[2], 0.25, 0.125, Fraction(2, 5), 1 - p[2] - p[6]]
        cells = list(distribution_rows(zip(p, tail)))
        assert cells == per_row(p, tail)
        assert cells[1] == ("1", "0", "0.5")
        assert cells[4:6] == [("4", "1/7", "0.125"), ("5", "1", "2/5")]
        # the last row follows on from row 2, past the float and mixed rows
        assert conversions[-1] == 1

    def test_float_rows_match_format_scalar(self):
        values = [-0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1.0]
        p = [x for x in values for _ in values]
        tail = [y for _ in values for y in values]
        assert list(distribution_rows(zip(p, tail))) == per_row(p, tail)

    def test_oracle_rows_parse_back(self, tmp_path, table2, table2_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", table2_path, "--qcap", "300", "--output", str(out)]) == 0
        rows = parse_csv(out.read_text()).rows
        chain = build_joint_chain(table2, 300)
        marginal = queue_marginal(chain, joint_stationary(chain)).tolist()
        assert [row[0] for row in rows] == [str(k) for k in range(301)]
        assert [float(row[1]) for row in rows] == marginal
        assert [float(row[2]) for row in rows] == [*suffix_sums(marginal)[1:], 0.0]

    @pytest.mark.parametrize("q_cap", [1000, 100_000])
    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_oracle_tails_are_suffix_sums(self, request, tmp_path, name, q_cap):
        assert_oracle_columns(tmp_path, request.getfixturevalue(f"{name}_path"), q_cap)

    @settings(max_examples=25, deadline=None)
    @given(model_specs(), st.integers(0, 3000))
    def test_random_models_oracle_tails_are_suffix_sums(self, tmp_path_factory, spec, extra):
        tmp_dir = tmp_path_factory.mktemp("oracle")
        path = tmp_dir / "model.json"
        path.write_text(json.dumps({"f": [str(v) for v in spec.f], "g": [str(v) for v in spec.g]}))
        assert_oracle_columns(tmp_dir, path, spec.m + extra)

    def test_empty(self):
        assert list(distribution_rows(())) == []

    def test_zero_and_denominator_one_rows(self):
        spec = from_strings(["0.5", "0.5"], ["1"], backend="exact")
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=4))
        assert list(distribution_rows(zip(dist.p, dist.tail))) == [("0", "1", "0")] + [
            (str(k), "0", "0") for k in range(1, 5)]

    def test_negative_and_integer_cells(self):
        p = [Fraction(3, 2), Fraction(-5, 4), Fraction(1), Fraction(0)]
        tail = tails_of(p)
        assert list(distribution_rows(zip(p, tail))) == per_row(p, tail)

    def test_rows_past_int_str_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        q = Fraction(1, 7**5200)  # 4395 digits, past the default limit of 4300
        p = [q * 6**k / 7**k for k in range(4)]
        tail = tails_of(p)
        cells = list(distribution_rows(zip(p, tail)))
        assert sys.get_int_max_str_digits() == limit
        assert max(len(text) for row in cells for text in row) > 4300
        assert cells == per_row(p, tail)
        assert sys.get_int_max_str_digits() == limit


def assert_oracle_columns(tmp_dir, path, q_cap):
    """`oracle`'s p and tail columns hold the bits of the marginal and of its
    suffix sums summed one by one from the far end, tail[k] = sum(p[k+1:])."""
    out = tmp_dir / "oracle.csv"
    assert main(["oracle", str(path), "--qcap", str(q_cap), "--output", str(out)]) == 0
    rows = parse_csv(out.read_text()).rows
    chain = build_joint_chain(load_model(str(path)), q_cap)
    marginal = queue_marginal(chain, joint_stationary(chain)).tolist()
    tails = suffix_sums(marginal)[1:] + (0.0,)
    assert [float(row[1]).hex() for row in rows] == [(x + 0.0).hex() for x in marginal]
    assert [float(row[2]).hex() for row in rows] == [(x + 0.0).hex() for x in tails]


# -0.0, 0.0, the least subnormal, the largest subnormal and one between, the least normal, 1.0
FLOAT_EDGES = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-310, 2.2250738585072014e-308, 1.0]
FLOAT_ROWS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


def assert_float_chunks_print_format_scalar(p, tail):
    """p and tail's CSV, as tuples and as float64 arrays, by the float path
    and CHUNK_ROWS rows a chunk, against render_csv over format_scalar's texts."""
    want = render_csv(OutputTable(("k", "p", "tail"), per_row(p, tail)))
    for columns in ((tuple(p), tuple(tail)), (np.array(p, dtype=float), np.array(tail, dtype=float))):
        table = _distribution_table(*columns)
        assert table.rows.floats_only()
        pieces = list(csv_chunks(table))
        assert "".join(pieces) == want
        assert [piece.count("\n") for piece in pieces[1:-1]] == [
            min(CHUNK_ROWS, len(p) - start) for start in range(0, len(p), CHUNK_ROWS)]
        assert list(table.rows) == per_row(p, tail)  # the cells structured output reads


class TestFloatRows:
    @pytest.mark.parametrize("rows", FLOAT_ROWS)
    def test_edge_values_print_format_scalar(self, rows):
        values = [FLOAT_EDGES[k % len(FLOAT_EDGES)] for k in range(rows)]
        assert_float_chunks_print_format_scalar(values, values[::-1])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(FLOAT_ROWS), st.data())
    def test_random_values_print_format_scalar(self, rows, data):
        values = st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()),
                          min_size=rows, max_size=rows)
        assert_float_chunks_print_format_scalar(data.draw(values), data.draw(values))

    @pytest.mark.parametrize("p", [(0.5, Fraction(1, 2)), (0.5, 1), (0.5, True), [np.float32(0.5)]])
    def test_other_cells_take_the_row_path(self, p):
        table = _distribution_table(p, [0.5] * len(p))
        assert not table.rows.floats_only()
        assert "".join(csv_chunks(table)) == render_csv(
            OutputTable(("k", "p", "tail"), per_row(p, [0.5] * len(p))))


_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_CELLS = st.one_of(
    st.just(""),
    st.text("0123456789-./e+", max_size=12),
    st.builds(  # thousands of digits
        lambda size, x: (str(x) * size)[:size], st.integers(1000, 3000), st.integers(1, 10**18)
    ),
)
_VALUES = st.text("0123456789=./ab", max_size=12)


@st.composite
def output_tables(draw):
    """Rectangular tables whose texts hold no separator of the CSV form."""
    width = draw(st.integers(1, 6))
    row = st.lists(_CELLS, min_size=width, max_size=width).map(tuple)
    if width == 1:  # an empty one-cell row prints as a blank line, which parse_csv skips
        row = row.filter(lambda cells: cells[0] != "")
    table = OutputTable(columns=tuple(draw(st.lists(_NAMES, min_size=width, max_size=width))))
    n_rows = draw(st.integers(0, 60))
    table.rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    table.footer = draw(st.lists(st.tuples(_NAMES, _VALUES), max_size=5))
    return table


class TestRender:
    @settings(max_examples=80, deadline=None)
    @given(output_tables())
    def test_matches_reference_forms(self, table):
        text = render_csv(table)
        assert text == reference_render_csv(table)
        assert "".join(csv_chunks(table)) == text
        assert "".join(structured_chunks(table)) == reference_render_structured(table)
        again = parse_csv(text)
        assert again.columns == table.columns
        assert (again.rows, again.footer) == (table.rows, table.footer)

    @pytest.mark.parametrize("rows", [0, 1, 64, 65])
    @pytest.mark.parametrize("render", [csv_chunks, structured_chunks])
    def test_footer_read_after_the_last_row(self, render, rows):
        # rows from a generator may add the footer when they run out, as exact dist does
        table = OutputTable(columns=("k", "p"))

        def rows_then_footer():
            for k in range(rows):
                yield str(k), str(k * k)
            table.add_footer("rows", rows)

        table.rows = rows_then_footer()
        text = "".join(render(table))
        want = OutputTable(("k", "p"), [(str(k), str(k * k)) for k in range(rows)],
                           [("rows", str(rows))])
        assert text == "".join(render(want))

    @pytest.mark.parametrize("row", [("1",), ("1", "2", "3")])
    def test_ragged_row_rejected(self, row):
        table = OutputTable(columns=("a", "b"))
        table.add_row(0, 1)
        table.rows.append(row)
        with pytest.raises(ValueError, match="row width does not match the header"):
            render_csv(table)

    @pytest.mark.parametrize("at", [0, 1, 63, 64])  # row 64 is a chunk by itself
    @pytest.mark.parametrize("row", [("1",), ("1", "2", "3")])
    def test_ragged_row_rejected_in_chunks(self, row, at):
        table = OutputTable(columns=("a", "b"))
        for k in range(65):
            table.add_row(k, k)
        table.rows[at] = row
        with pytest.raises(ValueError, match="row width does not match the header"):
            "".join(csv_chunks(table))

    @pytest.mark.parametrize("line", ["3", "3,4,5", "3,,"])
    def test_ragged_line_rejected(self, line):
        with pytest.raises(ValueError, match="row width does not match the header"):
            parse_csv(f"a,b\n1,2\n{line}\n# key=value\n")

    def test_exact_render_peak_memory(self, table2_exact):
        # the cells exist before the call; rendering adds the text and little else
        dist = queue_distribution(table2_exact, NumericConfig(backend="exact", k_max=400))
        table = _distribution_table(dist.p, dist.tail)
        table.rows = list(table.rows)  # formatted as they are read
        tracemalloc.start()
        try:
            text = render_csv(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference_render_csv(table)
        assert peak <= 1.5 * len(text)

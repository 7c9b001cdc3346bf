"""CLI behavior: exit codes, output schemas, round-trips, determinism."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onoffqueue.cli import main
from onoffqueue.tables import OutputTable, parse_csv, render_csv

SIM_FLAGS = ["--iterations", "20000", "--burn-in", "1000", "--runs", "3", "--kmax", "4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_valid_model(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "validate", table1_path)
        assert code == 0
        assert out.strip() == "valid; rho=0.4667"

    def test_invalid_sum_lists_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"f": ["0.5", "0.4"], "g": ["1.0"]}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "sums to 0.9" in err

    def test_unstable_model(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(
            '{"f": ["0.6", "0.2", "0.1", "0.05", "0.05"],'
            ' "g": ["0", "0", "0", "0", "1.0"]}'
        )
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "rho" in err

    def test_multiple_violations_all_listed(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"f": ["0.5", "0.3"], "g": ["0.5", "0.4"]}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert err.count("sums to") == 2

    def test_malformed_entries_listed(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"f": ["nan", "0.5"], "g": [["1.0"]]}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert err.count("is not a finite number") == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"f": ["0.5", "0.5"], "g": [true]}', "g[0] = True is not a finite number"),
            ('{"f": ["0.5", "0.5", 0e-100000], "g": ["1"]}',
             "f[2] = '0e-100000' has a decimal exponent"),
        ],
        ids=["boolean", "huge_exponent"],
    )
    def test_boolean_or_huge_exponent_entry(self, capsys, tmp_path, doc, message):
        path = tmp_path / "entry.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert message in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"f": ["0.5",\n !]}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "content, message",
        [(b'\xff{"f": ["1"]}', "cannot read"), (b"[" * 100_000, "nested too deeply")],
        ids=["undecodable", "too_deep"],
    )
    def test_unreadable_document(self, capsys, tmp_path, content, message):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert message in err
        assert err.count("\n") == 1

    def test_missing_array(self, capsys, tmp_path):
        path = tmp_path / "nog.json"
        path.write_text('{"f": ["1.0"]}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "'g'" in err


class TestAnalyzeCommand:
    def test_text_fields(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "analyze", table1_path)
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["rho"]) == pytest.approx(7 / 15)
        assert float(lines["expected_queue"]) == pytest.approx(649 / 1080)
        assert float(lines["expected_delay"]) == pytest.approx(649 / 504)
        assert set(lines) == {
            "f_bar", "f2_bar", "g_bar", "g2_bar", "rho", "lambda", "pi0", "b0",
            "expected_queue", "expected_delay",
        }

    def test_exact_backend_prints_fractions(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "analyze", table1_path, "--backend", "exact")
        assert code == 0
        assert "expected_queue = 649/1080" in out

    def test_structured_output(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "analyze", table1_path, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["b0"]) == pytest.approx(8 / 15)


class TestDistCommand:
    def test_csv_schema(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "dist", table1_path, "--kmax", "5")
        assert code == 0
        table = parse_csv(out)
        assert table.columns == ("k", "p", "tail")
        assert len(table.rows) == 6
        meta = dict(table.footer)
        assert meta["backend"] == "float64"
        assert meta["breakdown_detected"] == "false"
        assert float(table.rows[0][1]) == pytest.approx(458 / 665)

    def test_exact_backend_emits_fractions(self, capsys, table1_path):
        code, out, _ = run_cli(
            capsys, "dist", table1_path, "--kmax", "3", "--backend", "exact"
        )
        assert code == 0
        table = parse_csv(out)
        assert table.rows[0][1] == "458/665"

    def test_breakdown_reported_as_warning(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "dist", table1_path, "--kmax", "400")
        assert code == 0  # expected float behavior, not an error
        meta = dict(parse_csv(out).footer)
        assert meta["breakdown_detected"] == "true"
        assert int(meta["k_effective"]) >= 25
        assert abs(float(meta["breakdown_value"])) < 1e-12

    def test_csv_round_trip_byte_identical(self, capsys, table2_path):
        code, out, _ = run_cli(capsys, "dist", table2_path, "--kmax", "30")
        assert code == 0
        assert render_csv(parse_csv(out)) == out

    def test_structured_format(self, capsys, table1_path):
        code, out, _ = run_cli(
            capsys, "dist", table1_path, "--kmax", "2", "--format", "structured"
        )
        payload = json.loads(out)
        assert payload["columns"] == ["k", "p", "tail"]
        assert len(payload["rows"]) == 3
        assert payload["metadata"]["backend"] == "float64"

    def test_output_file(self, capsys, tmp_path, table1_path):
        target = tmp_path / "dist.csv"
        code, out, _ = run_cli(
            capsys, "dist", table1_path, "--kmax", "2", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,p,tail\n")

    def test_unit_batch_prints_no_negative_zero(self, capsys, tmp_path):
        # p[k>=1] is 0.0 / D[0] with D[0] < 0, a negative zero
        path = tmp_path / "r1.json"
        path.write_text('{"f": ["0.5", "0.5"], "g": ["1"]}')
        code, out, _ = run_cli(capsys, "dist", str(path), "--kmax", "3")
        assert code == 0
        rows = parse_csv(out).rows
        assert [row[1] for row in rows] == ["1", "0", "0", "0"]
        assert "-0" not in out

    def test_exact_rows_past_int_str_digit_limit(self, capsys, tmp_path):
        # denominators here pass sys.get_int_max_str_digits() near k = 430
        path = tmp_path / "deep.json"
        path.write_text(
            '{"f": ["0.14", "0.74", "0.02", "0.03", "0.07"],'
            ' "g": ["0.59", "0.24", "0.15", "0.02"]}'
        )
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "dist", str(path), "--backend", "exact", "--kmax", "800"
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        rows = parse_csv(out).rows
        assert len(rows) == 801
        assert max(len(row[1]) for row in rows) > limit
        sys.set_int_max_str_digits(0)
        try:
            p = [Fraction(row[1]) for row in rows]
            last_tail = Fraction(rows[-1][2])
        finally:
            sys.set_int_max_str_digits(limit)
        assert sum(p) + last_tail == 1


class TestOracleCommand:
    def test_schema_and_agreement(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "oracle", table1_path, "--qcap", "200")
        assert code == 0
        table = parse_csv(out)
        assert table.columns == ("k", "p", "tail")
        assert len(table.rows) == 201
        meta = dict(table.footer)
        assert meta["truncation_bias"] == "false"
        assert float(meta["expected_queue"]) == pytest.approx(649 / 1080, abs=1e-8)
        assert float(table.rows[0][1]) == pytest.approx(458 / 665, abs=1e-10)

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_tail_matches_exact_dist(self, capsys, request, name):
        path = request.getfixturevalue(f"{name}_path")
        code, out, _ = run_cli(capsys, "oracle", path, "--qcap", "500")
        assert code == 0
        table = parse_csv(out)
        tails = [float(row[2]) for row in table.rows]
        assert min(tails) >= 0
        assert tails[-1] == 0
        assert float(dict(table.footer)["residual"]) <= 1e-13
        code, out, _ = run_cli(capsys, "dist", path, "--backend", "exact", "--kmax", "300")
        assert code == 0
        for k, row in enumerate(parse_csv(out).rows):
            assert tails[k] == pytest.approx(float(Fraction(row[2])), rel=1e-10, abs=0)

    def test_truncation_flagged(self, capsys, table2_path):
        code, out, _ = run_cli(capsys, "oracle", table2_path, "--qcap", "6")
        assert code == 0
        meta = dict(parse_csv(out).footer)
        assert meta["truncation_bias"] == "true"
        assert "expected_queue" not in meta


class TestSimulateCommand:
    def test_schema_and_determinism(self, capsys, table1_path):
        code, first, _ = run_cli(capsys, "simulate", table1_path, *SIM_FLAGS)
        assert code == 0
        code, second, _ = run_cli(capsys, "simulate", table1_path, *SIM_FLAGS)
        assert code == 0
        assert first == second
        table = parse_csv(first)
        assert table.columns == ("k", "p_hat", "ci_low", "ci_high")
        meta = dict(table.footer)
        assert meta["generator"] == "pcg64"
        assert float(meta["mean_queue"]) > 0

    def test_seed_changes_results(self, capsys, table1_path):
        _, base, _ = run_cli(capsys, "simulate", table1_path, *SIM_FLAGS)
        _, other, _ = run_cli(capsys, "simulate", table1_path, *SIM_FLAGS,
                              "--seed", "99")
        assert base != other

    def test_single_run_blank_ci(self, capsys, table1_path):
        code, out, _ = run_cli(
            capsys, "simulate", table1_path, "--iterations", "5000",
            "--burn-in", "100", "--runs", "1", "--kmax", "2"
        )
        assert code == 0
        table = parse_csv(out)
        assert table.rows[0][2] == ""
        assert table.rows[0][3] == ""


class TestCompareCommand:
    def test_schema_and_summary(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "compare", table1_path, *SIM_FLAGS)
        assert code == 0
        table = parse_csv(out)
        assert table.columns == ("k", "theory", "sim_mean", "ci_low", "ci_high",
                                 "within_ci")
        assert len(table.rows) == 5
        meta = dict(table.footer)
        assert 0.0 <= float(meta["within_ci_fraction"]) <= 1.0
        assert all(row[5] in ("true", "false") for row in table.rows)

    def test_unit_batch_model(self, capsys, tmp_path):
        path = tmp_path / "r1.json"
        path.write_text('{"f": ["0.5", "0.5"], "g": ["1.0"]}')
        code, out, _ = run_cli(
            capsys, "compare", str(path), "--iterations", "5000",
            "--burn-in", "100", "--runs", "2", "--kmax", "0"
        )
        assert code == 0
        table = parse_csv(out)
        assert len(table.rows) == 1
        k, theory, sim_mean = table.rows[0][:3]
        assert (k, float(theory), float(sim_mean)) == ("0", 1.0, 1.0)
        assert table.rows[0][5] == "true"

    def test_round_trip(self, capsys, table2_path):
        code, out, _ = run_cli(capsys, "compare", table2_path, *SIM_FLAGS)
        assert code == 0
        assert render_csv(parse_csv(out)) == out

    def test_table_ends_at_breakdown(self, capsys, table1_path):
        code, out, _ = run_cli(
            capsys, "compare", table1_path, "--iterations", "20000",
            "--burn-in", "1000", "--runs", "2", "--kmax", "60"
        )
        assert code == 0  # breakdown is a warning, not an error
        table = parse_csv(out)
        meta = dict(table.footer)
        assert meta["breakdown_detected"] == "true"
        assert len(table.rows) == int(meta["k_effective"]) + 1
        assert int(meta["k_effective"]) < 60


class TestNumericArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--kmax", "-1"],
            ["compare", "--kmax", "-1"],
            ["simulate", "--runs", "0"],
            ["simulate", "--iterations", "5", "--burn-in", "10"],
            ["simulate", "--seed", "-1"],
        ],
    )
    def test_out_of_range_is_one_line_exit_2(self, capsys, table1_path, argv):
        code, out, err = run_cli(capsys, argv[0], table1_path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid argument:")
        assert err.count("\n") == 1


# Entries of a model document: plausible decimals, malformed numbers and
# values of the wrong JSON type, nested a little.
_ENTRY = st.recursive(
    st.sampled_from(["0.5", "0.25", "1", "0", "0.75", "-0.5", "nan", "1e400", "1/0",
                     "0e-100000", "abc"])
    | st.none() | st.booleans() | st.integers(-2, 2)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_DOCUMENT = st.one_of(
    st.fixed_dictionaries({"f": st.lists(_ENTRY, max_size=4), "g": st.lists(_ENTRY, max_size=3)}),
    st.dictionaries(st.sampled_from(["f", "g", "name"]), _ENTRY, max_size=3),
    _ENTRY,
)
_CONTENT = st.one_of(
    st.just(b'{"f": ["0.8", "0.1", "0.05", "0.05"], "g": ["0.4", "0.4", "0.2"]}'),
    st.binary(max_size=12),
    _DOCUMENT.map(lambda doc: json.dumps(doc).encode()),
)


_BACKEND = st.sampled_from(["float64", "exact"])
_FLAGS = {
    "validate": {},
    "analyze": {"--backend": _BACKEND, "--format": st.sampled_from(["text", "structured"])},
    "dist": {"--backend": _BACKEND, "--kmax": st.integers(-2, 50)},
    "oracle": {"--qcap": st.integers(-2, 200)},
    "simulate": {"--iterations": st.integers(-1, 2000), "--burn-in": st.integers(-1, 500),
                 "--runs": st.integers(-1, 3), "--seed": st.integers(-1, 5),
                 "--kmax": st.integers(-2, 50)},
}
_FLAGS["compare"] = {**_FLAGS["simulate"], "--backend": _BACKEND}
# Small sizes for the flags a draw leaves out; argparse keeps the last value.
_SMALL = {"simulate": ["--iterations", "2000", "--burn-in", "100", "--runs", "2"]}
_SMALL["compare"] = _SMALL["simulate"] + ["--kmax", "5"]


@st.composite
def _cli_calls(draw):
    """(argv without the model path, file content) for one of the six commands."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, *_SMALL.get(command, [])]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if draw(st.integers(0, 7)) == 0:
        argv += [draw(st.sampled_from(["--kmax", "--runs", "--format"])), "1.5"]
    return argv, draw(_CONTENT)


class TestFuzz:
    @given(_cli_calls())
    @settings(max_examples=60, deadline=None)
    def test_exit_status_is_0_1_or_2(self, tmp_path_factory, call):
        argv, content = call
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        path.write_bytes(content)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:]])
        except SystemExit as exc:  # argparse rejecting a flag value
            code = exc.code
        assert code in (0, 1, 2)


class TestTables:
    def test_row_width_guard(self):
        table = OutputTable(columns=("a", "b"))
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_parse_round_trip(self):
        table = OutputTable(columns=("k", "p"))
        table.add_row(0, "0.5")
        table.add_row(1, "1/3")
        table.add_footer("note", "x=1")
        text = render_csv(table)
        again = parse_csv(text)
        assert render_csv(again) == text
        assert dict(again.footer)["note"] == "x=1"

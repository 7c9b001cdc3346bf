"""CLI behavior: exit codes, output schemas, round-trips, determinism."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS_DIR, REPO_ROOT
from helpers import TABLE1_F, TABLE1_G, model_specs
from onoffqueue import (
    build_joint_chain, cli, from_strings, joint_stationary, oracle, oracle_expected_queue,
    queue_marginal, series,
)
from onoffqueue.cli import main
from onoffqueue.tables import CHUNK_ROWS, OutputTable, parse_csv, render_csv, render_structured

SIM_FLAGS = ["--iterations", "20000", "--burn-in", "1000", "--runs", "3", "--kmax", "4"]
SMALL_SIM = ["--iterations", "2000", "--burn-in", "100", "--runs", "2"]
# The commands that take --output, with flags that keep them quick.
OUTPUT_COMMANDS = {
    "analyze": [],
    "dist": ["--kmax", "5"],
    "oracle": ["--qcap", "50"],
    "simulate": SMALL_SIM,
    "compare": [*SMALL_SIM, "--kmax", "5"],
}


def run_cli(capsys, *argv):
    """main(argv)'s exit status, stdout and stderr, an argparse exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
        [
            (b'\xff{"f": ["1"]}', "cannot read"),
            (b"[" * 100_000, "nested too deeply"),
            (b'{"f": "0.5", "g": ["1"]}', "'f' must be an array"),
        ],
        ids=["undecodable", "too_deep", "string_for_array"],
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

    @pytest.mark.parametrize("name, kmax, digest", [
        ("table1", 200, "62ce6ae65c974047a9c55d39debc0455c5861cd12f9acea0efc1b0b67dfa487d"),
        ("table1", 800, "57579bfe22a4bfa19581f2e5a6482c4680ed69d47ee139a2f88dc3d35bac97e5"),
        ("table2", 200, "3a7815f63b53f1b79e99ef1b11c9a6719f9c1cafdadcb68fb9b436a1bb1f521d"),
        ("table2", 800, "42410177cb95577d98cc80f7b6d92d18b30abc49543249a36683968e933e5a12"),
    ])
    def test_exact_output_bytes(self, capsys, request, name, kmax, digest):
        # the bytes exact dist printed when every cell went through str()
        path = request.getfixturevalue(f"{name}_path")
        code, out, _ = run_cli(capsys, "dist", path, "--backend", "exact", "--kmax", str(kmax))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # float64 prints these bytes on every interpreter: every float sum goes
    # left to right, not through 3.12's compensated sum()
    @pytest.mark.parametrize("name, kmax, digest", [
        ("table1", 300, "7e6c2a6c9a888c5ffaa0c66cdb7bdf6d0372384e79c7f39e9f26b9d45c8d9b4c"),
        ("table2", 200, "7a60be9b0aa136c220ce969856603face52015d049dfe0779adfb25cd1513504"),
        ("table2", 300, "9597a4ac33b5af4c01e2d5b96561139372855b839a2040ed99dd3409a8ae795b"),
    ])
    def test_float64_output_bytes(self, capsys, request, name, kmax, digest):
        path = request.getfixturevalue(f"{name}_path")
        code, out, _ = run_cli(capsys, "dist", path, "--kmax", str(kmax))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        assert meta["states"] == str(4 * 201)  # (n + 1) * (q_cap + 1), n = 3
        chain = build_joint_chain(from_strings(TABLE1_F, TABLE1_G), 200)
        assert meta["kernel_nnz"] == str(chain.kernel.count_nonzero())
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
        meta = dict(table.footer)
        assert float(meta["residual"]) <= 1e-13
        # the footer's E[Q] is the library's, read off the same marginal
        chain = build_joint_chain(cli.load_model(path), 500)
        marginal = queue_marginal(chain, joint_stationary(chain))
        assert float(meta["expected_queue"]) == oracle_expected_queue(marginal)
        code, out, _ = run_cli(capsys, "dist", path, "--backend", "exact", "--kmax", "300")
        assert code == 0
        rows = parse_csv(out).rows
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # exact tails may pass the lowest limit, 640 digits
        try:
            exact = [Fraction(row[2]) for row in rows]
        finally:
            sys.set_int_max_str_digits(limit)
        for k, value in enumerate(exact):
            assert tails[k] == pytest.approx(float(value), rel=1e-10, abs=0)

    def test_truncation_flagged(self, capsys, table2_path):
        code, out, _ = run_cli(capsys, "oracle", table2_path, "--qcap", "6")
        assert code == 0
        meta = dict(parse_csv(out).footer)
        assert meta["truncation_bias"] == "true"
        assert "expected_queue" not in meta

    def test_model_error_is_one_line_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"f": ["0.5", "0.4"], "g": ["1.0"]}')
        code, out, err = run_cli(capsys, "oracle", str(path), "--qcap", "10")
        assert code == 1
        assert out == ""
        assert err == "invalid model:\n  - f sums to 0.9, expected 1 within 1e-09\n"

    def test_non_finite_solve_is_one_line_exit_1(self, capsys, monkeypatch, table1_path):
        solved = oracle.level_matrices
        monkeypatch.setattr(oracle, "level_matrices",
                            lambda f, g: [a * float("nan") for a in solved(f, g)])
        code, out, err = run_cli(capsys, "oracle", table1_path, "--qcap", "10")
        assert code == 1
        assert out == ""
        assert err == "error: stationary solve gave a vector that is not finite: residual nan\n"


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


    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_health_footers_where_computable(self, capsys, table1_path, command):
        # 1000 burn-in slots, then 2 full 65,536-slot batches and a partial one
        flags = ["--iterations", "133072", "--burn-in", "1000", "--kmax", "2"]
        _, out, _ = run_cli(capsys, command, table1_path, *flags, "--runs", "2")
        meta = dict(parse_csv(out).footer)
        assert float(meta["mean_queue_batch_se"]) > 0
        assert "between_within_ratio" not in meta
        _, out, _ = run_cli(capsys, command, table1_path, *flags, "--runs", "1")
        meta = dict(parse_csv(out).footer)
        assert float(meta["mean_queue_batch_se"]) > 0
        _, out, _ = run_cli(capsys, command, table1_path, *SIM_FLAGS)
        meta = dict(parse_csv(out).footer)
        assert "mean_queue_batch_se" not in meta


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


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
    @pytest.mark.parametrize("missing_parent", [False, True])
    def test_one_line_exit_2_no_file(
        self, capsys, tmp_path, table1_path, command, missing_parent
    ):
        target = tmp_path / "missing" / "out.csv" if missing_parent else tmp_path
        code, out, err = run_cli(
            capsys, command, table1_path, *OUTPUT_COMMANDS[command], "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


# (argv before the path, the flag that sets the row count); rows = value + 1
STREAMED_COMMANDS = {
    "dist": (["dist"], "--kmax"),
    "dist-exact": (["dist", "--backend", "exact"], "--kmax"),
    "oracle": (["oracle"], "--qcap"),
    "simulate": (["simulate", *SMALL_SIM], "--kmax"),
    "compare": (["compare", *SMALL_SIM], "--kmax"),
}
CHUNK_EDGES = [0, 63, 64, 65, 128]  # 1, 64, 65, 66 and 129 rows, with CHUNK_ROWS = 64


def written_bytes(tmp_dir, command, path, rows_flag_value, fmt, whole):
    """Exit status and the bytes main writes to --output (None on an error).

    With whole=True every row is formatted first and the table rendered as
    one text, by one render_csv or render_structured call, as the CLI did
    before it streamed.
    """
    head, flag = STREAMED_COMMANDS[command]
    out = tmp_dir / f"{command}-{fmt}-{whole}.out"
    with pytest.MonkeyPatch.context() as mp:
        if whole:
            mp.setattr(cli, "render", lambda table, fmt: [
                (render_structured if fmt == "structured" else render_csv)(table)
            ])
        code = main([head[0], path, *head[1:], flag, str(rows_flag_value),
                     "--format", fmt, "--output", str(out)])
    return code, (out.read_bytes() if code == 0 else None)


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize("command, k", [  # oracle's q_cap 0 is below the largest batch
        (command, k) for command in sorted(STREAMED_COMMANDS) for k in CHUNK_EDGES
        if (command, k) != ("oracle", 0)
    ])
    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_bytes_equal_whole_render(self, request, tmp_path, name, command, k, fmt):
        path = request.getfixturevalue(f"{name}_path")
        streamed = written_bytes(tmp_path, command, path, k, fmt, whole=False)
        assert streamed[0] == 0
        assert streamed == written_bytes(tmp_path, command, path, k, fmt, whole=True)

    @settings(max_examples=30, deadline=None)
    @given(model_specs(backend="exact"), st.sampled_from(sorted(STREAMED_COMMANDS)),
           st.sampled_from(["csv", "structured"]), st.sampled_from(CHUNK_EDGES))
    def test_random_models_bytes_equal_whole_render(self, tmp_path_factory, spec, command, fmt, k):
        tmp_dir = tmp_path_factory.mktemp("streamed")
        path = tmp_dir / "model.json"
        path.write_text(json.dumps({"f": [str(v) for v in spec.f], "g": [str(v) for v in spec.g]}))
        streamed = written_bytes(tmp_dir, command, str(path), k, fmt, whole=False)
        assert streamed == written_bytes(tmp_dir, command, str(path), k, fmt, whole=True)

    @pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
    def test_model_error_leaves_existing_output(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text('{"f": ["0.5", "0.4"], "g": ["1.0"]}')
        target = tmp_path / "out.csv"
        target.write_bytes(b"earlier output\n")
        code, out, err = run_cli(
            capsys, command, str(path), *OUTPUT_COMMANDS[command], "--output", str(target)
        )
        assert (code, out) == (1, "")
        assert err.startswith("invalid model:")
        assert target.read_bytes() == b"earlier output\n"

    def test_argument_error_leaves_existing_output(self, capsys, tmp_path, table1_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"earlier output\n")
        code, _, err = run_cli(
            capsys, "dist", table1_path, "--kmax", "-1", "--output", str(target)
        )
        assert code == 2
        assert err.startswith("error: invalid argument:")
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failing_mid_stream_is_one_line_exit_2(self):
        # the first chunk fills the file buffer, so the failure comes part way
        done = run_process("dist", str(MODELS_DIR / "table2.json"), "--backend", "exact",
                           "--kmax", "800", "--output", "/dev/full")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: cannot write /dev/full: [Errno 28] No space left on device\n"
        )

    def test_exact_peak_memory_is_a_few_chunks(self, monkeypatch, tmp_path, table2_path):
        # traced from when the distribution is computed: formatting and writing only
        computed = series.queue_distribution

        def then_trace(*args):
            dist = computed(*args)
            tracemalloc.start()
            return dist

        monkeypatch.setattr(series, "queue_distribution", then_trace)
        target = tmp_path / "table2.csv"
        try:
            code = main(["dist", table2_path, "--backend", "exact", "--kmax", "800",
                         "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        text = target.read_text()
        rows = text.splitlines(keepends=True)[1:802]
        chunks = (rows[i:i + CHUNK_ROWS] for i in range(0, len(rows), CHUNK_ROWS))
        largest = max(sum(map(len, chunk)) for chunk in chunks)
        assert len(text) > 6 * largest  # 4.99 MB, the largest chunk 0.73 MB
        # the chunk's cells, its text and the bytes it is encoded to
        assert peak <= 4 * largest
        assert peak <= len(text) / 2

    def test_exact_structured_peak_memory_is_the_cells(self, monkeypatch, tmp_path, table2_path):
        # the cells are held whole, the JSON text 64 rows at a time: 7.4 MB for 5.0 MB
        computed = series.queue_distribution

        def then_trace(*args):
            dist = computed(*args)
            tracemalloc.start()
            return dist

        monkeypatch.setattr(series, "queue_distribution", then_trace)
        target = tmp_path / "table2.json"
        try:
            code = main(["dist", table2_path, "--backend", "exact", "--kmax", "800",
                         "--format", "structured", "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.6 * target.stat().st_size  # 3.1 times when the text was built whole


class TestNumericArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--kmax", "-1"],
            ["compare", "--kmax", "-1"],
            ["simulate", "--runs", "0"],
            ["simulate", "--iterations", "5", "--burn-in", "10"],
            ["simulate", "--seed", "-1"],
            ["oracle", "--qcap", "-1"],
            # above sys.maxsize, longer than any sequence can be
            ["dist", "--kmax", str(10**20)],
            ["compare", *SMALL_SIM, "--kmax", str(10**20)],
            ["simulate", *SMALL_SIM, "--kmax", str(10**20)],
            ["oracle", "--qcap", str(10**20)],
            ["oracle", "--qcap", "2"],  # below table1's largest batch, m = 3
        ],
    )
    def test_out_of_range_is_one_line_exit_2(self, capsys, table1_path, argv):
        code, out, err = run_cli(capsys, argv[0], table1_path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid argument:")
        assert err.count("\n") == 1

    def test_seed_above_maxsize_runs(self, capsys, table1_path):
        code, out, _ = run_cli(
            capsys, "simulate", table1_path, *SMALL_SIM, "--kmax", "2", "--seed", str(10**20)
        )
        assert code == 0
        assert f"# seed={10**20}\n" in out


class TestOutOfMemory:
    # the MemoryError is raised, not provoked, so nothing large is allocated
    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 458. MiB", "error: out of memory: Unable to allocate 458. MiB\n"),
    ], ids=["bare", "numpy"])
    def test_one_line_exit_2(self, capsys, monkeypatch, table1_path, message, line):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_dist", exhausted)
        assert run_cli(capsys, "dist", table1_path) == (2, "", line)

    def test_failed_stdout_write_leaves_nothing_to_flush(self, table1_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", FAILING_STDOUT, "dist", table1_path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def run_process(*argv):
    """`python -m onoffqueue` with argv, in a child process."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "onoffqueue", *argv],
                          env=env, capture_output=True, text=True)


class TestProcessBoundary:
    def test_stdout_matches_in_process_main(self, capsys, table1_path):
        done = run_process("dist", table1_path, "--kmax", "5")
        code, out, _ = run_cli(capsys, "dist", table1_path, "--kmax", "5")
        assert code == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")

    def test_unwritable_output_is_one_line_exit_2(self, tmp_path, table1_path):
        done = run_process("dist", table1_path, "--kmax", "5", "--output", str(tmp_path))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot write")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["validate", "table2"],
        ["dist", "table2", "--backend", "exact", "--kmax", "100"],
    ], ids=["short", "long"])
    def test_failed_stdout_write_is_one_line_exit_2(self, argv, unbuffered):
        # a short text fails only at the flush; nothing may be retried at exit
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
        argv = [argv[0], str(MODELS_DIR / f"{argv[1]}.json"), *argv[2:]]
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "onoffqueue", *argv],
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write <stdout>: [Errno 28] No space left on device\n"
        )


def limit_address_space():
    """Cap the child's address space at 1 GiB, so an unbounded allocation fails fast."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_limited_oracle(q_cap, stdout):
    """Run `oracle` on table1 in a child process capped at 1 GiB of address space."""
    # one BLAS thread: each thread's buffers count against the limit
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "onoffqueue", "oracle", str(MODELS_DIR / "table1.json"),
         "--qcap", str(q_cap)],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=limit_address_space,
    )


class TestOracleStorageBound:
    @pytest.mark.parametrize("q_cap", [2097152, 10**12])  # table1's largest q_cap is 2097151
    def test_refused_before_allocating(self, q_cap):
        done = run_limited_oracle(q_cap, subprocess.PIPE)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: invalid argument: q_cap must be an integer from 3 to 2097151 for n = 3, m = 3:"
            " one batch must fit, and the chain has (n + 1)(q_cap + 1) states, at most 8388608\n"
        )

    def test_largest_runs_within_the_limit(self):
        # 8388608 states: the solve and the residual hold a few 64 MiB arrays
        done = run_limited_oracle(2097151, subprocess.DEVNULL)
        assert (done.returncode, done.stderr) == (0, "")


class TestSharedParser:
    """main builds its parser once per process and looks up cmd_<name> per call."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        table1, table2 = (str(MODELS_DIR / f"{name}.json") for name in ("table1", "table2"))
        sequence = [
            ["dist", table2, "--backend", "exact", "--kmax", "30"],
            ["oracle", table1, "--qcap", "50"],
            ["dist", table1, "--format", "structured", "--kmax", "20"],
            ["simulate", table1, "--runs", "2", *SMALL_SIM[:4]],
            ["dist", table1, "--kmax", "1.5"],
            ["validate", table1],
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        fresh = [run_process(*argv) for argv in sequence]
        assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]

    def test_help_twice_gives_the_same_text(self, capsys):
        first = run_cli(capsys, "--help")
        assert first[0] == 0
        assert first[1].startswith("usage: onoffqueue")
        assert run_cli(capsys, "--help") == first

    def test_replaced_command_attribute_runs(self, capsys, monkeypatch, table1_path):
        run_cli(capsys, "validate", table1_path)
        calls = []
        original = cli.cmd_dist

        def counting(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_dist", counting)
        code, out, _ = run_cli(capsys, "dist", table1_path, "--kmax", "5")
        assert (code, calls) == (0, ["dist"])
        assert out.startswith("k,p,tail\n")

    def test_parser_built_on_first_call_not_at_import(self, table1_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", LAZY_PARSER, table1_path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        at_import, by_two_calls, by_one_build = map(int, done.stdout.split())
        assert at_import == 0
        assert by_two_calls == by_one_build > 0

    def test_tracer_installed_after_first_call_records_the_command(
        self, capsys, monkeypatch, table1_path
    ):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
        from tracer import Tracer

        argv = ["dist", table1_path, "--kmax", "5"]
        untraced = run_cli(capsys, *argv)
        tracer = Tracer()
        tracer.install(time.perf_counter)
        try:
            traced = run_cli(capsys, *argv)
        finally:
            tracer.uninstall()
        spans = len(tracer.spans)
        assert run_cli(capsys, *argv) == traced == untraced
        assert [span[0] for span in tracer.spans].count("cli.cmd_dist") == 1
        assert len(tracer.spans) == spans  # nothing traced once uninstalled


# Counts ArgumentParser constructions: at import, over two main calls, and
# in one build_parser() call.
LAZY_PARSER = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(None)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from onoffqueue import cli
at_import = len(built)
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", sys.argv[1]]) == 0
by_main = len(built) - at_import
cli.build_parser()
print(at_import, by_main, len(built) - at_import - by_main)
"""


# A stdout that buffers part of the text, then raises MemoryError; what it
# buffered would reach the pipe at exit unless run drops it.
FAILING_STDOUT = """
import io, sys
from onoffqueue import cli
class Failing(io.TextIOWrapper):
    def write(self, text):
        super().write(text[:100])
        raise MemoryError
sys.stdout = Failing(sys.stdout.detach(), encoding="utf-8")
sys.exit(cli.main(sys.argv[1:]))
"""


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
    "dist": {"--backend": _BACKEND, "--kmax": st.integers(-2, 50) | st.just(10**20)},
    "oracle": {"--qcap": st.integers(-2, 200) | st.just(10**20)},
    "simulate": {"--iterations": st.integers(-1, 2000), "--burn-in": st.integers(-1, 500),
                 "--runs": st.integers(-1, 3), "--seed": st.integers(-1, 5),
                 "--kmax": st.integers(-2, 50) | st.just(10**20)},
}
_FLAGS["compare"] = {**_FLAGS["simulate"], "--backend": _BACKEND}
# Small sizes for the flags a draw leaves out; argparse keeps the last value.
_SMALL = {"simulate": ["--iterations", "2000", "--burn-in", "100", "--runs", "2"]}
_SMALL["compare"] = _SMALL["simulate"] + ["--kmax", "5"]


# --output targets, relative to the draw's temporary directory: a writable
# file, the directory itself, and a file under a missing directory.
_OUTPUTS = {"file": "out.txt", "directory": ".", "missing parent": "missing/out.txt"}


@st.composite
def _cli_calls(draw):
    """(argv without the model path, file content, --output target or None)."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, *_SMALL.get(command, [])]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if draw(st.integers(0, 7)) == 0:
        argv += [draw(st.sampled_from(["--kmax", "--runs", "--format"])), "1.5"]
    output = None
    if command in OUTPUT_COMMANDS and draw(st.booleans()):
        output = draw(st.sampled_from(sorted(_OUTPUTS)))
    return argv, draw(_CONTENT), output


class TestFuzz:
    @given(_cli_calls())
    @settings(max_examples=60, deadline=None)
    def test_exit_status_is_0_1_or_2(self, tmp_path_factory, call):
        argv, content, output = call
        folder = tmp_path_factory.mktemp("fuzz")
        path = folder / "model.json"
        path.write_bytes(content)
        if output is not None:
            argv += ["--output", str(folder / _OUTPUTS[output])]
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main([argv[0], str(path), *argv[1:]])
        except SystemExit as exc:  # argparse rejecting a flag value
            code = exc.code
        assert code in (0, 1, 2)
        if output is not None:
            assert stdout.getvalue() == ""
            assert code != 0 or output == "file"


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

    def test_parse_empty_text_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("")

"""Scripts under scripts/: output and one-line errors with the CLI's exit codes."""

import importlib.util

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "breakdown_scan", REPO_ROOT / "scripts" / "breakdown_scan.py"
)
breakdown_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(breakdown_scan)


def run_scan(capsys, *argv):
    code = breakdown_scan.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBreakdownScan:
    def test_reports_float_breakdown(self, capsys, table1_path):
        code, out, err = run_scan(capsys, table1_path, "--kmax", "60")
        assert code == 0
        assert err == ""
        assert out.startswith("model: table1  k_max=60\n")
        assert "float backend flagged at k=41 (negative" in out

    @pytest.mark.parametrize(
        "doc, argv, code, message",
        [
            (None, [], 2, "error: cannot read"),
            ('{"f": ["0.5", "0.4"], "g": ["1"]}', [], 1, "invalid model:"),
            ('{"f": ["0.5", "0.5"], "g": ["1"]}', ["--kmax", "-1"], 2,
             "error: invalid argument: k_max must be nonnegative"),
        ],
        ids=["missing_file", "invalid_model", "negative_kmax"],
    )
    def test_errors_without_traceback(self, capsys, tmp_path, doc, argv, code, message):
        path = tmp_path / "model.json"
        if doc is not None:
            path.write_text(doc)
        got, out, err = run_scan(capsys, str(path), *argv)
        assert got == code
        assert out == ""
        assert err.startswith(message)
        assert "Traceback" not in err

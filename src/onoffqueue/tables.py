"""CSV and structured-text emission for result tables.

Every table-producing command shares one shape: a header row, data rows,
and a footer of key=value metadata lines (prefixed "# " in CSV).  Each
cell and footer value is stored as its `format_scalar` text, so parsing
and re-emitting a CSV is byte-identical.  Floats print with 17
significant digits (round-trip exact) and a negative zero prints as 0;
rationals print as fraction strings, at any length; None prints empty
and booleans as true/false.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction


@dataclass
class OutputTable:
    columns: tuple
    rows: list = field(default_factory=list)
    footer: list = field(default_factory=list)  # ordered (key, value) pairs

    def add_row(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError("row width does not match the header")
        self.rows.append(tuple(format_scalar(c) for c in cells))

    def add_footer(self, key, value):
        self.footer.append((str(key), format_scalar(value)))


def format_scalar(value) -> str:
    """Canonical text for one table cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # -0.0 + 0.0 is 0.0
    if isinstance(value, (int, Fraction)):
        try:
            return str(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return _long_rational_text(Fraction(value))
    return str(value)


def _long_rational_text(value: Fraction) -> str:
    """str(value) for a rational too long for str(int).

    Decimal converts an int exactly at any length without touching the
    process-wide int-to-str digit limit.
    """
    text = str(Decimal(value.numerator))
    if value.denominator != 1:
        text += f"/{Decimal(value.denominator)}"
    return text


def render_csv(table: OutputTable) -> str:
    lines = [",".join(table.columns)]
    lines.extend(",".join(row) for row in table.rows)
    lines.extend(f"# {key}={value}" for key, value in table.footer)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> OutputTable:
    lines = [line for line in text.split("\n") if line != ""]
    if not lines:
        raise ValueError("empty table")
    table = OutputTable(columns=tuple(lines[0].split(",")))
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            table.add_footer(key, value)
        else:
            table.rows.append(tuple(line.split(",")))
    return table


def render_structured(table: OutputTable) -> str:
    payload = {
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "metadata": {key: value for key, value in table.footer},
    }
    return json.dumps(payload, indent=2) + "\n"

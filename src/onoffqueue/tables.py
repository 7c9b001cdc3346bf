"""CSV and structured-text emission for result tables.

Every table-producing command shares one shape: a header row, data rows,
and a footer of key=value metadata lines (prefixed "# " in CSV).  Each
cell and footer value is stored as its `format_scalar` text, so parsing
and re-emitting a CSV is byte-identical.  Floats print with 17
significant digits (round-trip exact) and a negative zero prints as 0;
rationals print as fraction strings, at any length; None prints empty
and booleans as true/false.

`distribution_cells` gives the texts of a p/tail table with one full
int-to-decimal conversion per exact row, the numerator of p[k] (str(int)
is quadratic in the digit count on CPython 3.11).  The other three integers
come from neighbouring cells in exact `decimal` arithmetic, which prints in
linear time.  Each denominator is its neighbour's times u/v, the ratio in
lowest terms: the previous tail denominator gives p[k]'s and p[k]'s gives
tail[k]'s.  The exact backend's denominators all divide den*d0^(k+1), so u
and v are small.  tail[k]'s numerator comes from tail[k] = tail[k-1] - p[k]
(tail[-1] = 1), checked first in integers.  An integer is converted
directly where the ratio is no smaller than the integer itself, where that
identity fails, and on rows that are not two Fractions.  A row of two
floats is formatted in place, with `format_scalar`'s float text.

Each rendered text is built by one `str.join` over its pieces, cells and
separators alike, with no per-row line string and no concatenation of the
whole text.  `csv_chunks` renders a table CHUNK_ROWS rows at a time, and
`distribution_cells` yields its rows one by one, so an exact table's text
(about 5 MB for `table2` at k=800) is never held whole while it is written.
`structured_chunks` holds the table's cells, but not its JSON text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import islice
from math import gcd

# Integer arithmetic in this context is exact at any length; the thread's
# own context is never used.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

CHUNK_ROWS = 64  # rows per piece of `csv_chunks`
CHUNK_PIECES = 6 * CHUNK_ROWS  # encoder pieces per `structured_chunks` piece: 64 rows of 3 cells


@dataclass
class OutputTable:
    columns: tuple
    rows: list = field(default_factory=list)  # or any iterable of rows, read once
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


def _converted(value: int) -> Decimal:
    return Decimal(format_scalar(value))


def _from_neighbour(new: int, old: int, old_dec: Decimal):
    """(Decimal(new), u, v) with u/v = new/old in lowest terms.

    Given old_dec = Decimal(old), new is old_dec * u // v.  When u and v
    together have more bits than new, new is converted directly and
    u = v = 0.
    """
    g = gcd(old, new)
    u, v = new // g, old // g
    if u.bit_length() + v.bit_length() > new.bit_length():
        return _converted(new), 0, 0
    return _EXACT.divide_int(_EXACT.multiply(old_dec, u), v), u, v


def distribution_cells(p, tail):
    """Yield (format_scalar(p[k]), format_scalar(tail[k])) for each k, for tail[k] = P(Q>k).

    Rows of two floats print inline and rows of two Fractions with one
    full conversion (see the module docstring); any other row formats cell
    by cell.  Each row is formatted when it is read, so a table can be
    written as it is formatted.
    """
    num, den = 1, 1  # tail[k-1], starting from tail[-1] = 1
    num_dec = den_dec = Decimal(1)
    for pk, tk in zip(p, tail):
        if type(pk) is float and type(tk) is float:
            yield f"{pk + 0.0:.17g}", f"{tk + 0.0:.17g}"  # as format_scalar
            continue
        if type(pk) is not Fraction or type(tk) is not Fraction:
            yield format_scalar(pk), format_scalar(tk)
            continue
        a, b, c, d = pk.numerator, pk.denominator, tk.numerator, tk.denominator
        a_text = format_scalar(a)
        a_dec = Decimal(a_text)
        b_dec, u, v = _from_neighbour(b, den, den_dec)
        d_dec, u2, v2 = (b_dec, 1, 1) if d == b else _from_neighbour(d, b, b_dec)
        # c/d = num/den - a/b, where b = den*u/v and d = b*u2/v2
        if v and v2 and c * v * v2 == u2 * (num * u - a * v):
            diff = _EXACT.subtract(_EXACT.multiply(num_dec, u), _EXACT.multiply(a_dec, v))
            c_dec = _EXACT.divide_int(_EXACT.multiply(diff, u2), v * v2)
        else:
            c_dec = _converted(c)
        b_text, c_text = str(b_dec), str(c_dec)
        d_text = b_text if d == b else str(d_dec)
        yield (a_text if b == 1 else f"{a_text}/{b_text}",
               c_text if d == 1 else f"{c_text}/{d_text}")
        num, den, num_dec, den_dec = c, d, c_dec, d_dec


def render_csv(table: OutputTable) -> str:
    """The table as CSV: header, rows, then one "# key=value" line per footer pair.

    One join over a flat list of cells and separators, filled a column at a
    time; a row whose width differs from the header raises ValueError.  A
    table with no columns prints no header line, and its rows are checked
    against each other: it is one of the pieces `csv_chunks` renders.
    """
    lines = [table.columns, *table.rows] if table.columns else list(table.rows)
    width = len(lines[0]) if lines else 0
    pieces = ([None, ","] * (width - 1) + [None, "\n"] if width else ["\n"]) * len(lines)
    try:
        for j, column in enumerate(zip(*lines, strict=True)):
            pieces[2 * j::2 * width] = column
    except ValueError:
        raise ValueError("row width does not match the header") from None
    for key, value in table.footer:
        pieces += ("# ", key, "=", value, "\n")
    return "".join(pieces)


def csv_chunks(table: OutputTable):
    """render_csv(table) in pieces, each from one render_csv call: the header
    line, the rows CHUNK_ROWS at a time, then the footer lines.

    The rows are read a chunk at a time as the pieces are, so rows from a
    generator are formatted as they are written and never held whole.
    """
    yield render_csv(OutputTable(table.columns))
    rows = iter(table.rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if len(chunk[0]) != len(table.columns):
            raise ValueError("row width does not match the header")
        yield render_csv(OutputTable((), chunk))
    yield render_csv(OutputTable((), footer=table.footer))


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
            row = tuple(line.split(","))
            if len(row) != len(table.columns):
                raise ValueError("row width does not match the header")
            table.rows.append(row)
    return table


def structured_chunks(table: OutputTable):
    """render_structured(table) in pieces, each the join of up to CHUNK_PIECES
    of the JSON encoder's pieces, then the final newline.

    The rows are read whole before the first piece, but the text is never held whole.
    """
    payload = {
        "columns": list(table.columns),
        "rows": list(table.rows),
        "metadata": {key: value for key, value in table.footer},
    }
    pieces = json.JSONEncoder(indent=2).iterencode(payload)
    while group := list(islice(pieces, CHUNK_PIECES)):
        yield "".join(group)
    yield "\n"


def render_structured(table: OutputTable) -> str:
    """The table as indented JSON: its columns, rows and footer as "metadata", then a newline."""
    return "".join(structured_chunks(table))

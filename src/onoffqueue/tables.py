"""CSV and structured-text emission for result tables.

Every table-producing command shares one shape: a header row, data rows,
and a footer of key=value metadata lines (prefixed "# " in CSV).  Each
cell and footer value is stored as its `format_scalar` text, so parsing
and re-emitting a CSV is byte-identical.  Floats print with 17
significant digits (round-trip exact) and a negative zero prints as 0;
rationals print as fraction strings, at any length; None prints empty
and booleans as true/false.

`distribution_rows` numbers (p, tail) rows from k = 0 and gives
their texts with one full int-to-decimal conversion per exact row, the
numerator of p[k] (str(int) is quadratic in the digit count on CPython
3.11).  The other three integers come from neighbouring cells in exact
`decimal` arithmetic, which prints in linear time.  Each denominator is its
neighbour's times u/v, the ratio in lowest terms: the previous tail
denominator gives p[k]'s and p[k]'s gives tail[k]'s.  The exact backend's
denominators all divide den*e0^(k+1), so u and v are small.  tail[k]'s
numerator comes from tail[k] = tail[k-1] - p[k] (tail[-1] = 1), checked
first in integers.  An integer is converted directly where the ratio is no
smaller than the integer itself, where that identity fails, and on rows
that are not two Fractions.

`render` writes a table in either format as pieces: the header, the rows
CHUNK_ROWS at a time, then the footer, read only after the last row, so
rows from a generator may add the footer when they run out (exact `dist`
adds its footer from the last row it made).  No text is held whole: an
exact table's (about 5 MB for `table2` at k=800) is formatted and written
a chunk at a time.  The structured text is `json.dumps` of {"columns",
"rows", "metadata"} at indent 2, built from each nested value's own
`json.dumps`; every row's text starts with its comma, which the first row
drops.

A (k, p, tail) table keeps its two columns, as `DistributionRows`.  When
both hold floats alone (float64 arrays or sequences of floats), its rows
are never formed: each chunk is one printf-style `%` of one row's template
over one flat tuple of cells, k, p + 0.0 and tail + 0.0 (the + 0.0 is
`format_scalar`'s -0.0 rule), and `%.17g` is the same text as
`format_scalar`'s.  An array column becomes Python floats a chunk at a
time, never whole.  Any other CSV text is built by one `str.join` over its
pieces, cells and separators alike, with no per-row line string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd
from operator import add

# Integer arithmetic in this context is exact at any length; the thread's
# own context is never used.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

CHUNK_ROWS = 64  # rows per piece of `render`


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


def distribution_rows(rows):
    """Yield (str(k), format_scalar(p), format_scalar(tail)) for each row (p, tail)
    of rows, k from 0 and tail = P(Q>k).

    Rows of two Fractions print with one full conversion (see the module
    docstring); any other row formats cell by cell.  Each row is formatted
    when it is read, so a table can be written as it is formatted.
    """
    num, den = 1, 1  # tail[k-1], starting from tail[-1] = 1
    num_dec = den_dec = Decimal(1)
    for k, (pk, tk) in enumerate(rows):
        if type(pk) is not Fraction or type(tk) is not Fraction:
            yield str(k), format_scalar(pk), format_scalar(tk)
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
        yield (str(k), a_text if b == 1 else f"{a_text}/{b_text}",
               c_text if d == 1 else f"{c_text}/{d_text}")
        num, den, num_dec, den_dec = c, d, c_dec, d_dec


def _column_chunks(column):
    """column CHUNK_ROWS values at a time; an array's (anything with `tolist`) as Python numbers."""
    for start in range(0, len(column), CHUNK_ROWS):
        piece = column[start:start + CHUNK_ROWS]
        yield piece.tolist() if hasattr(piece, "tolist") else piece


class DistributionRows:
    """The rows of a (k, p, tail) table, k from 0 and tail[k] = P(Q>k), kept
    as their two columns of equal length: sequences, or arrays with `tolist`.

    Iterating gives `distribution_rows`' rows, an array read a chunk at a time.
    """

    def __init__(self, p, tail):
        self.p, self.tail = p, tail

    def __iter__(self):
        columns = (chain.from_iterable(_column_chunks(c)) for c in (self.p, self.tail))
        return distribution_rows(zip(*columns))

    def floats_only(self) -> bool:
        """Whether each column is a float64 array or a sequence of nothing but floats."""
        return all(getattr(c, "dtype", None) == float or set(map(type, c)) <= {float}
                   for c in (self.p, self.tail))

    def float_chunks(self, template):
        """The rows CHUNK_ROWS at a time, each chunk by one `%` of one row's
        template over one flat tuple of cells; for columns that hold floats only."""
        start = 0
        for p, tail in zip(_column_chunks(self.p), _column_chunks(self.tail)):
            rows = len(p)
            cells = [None] * (3 * rows)
            cells[0::3] = range(start, start + rows)
            cells[1::3] = map(add, p, repeat(0.0))  # -0.0 + 0.0 is 0.0, as format_scalar
            cells[2::3] = map(add, tail, repeat(0.0))
            yield template * rows % tuple(cells)
            start += rows


def render_csv(table: OutputTable) -> str:
    """The table as CSV: header, rows, then one "# key=value" line per footer pair.

    One join over a flat list of cells and separators, filled a column at a
    time; a row whose width differs from the header raises ValueError.  A
    table with no columns prints no header line, and its rows are checked
    against each other: it is one of the pieces `render` writes.
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


def _nested(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it prints depth levels deep in an indented document."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _row_chunks(table: OutputTable, structured: bool):
    """The table's rows CHUNK_ROWS at a time, read as they are written; a
    structured row starts with its comma, and a CSV chunk is one render_csv."""
    rows = iter(table.rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if structured:
            yield "".join([",\n    " + _nested(row, 2) for row in chunk])
        elif len(chunk[0]) != len(table.columns):
            raise ValueError("row width does not match the header")
        else:
            yield render_csv(OutputTable((), chunk))


def render(table: OutputTable, fmt: str):
    """The table's text in pieces, as CSV or, for fmt "structured", as
    json.dumps({"columns", "rows", "metadata": footer}, indent=2) plus a newline.

    The pieces are the header, the rows CHUNK_ROWS at a time, then the
    footer, which is read after the last row.  The rows of two float columns
    (`DistributionRows`) print by one `%` per chunk.
    """
    structured = fmt == "structured"
    yield ('{\n  "columns": ' + _nested(list(table.columns), 1) + ',\n  "rows": ['
           if structured else render_csv(OutputTable(table.columns)))
    if isinstance(table.rows, DistributionRows) and table.rows.floats_only():
        chunks = table.rows.float_chunks(
            ',\n    [\n      "%d",\n      "%.17g",\n      "%.17g"\n    ]' if structured
            else "%d,%.17g,%.17g\n")
    else:
        chunks = _row_chunks(table, structured)
    first = next(chunks, None)
    if first is not None:
        yield first[1:] if structured else first  # the first row drops its comma
        yield from chunks
    if not structured:
        yield render_csv(OutputTable((), footer=table.footer))
        return
    metadata = _nested({key: value for key, value in table.footer}, 1)
    yield ("]" if first is None else "\n  ]") + ',\n  "metadata": ' + metadata + "\n}\n"

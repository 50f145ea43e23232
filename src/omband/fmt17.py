"""Float64 table cells as ASCII text, byte-identical to ``"%.17g" % x``.

A cell with |x| in [1e-5, 1e16), or ±0, is written without a Python call:

* **Digits.**  N = round-half-even(|x| * 10**s) is the 17-digit integer
  of the cell, with s in [0, 22] so that 10**s is an exact double.
  Dekker's two-product (Numer. Math. 18, 224 (1971)) splits the product
  exactly into p + e.  Since p >= 1e16 > 2**53, p is an even integer and
  N = p + rint(e) is exact, ties included.  s comes from the binary
  exponent of x and a comparison with the next power of ten.  A cell
  whose N still falls outside [1e16, 1e17) is redone once with s +- 1, so
  an estimate one off either way does no harm, and a product that rounds
  up to 1e17 comes out as N = 1e16.  The digits of N come four at a
  time from a 10,000-entry table of 4-digit groups, its top digit from
  the same table.
* **Layout.**  Each cell is a fixed 48-byte slot: opening separator,
  sign, the "0.000" prefix, the 17 digits each followed by a point slot,
  the "e-05" suffix and two closing separators.  A template row per
  (sign, decimal exponent, significant digits) keeps or zeroes each byte
  the way ``%g`` lays the number out: fixed notation for exponents -4 to
  16, trailing zeros dropped and the point with them when nothing
  follows it, "e-05" below 1e-4, "-" also on -0.  The text is the slots
  with their zero bytes dropped.

Every other cell (tiny, huge, inf, nan) gets Python's ``"%.17g"``, or
``null`` in JSON, spliced into its slot.

:func:`table_pieces` lays out a whole table, its header and trailer
included, one pass of ``_PASS_CELLS`` cells at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache
from json import dumps

import numpy as np

__all__ = ["csv_cell", "iter_row_blocks", "pass_rows", "table_pieces"]

# A slot: 0 opening separator, 1 sign, 2-6 "0.000" prefix, 7-40 the 17
# digits, each followed by a point slot, 41-44 "e-05", 45-46 closing
# separators, 47 unused.
_SLOT = 48
_TEXT = slice(1, 45)  # room for any "%.17g" text
_DIGITS = slice(7, 41, 2)
_CLOSE = 45
_EXPONENTS = range(-5, 17)  # decimal exponents a fast cell can have
_PASS_CELLS = 4096  # cells per pass, the unit of output: a pass's slots take 192 kB


@cache
def _template() -> np.ndarray:
    """Slot bytes per (sign, exponent, significant digits); digit slots are
    0xFF where the digit is kept, for a bitwise and with the digit."""
    kept = [b"\xff\0" * i + b"\0\0" * (17 - i) for i in range(18)]
    rows = []
    for x in _EXPONENTS:
        prefix = b"0.000"[: 1 - x].ljust(5, b"\0") if -5 < x < 0 else b"\0" * 5
        suffix = b"e-05" if x == -5 else b"\0" * 4
        point = x if x >= 0 else 0 if x == -5 else 17  # the digit it follows
        for k in range(1, 18):
            digits = kept[max(k, x + 1)]  # integer digits stay
            if k > point + 1:
                digits = digits[: 2 * point + 1] + b"." + digits[2 * point + 2 :]
            rows += (b"\0\0", prefix, digits, suffix, b"\0" * 3)
    unsigned = b"".join(rows)
    signed = bytearray(unsigned)
    signed[1::_SLOT] = b"-" * (len(signed) // _SLOT)
    return np.frombuffer(unsigned + signed, np.uint8).reshape(-1, _SLOT)


_QUADS = np.stack(  # "0000" ... "9999" as 4-byte words, spelt in memory order
    np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"), -1
).view(np.uint32).ravel()
_POW10 = np.array([float(10**i) for i in range(23)])  # exact doubles
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Veltkamp split
_POW10_LO = _POW10 - _POW10_HI
_DECADES = np.array([float(f"1e{m}") for m in range(-5, 17)])  # correctly rounded


def _exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10 a) for a in [1e-5, 1e16), or one off next to a power of ten."""
    x = (a.view(np.int64) // 2**52 - 1023) * 78913 // 2**18  # floor(log10 2**e)
    return x + (a >= _DECADES.take(x + 6))


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**s) as int64, exact when the result is >= 2**53."""
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    p = a * _POW10[s]
    # e = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in place
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 digits of each n < 1e17 as ASCII, one row of 17 bytes per n."""
    out = np.empty((len(n), 5), np.uint32)  # "000" and the top digit, then four groups
    for col in range(4, 0, -1):
        n, quad = np.divmod(n, 10**4)
        out[:, col] = _QUADS.take(quad)
    out[:, 0] = _QUADS.take(n)
    return out.view(np.uint8)[:, 3:]


def _layout(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Template row and digits of each cell, and the indices of the cells
    outside the fast range (their template row and digits are arbitrary)."""
    a = np.abs(v)
    fast = (a >= 1e-5) & (a < 1e16)
    zero = a == 0.0
    a[~fast] = 1.0
    s = 16 - _exponent(a)
    n = _scaled(a, s)
    low, high = n < 10**16, n >= 10**17
    s[low] += 1
    s[high] -= 1
    redo = np.flatnonzero(low | high)
    if redo.size:
        n[redo] = _scaled(a[redo], s[redo])
    n[zero] = 0
    d = _digits(n)
    k = 17 - np.argmax(d[:, ::-1] != ord("0"), axis=1)  # significant digits
    x = 16 - s  # decimal exponent
    x[zero], k[zero] = 0, 1
    t = (np.signbit(v) * len(_EXPONENTS) + x - _EXPONENTS.start) * 17 + k - 1
    return t, d, np.flatnonzero(~(fast | zero))


def _text(rows: np.ndarray, json: bool, last: bool) -> str:
    """The rows as CSV or JSON rows text; ``last`` drops the comma after
    the final JSON row."""
    v = rows.ravel()
    t, d, other = _layout(v)
    cells = _template().take(t, axis=0)
    cells[:, _DIGITS] &= d
    del t, d  # before the copies below
    if other.size:
        text = (
            "null" if json and not math.isfinite(y) else "%.17g" % y
            for y in v[other].tolist()
        )
        width = _TEXT.stop - _TEXT.start
        spliced = b"".join(c.encode("ascii").ljust(width, b"\0") for c in text)
        cells[other, _TEXT] = np.frombuffer(spliced, np.uint8).reshape(-1, width)

    cells = cells.reshape(rows.shape + (_SLOT,))
    cells[:, :, _CLOSE] = ord(",")
    if json:
        cells[:, 0, 0] = ord("[")
        cells[:, -1, _CLOSE : _CLOSE + 2] = np.frombuffer(b"],", np.uint8)
        if last:
            cells[-1, -1, _CLOSE + 1] = 0
    else:
        cells[:, -1, _CLOSE] = ord("\n")
    text = cells.tobytes()
    del cells  # before the compacted copy
    return text.translate(None, b"\0").decode("ascii")


def pass_rows(n_columns: int) -> int:
    """Rows of an ``n_columns``-wide table in one pass of ``_PASS_CELLS`` cells."""
    return max(1, _PASS_CELLS // n_columns)


def iter_row_blocks(rows: np.ndarray, block_rows: int, fmt: str) -> Iterator[str]:
    """The rows of a 2-D float table as text, ``block_rows`` rows per string.

    CSV ends every row with a newline; JSON writes each row as ``[...]``
    with commas between rows, and ``null`` for a non-finite cell.  The
    strings concatenate to the whole body.  ``rows`` may also be any
    sized table whose slices ``rows[a:b]`` are 2-D float arrays: a block
    is sliced only when its string is due, so a table that computes its
    rows when sliced is computed one block at a time.  Each block is
    formatted in one pass, whose temporaries peak at about 100 bytes a
    cell, so ``block_rows = pass_rows(n_columns)`` keeps them to about
    400 kB; a caller that writes each string and drops it holds one
    block at a time.
    """
    json = fmt == "json"
    n = len(rows)
    for first in range(0, n, block_rows):
        block = np.asarray(rows[first : first + block_rows], dtype=np.float64)
        yield _text(block, json, last=first + len(block) == n)


def csv_cell(value: object) -> str:
    """One value as CSV text: a float as ``"%.17g"``, a bool as true or false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value  # also "nan", "inf", "-inf"
    return str(value)


def _json_cell(value: object) -> str:
    if isinstance(value, str):
        return dumps(value)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return "null"
    return csv_cell(value)


def table_pieces(table, fmt: str) -> Iterator[str]:
    """A table's text in order, as JSON if ``fmt`` is ``"json"`` and CSV
    otherwise: the header, the body one pass at a time, then the trailer.

    ``table`` has ``metadata`` (str to str), ``columns`` and ``rows``: a
    list of tuples of any cells, or 2-D floats as :func:`iter_row_blocks`
    takes them.  CSV writes the metadata as ``# key = value`` lines; JSON
    writes one ``{"metadata", "columns", "rows"}`` object.
    """
    if fmt == "json":
        meta = ",".join(f"{dumps(k)}:{dumps(v)}" for k, v in table.metadata.items())
        cols = ",".join(dumps(c) for c in table.columns)
        yield '{"metadata":{' + meta + '},"columns":[' + cols + '],"rows":['
    else:
        head = "".join(f"# {k} = {v}\n" for k, v in table.metadata.items())
        yield head + ",".join(table.columns) + "\n"
    if not isinstance(table.rows, list):
        yield from iter_row_blocks(table.rows, pass_rows(len(table.columns)), fmt)
    elif fmt == "json":
        yield ",".join("[" + ",".join(map(_json_cell, r)) + "]" for r in table.rows)
    else:
        yield "".join(",".join(map(csv_cell, row)) + "\n" for row in table.rows)
    if fmt == "json":
        yield "]}\n"

"""Matrix file format: JSON documents with explicit shape and [re, im] pairs.

One matrix per file:

    {"rows": 2, "cols": 2,
     "data": [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [2.5, 0.0]]}

``data`` is row-major, one [real, imaginary] pair per entry. Every float is
written as the text of its ``repr``, as ``json.dumps`` writes it, which
reads back to the same double, so write-then-read is bit-identical, signed
zeros included.

``write_matrix`` writes that text without calling ``repr`` per float.
``repr`` gives the shortest decimal that reads back as the float (the
shortest round-trip digits of Steele & White, PLDI 1990, and of Adams's
Ryu, PLDI 2018). Here those digits come from exact integer and
double-double arithmetic on arrays of floats (``_shortest_digits``), and
the text from the sign, the decimal point and the number of digits alone
(``_layout``). Each float the arithmetic does not take goes to ``repr`` on
its own: subnormals, floats below 1e-6 or from 1e17 up, powers of two, and
the rare float within 1e-9 of a rounding bound or of a tie. ``repr`` also
writes every piece with fewer than ``_VECTOR_MIN`` entries to format. On a
shared 2-vCPU x86-64 host (numpy 2.4, Python 3.11; medians of 11 runs,
alternating with the writer that calls ``repr`` per float), writing a
complex Gaussian 96x96 matrix takes 9 ms instead of 24 ms, and a 256x256
one 54 ms instead of 174 ms.

``read_matrix`` reads that text, ``json.dumps(matrix_to_doc(a)) + "\n"``,
as arrays (``_read_canonical``): it reads the file's bytes in blocks and
converts each piece of whole entries on its own (``_piece_values``). It
checks the header, every separator, the count of entries, and each number
against JSON's number grammar. Each number ``w 10**q`` reads as the double
nearest it, which is what ``float`` gives: with ``w`` below 2**53 and
``|q| <= 22``, both ``w`` and ``10**|q|`` are doubles, so one product or
quotient rounds once (Clinger, PLDI 1990). With ``w`` below 10**18 and ``q
<= 0``, the quotient ``c`` of ``fl(w)`` rounds to within 1.5 gaps, and the
exact residual ``w - c 10**-q`` (Dekker's two-product) tells whether ``c``
or a neighbour is nearest (``_nearest``). ``float`` converts each other
number on its own: more than 18 significant digits, an exponent outside
that range, a tie, a result within 1e-9 of a tie, and a power of two; the
files of Gaussian draws have none. Any other text goes through
``Path.read_text``, ``json.loads`` and ``doc_to_matrix``, so every value and
every error stays as before: integer or boolean entries, NaN, Infinity,
other whitespace or keys or key order, text that is not ASCII, a wrong
count, a missing final newline, a number longer than 40 characters, a file
that is not a regular file. On the host above (numpy 2.4; medians of 11
runs, alternating with the ``json.loads`` route), reading a complex
Gaussian 96x96 file takes 4.1 ms instead of 8.0 ms, and a 256x256 one 27 ms
instead of 71 ms, with a traced peak (``tracemalloc``) of 2.4 MB instead of
2.0 MB and of 3.4 MB instead of 14.5 MB.
"""

from __future__ import annotations

import json
import os
import re
import stat
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import _checked, _require_finite, as_operator

__all__ = ["matrix_to_doc", "doc_to_matrix", "write_matrix", "read_matrix"]

_PLAIN_NUMBERS = frozenset({float, int, bool})


def matrix_to_doc(a) -> dict:
    """The document of ``a``; ``write_matrix`` writes exactly its JSON text."""
    a = as_operator(a)
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "data": np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist(),
    }


def _pairs_as_floats(data: list) -> np.ndarray | None:
    """The entries of ``data`` as a flat float64 array (re, im, re, im, ...)
    when ``data`` is a list of two-element lists of plain floats, ints and
    bools that fit a float; None for any other ``data``, which the per-entry
    loop then checks."""
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    flat = list(chain.from_iterable(data))
    if not set(map(type, flat)) <= _PLAIN_NUMBERS:
        return None
    try:
        return np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None


def doc_to_matrix(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise ValueError(f"matrix document missing field {key!r}")
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    if type(rows) is not int or type(cols) is not int:  # bool is an int too
        raise ValueError("rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid shape ({rows}, {cols})")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(
            f"data length {len(data) if isinstance(data, list) else 'n/a'} "
            f"does not match rows*cols = {rows * cols}"
        )
    flat = _pairs_as_floats(data)
    if flat is not None:
        # A view of the float pairs keeps every bit, the sign of -0.0 included.
        return as_operator(flat.view(np.complex128).reshape(rows, cols))
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) for x in pair)
        ):
            raise ValueError(f"entry {i} is not a [re, im] pair: {pair!r}")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"entry {i} is too large for a float") from None
    return as_operator(out.reshape(rows, cols))


_PAIR = "[%r, %r]"
# The text of an entry whose real and imaginary parts are both +0.0, with
# the separator that follows it.
_ZERO_ITEM = "[0.0, 0.0], "
# Entries per piece of text that write_matrix formats and writes at once,
# rounded up to whole rows. The formatter's arrays for a piece take about
# 0.9 MB, and its text about 90 kB: larger pieces pay numpy's cost per call
# less often, but leave more of the heap held after a write.
_PIECE_ENTRIES = 2**11
# Below this many entries with a nonzero bit, a piece is formatted by
# ``repr`` alone: the array formatter's fixed cost, about 0.2 ms, is that of
# ``repr`` on 150-200 entries.
_VECTOR_MIN = 200

# Text columns per float: the longest ``repr`` of a finite float64, such as
# "-2.2250738585072014e-308", has 24 characters.
_WIDTH = 24
_ROW = np.dtype((np.void, _WIDTH))
# The bytes of one entry, "[" re ", " im "], ", as two cells of one float's
# text each; the NUL bytes are dropped from the text, and the first byte
# marks where a run of zero entries may go.
_CELL = _WIDTH + 5
_ENTRY = np.frombuffer(
    b"\0[" + bytes(_WIDTH) + b", \0" + b"\0\0" + bytes(_WIDTH) + b"], ", dtype=np.uint8
)
# For each group of four of the 20 bytes that ``_digit_chars`` fills (3
# unused, then 17 digits) and each number s of digits shown, the group's
# byte mask.
_SHOWN = np.frombuffer(
    bytes(255 * (4 * g + i - 3 < s) for g in range(5) for s in range(18) for i in range(4)),
    dtype=np.uint32,
).reshape(5, 18)
# The row of a zero, "0.0" after a NUL column for its sign.
_ZERO_ROW = np.frombuffer((b"\0" + b"0.0").ljust(_WIDTH, b"\0"), dtype=np.uint8)
# 10**k for k = 0..22, the powers of ten that are doubles exactly, and their
# Veltkamp halves (``_halves``), for exact products by them.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 2.0**27 + 1.0
_MANTISSA = np.uint64(2**52 - 1)
# A candidate whose distance from a float lies within this of the float's
# rounding bound, or of the other candidate's distance, is left to ``repr``.
_MARGIN = 1e-9


def _halves(a):
    """Veltkamp's split of ``a`` into two doubles of 26 significant bits
    each whose sum is ``a``, so that products of halves are exact."""
    t = _SPLITTER * a
    high = t - (t - a)
    return high, a - high


# Split as Python floats: the same halves, without running numpy's
# arithmetic at import.
_POW10_HALVES = tuple(map(np.array, zip(*(_halves(float(10**k)) for k in range(23)))))


def _product(x: np.ndarray, k: np.ndarray):
    """``(high, low)`` with ``x 10**k = high + low`` exactly, ``high`` the
    rounded product: Dekker's two-product by the powers ``_POW10[k]``."""
    high = x * _POW10[k]
    xh, xl = _halves(x)
    sh, sl = _POW10_HALVES[0][k], _POW10_HALVES[1][k]
    return high, ((xh * sh - high) + xh * sl + xl * sh) + xl * sl


def _scaled(x: np.ndarray):
    """``y = x 10**k`` in [1e16, 1e17) for each float of ``x`` (positive,
    in [1e-6, 1e17)), with k the exact power of ten from 10**0..10**22 that
    puts it there: ``(k, big, frac, half)``, where ``y = big + frac``
    exactly (Dekker's two-product, then an int64 and a double in [-1/2,
    1/2]), and ``half = ulp(x) 10**k / 2``, also exact, is half the gap
    between ``x`` and its neighbours in these units, in [0.55, 11.2]. Where
    log10 rounds across a power of ten, ``big`` falls outside
    (1e16, 1e17)."""
    k = np.clip(16 - np.floor(np.log10(x)), 0, 22).astype(np.intp)
    high, low = _product(x, k)
    carry = np.rint(low)
    big = high.astype(np.int64) + carry.astype(np.int64)
    return k, big, low - carry, np.spacing(x) * 0.5 * _POW10[k]


def _shortest_digits(x: np.ndarray):
    """The shortest decimal that reads back as each float of ``x``
    (positive, normal, in [1e-6, 1e17), not a power of two), the one
    ``repr`` writes: ``(digits, count, decpt, decided)``, with ``x`` about
    ``0.d1d2...d17 * 10**decpt``, where ``digits`` is the integer
    ``d1d2...d17`` of the decimal's ``count`` digits and zeros after them.
    ``decided`` is False where the arithmetic here cannot tell the choice
    apart from another one.

    In the units of ``_scaled``, a decimal of ``17 - j`` digits is a
    multiple of ``10**j``, and it reads back as ``x`` if it lies within
    ``half`` of ``y``. The nearest multiple of 1 always does; ``repr``
    takes the nearest multiple of the largest ``10**j`` that does. The
    interval ``y ± half`` is narrower than 100, so it holds at most one
    multiple of 100, and if it holds one, the number of zeros that
    multiple ends in is that ``j``."""
    k, big, frac, half = _scaled(x)
    decided = (big > 10**16) & (big < 10**17)  # else y is out of range
    rem100 = (big - big // 100 * 100).astype(np.float64)
    rem10 = rem100 - 10 * np.floor(rem100 / 10)
    # For j = 1 and 2: whether the nearest multiple of 10**j lies inside,
    # whether y lies (about) halfway between two, and the step from ``big``
    # to the nearest one.
    inside, halfway, step = [], [], []
    for unit, rem in ((10, rem10), (100, rem100)):
        # From the multiple of ``unit`` at or below ``big`` up to y, and
        # from y up to the next one.
        up = rem + frac
        down = unit - up
        up = np.abs(up)
        dist = np.minimum(up, down)
        decided &= np.abs(dist - half) >= _MARGIN
        inside.append(dist < half)
        halfway.append(np.abs(down - up) < _MARGIN)
        step.append((down < up) * unit - rem)
    # Inside at j = 2 implies inside at j = 1; no tie is inside at j = 2.
    shift = inside[0] * step[0] + inside[1] * (step[1] - step[0])
    tie = np.where(inside[0], halfway[0] & ~inside[1], np.abs(frac) > 0.5 - _MARGIN)
    level = inside[0] + inside[1].astype(np.intp)
    digits = big + shift.astype(np.int64)
    (more,) = np.nonzero(level == 2)
    unit = 1000
    while len(more):
        more = more[digits[more] % unit == 0]
        level[more] += 1
        unit *= 10
    decided &= ~tie
    # The multiple may be 10**17 itself (level 17): the digit 1, a place up.
    rolled = digits == 10**17
    digits[rolled] = 10**16
    return digits, 17 - level + rolled, 17 - k + rolled, decided


@cache
def _layout(decpt: int) -> tuple[np.ndarray, list]:
    """How ``repr`` lays out a positive float whose 17 digits d1d2... have
    their decimal point at ``decpt``: positional if ``-4 < decpt <= 16``,
    else ``d1.d2...e+XX``. Returns ``(row, runs)``: a row of ``_WIDTH``
    bytes, a NUL sign column first, with every character but the digits,
    and the digits as runs ``(column, first digit, length)``."""
    if -4 < decpt <= 16:
        if decpt <= 0:
            text = "0." + "0" * -decpt + "#" * 17
        else:
            text = "#" * decpt + "." + "#" * (17 - decpt)
    else:
        text = "#." + "#" * 16 + f"e{decpt - 1:+03d}"
    runs, first = [], 0
    for run in re.finditer("#+", text):
        runs.append((1 + run.start(), first, len(run.group())))
        first += len(run.group())
    row = np.zeros(_WIDTH, dtype=np.uint8)
    row[1 : 1 + len(text)] = np.frombuffer(text.replace("#", "\0").encode(), dtype=np.uint8)
    return row, runs


def _repr_rows(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``x``, as rows like ``_float_rows``'s."""
    texts = np.array(list(map(repr, x.tolist())), dtype=f"S{_WIDTH}")
    return texts.view(np.uint8).reshape(len(x), _WIDTH)


@cache
def _four_digits() -> np.ndarray:
    """The four digits of each of 0..9999, as one uint32 each."""
    return np.frombuffer("".join(map("{:04d}".format, range(10**4))).encode(), dtype=np.uint32)


def _digit_chars(digits: np.ndarray, shown: np.ndarray) -> np.ndarray:
    """The first ``shown`` of the 17 decimal digits of each of ``digits``
    (int64, below 10**17, zero-padded on the left) as ASCII bytes, and NUL
    bytes for the others."""
    four = _four_digits()
    chars = np.empty((len(digits), 5), dtype=np.uint32)
    for column in range(4, -1, -1):
        rest = digits // 10**4
        chars[:, column] = four[digits - rest * 10**4] & _SHOWN[column][shown]
        digits = rest
    return chars.view(np.uint8)[:, 3:]


def _float_rows(x: np.ndarray, rows: np.ndarray) -> None:
    """Write the text of ``repr`` of each float of ``x`` (1-D, finite) into
    ``rows``, one row of ``_WIDTH`` bytes each (its last axis contiguous),
    with NUL bytes between and after the characters, which the text drops.

    ``repr`` writes the shortest digits that read back as the float
    (``_shortest_digits``) by a layout that depends only on where the
    decimal point falls (``_layout``), with NUL bytes for the digits it
    does not show, and the sign in front. The floats are sorted by the
    decimal point, and each run of one layout is filled from one row and a
    few slices of digit columns. ``repr`` writes the floats that
    ``_shortest_digits`` does not take or cannot decide."""
    bits = x.view(np.uint64)
    magnitude = np.abs(x)
    taken = (magnitude >= 1e-6) & (magnitude < 1e17) & (bits & _MANTISSA != 0)
    (index,) = np.nonzero(taken)
    digits, count, decpt, decided = _shortest_digits(magnitude[index])
    (order,) = np.nonzero(decided)
    order = order[np.argsort(decpt[order].astype(np.int8), kind="stable")]
    index, digits, count, decpt = index[order], digits[order], count[order], decpt[order]
    # The digits shown: ``count``, and in a positional layout at least one
    # after the point ("12.0").
    shown = np.where((-4 < decpt) & (decpt <= 16), np.maximum(count, decpt + 1), count)
    chars = _digit_chars(digits, shown)
    text = np.empty((len(index), _WIDTH), dtype=np.uint8)
    # The run of each decimal point, from -5 to 18.
    starts = np.searchsorted(decpt, range(-5, 20)).tolist()
    for point, start, stop in zip(range(-5, 19), starts, starts[1:]):
        if start == stop:
            continue
        row, runs = _layout(point)
        text[start:stop] = row
        for column, first, length in runs:
            text[start:stop, column : column + length] = chars[start:stop, first : first + length]
        if not -4 < point <= 16:  # no point after a lone digit: "1e-05"
            text[start:stop, 2] *= count[start:stop] > 1
    rows.view(_ROW)[index, 0] = text.view(_ROW)[:, 0]
    zero = magnitude == 0
    rows[zero] = _ZERO_ROW
    rest = ~zero
    rest[index] = False
    (rest,) = np.nonzero(rest)
    rows[rest] = _repr_rows(x[rest])
    # A "-" in the NUL column in front; ``repr``'s text has its own.
    rows[:, 0] |= (bits >> np.uint64(63)).astype(np.uint8) * ord("-")


def _entries_text(pairs: np.ndarray) -> str:
    """The entries ``pairs`` (one ``(re, im)`` row each) as JSON text, joined
    by ", ", each float as ``repr`` writes it. An entry whose 128 bits are
    all zero is written as its literal text, and a run of them as one
    repeated string, so the block shifts, almost all zeros, cost work only
    for their nonzero entries; ``-0.0`` has a bit set and keeps its sign.
    The other entries are formatted by ``repr`` if there are fewer than
    ``_VECTOR_MIN``, else as arrays (``_float_rows``)."""
    size = len(pairs)
    bits = pairs.view(np.uint64)
    (kept,) = np.nonzero(bits[:, 0] | bits[:, 1])
    # With zero entries, a "\n" before each formatted entry marks where the
    # run of zero entries before it goes.
    mark = "\n" if len(kept) < size else ""
    if len(kept) < _VECTOR_MIN:
        text = f"{mark}{_PAIR}, " * len(kept) % tuple(pairs[kept].reshape(-1).tolist())
    else:
        cells = np.empty((len(kept), len(_ENTRY)), dtype=np.uint8)
        cells[:] = _ENTRY
        if mark:
            cells[:, 0] = ord(mark)
        _float_rows(pairs[kept].reshape(-1), cells.reshape(-1, _CELL)[:, 2 : 2 + _WIDTH])
        text = cells[cells != 0].tobytes().decode("ascii")
    if mark:
        # The zero runs before each entry and after the last; the text ends
        # in the ", " of its last run or entry.
        bounds = np.concatenate([[-1], kept, [size]])
        runs = map(_ZERO_ITEM.__mul__, (bounds[1:] - bounds[:-1] - 1).tolist())
        text = "".join(chain.from_iterable(zip(text.split(mark), runs)))
    return text[:-2]


def write_matrix(path: str | Path, a) -> None:
    """Write ``a`` as the text ``json.dumps(matrix_to_doc(a)) + "\\n"``,
    formatted directly (``json.dumps`` writes finite floats by ``repr``),
    in pieces of whole rows of at least ``_PIECE_ENTRIES`` entries through
    one open file, so that no more than a piece of the text is held at
    once. Finiteness is checked over the same pieces, before the file is
    opened: a non-finite entry raises the error of ``as_operator`` and
    leaves no file, and no mask of the whole matrix is made."""
    a = _checked(a, finite=False)
    rows, cols = a.shape
    # The (re, im) pairs in row-major order; a view of a C-ordered ``a``.
    pairs = np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(-1, 2)
    step = cols * -(-_PIECE_ENTRIES // cols)
    for start in range(0, rows * cols, step):
        _require_finite(pairs[start : start + step])
    with open(path, "w", encoding="utf-8") as out:
        out.write(f'{{"rows": {rows}, "cols": {cols}, "data": [')
        for start in range(0, rows * cols, step):
            out.write((", " if start else "") + _entries_text(pairs[start : start + step]))
        out.write("]}\n")


# The text in front of the data of a canonical document, with its shape.
# Longer shapes are left to ``json``, which reads integers only up to the
# interpreter's limit on their length.
_HEADER = re.compile(rb'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "data": \[')
# The bytes after the last entry, and the fewest bytes an entry and its
# separator can take, "[0.0, 0.0], ".
_TRAILER = b"]}\n"
_ENTRY_BYTES = 12
# Bytes read from a file at once. The reader holds about two blocks, and the
# arrays of the piece of whole entries cut from one, about 13 bytes per byte
# of text. At this size a 256x256 file reads with a traced peak of 3.4 MB,
# its 1 MB of entries included, and larger blocks read it no faster.
_READ_BYTES = 2**17
# The longest number the array reader takes; ``repr`` writes at most 24
# characters. Canonical entries hold the text "], [" at least once in every
# ``_ENTRY_MAX`` bytes but the last ones.
_TOKEN_MAX = 40
_ENTRY_MAX = 2 * _TOKEN_MAX + 16
# Columns of the digit field of a number: three words of eight digits.
_FIELD = 24
# 10**k for k = 0..19, the powers of ten below 2**64.
_POW10_U64 = np.array([10**k for k in range(20)], dtype=np.uint64)
# Indexed by q + 22 for q = -22..22: the factor and the divisor that take an
# integer w to w 10**q in one rounding.
_TIMES = np.array([1.0] * 22 + [float(10**k) for k in range(23)])
_OVER = np.array([float(10**k) for k in range(22, 0, -1)] + [1.0] * 23)
_EXPONENT = np.uint64(0x7FF << 52)


@cache
def _field_masks() -> np.ndarray:
    """For a significand whose last ``span`` bytes (0..24) are read
    backwards as three big-endian words of ``_FIELD`` bytes, with its point
    ``point`` bytes from its end (-1 for none), the masks that keep the low
    four bits of each of its digits, at row ``(_FIELD + 1) span + point +
    1``."""
    return np.array(
        [
            [
                sum(
                    0x0F << 8 * (7 - back % 8)
                    for back in range(8 * word, 8 * word + 8)
                    if back < span and back != point
                )
                for word in range(3)
            ]
            for span in range(_FIELD + 1)
            for point in range(-1, _FIELD)
        ],
        dtype=np.uint64,
    )


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number of the eight digits of each word, one digit value per
    byte, the first in the low byte (Lemire's SWAR parse: pairs, then
    quads, then the whole)."""
    words = (words * 2561) >> 8 & 0x00FF00FF00FF00FF
    words = (words * 6553601) >> 16 & 0x0000FFFF0000FFFF
    return (words * 42949672960001) >> 32


def _nearest(w: np.ndarray, p: np.ndarray, c: np.ndarray):
    """The double nearest ``w / 10**p`` for each integer ``w`` (int64, from
    2**53 up to 10**18) and ``p`` in 0..22, from the candidate ``c =
    fl(fl(w) / 10**p)``, which two roundings leave less than 1.5 of its
    gaps away: ``(value, settled)``.

    ``w - c 10**p`` is exact: ``c 10**p = high + low`` (``_product``), and
    ``high``, within a few gaps of ``w``, is an integer. It is compared with
    ``half = ulp(c) 10**p / 2``: within ``half`` the candidate is the
    nearest double, and from ``half`` up to ``3 half`` its neighbour on
    that side. ``settled`` is False within ``_MARGIN`` of those bounds (a
    tie among them), and where the candidate or the result is a power of
    two, whose gap below is half its gap above."""
    high, low = _product(c, p)
    residual = (w - high.astype(np.int64)).astype(np.float64) - low
    bits = c.view(np.uint64)
    # ulp(c) / 2 is 2**-53 times the power of two at or below c.
    half = (bits & _EXPONENT).view(np.float64) * 2.0**-53 * _POW10[p]
    distance = np.abs(residual)
    step = (residual > half).view(np.int8) - (residual < -half).view(np.int8)
    value = (c.view(np.int64) + step).view(np.float64)
    settled = (np.abs(distance - half) >= _MARGIN) & (distance < 3 * half - _MARGIN)
    settled &= np.minimum(bits & _MANTISSA, value.view(np.uint64) & _MANTISSA) != 0
    return value, settled


def _piece_values(piece: bytes) -> np.ndarray | None:
    """The numbers of ``piece``, entries ``[re, im]`` joined by ``", "``, as
    one flat float64 array (re, im, re, im, ...), bit for bit those that
    ``json.loads`` reads: ``float`` of each number's text. None if
    ``piece`` is not that text, or holds a number that ``json`` reads as an
    integer or one longer than ``_TOKEN_MAX``.

    The separators are checked where the commas place them, and each number
    against JSON's grammar ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?``:
    its sign, point and exponent mark where they may be, and every other
    byte a digit. A number ``w 10**q`` with ``w`` below 10**18 and ``|q| <=
    22`` is converted exactly: its digits are parsed eight at a time from
    the last ``_FIELD`` bytes of its significand, then ``w 10**q`` is one
    rounding when ``w`` is below 2**53 (Clinger's fast path), and
    ``_nearest`` settles it when ``q <= 0``. ``float`` converts the
    others."""
    size = len(piece)
    body = np.frombuffer(piece, dtype=np.uint8)
    commas = np.flatnonzero(body == ord(","))
    if len(commas) % 2 == 0 or body[0] != ord("[") or body[-1] != ord("]"):
        return None
    # The comma inside each entry, then the one after it: "[re, im], [".
    inner, outer = commas[::2], commas[1::2]
    if not (
        (body[commas + 1] == ord(" ")).all()
        and (body[outer - 1] == ord("]")).all()
        and (body[outer + 2] == ord("[")).all()
    ):
        return None
    start = np.empty(len(commas) + 1, dtype=np.intp)
    start[0], start[1::2], start[2::2] = 1, inner + 2, outer + 3
    length = np.empty_like(start)
    length[::2], length[1:-1:2], length[-1] = inner, outer - 1, size - 1
    length -= start
    if length.min() < 3 or length.max() > _TOKEN_MAX:
        return None
    # The exponent marks, each in the number that starts last before it.
    (mark_at,) = np.nonzero(body | 0x20 == ord("e"))
    owner = np.searchsorted(start, mark_at, side="right") - 1
    has_mark = np.zeros(len(start), dtype=bool)
    has_mark[owner] = True
    mark = np.zeros_like(start)
    mark[owner] = mark_at - start[owner]
    negative = body[start] == ord("-")
    lead = negative.view(np.int8)  # the first digit
    end = length + (mark - length) * has_mark  # of the significand
    span = end - lead
    # Each significand read backwards from its last byte, in whole words
    # and at least ``_FIELD`` bytes; its point is the first one so read.
    width = max(_FIELD, -(-int(span.max()) // 8) * 8)
    backwards = np.zeros(size + width, dtype=np.uint8)
    backwards[:size] = body[::-1]
    field = as_strided(backwards, (size + 1, width), (1, 1))[size - start - end]
    back = np.argmax(field == ord("."), axis=1)
    point = end - 1 - back
    has_point = (back < span) & (body[np.maximum(start + point, 0)] == ord("."))
    after = body[start + mark + 1]
    signed = has_mark & ((after == ord("-")) | (after == ord("+")))
    valid = (
        (has_point | has_mark)  # else json reads an integer
        & ((has_point & (point > lead) & (back > 0)) | (~has_point & (end > lead)))
        & (~has_mark | (mark + 1 + signed < length))
        # No leading zero: a "0" first is followed by no digit.
        & ((body[start + lead] != ord("0")) | (body[start + lead + 1] - ord("0") >= 10))
    )
    # The sign, point and mark found are bytes of their numbers that are not
    # digits; if no other byte of the numbers is one, each is a digit.
    marks = np.count_nonzero(negative) + np.count_nonzero(has_point)
    marks += np.count_nonzero(has_mark) + np.count_nonzero(signed)
    digits = np.count_nonzero(body - ord("0") < 10)
    if not valid.all() or int(length.sum()) - digits != marks:
        return None

    # The significand's last ``_FIELD`` bytes, its digits kept.
    fits = span <= _FIELD
    row = (_FIELD + 1) * np.minimum(span, _FIELD) + (back + 1) * (has_point & fits)
    words = field.view(">u8")[:, :3] & np.take(_field_masks(), row, axis=0)
    bottom, middle, top = _eight_digits(words).T
    fits &= top < 1000  # so that the sum below stays under 10**19
    total = top * 10**16 + middle * 10**8 + bottom
    # The digits in front of the point stand one column too far left.
    fraction = back * has_point
    ahead = total // _POW10_U64[np.minimum(fraction + 1, 19)] * has_point
    w = total - ahead * 9 * _POW10_U64[np.minimum(fraction, 19)]
    fits &= w < 10**18
    w = w.astype(np.int64)

    q = -fraction
    (index,) = np.nonzero(has_mark)
    if len(index):
        # Up to three exponent digits, read from the number's last bytes.
        stop = start[index] + length[index]
        count = length[index] - mark[index] - 1 - signed[index]
        exponent = body[stop - 1].astype(np.intp) - ord("0")
        for place in (1, 2):
            digit = body[stop - 1 - place].astype(np.intp) - ord("0")
            exponent += digit * 10**place * (count > place)
        fits[index] &= count <= 3
        q[index] += np.where(after[index] == ord("-"), -exponent, exponent)
    fits &= np.abs(q) <= 22
    # w 10**q as (w 10**q) / 1 or as (w 1) / 10**-q: one rounding.
    at = np.minimum(np.maximum(q, -22), 22) + 22
    values = w.astype(np.float64) * _TIMES[at] / _OVER[at]
    small = w < 2**53
    settled = fits & small
    (index,) = np.nonzero(fits & ~small & (q <= 0))
    values[index], settled[index] = _nearest(w[index], -q[index], values[index])
    values.view(np.uint64)[...] |= negative.astype(np.uint64) << 63
    (index,) = np.nonzero(~settled)
    values[index] = [
        float(piece[a:b])
        for a, b in zip(start[index].tolist(), (start[index] + length[index]).tolist())
    ]
    return values


def _read_canonical(path: Path) -> np.ndarray | None:
    """The matrix of the canonical text at ``path``, which ``write_matrix``
    writes, or None for any other text. The file is read in blocks of
    ``_READ_BYTES``, and each piece of whole entries is converted on its
    own (``_piece_values``) into the one array of the matrix. Only a
    regular file is read here: a pipe, say, can be read only once."""
    try:
        status = os.stat(path)
    except OSError:  # ``read_text`` raises it
        return None
    if not stat.S_ISREG(status.st_mode):
        return None
    with open(path, "rb") as file:
        data = file.read(_READ_BYTES)
        head = _HEADER.match(data)
        if head is None:
            return None
        rows, cols = int(head[1]), int(head[2])
        # Checked before the array is made: a large shape in a short file.
        if head.end() + _ENTRY_BYTES * rows * cols + 1 > status.st_size:
            return None
        out = np.empty(2 * rows * cols)
        filled = 0
        data = data[head.end() :]
        while True:
            block = file.read(_READ_BYTES)
            if block:
                # The entries read so far, up to the last whole one.
                cut = data.rfind(b"], [")
                if cut < 0:
                    if len(data) > _ENTRY_MAX:
                        return None
                    data += block
                    continue
                piece, data = data[: cut + 1], data[cut + 3 :] + block
            elif data.endswith(_TRAILER):
                piece = data[: -len(_TRAILER)]
            else:
                return None
            values = _piece_values(piece)
            if values is None or filled + len(values) > len(out):
                return None
            out[filled : filled + len(values)] = values
            filled += len(values)
            if not block:
                break
    if filled < len(out):
        return None
    return out.view(np.complex128).reshape(rows, cols)


def read_matrix(path: str | Path) -> np.ndarray:
    """The matrix of the file at ``path``: the text that ``write_matrix``
    writes is read as arrays (``_read_canonical``), and any other text by
    ``json.loads`` and ``doc_to_matrix``, with the same values and
    errors."""
    path = Path(path)
    a = _read_canonical(path)
    if a is not None:
        return as_operator(a)
    text = path.read_text(encoding="utf-8")
    # A document nested deeper than the interpreter's recursion limit makes
    # json.loads raise RecursionError.
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return doc_to_matrix(doc)

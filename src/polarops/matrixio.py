"""Matrix file format: JSON documents with explicit shape and [re, im] pairs.

One matrix per file:

    {"rows": 2, "cols": 2,
     "data": [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [2.5, 0.0]]}

``data`` is row-major, one [real, imaginary] pair per entry. Writing floats
through ``repr`` round-trips exactly, so write-then-read is bit-identical,
signed zeros included.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .core import as_operator

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
# rounded up to whole rows: a matrix of up to 256x256 is one piece, and a
# piece of a larger one holds a few MB of text.
_PIECE_ENTRIES = 2**16


def _entries_text(pairs: np.ndarray) -> str:
    """The entries ``pairs`` (one ``(re, im)`` row each) as JSON text, joined
    by ", ". An entry whose 128 bits are all zero is written as its literal
    text, and a run of them as one repeated string, so the block shifts,
    almost all zeros, cost Python work only for their nonzero entries;
    ``-0.0`` has a bit set and keeps its sign through ``repr``."""
    size = len(pairs)
    bits = pairs.view(np.uint64)
    (kept,) = np.nonzero(bits[:, 0] | bits[:, 1])
    if len(kept) == size:
        template = ", ".join([_PAIR] * size)
    else:
        # The zero runs before, between and after the nonzero entries; the
        # text ends in the ", " of its last run or nonzero entry: cut it.
        gaps = np.diff(kept, prepend=-1, append=size) - 1
        template = f"{_PAIR}, ".join(map(_ZERO_ITEM.__mul__, gaps.tolist()))[:-2]
        pairs = pairs[kept]
    return template % tuple(pairs.reshape(-1).tolist())


def write_matrix(path: str | Path, a) -> None:
    """Write ``a`` as the text ``json.dumps(matrix_to_doc(a)) + "\\n"``,
    formatted directly (``json.dumps`` writes finite floats by ``repr``),
    in pieces of whole rows of at least ``_PIECE_ENTRIES`` entries through
    one open file, so that no more than a piece of the text is held at
    once."""
    a = as_operator(a)
    rows, cols = a.shape
    # The (re, im) pairs in row-major order; a view of a C-ordered ``a``.
    pairs = np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(-1, 2)
    step = cols * -(-_PIECE_ENTRIES // cols)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f'{{"rows": {rows}, "cols": {cols}, "data": [')
        for start in range(0, rows * cols, step):
            out.write((", " if start else "") + _entries_text(pairs[start : start + step]))
        out.write("]}\n")


def read_matrix(path: str | Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return doc_to_matrix(doc)

"""Tests for the matrix file format: round trips and validation."""

from __future__ import annotations

import json
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarops import matrixio
from polarops.core import as_operator
from polarops.decomp import moore_penrose, polar_decompose
from polarops.matrixio import (
    _pairs_as_floats,
    doc_to_matrix,
    matrix_to_doc,
    read_matrix,
    write_matrix,
)
from polarops.shifts import ShiftSpec, build_truncated

FINITE = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def loop_reader(data: list) -> np.ndarray:
    """The reference reader: one ``complex(re, im)`` per entry."""
    out = np.empty(len(data), dtype=np.complex128)
    for i, (re, im) in enumerate(data):
        out[i] = complex(re, im)
    return out


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of the real and imaginary parts, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a).reshape(-1).view(np.uint64)


def test_doc_shape_and_order():
    doc = matrix_to_doc(np.array([[1.0, 2.0j], [-3.0, 0.5 - 0.5j]]))
    assert doc["rows"] == 2
    assert doc["cols"] == 2
    assert doc["data"] == [[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [0.5, -0.5]]


def test_written_text_is_pinned_for_special_values(tmp_path):
    a = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e308, -1e-308)],
            [complex(0.1, -0.0), complex(-2.5, 1.0 / 3.0)],
        ]
    )
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == (
        '{"rows": 2, "cols": 2, "data": [[-0.0, 5e-324], [1e+308, -1e-308], '
        '[0.1, -0.0], [-2.5, 0.3333333333333333]]}\n'
    )


def test_doc_data_matches_the_per_entry_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    a[0, 0], a[1, 2], a[6, 4] = complex(-0.0, 5e-324), -1e308j, complex(-0.0, -0.0)
    loop = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    assert json.dumps(matrix_to_doc(a)["data"]) == json.dumps(loop)


def test_doc_round_trip_preserves_entries():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.array_equal(doc_to_matrix(matrix_to_doc(a)), a)


def test_write_then_read_is_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_matrix(first, a)
    loaded = read_matrix(first)
    write_matrix(second, loaded)
    assert np.array_equal(loaded, a)
    assert first.read_bytes() == second.read_bytes()


def test_awkward_floats_survive(tmp_path):
    a = np.array([[0.1 + 0.2j, 1e-300], [-0.0, 7.1e300]], dtype=complex)
    path = tmp_path / "awkward.json"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    entries=st.lists(st.tuples(FINITE, FINITE), min_size=16, max_size=16),
)
def test_round_trip_property(rows, cols, entries):
    flat = np.array([complex(re, im) for re, im in entries[: rows * cols]])
    a = flat.reshape(rows, cols)
    serialized = json.dumps(matrix_to_doc(a))
    assert np.array_equal(doc_to_matrix(json.loads(serialized)), a)


SPECIAL_PAIRS = [
    [-0.0, -0.0],
    [0.0, -0.0],
    [-0.0, 5e-324],
    [-5e-324, 1e308],
    [-1e308, 2.2250738585072014e-308],
    [0.1, 1.0 / 3.0],
]
INTEGER_PAIRS = [
    [0, -0],
    [1, -7],
    [2**53 + 1, -(2**53) - 1],
    [2**63 - 1, -(2**63)],
    [2**63, 2**64 - 1],
    [2**64 + 1, -(2**63) - 1],
    [10**308, -(10**300)],
]
BOOLEAN_PAIRS = [[True, False], [False, True], [True, 0.5], [-0.0, True]]


@pytest.mark.parametrize(
    "data",
    [
        SPECIAL_PAIRS,
        INTEGER_PAIRS,
        BOOLEAN_PAIRS,
        SPECIAL_PAIRS + INTEGER_PAIRS + BOOLEAN_PAIRS,
    ],
    ids=["special-floats", "ints", "bools", "mixed"],
)
def test_array_reader_matches_the_loop_bit_for_bit(data):
    assert _pairs_as_floats(data) is not None  # the vectorised path reads it
    a = doc_to_matrix({"rows": 1, "cols": len(data), "data": data})
    assert np.array_equal(bits(a), bits(loop_reader(data)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(ANY_FINITE, ANY_FINITE), min_size=1, max_size=12))
def test_array_reader_matches_the_loop_on_any_finite_floats(entries):
    data = [list(pair) for pair in entries]
    doc = json.loads(json.dumps({"rows": len(data), "cols": 1, "data": data}))
    a = doc_to_matrix(doc)
    assert np.array_equal(bits(a), bits(loop_reader(data)))


def test_float_subclass_entries_are_read_by_the_loop():
    data = [[np.float64(-0.0), 1.5], [2, np.float64(5e-324)]]
    assert _pairs_as_floats(data) is None
    a = doc_to_matrix({"rows": 2, "cols": 1, "data": data})
    assert np.array_equal(bits(a), bits(loop_reader(data)))


# Each malformed document with the exact message it is rejected with.
MALFORMED = [
    ("not a dict", "matrix document must be a JSON object"),
    ({"rows": 2, "cols": 2}, "matrix document missing field 'data'"),
    (
        {"rows": 2.0, "cols": 2, "data": [[0.0, 0.0]] * 4},
        "rows and cols must be integers",
    ),
    ({"rows": 0, "cols": 2, "data": []}, "invalid shape (0, 2)"),
    (
        {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 3},
        "data length 3 does not match rows*cols = 4",
    ),
    ({"rows": 1, "cols": 1, "data": [[0.0]]}, "entry 0 is not a [re, im] pair: [0.0]"),
    (
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
        "entry 0 is not a [re, im] pair: ['x', 0.0]",
    ),
    ({"rows": 1, "cols": 1, "data": [0.0]}, "entry 0 is not a [re, im] pair: 0.0"),
    (
        {"rows": 1, "cols": 3, "data": [[0.0, 0.0], [1.0], [2.0, 0.0]]},
        "entry 1 is not a [re, im] pair: [1.0]",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [[1.0, 0.0], 0.0]]},
        "entry 1 is not a [re, im] pair: [[1.0, 0.0], 0.0]",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [[1.0], [0.0]]]},
        "entry 1 is not a [re, im] pair: [[1.0], [0.0]]",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
        "entry 0 is not a [re, im] pair: [0.0, 0.0, 0.0]",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [None, 0.0]]},
        "entry 1 is not a [re, im] pair: [None, 0.0]",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], {"re": 1.0}]},
        "entry 1 is not a [re, im] pair: {'re': 1.0}",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], (1.0, 0.0)]},
        "entry 1 is not a [re, im] pair: (1.0, 0.0)",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [np.int64(1), 0.0]]},
        "entry 1 is not a [re, im] pair: [np.int64(1), 0.0]",
    ),
    (
        {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
        "operator entries must be finite",
    ),
    (
        {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [1.0, 10**400]]},
        "entry 1 is too large for a float",
    ),
    (
        {"rows": True, "cols": True, "data": [[2.0, 0.0]]},
        "rows and cols must be integers",
    ),
]


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(doc, message, id=doc if isinstance(doc, str) else f"doc{i}")
        for i, (doc, message) in enumerate(MALFORMED)
    ],
)
def test_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError) as excinfo:
        doc_to_matrix(doc)
    assert str(excinfo.value) == message


def _writer_cases() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    square = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    wide = rng.standard_normal((3, 8)) * 10.0 ** rng.integers(-300, 300, (3, 8))
    special = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e308, -1e-308)],
            [complex(0.1, -0.0), complex(-0.0, -0.0)],
            [complex(2.2250738585072014e-308, -5e-324), complex(1e16, 123456789.0)],
        ]
    )
    # Every combination of +0.0 and -0.0 in the two parts, between nonzeros.
    zero, neg = 0.0, -0.0
    signed_zeros = np.array(
        [
            [complex(zero, zero), complex(neg, zero), 1.5, complex(zero, neg), -2j],
            [complex(neg, neg), complex(zero, 3.0), complex(neg, -1e-300), 0, -0.0],
        ]
    )
    shift = build_truncated(ShiftSpec.from_recipe(2))
    # Zero runs at both ends of the data, around two nonzero entries.
    ends = np.zeros((4, 6), dtype=np.complex128)
    ends[1, 2], ends[2, 4] = 3.0 - 1j, complex(0.0, 7.5)
    last_only = np.zeros((3, 4), dtype=np.complex128)
    last_only[-1, -1] = -2.5
    # -0.0 in either part breaks a zero run into two.
    run_breaks = np.zeros((2, 7), dtype=np.complex128)
    run_breaks[0, 2], run_breaks[1, 1], run_breaks[1, 5] = (
        complex(-0.0, 0.0),
        complex(0.0, -0.0),
        1e-300,
    )
    sparse = np.zeros((5, 8), dtype=np.complex128)
    sparse[[0, 2, 3, 4], [7, 1, 1, 5]] = [1j, -0.0, 4.0, complex(-3.0, -0.0)]
    return [
        square,
        square.T,
        wide,
        wide.T.conj(),
        special,
        np.eye(4),
        [[1, -2]],
        signed_zeros,
        np.zeros((5, 3)),
        shift,
        ends,
        last_only,
        np.zeros((1, 1)),
        run_breaks,
        sparse.T,  # a non-contiguous view
        build_truncated(ShiftSpec.from_recipe(12)),
    ]


@pytest.mark.parametrize(
    "a", _writer_cases(), ids=lambda a: "x".join(map(str, np.shape(a)))
)
def test_written_text_is_the_json_of_the_document(tmp_path, a):
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


@pytest.mark.parametrize("piece", [1, 4, 7])
def test_written_text_is_the_same_in_pieces(tmp_path, monkeypatch, piece):
    # Pieces of whole rows, down to one row each: zero runs and signed zeros
    # fall across the boundaries between pieces.
    monkeypatch.setattr(matrixio, "_PIECE_ENTRIES", piece)
    path = tmp_path / "m.json"
    for a in _writer_cases():
        write_matrix(path, a)
        assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


def test_a_shift_above_the_piece_size_is_written_in_pieces(tmp_path):
    a = build_truncated(ShiftSpec.from_recipe(98))  # 303x303: two pieces
    assert a.size > matrixio._PIECE_ENTRIES
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


SIGNED_PART = st.sampled_from([0.0, -0.0]) | ANY_FINITE
# Half the entries +0.0; the others take a signed zero or any finite float
# in either part.
SPARSE_ENTRY = st.just(0j) | st.builds(complex, SIGNED_PART, SIGNED_PART)


@settings(max_examples=60, deadline=None)
@given(
    a=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(
            SPARSE_ENTRY, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda entries: np.array(entries).reshape(shape))
    ),
    transpose=st.booleans(),
)
def test_written_text_of_sparse_matrices_with_signed_zeros(
    tmp_path_factory, a, transpose
):
    if transpose:
        a = a.T  # a non-contiguous view
    path = tmp_path_factory.getbasetemp() / "sparse.json"  # one file, rewritten
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
@pytest.mark.parametrize("row", [0, 150, 299])
def test_write_rejects_non_finite_entries_in_any_piece(tmp_path, bad, row):
    # 300x300 is written in several pieces of whole rows; a non-finite entry
    # in any of them raises before the file is created.
    a = build_truncated(ShiftSpec.from_recipe(97))
    a[row, row // 2] = bad
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="^operator entries must be finite$"):
        write_matrix(path, a)
    assert not path.exists()


def test_write_checks_finiteness_without_a_whole_matrix_mask():
    # The 3009x3009 shift of order 1000 (109 MB of text): a bool mask of the
    # whole matrix would take 9.1 MB; pieces of whole rows take a few kB.
    a = build_truncated(ShiftSpec.from_recipe(1000))
    tracemalloc.start()
    try:
        write_matrix(os.devnull, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_rejects_non_finite_payload():
    doc = {"rows": 1, "cols": 1, "data": [[1e400, 0.0]]}
    loaded = json.loads(json.dumps(doc))
    with pytest.raises(ValueError):
        doc_to_matrix(loaded)


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_matrix(path)


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "absent.json")


# The array formatter: every float's text is ``repr``'s, byte for byte.


def formatted(values) -> list[str]:
    """The text that the array formatter gives each float of ``values``."""
    x = np.array(values, dtype=np.float64).reshape(-1)
    rows = np.zeros((len(x), matrixio._WIDTH), dtype=np.uint8)
    matrixio._float_rows(x, rows)
    # The text drops the NUL bytes between and after the characters.
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def around(v: float, ulps: int = 1) -> list[float]:
    """``v`` and the ``ulps`` floats on either side of it."""
    out = [v]
    below = above = v
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


EDGE_FLOATS = (
    [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    + [u for e in range(-30, 31) for u in around(10.0**e)]
    + [u for e in range(-1074, 1024) for u in around(2.0**e)]
    # Where repr switches between positional and exponent layouts.
    + around(1e-4, 4)
    + around(1e16, 4)
    + [9.999999999999999e-05, 9999999999999998.0, 1.0000000000000002e16]
    # Integers and short decimals.
    + [float(i) for i in range(-1000, 1001)]
    + [i / 1000 for i in range(-3000, 3001)]
    + [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456789012345.0, 2.0**53 + 2, 1e15 + 0.5]
)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_formatter_matches_repr_on_edge_floats(sign):
    values = [sign * v for v in EDGE_FLOATS]
    assert formatted(values) == list(map(repr, values))


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY_FINITE, min_size=1, max_size=64))
def test_formatter_matches_repr_on_any_finite_floats(values):
    assert formatted(values) == list(map(repr, values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_formatter_matches_repr_on_raw_bit_patterns(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    assert formatted(x) == list(map(repr, x.tolist()))


def test_formatter_matches_repr_on_seeded_draws():
    rng = np.random.default_rng(2018)
    n = 50_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    x = np.concatenate(
        [
            rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 19, n),
            bits[np.isfinite(bits)],
            # Short decimals, whose digits end well before the 17th.
            rng.integers(-(10**6), 10**6, n) / 10.0 ** rng.integers(0, 12, n),
        ]
    )
    assert formatted(x) == list(map(repr, x.tolist()))


def _dense_factors():
    rng = np.random.default_rng(18)
    for rows, cols in [(96, 96), (224, 176), (256, 200)]:
        t = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        parts = polar_decompose(t)
        shape = f"{rows}x{cols}"
        yield pytest.param(parts.isometry, id=f"U-{shape}")
        yield pytest.param(parts.modulus, id=f"P-{shape}")
        yield pytest.param(moore_penrose(t), id=f"pinv-{shape}")


@pytest.mark.parametrize("a", _dense_factors())
def test_written_text_of_dense_factors_is_the_json_of_the_document(tmp_path, a):
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


def test_dense_matrix_of_several_pieces_with_zero_runs(tmp_path):
    rng = np.random.default_rng(300)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a[27, 250:] = 0  # a zero run across two rows
    a[28, :40] = 0
    a[100, 7], a[200, 9] = complex(-0.0, 0.0), complex(0.0, -0.0)
    assert a.size > 4 * matrixio._PIECE_ENTRIES
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


@pytest.mark.parametrize("piece", [1, 4, 7, matrixio._PIECE_ENTRIES])
def test_array_formatter_writes_the_json_of_every_writer_case(
    tmp_path, monkeypatch, piece
):
    # Every piece with an entry to format goes through the array formatter.
    monkeypatch.setattr(matrixio, "_VECTOR_MIN", 1)
    monkeypatch.setattr(matrixio, "_PIECE_ENTRIES", piece)
    path = tmp_path / "m.json"
    for a in _writer_cases():
        write_matrix(path, a)
        assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


SPARSE_MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        SPARSE_ENTRY, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda entries: np.array(entries).reshape(shape))
)


@settings(max_examples=60, deadline=None)
@given(a=SPARSE_MATRICES, piece=st.sampled_from([1, 5, matrixio._PIECE_ENTRIES]))
def test_array_formatter_writes_sparse_matrices_with_signed_zeros(
    tmp_path_factory, a, piece
):
    path = tmp_path_factory.getbasetemp() / "sparse-array.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrixio, "_VECTOR_MIN", 1)
        patch.setattr(matrixio, "_PIECE_ENTRIES", piece)
        write_matrix(path, a)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_doc(a)) + "\n"


@pytest.fixture
def formatter_calls(monkeypatch) -> dict[str, list[int]]:
    """The number of floats of each call to the array formatter
    (``"array"``) and to its per-float ``repr`` (``"repr"``)."""
    calls: dict[str, list[int]] = {"array": [], "repr": []}
    for key, name in (("array", "_float_rows"), ("repr", "_repr_rows")):
        inner = getattr(matrixio, name)

        def counted(x, *args, inner=inner, key=key):
            calls[key].append(len(x))
            return inner(x, *args)

        monkeypatch.setattr(matrixio, name, counted)
    return calls


def test_the_factors_of_a_dense_draw_are_formatted_without_repr(
    tmp_path, formatter_calls
):
    rng = np.random.default_rng(96)
    t = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    parts = polar_decompose(t)
    for a in (parts.isometry, parts.modulus, moore_penrose(t)):
        write_matrix(tmp_path / "m.json", a)
    # U, P and pinv: every float by the array formatter, none by repr.
    assert sum(formatter_calls["array"]) == 3 * 2 * 96 * 96
    assert sum(formatter_calls["repr"]) == 0


def test_floats_outside_the_array_formatter_go_to_repr(formatter_calls):
    # A power of two, a float below 1e-6, one from 1e17 up and a subnormal
    # go to repr; zeros and the others do not.
    values = [1.0, 0.1, 1e-7, -0.0, 3.5e17, 0.3, 5e-324, 0.0, -2.5, 123.456]
    assert formatted(values) == list(map(repr, values))
    assert formatter_calls["repr"] == [4]


# The array reader: every file reads bit for bit as ``json.loads`` and
# ``doc_to_matrix`` read it, with the same errors.


def json_reader(path) -> np.ndarray:
    """The reference reader: the whole text, ``json.loads`` and
    ``doc_to_matrix``, with ``read_matrix``'s error for invalid JSON."""
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return doc_to_matrix(doc)


def outcome(read, path):
    """What ``read(path)`` gives: the bits of its matrix and its shape, or
    the type and message of its exception."""
    try:
        a = read(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return a.shape, bits(a).tolist()


def read_by_arrays(path) -> np.ndarray:
    """``read_matrix`` with ``json.loads`` unusable: only text that the
    array reader takes reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrixio.json, "loads", _no_json)
        return read_matrix(path)


def _no_json(*args, **kwargs):
    raise AssertionError("json.loads called")


# Floats at the places where the reader's arithmetic changes course: the
# decades near the ends of its exact range, powers of two (where the gap
# between doubles halves), 2**53, the normal and subnormal ends.
READER_EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    + [u for v in (1e-6, 1e-4, 1e16, 1e17, 1e22, 1e23, 2.0**53, 2.0**63) for u in around(v, 2)]
    + [u for e in range(-40, 70) for u in around(2.0**e)]
    + [u for e in range(-25, 26) for u in around(10.0**e)]
)
BIT_PATTERN = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)
READER_FLOAT = (
    st.sampled_from(READER_EDGES)
    | BIT_PATTERN.filter(np.isfinite)
    | st.floats(-1e3, 1e3)
    | st.builds(lambda x, e: x * 10.0**e, st.floats(-10, 10), st.integers(-30, 30))
)


@settings(max_examples=150, deadline=None)
@given(st.lists(READER_FLOAT, min_size=2, max_size=40))
def test_reader_matches_the_json_route_on_written_files(tmp_path_factory, values):
    a = np.array(values[: len(values) // 2 * 2]).view(np.complex128).reshape(1, -1)
    path = tmp_path_factory.getbasetemp() / "reader.json"
    write_matrix(path, a)
    assert bits(read_by_arrays(path)).tolist() == bits(json_reader(path)).tolist()
    assert np.array_equal(bits(read_matrix(path)), bits(a))


def canonical_text(tokens: list[str], rows: int = 1) -> str:
    """The canonical text of a matrix of ``rows`` rows whose numbers, in
    pairs, are ``tokens``."""
    pairs = ", ".join(f"[{re}, {im}]" for re, im in zip(tokens[::2], tokens[1::2]))
    return f'{{"rows": {rows}, "cols": {len(tokens) // 2 // rows}, "data": [{pairs}]}}\n'


DECIMAL = st.builds(
    lambda sign, digits, point, exponent: (
        sign
        + (digits[:point].lstrip("0") or "0")
        + "."
        + (digits[point:] or "0")
        + exponent
    ),
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=17, max_size=25),
    st.integers(1, 25),
    st.sampled_from(["", "e5", "E-7", "e+12", "e-30", "e0"])
    | st.integers(-30, 30).map(lambda e: f"e{e}"),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(DECIMAL, min_size=2, max_size=20))
def test_reader_matches_float_on_long_decimals(tmp_path_factory, tokens):
    # 17-25 digits: more than repr writes, some past 10**18, some past the
    # powers of ten the arithmetic takes.
    tokens = tokens[: len(tokens) // 2 * 2]
    path = tmp_path_factory.getbasetemp() / "decimals.json"
    path.write_text(canonical_text(tokens), encoding="utf-8")
    expected = np.array([float(token) for token in tokens])
    assert bits(read_by_arrays(path)).tolist() == bits(expected).tolist()


def halfway_tokens() -> list[str]:
    """Decimals exactly halfway between two adjacent doubles, which round
    to the one with an even significand, written out as integers, with a
    fraction and in e-notation."""
    rng = np.random.default_rng(21)
    tokens = []
    for exponent in range(50, 64):
        for _ in range(4):
            x = float(2.0**exponent * rng.uniform(1, 2))
            half = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
            # The gaps here are 2**-2 and up, so three decimals hold it.
            whole, rest = divmod(half, 1)
            digits, decimals = str(whole), f"{int(rest * 1000):03d}".rstrip("0") or "0"
            tokens += [f"{digits}.{decimals}", f"{digits[0]}.{digits[1:]}{decimals}e{len(digits) - 1}"]
            assert all(Fraction(token) == half for token in tokens[-2:])
    return tokens


@pytest.mark.parametrize(
    "tokens",
    [
        pytest.param(halfway_tokens(), id="halfway"),
        pytest.param(["1.5e3", "-2E-5", "4e+2", "-0.0", "0e0", "-0.0e-9"], id="e-notation"),
        pytest.param(["9007199254740993.0", "-9007199254740993.0"], id="tie-above-2**53"),
        pytest.param(
            ["123456789012345678.5", "0.000123456789012345678", "9300000000000000001e0", "1.0"],
            id="19-digits",
        ),
        pytest.param(["1e-400", "-1e-400", "2.5e-324", "5e-324"], id="underflow"),
        pytest.param(["1e-1000", "-2.5E-01000", "1.5e0010", "7e-0005"], id="long-exponents"),
        pytest.param(["1e22", "1e23", "1.0e-22", "1.0e-23"], id="range-ends"),
    ],
)
def test_reader_matches_float_on_hand_built_numbers(tmp_path, tokens):
    path = tmp_path / "hand.json"
    path.write_text(canonical_text(tokens), encoding="utf-8")
    expected = np.array([float(token) for token in tokens])
    assert outcome(read_by_arrays, path) == outcome(json_reader, path)
    assert outcome(read_by_arrays, path)[1] == bits(expected).tolist()


VALID_HEAD = '{"rows": 1, "cols": 2, "data": '
# Documents the array reader does not take, each read (or rejected) by the
# JSON route; the array reader must not take them either.
FALLBACK_TEXTS = {
    "leading-zero": VALID_HEAD + "[[01.5, 0.0], [1.0, 2.0]]}\n",
    "point-last": VALID_HEAD + "[[1., 0.0], [1.0, 2.0]]}\n",
    "point-first": VALID_HEAD + "[[.5, 0.0], [1.0, 2.0]]}\n",
    "plus-sign": VALID_HEAD + "[[+1.0, 0.0], [1.0, 2.0]]}\n",
    "minus-zero-integer": VALID_HEAD + "[[-0, 0.0], [1.0, 2.0]]}\n",
    "integer": VALID_HEAD + "[[1, 0.0], [1.0, 2.0]]}\n",
    "true": VALID_HEAD + "[[true, 0.0], [1.0, 2.0]]}\n",
    "nan": VALID_HEAD + "[[NaN, 0.0], [1.0, 2.0]]}\n",
    "infinity": VALID_HEAD + "[[-Infinity, 0.0], [1.0, 2.0]]}\n",
    "long-integer": VALID_HEAD + f"[[{'7' * 400}, 0.0], [1.0, 2.0]]}}\n",
    "19-digit-integer": VALID_HEAD + "[[1234567890123456789, 0.0], [1.0, 2.0]]}\n",
    "long-number": VALID_HEAD + f"[[0.{'3' * 60}, 0.0], [1.0, 2.0]]}}\n",
    "two-points": VALID_HEAD + "[[1.2.3, 0.0], [1.0, 2.0]]}\n",
    "two-marks": VALID_HEAD + "[[1e5e5, 0.0], [1.0, 2.0]]}\n",
    "mark-last": VALID_HEAD + "[[1.5e, 0.0], [1.0, 2.0]]}\n",
    "point-after-mark": VALID_HEAD + "[[1e5.5, 0.0], [1.0, 2.0]]}\n",
    "crlf": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0]]}\r\n",
    "cr-inside": VALID_HEAD + "[[1.5, 0.0],\r\n[1.0, 2.0]]}\n",
    "tab": VALID_HEAD + "[[1.5,\t0.0], [1.0, 2.0]]}\n",
    "no-space": VALID_HEAD + "[[1.5,0.0], [1.0, 2.0]]}\n",
    "bom": "\ufeff" + VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0]]}\n",
    "non-ascii": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.\u0661]]}\n",
    "trailing-space": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0]]}\n ",
    "no-final-newline": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0]]}",
    "two-newlines": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0]]}\n\n",
    "keys-reordered": '{"cols": 2, "rows": 1, "data": [[1.5, 0.0], [1.0, 2.0]]}\n',
    "extra-key": VALID_HEAD + '[[1.5, 0.0], [1.0, 2.0]], "name": "t"}\n',
    "key-repeated": VALID_HEAD + '[[1.5, 0.0], [1.0, 2.0]], "rows": 2}\n',
    "count-short": VALID_HEAD + "[[1.5, 0.0]]}\n",
    "count-long": VALID_HEAD + "[[1.5, 0.0], [1.0, 2.0], [3.0, 4.0]]}\n",
    "shape-past-the-text": '{"rows": 100000, "cols": 100000, "data": [[1.5, 0.0]]}\n',
    "shape-past-int-limit": f'{{"rows": 1{"0" * 5000}, "cols": 1, "data": [[1.5, 0.0]]}}\n',
    "empty-data": '{"rows": 1, "cols": 1, "data": []}\n',
    "triple": VALID_HEAD + "[[1.5, 0.0, 2.0], [1.0, 2.0]]}\n",
    "nested": VALID_HEAD + "[[[1.5], 0.0], [1.0, 2.0]]}\n",
    "empty-file": "",
}


# Canonical documents that the JSON route reads or rejects for their values.
EDGE_TEXTS = {
    "overflow": VALID_HEAD + "[[1e400, 0.0], [1.0, 2.0]]}\n",
    "19-digit-significand": VALID_HEAD + "[[1.234567890123456789, 0.0], [1.0, 2.0]]}\n",
    "underflow": VALID_HEAD + "[[1e-400, -1e-400], [1.0, 2.0]]}\n",
}


@pytest.mark.parametrize(
    "text, taken",
    [pytest.param(text, False, id=name) for name, text in FALLBACK_TEXTS.items()]
    + [pytest.param(text, True, id=name) for name, text in EDGE_TEXTS.items()],
)
def test_fallback_and_errors_are_the_json_routes(tmp_path, text, taken):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode())
    assert (matrixio._read_canonical(path) is not None) == taken
    assert outcome(read_matrix, path) == outcome(json_reader, path)


@pytest.mark.parametrize(
    "doc", [doc for doc, _ in MALFORMED], ids=[f"doc{i}" for i in range(len(MALFORMED))]
)
def test_malformed_documents_read_as_by_the_json_route(tmp_path, doc):
    # Their JSON text: some become valid (a tuple is written as a list).
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, default=repr) + "\n", encoding="utf-8")
    assert outcome(read_matrix, path) == outcome(json_reader, path)


def test_a_missing_file_raises_as_the_json_route(tmp_path):
    path = tmp_path / "absent.json"
    assert outcome(read_matrix, path) == outcome(json_reader, path)
    assert outcome(read_matrix, path)[0] is FileNotFoundError


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
def test_a_named_pipe_is_read_once(tmp_path):
    # A pipe can be read only once, so the array reader must leave it to
    # the JSON route unread.
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    a = np.array([[1.5 - 2j, 0.1]])
    text = json.dumps(matrix_to_doc(a)) + "\n"
    result = {}

    def write():
        with open(path, "w", encoding="utf-8") as pipe:
            pipe.write(text)

    def read():
        result["a"] = read_matrix(path)

    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert np.array_equal(bits(result["a"]), bits(a))


@pytest.mark.parametrize("block", [128, 300, 4096])
def test_every_written_file_reads_without_json_in_any_block_size(
    tmp_path, monkeypatch, block
):
    # Blocks of one entry or a few: pieces end at every kind of boundary.
    monkeypatch.setattr(matrixio, "_READ_BYTES", block)
    path = tmp_path / "m.json"
    for a in _writer_cases():
        write_matrix(path, a)
        assert np.array_equal(bits(read_by_arrays(path)), bits(json_reader(path)))
        assert np.array_equal(bits(read_by_arrays(path)), bits(as_operator(a)))


@pytest.mark.parametrize("a", _dense_factors())
def test_dense_factors_read_without_json(tmp_path, a):
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert np.array_equal(bits(read_by_arrays(path)), bits(json_reader(path)))


def test_a_file_of_many_blocks_is_read_in_pieces(tmp_path, monkeypatch):
    pieces = []
    inner = matrixio._piece_values

    def counted(piece):
        pieces.append(len(piece))
        return inner(piece)

    monkeypatch.setattr(matrixio, "_piece_values", counted)
    rng = np.random.default_rng(256)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    path = tmp_path / "m.json"
    write_matrix(path, a)
    assert np.array_equal(bits(read_by_arrays(path)), bits(a))
    assert len(pieces) > 10
    assert max(pieces) <= matrixio._READ_BYTES + matrixio._ENTRY_MAX

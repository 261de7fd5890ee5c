"""Tests for the matrix file format: round trips and validation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarops.matrixio import doc_to_matrix, matrix_to_doc, read_matrix, write_matrix

FINITE = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


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


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"rows": 2, "cols": 2},
        {"rows": 2.0, "cols": 2, "data": [[0.0, 0.0]] * 4},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 3},
        {"rows": 1, "cols": 1, "data": [[0.0]]},
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
        {"rows": 1, "cols": 1, "data": [0.0]},
    ],
)
def test_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        doc_to_matrix(doc)


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

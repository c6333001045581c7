"""Tests for the shared-array views (WordArray, Matrix)."""

import numpy as np
import pytest

from repro import make_kernel
from repro.runtime import Matrix, Read, WordArray, Write
from repro.runtime.program import ProgramAPI


@pytest.fixture
def api():
    return ProgramAPI(make_kernel(n_processors=2, defrost_enabled=False))


def test_word_array_ops(api):
    arena = api.arena(1)
    arr = WordArray.alloc(arena, 16, name="a")
    op = arr.read(4, 3)
    assert isinstance(op, Read)
    assert op.va == arr.base_va + 4 and op.n == 3
    wop = arr.write(2, 7)
    assert isinstance(wop, Write) and wop.va == arr.base_va + 2


def test_word_array_bounds(api):
    arena = api.arena(1)
    arr = WordArray.alloc(arena, 8)
    with pytest.raises(IndexError):
        arr.read(8)
    with pytest.raises(IndexError):
        arr.read(6, 3)
    with pytest.raises(IndexError):
        arr.write(7, np.zeros(2, dtype=np.int64))


def test_empty_array_rejected():
    with pytest.raises(ValueError):
        WordArray(0, 0)


def test_matrix_row_major_addressing(api):
    arena = api.arena(2)
    m = Matrix(arena.base_va, 4, 5, name="m")
    assert m.va(0, 0) == arena.base_va
    assert m.va(1, 0) == arena.base_va + 5
    assert m.va(2, 3) == arena.base_va + 13


def test_matrix_row_padding(api):
    arena = api.arena(8)
    wpp = api.kernel.params.words_per_page
    m = Matrix.alloc(arena, 3, 10, pad_rows_to_pages=True)
    assert m.row_stride == wpp
    assert m.va(1, 0) % wpp == 0
    dense = Matrix.alloc(arena, 3, 10, pad_rows_to_pages=False)
    assert dense.row_stride == 10


def test_matrix_row_slices(api):
    arena = api.arena(2)
    m = Matrix(arena.base_va, 3, 8)
    op = m.read_row(1, start=2)
    assert op.va == m.va(1, 2) and op.n == 6
    wop = m.write_row(2, np.zeros(4, dtype=np.int64), start=1)
    assert wop.va == m.va(2, 1)


def test_matrix_bounds(api):
    arena = api.arena(2)
    m = Matrix(arena.base_va, 3, 8)
    with pytest.raises(IndexError):
        m.va(3, 0)
    with pytest.raises(IndexError):
        m.va(0, 8)
    with pytest.raises(IndexError):
        m.read_row(0, start=5, n=4)
    with pytest.raises(IndexError):
        m.write_row(0, np.zeros(6, dtype=np.int64), start=4)
    # a row slice checks its row and start as ``va`` does, as well as
    # its length
    with pytest.raises(IndexError):
        m.read_row(3)
    with pytest.raises(IndexError):
        m.read_row(-1, n=1)
    with pytest.raises(IndexError):
        m.write_row(3, np.zeros(1, dtype=np.int64))
    with pytest.raises(IndexError):
        m.write_row(0, np.zeros(0, dtype=np.int64), start=8)


def test_matrix_stride_validation():
    with pytest.raises(ValueError):
        Matrix(0, 2, 8, row_stride=4)
    with pytest.raises(ValueError):
        Matrix(0, 0, 8)

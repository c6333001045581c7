"""Shared data-structure views over coherent memory.

Thin wrappers that turn array indexing into the word-addressed
:class:`~repro.runtime.ops.Read`/:class:`~repro.runtime.ops.Write`
operations thread bodies yield.  A :class:`Matrix` can pad its rows to
page boundaries -- the allocation discipline section 6 of the paper
recommends so that rows owned by different threads do not share pages.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .alloc import Arena
from .ops import Read, Write


class WordArray:
    """A 1-D array of words in coherent memory."""

    def __init__(self, base_va: int, n: int, name: str = "") -> None:
        if n < 1:
            raise ValueError("empty array")
        self.base_va = base_va
        self.n = n
        self.name = name

    @classmethod
    def alloc(
        cls, arena: Arena, n: int, name: str = "",
        page_aligned: bool = True,
    ) -> "WordArray":
        return cls(arena.alloc(n, page_aligned=page_aligned), n, name)

    def va(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"{self.name}[{i}] out of range (n={self.n})")
        return self.base_va + i

    def read(self, i: int, n: int = 1) -> Read:
        self.va(i)
        if i + n > self.n:
            raise IndexError(f"{self.name}[{i}:{i + n}] out of range")
        return Read(self.base_va + i, n)

    def write(self, i: int, value: Union[int, np.ndarray]) -> Write:
        self.va(i)
        n = 1 if np.isscalar(value) else np.size(value)  # 0-d: one word
        if i + n > self.n:
            raise IndexError(f"{self.name}[{i}:{i + n}] out of range")
        return Write(self.base_va + i, value)


class Matrix:
    """A row-major 2-D word matrix, optionally with page-padded rows."""

    def __init__(
        self,
        base_va: int,
        rows: int,
        cols: int,
        row_stride: Optional[int] = None,
        name: str = "",
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("empty matrix")
        self.base_va = base_va
        self.rows = rows
        self.cols = cols
        self.row_stride = row_stride if row_stride is not None else cols
        if self.row_stride < cols:
            raise ValueError("row stride smaller than the row")
        self.name = name

    @classmethod
    def alloc(
        cls,
        arena: Arena,
        rows: int,
        cols: int,
        name: str = "",
        pad_rows_to_pages: bool = False,
    ) -> "Matrix":
        """Allocate in an arena; optionally pad each row to whole pages."""
        wpp = arena.words_per_page
        if pad_rows_to_pages:
            stride = ((cols + wpp - 1) // wpp) * wpp
        else:
            stride = cols
        base = arena.alloc(rows * stride, page_aligned=True)
        return cls(base, rows, cols, row_stride=stride, name=name)

    @property
    def n_words(self) -> int:
        return self.rows * self.row_stride

    def va(self, r: int, c: int = 0) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(
                f"{self.name}[{r},{c}] out of range "
                f"({self.rows}x{self.cols})"
            )
        return self.base_va + r * self.row_stride + c

    def read(self, r: int, c: int) -> Read:
        return Read(self.va(r, c), 1)

    def write(self, r: int, c: int, value: int) -> Write:
        return Write(self.va(r, c), value)

    def read_row(self, r: int, start: int = 0, n: Optional[int] = None
                 ) -> Read:
        if n is None:
            n = self.cols - start
        va = self.va(r, start)
        if start + n > self.cols:
            raise IndexError(f"{self.name} row {r} slice out of range")
        return Read(va, n)

    def write_row(
        self, r: int, values: np.ndarray, start: int = 0
    ) -> Write:
        va = self.va(r, start)
        if start + len(values) > self.cols:
            raise IndexError(f"{self.name} row {r} slice out of range")
        return Write(va, values)

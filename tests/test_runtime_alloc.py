"""Tests for arenas: the page-aligned allocation-zone library."""

import pytest

from repro import make_kernel
from repro.runtime import Arena, ArenaFullError
from repro.runtime.program import ProgramAPI


@pytest.fixture
def api():
    return ProgramAPI(make_kernel(n_processors=2, defrost_enabled=False))


def test_arena_base_and_capacity(api):
    arena = api.arena(4, label="z")
    wpp = api.kernel.params.words_per_page
    assert arena.n_words == 4 * wpp
    assert arena.base_va == arena.vpage_base * wpp


def test_sequential_arenas_disjoint(api):
    a = api.arena(2)
    b = api.arena(3)
    assert b.base_va >= a.base_va + a.n_words


def test_word_allocation_bumps(api):
    arena = api.arena(1)
    va1 = arena.alloc(10)
    va2 = arena.alloc(5)
    assert va2 == va1 + 10


def test_page_aligned_allocation(api):
    arena = api.arena(3)
    wpp = api.kernel.params.words_per_page
    arena.alloc(10)
    va = arena.alloc(4, page_aligned=True)
    assert va % wpp == 0
    assert va == arena.base_va + wpp


def test_page_aligned_when_already_aligned(api):
    arena = api.arena(2)
    va = arena.alloc(4, page_aligned=True)
    assert va == arena.base_va  # no page wasted


def test_alloc_pages(api):
    arena = api.arena(4)
    wpp = api.kernel.params.words_per_page
    va = arena.alloc(2 * wpp, page_aligned=True)  # two whole pages
    assert va % wpp == 0
    assert arena.words_free == 2 * wpp


def test_exhaustion(api):
    arena = api.arena(1)
    wpp = api.kernel.params.words_per_page
    arena.alloc(wpp)
    with pytest.raises(ArenaFullError):
        arena.alloc(1)


def test_bad_sizes_rejected(api):
    arena = api.arena(1)
    with pytest.raises(ValueError):
        arena.alloc(0)


def test_vpage_and_cpage_of(api):
    arena = api.arena(2, label="z")
    wpp = api.kernel.params.words_per_page
    va = arena.alloc(wpp + 5)
    assert arena.vpage_of(va) == arena.vpage_base
    assert arena.vpage_of(va + wpp) == arena.vpage_base + 1
    cpage = arena.cpage_of(va)
    assert cpage is arena.obj.cpages[0]
    with pytest.raises(ValueError):
        arena.vpage_of(arena.base_va - 1)


def test_backing_forwarded(api):
    import numpy as np

    backing = np.arange(10, dtype=np.int64)
    arena = api.arena(1, backing=backing)
    assert np.array_equal(arena.obj.cpages[0].backing, backing)

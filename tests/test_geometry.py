import pytest
from hypothesis import given, strategies as st

from cstack.compressed import CompressedStack, PartitionGeometry
from cstack.core import ContractError


def test_depth_examples():
    assert PartitionGeometry.for_input(2 ** 20, 10).h == 6
    assert PartitionGeometry.for_input(1024, 1024).h == 1
    assert PartitionGeometry.for_input(10 ** 6, 2).h == 19


def test_level_sizes_are_powers_of_p():
    g = PartitionGeometry.for_input(16, 2)
    assert g.sizes == (8, 4, 2)
    g = PartitionGeometry.for_input(2 ** 20, 10)
    assert g.sizes == (10 ** 6, 10 ** 5, 10 ** 4, 10 ** 3, 10 ** 2, 10)
    g = PartitionGeometry.for_input(10 ** 6, 2)
    assert g.sizes[0] == 2 ** 19
    assert g.sizes[-1] == 2


def test_sizes_strictly_decreasing_and_deepest_at_most_p():
    for n, p in [(16, 2), (1000, 3), (4096, 64), (10 ** 6, 7), (2, 2), (1, 5)]:
        g = PartitionGeometry.for_input(n, p)
        assert all(a > b for a, b in zip(g.sizes, g.sizes[1:]))
        assert g.sizes[-1] <= p
        assert n <= p ** (g.h + 1)
        assert g.p == g.sizes[-1] == p
        # so is every sub-geometry: each level of g's, and each step of a
        # chain of level-1 ones down to a level-h block's one-block layout
        for a in (1, n // 3 + 1, n):
            chain = g
            for lv in range(1, g.h + 1):
                sub = g.sub_geometry(lv, g.block_start(a, lv))
                chain = chain.sub_geometry(1, chain.block_start(a, 1))
                assert sub.p == sub.sizes[-1] == chain.p == chain.sizes[-1] == p
            assert chain.h == 1


def test_for_input_picks_the_fewest_powers_of_p_that_cover_n():
    for p in (2, 3, 4, 7, 15, 64, 181):
        for n in sorted({1, 2, p, p + 1, p * p, p * p + 1, 1000, 4096, 32768, 10 ** 6}):
            g = PartitionGeometry.for_input(n, p)
            h = g.h
            assert g.sizes == tuple(p ** (h - i) for i in range(h))
            assert g.last_expected == p ** (h + 1) >= n
            assert h == 1 or p ** h < n
            assert g.grown() == PartitionGeometry.for_input(g.last_expected + 1, p)


def test_p_below_two_rejected():
    with pytest.raises(ContractError):
        PartitionGeometry.for_input(100, 1)
    # without a geometry, both sizes are required
    for args, missing in [((), "n_expect"), ((None, 4), "n_expect"), ((16, None), "p")]:
        with pytest.raises(ContractError, match=missing):
            CompressedStack(*args)


def test_cross_level_and_block_start():
    g = PartitionGeometry.for_input(16, 2)  # sizes (8, 4, 2)
    assert g.cross_level(1, 2) is None
    assert g.cross_level(2, 3) == 3
    assert g.cross_level(4, 5) == 2
    assert g.cross_level(8, 9) == 1
    assert g.block_start(5, 1) == 1
    assert g.block_start(5, 2) == 5
    assert g.block_start(11, 1) == 9
    assert g.block_start(11, 3) == 11


@given(
    st.integers(min_value=2, max_value=500),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_crossing_a_level_crosses_all_deeper_levels(n, p, a, b):
    g = PartitionGeometry.for_input(n, p)
    u, v = min(a, b), max(a, b)
    lvl = g.cross_level(u, v)
    if lvl is None:
        for deep in range(1, g.h + 1):
            assert g.block_start(u, deep) == g.block_start(v, deep)
    else:
        for shallow in range(1, lvl):
            assert g.block_start(u, shallow) == g.block_start(v, shallow)
        for deep in range(lvl, g.h + 1):
            if u != v:
                assert g.block_start(u, deep) != g.block_start(v, deep)


def test_sub_geometry_matches_parent_levels():
    g = PartitionGeometry.for_input(2 ** 12, 4)
    sub = g.sub_geometry(2, g.block_start(777, 2))
    assert sub.sizes == g.sizes[2:]
    assert sub.origin == g.block_start(777, 2)
    # sub-level boundaries line up with the parent's deeper levels
    for idx in range(sub.origin, sub.origin + g.sizes[1]):
        assert sub.block_start(idx, 1) == g.block_start(idx, 3)


@given(
    st.integers(min_value=2, max_value=5000),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=200),
)
def test_same_deepest_block_means_no_crossing(n, p, depth, a, gap):
    # CompressedStack.push skips cross_level on this premise, in replays too.
    g = PartitionGeometry.for_input(n, p)
    lv = min(depth, g.h)
    if lv:
        g = g.sub_geometry(lv, g.block_start(a, lv))
    u = g.origin + (a - 1) % g.sizes[0]
    v = u + gap
    s = g.sizes[-1]
    if (u - g.origin) // s == (v - g.origin) // s:
        assert g.cross_level(u, v) is None
    else:
        assert g.cross_level(u, v) is not None

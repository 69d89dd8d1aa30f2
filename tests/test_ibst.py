import math
import random

import pytest

from lzse.ibst import Ibst

from helpers import hint_for_reference, subtree_spans


def interval(t: Ibst, i: int) -> tuple[int, int]:
    return t.boundaries[i], t.boundaries[i + 1]


def test_construction_example():
    t = Ibst([1, 2, 3, 5, 8, 12])
    assert interval(t, t.root) == (5, 8)
    left = t.left[t.root]
    assert interval(t, left) == (3, 5)
    assert interval(t, t.left[left]) == (2, 3)
    assert interval(t, t.left[t.left[left]]) == (1, 2)
    assert interval(t, t.right[t.root]) == (8, 12)


def test_construction_single_interval():
    t = Ibst([0, 7])
    assert t.m == 1 and t.root == 0
    assert t.search_counted(0)[0] == 0 and t.search_counted(6)[0] == 0


def test_construction_second_example():
    t = Ibst([0, 2, 3, 8])
    assert interval(t, t.root) == (3, 8)
    left = t.left[t.root]
    assert interval(t, left) == (0, 2)
    assert interval(t, t.right[left]) == (2, 3)


def test_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        Ibst([3, 3])
    with pytest.raises(ValueError):
        Ibst([5])
    with pytest.raises(ValueError):
        Ibst([1, 4, 2])


def test_search_examples():
    t = Ibst([1, 2, 3, 5, 8, 12])
    idx, visits = t.search_counted(10)
    assert idx == 4 and visits == 2
    assert t.search_counted(1)[0] == 0
    assert t.search_counted(11)[0] == 4
    with pytest.raises(ValueError):
        t.search_counted(0)[0]
    with pytest.raises(ValueError):
        t.search_counted(12)[0]


def test_hint_examples():
    t = Ibst([1, 2, 3, 5, 8, 12])
    full = t.hint_for(0, t.m)
    assert full.center == t.root
    single = t.hint_for(2, 3)
    assert single.center == 2 and single.left is None and single.right is None
    h = t.hint_for(0, 3)  # intervals 0..2, boundary range [1, 5)
    assert interval(t, h.center) == (3, 5)
    assert interval(t, h.left) == (2, 3)
    assert h.right is None


def test_hinted_search_examples():
    t = Ibst([1, 2, 3, 5, 8, 12])
    h = t.hint_for(0, 3)
    idx, visits = t.search_with_hint_counted(h, 1)
    assert idx == 0
    # q inside the center's own interval costs one visit
    idx, visits = t.search_with_hint_counted(h, 3)
    assert idx == 2 and visits == 1
    single = t.hint_for(2, 3)
    assert t.search_with_hint_counted(single, 4)[0] == 2
    with pytest.raises(ValueError):
        t.search_with_hint_counted(h, 8)


def test_hint_range_validation():
    t = Ibst([0, 1, 2])
    with pytest.raises(ValueError):
        t.hint_for(1, 1)
    with pytest.raises(ValueError):
        t.hint_for(0, 3)


def random_tree(rng: random.Random, max_m: int = 512) -> Ibst:
    m = rng.randint(1, max_m)
    bs = [rng.randint(-30, 30)]
    for _ in range(m):
        bs.append(bs[-1] + rng.randint(1, 6))
    return Ibst(bs)


def test_random_equivalence_halving_and_bounds():
    rng = random.Random(2)
    for _ in range(250):
        t = random_tree(rng, 128)
        bs = t.boundaries
        spans = {v: sub for v, _, sub in subtree_spans(t)}
        for v in range(t.m):
            for ch in (t.left[v], t.right[v]):
                if ch >= 0:
                    assert 2 * spans[ch] <= spans[v]
        root_span = bs[-1] - bs[0]
        ranges = [(i, min(i + 1 + (i % 6), t.m)) for i in range(t.m)]
        hints = [t.hint_for(i, j) for i, j in ranges]
        for q in range(bs[0], bs[-1]):
            x, visits = t.search_counted(q)
            assert bs[x] <= q < bs[x + 1]
            assert visits <= math.log2(root_span / (bs[x + 1] - bs[x])) + 2
        for h in hints:
            for q in range(bs[h.i], bs[h.j]):
                x, visits = t.search_with_hint_counted(h, q)
                assert bs[x] <= q < bs[x + 1]
                ratio = (bs[h.j] - bs[h.i]) / (bs[x + 1] - bs[x])
                assert visits <= math.log2(ratio) + 3


def test_hint_descents_match_root_descents():
    # hint_for finds the side LCAs from the center's children; the reference
    # finds all three from the root.  Every boundary range of every tree.
    rng = random.Random(2)
    ranges = 0
    for _ in range(250):
        t = random_tree(rng, 128)
        for i in range(t.m):
            for j in range(i + 1, t.m + 1):
                assert t.hint_for(i, j) == hint_for_reference(t, i, j)
                ranges += 1
    assert ranges > 100_000


def test_lca_sanity():
    t = Ibst([1, 2, 3, 5, 8, 12])
    assert t.lca(0, 4) == t.root
    assert t.lca(2, 2) == 2
    # lca of interval ids always lies between them in in-order position,
    # and it is the unique shallowest node with an id in that range
    rng = random.Random(8)
    for _ in range(50):
        tree = random_tree(rng, 64)
        depth = {tree.root: 0}
        frontier = [tree.root]
        while frontier:
            nxt = []
            for v in frontier:
                for ch in (tree.left[v], tree.right[v]):
                    if ch >= 0:
                        depth[ch] = depth[v] + 1
                        nxt.append(ch)
            frontier = nxt
        assert len(depth) == tree.m
        for _ in range(30):
            u = rng.randrange(tree.m)
            v = rng.randrange(tree.m)
            lo, hi = min(u, v), max(u, v)
            a = tree.lca(lo, hi)
            assert lo <= a <= hi
            assert tree.lca(hi, lo) == a
            assert all(depth[x] > depth[a] for x in range(lo, hi + 1) if x != a)

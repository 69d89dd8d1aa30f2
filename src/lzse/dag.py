"""Derivation DAG path counts, heavy-edge selection and heavy paths.

The derivation DAG of an LZSE factorization has an edge from each copy
factor to every factor inside its source range, children ordered left to
right.  s_i counts paths from factor i down to sinks, e_i counts paths
from sources down to factor i; their floor-log brackets decide which
edges are heavy.  Heavy edges form vertex-disjoint paths and any
source-to-sink path crosses at most 2*lg(nD) light edges.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .factorization import Factorization


def compute_path_counts(fact: Factorization) -> tuple[list[int], list[int], int]:
    """(s, e, nD): per-factor path counts and the number of maximal paths.

    Every path from factor i down to a sink ends at one symbol of F_i's
    expansion, so s_i = |F_i|.  e is filled in decreasing index order with
    activation/cancellation events at range ends (copy ranges only reference
    earlier indices), so each e_i is final before it is distributed.  Nodes
    that receive nothing are sources and get e_i = 1.  Total work is linear
    in z.
    """
    z = fact.z
    bounds, start, count = fact.bounds, fact.start, fact.count
    s = [bounds[i + 1] - bounds[i] for i in range(z)]

    e = [0] * z
    activate = [0] * (z + 1)   # contribution starts applying at index r
    cancel = [0] * (z + 1)     # contribution stops applying at index l - 1
    acc = 0
    n_d = 0
    for i in range(z, 0, -1):
        acc += activate[i] - cancel[i]
        ei = e[i - 1] = acc if acc else 1
        if acc == 0:
            n_d += s[i - 1]  # no incoming edge: a source node
        l = start[i - 1]
        if l:
            activate[l + count[i - 1] - 1] += ei
            if l >= 2:
                cancel[l - 1] += ei
    return s, e, n_d


def select_heavy_edges(fact: Factorization, s: list[int], e: list[int]) -> list[int]:
    """heavy_child[i-1] = child index of factor i's heavy edge, or 0 for none.

    s and e are the path counts of :func:`compute_path_counts`.  The edge
    from a copy factor i to a child j is heavy iff both floor-log pairs
    agree: lg(s) bracket and lg(e) bracket.  A child in i's s bracket has
    s_j >= 2**(lg s_i) > s_i / 2, so it spans more than half of i's source:
    it is the child under the source's middle symbol src_l + s_i // 2, and
    the unique maximum of s over the source.  Only that child is tested.
    """
    bounds = fact.bounds
    heavy = [0] * fact.z
    for i, l in enumerate(fact.start):
        if not l:
            continue
        j = bisect_right(bounds, bounds[l - 1] + s[i] // 2)
        if (s[i].bit_length() == s[j - 1].bit_length()
                and e[i].bit_length() == e[j - 1].bit_length()):
            heavy[i] = j
    return heavy


class HeavyPathDecomposition(NamedTuple):
    """Disjoint heavy paths covering every factor, with a locator per factor."""

    paths: list[list[int]]
    locator: list[tuple[int, int]]  # factor i at [i - 1]: (path id, 1-based position)
    heavy_child: list[int]


def heavy_paths(fact: Factorization, heavy_child: list[int]) -> HeavyPathDecomposition:
    """Maximal chains under heavy_child; every factor lands in exactly one path."""
    z = fact.z
    incoming = [0] * (z + 1)
    for i in range(1, z + 1):
        j = heavy_child[i - 1]
        if j:
            if incoming[j]:
                raise RuntimeError(f"factor {j} has two incoming heavy edges")
            incoming[j] = i
    paths: list[list[int]] = []
    locator: list[tuple[int, int]] = [(0, 0)] * z
    for i in range(1, z + 1):
        if incoming[i]:
            continue
        path = []
        v = i
        while v:
            path.append(v)
            locator[v - 1] = (len(paths), len(path))
            v = heavy_child[v - 1]
        paths.append(path)
    if sum(len(p) for p in paths) != z:
        raise RuntimeError("heavy edges form a cycle")
    return HeavyPathDecomposition(paths, locator, heavy_child)


def max_light_edges_on_path(fact: Factorization, decomposition: HeavyPathDecomposition) -> int:
    """Maximum number of light edges on any path through the derivation DAG."""
    z = fact.z
    heavy_child = decomposition.heavy_child
    ml = [0] * (z + 1)
    best = 0
    for i, (l, k) in enumerate(zip(fact.start, fact.count), start=1):
        if l:
            v = 0
            for j in range(l, l + k):
                v = max(v, ml[j] + (0 if heavy_child[i - 1] == j else 1))
            ml[i] = v
            best = max(best, v)
    return best

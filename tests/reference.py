"""Reference implementations that only the tests call: permutation
arithmetic, pointer-chasing cycle statistics, jacket genera, ribbon-map
connectivity and strongly connected components of a digraph.  The library
computes none of these on its own paths; the tests use them as independent
checks of what it does compute."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from chromaplex import colored_graph as cg
from chromaplex import models
from chromaplex.config_digraph import Digraph
from chromaplex.perm import Permutation


@dataclass(frozen=True)
class CycleStats:
    cycle_count: int
    cycle_type: tuple[int, ...]  # sorted ascending, sums to n
    fixed_points: int
    sign: int


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b)(k) = a(b(k))."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return Permutation(a.images[b.images], _trusted=True)


def invert(a: Permutation) -> Permutation:
    inv = np.empty(a.n, dtype=np.int64)
    inv[a.images] = np.arange(a.n, dtype=np.int64)
    return Permutation(inv, _trusted=True)


def cycle_stats(a: Permutation) -> CycleStats:
    """Orbit decomposition by pointer chasing with visitation marks."""
    img = a.images.tolist()
    seen = bytearray(a.n)
    lengths: list[int] = []
    fixed = 0
    for i in range(a.n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = img[j]
                length += 1
            lengths.append(length)
            if length == 1:
                fixed += 1
    lengths.sort()
    count = len(lengths)
    return CycleStats(
        cycle_count=count,
        cycle_type=tuple(lengths),
        fixed_points=fixed,
        sign=-1 if (a.n - count) % 2 else 1,
    )


def jacket_genus(G: cg.ColoredGraph, spec: cg.JacketSpec) -> Fraction:
    """Genus of the jacket's embedding, from its face count."""
    return cg._genus_from_faces(G, cg.jacket_faces(G, spec))


def ribbon_is_connected(m: models.RibbonMap) -> bool:
    return models.ribbon_component_count(m) == 1


def scc_count(d: Digraph) -> int:
    """Strongly connected components, from scipy's public search."""
    graph = csr_array((np.ones(d.m), (d.tails, d.heads)), shape=(d.n, d.n))
    # scipy's strong-component search never returns on parallel arcs (seen
    # with scipy 1.17), so merge them first.
    graph.sum_duplicates()
    return connected_components(graph, directed=True, connection="strong")[0]

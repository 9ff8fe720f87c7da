"""Bipartite (D+1)-edge-colored graphs encoded as permutation tuples.

A graph on 2p labelled vertices (black 1..p, white 1..p) is a tuple
(alpha_0, ..., alpha_D) of permutations of {1..p}: color i joins black k to
white alpha_i(k).  Faces (bicolored cycles), bubbles (components of
color-restricted subgraphs), jackets (regular embeddings induced by a cyclic
color order) and the degree derived from jacket genera are all computed here,
faces and bubbles alike as components on one csgraph kernel.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .perm import Permutation


@dataclass(frozen=True)
class ColoredGraph:
    D: int
    p: int
    alphas: tuple[Permutation, ...]

    @property
    def colors(self) -> range:
        return range(self.D + 1)

    @property
    def n_vertices(self) -> int:
        return 2 * self.p


@dataclass(frozen=True)
class Bubble:
    """A connected component of the subgraph retaining only `colors`."""

    colors: frozenset[int]
    black_vertices: tuple[int, ...]  # 1-based, sorted
    white_vertices: tuple[int, ...]


@dataclass(frozen=True)
class JacketSpec:
    """A (D+1)-cycle on the color set, stored as a successor map."""

    tau: tuple[int, ...]  # tau[i] = color following i

    def __post_init__(self):
        n = len(self.tau)
        if sorted(self.tau) != list(range(n)):
            raise ValueError("successor map is not a permutation of the colors")
        seen = 1
        c = self.tau[0]
        while c != 0:
            c = self.tau[c]
            seen += 1
        if seen != n:
            raise ValueError("successor map is not a single (D+1)-cycle")


def build(D: int, p: int, alphas: Sequence[Permutation]) -> ColoredGraph:
    if D < 1:
        raise ValueError("need at least two colors (D >= 1)")
    if p < 1:
        raise ValueError("need p >= 1")
    if len(alphas) != D + 1:
        raise ValueError(f"expected {D + 1} permutations, got {len(alphas)}")
    for i, a in enumerate(alphas):
        if a.n != p:
            raise ValueError(f"alpha_{i} has size {a.n}, expected {p}")
    return ColoredGraph(D=D, p=p, alphas=tuple(alphas))


def _check_colors(G: ColoredGraph, colors: Iterable[int]) -> tuple[int, ...]:
    cs = tuple(sorted(set(colors)))
    for c in cs:
        if not 0 <= c <= G.D:
            raise ValueError(f"color {c} outside {{0..{G.D}}}")
    return cs


def _components(
    n: int,
    heads: np.ndarray,
    tails: Optional[np.ndarray] = None,
    strong: bool = False,
) -> tuple[int, np.ndarray]:
    """(component count, per-vertex labels) of the graph on vertices 0..n-1,
    the one connectivity kernel of the package.

    Without `tails`, `heads` is an (r, w) array whose row k lists the heads
    of the w arcs leaving vertex k, and vertices r..n-1 have no arcs of
    their own: the CSR row pointer is then an arange and nothing is sorted.
    With `tails`, arc k runs tails[k] -> heads[k].  Weak components are
    labelled by first appearance in vertex order, which the canonical
    bubble order and the dual-complex point ids rely on; strong components
    (`strong=True`) are only counted by callers.
    """
    if tails is None:
        r, w = heads.shape
        indices = np.ascontiguousarray(heads, dtype=np.int32).reshape(-1)
        indptr = np.minimum(np.arange(n + 1, dtype=np.int32) * w, r * w)
    else:
        tails = np.asarray(tails, dtype=np.int32)
        indices = np.asarray(heads, dtype=np.int32)[np.argsort(tails, kind="stable")]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    graph = csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    if strong:
        # scipy's strong-component search never returns on parallel arcs
        # (seen with scipy 1.17), so merge them first.
        graph.sum_duplicates()
    return connected_components(
        graph, directed=strong, connection="strong" if strong else "weak"
    )


def _subgraph_components(G: ColoredGraph, colors: Sequence[int]) -> tuple[int, np.ndarray]:
    """Components over the 2p vertices (blacks 0..p-1, whites p..2p-1)
    keeping only the edges of `colors`."""
    p = G.p
    heads = np.empty((p, len(colors)), dtype=np.int32)
    for col, c in enumerate(colors):
        heads[:, col] = G.alphas[c].images
    return _components(2 * p, heads + p)


def bubbles(G: ColoredGraph, colors: Iterable[int]) -> list[Bubble]:
    """Connected components of the color-restricted subgraph, in canonical
    order (smallest black vertex first, pure-white components after), which
    is the kernel's first-appearance label order."""
    cs = _check_colors(G, colors)
    p = G.p
    n_comp, labels = _subgraph_components(G, cs)
    members: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_comp)]
    for v, lab in enumerate(labels.tolist()):
        members[lab][v >= p].append(v % p + 1)
    fro = frozenset(cs)
    return [
        Bubble(colors=fro, black_vertices=tuple(blk), white_vertices=tuple(wht))
        for blk, wht in members
    ]


def count_bubbles(G: ColoredGraph, colors: Iterable[int]) -> int:
    return _subgraph_components(G, _check_colors(G, colors))[0]


def component_labels(G: ColoredGraph, colors: Iterable[int]) -> tuple[np.ndarray, int]:
    """Per-vertex component label of the color-restricted subgraph, labels
    numbered by first appearance over blacks 0..p-1 then whites p..2p-1."""
    n_comp, labels = _subgraph_components(G, _check_colors(G, colors))
    return labels, n_comp


def block_components(heads: np.ndarray) -> np.ndarray:
    """Component count of each block of a (k, n, w) stack of disjoint graphs,
    in one kernel call: vertex v of block r has w arcs, to the block's
    vertices heads[r, v] (0-based; self-loops and repeats allowed)."""
    k, n, w = heads.shape
    offsets = np.arange(0, k * n, n)[:, None, None]
    # Vertex k*n is an extra isolated one.  Labels number components by first
    # appearance, so block r's labels run from its vertex 0's label up to
    # block r+1's, and the extra vertex's label is the total.
    firsts = _components(k * n + 1, (heads + offsets).reshape(-1, w))[1][::n]
    return firsts[1:] - firsts[:-1]


def cycle_counts(images: np.ndarray) -> np.ndarray:
    """Cycle count of each row of a (k, n) stack of 0-based permutation
    images: row r is a functional graph, and its cycles are that graph's
    components."""
    return block_components(images[:, :, None])


def face_counts(G: ColoredGraph, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Number of {i,j}-faces, the cycles of alpha_i o alpha_j^{-1}, for each
    (i, j) in `pairs`, from one kernel call.  Colors are not checked."""
    pairs = list(pairs)
    prods = np.empty((len(pairs), G.p), dtype=np.int64)
    for r, (i, j) in enumerate(pairs):
        prods[r, G.alphas[j].images] = G.alphas[i].images
    return cycle_counts(prods)


def face_count(G: ColoredGraph, i: int, j: int) -> int:
    """Number of {i,j}-faces: cycles of alpha_i o alpha_j^{-1}."""
    _check_colors(G, (i, j))
    if i == j:
        raise ValueError("a face needs two distinct colors")
    return int(face_counts(G, [(i, j)])[0])


def face_total(G: ColoredGraph) -> int:
    """b_2(G), the number of faces summed over all color pairs."""
    return int(face_counts(G, itertools.combinations(G.colors, 2)).sum())


def degree_from_b2(D: int, half_order: int, b2) -> Fraction:
    """(D-1)!/2 * (D(D-1)/2 * P + D - b2) for a graph on 2P vertices with b2
    faces; b2 may be a predicted mean face count.  D is not checked."""
    return Fraction(math.factorial(D - 1), 2) * (
        Fraction(D * (D - 1), 2) * half_order + D - b2
    )


def bubble_census(G: ColoredGraph) -> dict[int, int]:
    """b_k(G) for k = 0..D+1, bubble counts summed over color subsets of
    size k.  b_2 counts the cycles of permutation products, the rest count
    components of color-restricted subgraphs."""
    D, p = G.D, G.p
    census = {0: 2 * p, 1: (D + 1) * p, 2: face_total(G)}
    for k in range(3, D + 2):
        census[k] = sum(
            count_bubbles(G, subset)
            for subset in itertools.combinations(range(D + 1), k)
        )
    return census


def component_count(G: ColoredGraph) -> int:
    return _subgraph_components(G, G.colors)[0]


def is_connected(G: ColoredGraph) -> bool:
    return component_count(G) == 1


def canonical_jacket(D: int) -> JacketSpec:
    """The cyclic color order (0 1 ... D)."""
    return JacketSpec(tau=tuple(list(range(1, D + 1)) + [0]))


def all_jackets(D: int) -> Iterable[JacketSpec]:
    """All D! distinct (D+1)-cycles on {0..D}, inverses included."""
    for rest in itertools.permutations(range(1, D + 1)):
        cycle = (0,) + rest
        tau = [0] * (D + 1)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            tau[a] = b
        yield JacketSpec(tau=tuple(tau))


def _jacket_pairs(G: ColoredGraph, spec: JacketSpec) -> list[tuple[int, int]]:
    """The color pairs {i, tau(i)} whose faces make up the jacket."""
    if len(spec.tau) != G.D + 1:
        raise ValueError("jacket cycle length does not match the color count")
    return [(i, spec.tau[i]) for i in G.colors]


def jacket_faces(G: ColoredGraph, spec: JacketSpec) -> int:
    """Face count of the regular embedding induced by the color cycle:
    sum over i of the {i, tau(i)} face counts."""
    return int(face_counts(G, _jacket_pairs(G, spec)).sum())


def _genus_from_faces(G: ColoredGraph, F: int) -> Fraction:
    """Euler's relation 2 - 2g = F - (D+1)p + 2p for an embedding of G with
    F faces; integral for connected graphs."""
    return Fraction(2 - F + (G.D - 1) * G.p, 2)


def jacket_genus(G: ColoredGraph, spec: JacketSpec) -> Fraction:
    """Genus of the jacket's embedding, from its face count."""
    return _genus_from_faces(G, jacket_faces(G, spec))


def gurau_degree_via_faces(G: ColoredGraph) -> Fraction:
    """(D-1)!/2 * (D(D-1)/2 * p + D - b_2(G)), exact arithmetic."""
    if G.D < 2:
        raise ValueError("degree is defined for D >= 2")
    return degree_from_b2(G.D, G.p, face_total(G))


def gurau_degree_via_jackets(G: ColoredGraph) -> Fraction:
    """Half the sum of jacket genera over all D! color cycles, every jacket's
    faces summed from one face count per color pair (an {i,j}-face is a
    {j,i}-face).

    Refuses disconnected input: Euler's relation only pins the genus of a
    connected embedding.
    """
    if G.D < 2:
        raise ValueError("degree is defined for D >= 2")
    if not is_connected(G):
        raise ValueError("degree via jackets needs a connected graph")
    pairs = list(itertools.combinations(G.colors, 2))
    faces = dict(zip(pairs, face_counts(G, pairs).tolist()))
    total = Fraction(0)
    for spec in all_jackets(G.D):
        F = sum(faces[min(i, j), max(i, j)] for i, j in _jacket_pairs(G, spec))
        total += _genus_from_faces(G, F)
    return total / 2


def to_text(G: ColoredGraph) -> str:
    """Header "D p", then the D+1 permutation lines, color 0 first."""
    lines = [f"{G.D} {G.p}"]
    lines.extend(a.serialize() for a in G.alphas)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ColoredGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    try:
        D, p = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != D + 2:
        raise ValueError(f"expected {D + 1} permutation lines, got {len(lines) - 1}")
    alphas = [Permutation.deserialize(ln) for ln in lines[1:]]
    return build(D, p, alphas)

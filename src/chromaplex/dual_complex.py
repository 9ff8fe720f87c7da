"""The 0/1-skeleton of the complex dual to a colored graph.

Points are the D-bubbles (one color deleted), colored by the missing color;
1-simplices come from the (D-1)-bubbles (two colors deleted), each joining
the two points that contain it.  Parallel edges are collapsed for the graph
metric but their multiplicity is retained.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import colored_graph as cg


@dataclass(frozen=True)
class DualComplex:
    n_points: int
    point_colors: tuple[int, ...]          # color of each point
    point_sizes: tuple[int, ...]           # graph vertices inside each bubble
    adjacency: tuple[tuple[int, ...], ...]  # deduplicated neighbor lists
    edge_multiplicity: dict[tuple[int, int], int]
    point_by_color_vertex: tuple[tuple[int, ...], ...]  # [color][vertex] -> point id

    @property
    def n_edges(self) -> int:
        return len(self.edge_multiplicity)


class _Skeleton(NamedTuple):
    """The 1-skeleton as arrays, in the orders `build_dual_complex` keeps."""

    n_points: int
    point_of: np.ndarray  # (D+1, 2p) int64: [color][vertex] -> point id
    lo: np.ndarray        # edge (lo[e], hi[e]), lo < hi, first appearance
    hi: np.ndarray
    mult: np.ndarray      # (D-1)-bubbles behind each edge
    indptr: np.ndarray    # deduplicated adjacency as CSR, each row sorted
    indices: np.ndarray


def _stacked_labels(images: np.ndarray, keep: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the disjoint union of k subgraphs, block r keeping the
    colors keep[r], in one kernel call.  All blacks come first: black x of
    block r is vertex r*p + x and white x is vertex (k + r)*p + x."""
    k, w = keep.shape
    p = images.shape[1]
    heads = images[keep].transpose(0, 2, 1) + ((k + np.arange(k)) * p)[:, None, None]
    return cg._components(2 * k * p, heads.reshape(k * p, w))


def _skeleton(G: cg.ColoredGraph) -> _Skeleton:
    """Points from the D+1 one-color-deleted subgraphs, edges from the
    C(D+1, 2) pair-deleted ones: two kernel calls in all.

    Every bubble holds a black vertex (except the lone whites of D = 1,
    whose single pair block lists its blacks first anyway), so the
    first-appearance labels run block by block and, within a block, by
    smallest vertex: the point labels are the point ids, and the pair labels
    list the (D-1)-bubbles pair by pair in lexicographic order.
    """
    colors = tuple(G.colors)
    k, p = len(colors), G.p
    images = np.stack([a.images for a in G.alphas])
    keep = np.array([[c for c in colors if c != i] for i in colors], dtype=np.intp)
    n, labels = _stacked_labels(images, keep)
    labels = labels.astype(np.int64)
    point_of = np.concatenate((labels[: k * p].reshape(k, p), labels[k * p:].reshape(k, p)), axis=1)

    pairs = np.array(list(itertools.combinations(colors, 2)), dtype=np.intp)
    m = len(pairs)
    keep = np.array([[c for c in colors if c not in pair] for pair in pairs.tolist()],
                    dtype=np.intp)
    # D = 1 keeps no color: every vertex is its own (D-1)-bubble.
    labels = _stacked_labels(images, keep)[1]
    # a bubble's representative is the vertex where its label first appears
    running = np.maximum.accumulate(labels)
    reps = np.flatnonzero(np.r_[True, running[1:] > running[:-1]])
    white = reps >= m * p
    block, x = np.divmod(reps - white * (m * p), p)
    x += white * p
    # color i's point ids all lie below color j's for i < j
    lo, hi = point_of[pairs[block, 0], x], point_of[pairs[block, 1], x]
    _, first, mult = np.unique(lo * n + hi, return_index=True, return_counts=True)
    order = np.argsort(first)
    lo, hi, mult = lo[first[order]], hi[first[order]], mult[order]

    src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    by_src = np.argsort(src * n + dst)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return _Skeleton(n, point_of, lo, hi, mult, indptr, dst[by_src])


def build_dual_complex(G: cg.ColoredGraph) -> DualComplex:
    """Points from per-color bubble labels, edges from color-pair bubbles.

    Point ids run color by color, in the kernel's first-appearance label
    order; `edge_multiplicity` keeps its keys in order of first appearance
    over the color pairs in lexicographic order and, within a pair, over the
    (D-1)-bubbles by smallest vertex.  Disconnected graphs are allowed; the
    complex splits accordingly.
    """
    sk = _skeleton(G)
    n = sk.n_points
    # each color's first black vertex carries its first point id
    per_color = np.diff(np.append(sk.point_of[:, 0], n))
    nbrs = sk.indices.tolist()
    bounds = sk.indptr.tolist()
    return DualComplex(
        n_points=n,
        point_colors=tuple(np.repeat(np.arange(G.D + 1), per_color).tolist()),
        point_sizes=tuple(np.bincount(sk.point_of.ravel(), minlength=n).tolist()),
        adjacency=tuple(tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])),
        edge_multiplicity=dict(zip(zip(sk.lo.tolist(), sk.hi.tolist()), sk.mult.tolist())),
        point_by_color_vertex=tuple(tuple(row) for row in sk.point_of.tolist()),
    )


def distance(cx: DualComplex, u: int, v: int) -> Optional[int]:
    """Graph distance in the 1-skeleton; None when unreachable.

    Distances 0..2 are resolved from the adjacency sets, longer ones by
    breadth-first search.
    """
    n = cx.n_points
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"point id outside 0..{n - 1}")
    if u == v:
        return 0
    adj_u, adj_v = cx.adjacency[u], cx.adjacency[v]
    if len(adj_v) < len(adj_u):
        adj_u, adj_v = adj_v, adj_u
        small_is_u = False
    else:
        small_is_u = True
    target = v if small_is_u else u
    if target in adj_u:
        return 1
    v_set = set(adj_v)
    if any(w in v_set for w in adj_u):
        return 2
    seen = bytearray(n)
    seen[u] = 1
    frontier = deque([(u, 0)])
    while frontier:
        node, d = frontier.popleft()
        for w in cx.adjacency[node]:
            if w == v:
                return d + 1
            if not seen[w]:
                seen[w] = 1
                frontier.append((w, d + 1))
    return None


def distance_two(
    n: int, indptr: np.ndarray, indices: np.ndarray, uv: np.ndarray
) -> np.ndarray:
    """For each row (u, v) of the (k, 2) array `uv` of point ids in 0..n-1,
    whether the two points lie at distance exactly 2 in the skeleton whose
    deduplicated adjacency is the row-sorted CSR (`indptr`, `indices`).

    The shorter of the two neighbour rows of each pair is expanded, and its
    entries and v itself are looked up among the sorted codes u*n + w of
    all arcs, so a hub's long row is read only when both ends are hubs.
    """
    u, v = uv[:, 0], uv[:, 1]
    deg = np.diff(indptr)
    # sorted arc codes, closed by a sentinel above every query
    codes = np.append(np.repeat(np.arange(n, dtype=np.int64), deg) * n + indices, n * n)
    short = np.where(deg[v] < deg[u], v, u)
    other = u + v - short
    counts = deg[short]
    pair = np.repeat(np.arange(len(uv)), counts)
    starts = indptr[short] - np.cumsum(counts) + counts
    nbr = indices[np.arange(pair.size) + np.repeat(starts, counts)]
    shared = np.zeros(len(uv), dtype=bool)
    shared[pair[_has_code(codes, other[pair] * n + nbr)]] = True
    return shared & (u != v) & ~_has_code(codes, u * n + v)


def _has_code(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return codes[np.searchsorted(codes, queries)] == queries


def sample_pair_distance(cx: DualComplex, rng: np.random.Generator) -> Optional[int]:
    """Distance between two independent uniform points (with replacement)."""
    if cx.n_points < 1:
        raise ValueError("empty complex")
    u = int(rng.integers(cx.n_points))
    v = int(rng.integers(cx.n_points))
    return distance(cx, u, v)


def point_color_census(cx: DualComplex) -> dict[int, int]:
    census: dict[int, int] = {}
    for c in cx.point_colors:
        census[c] = census.get(c, 0) + 1
    return census


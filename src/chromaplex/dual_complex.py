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
from typing import Optional

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
    simplex_counts: Optional[dict[int, int]] = None

    @property
    def n_edges(self) -> int:
        return len(self.edge_multiplicity)


def build_dual_complex(G: cg.ColoredGraph, with_simplex_counts: bool = False) -> DualComplex:
    """Points from per-color bubble labels, edges from color-pair bubbles.

    Point ids run color by color, in the kernel's first-appearance label
    order; `edge_multiplicity` keeps its keys in order of first appearance
    over the color pairs in lexicographic order and, within a pair, over the
    (D-1)-bubbles by smallest vertex.  Disconnected graphs are allowed; the
    complex splits accordingly.
    """
    D = G.D
    point_of = []
    point_sizes = []
    offset = 0
    for i in G.colors:
        labels, n_bubbles = cg.component_labels(G, [c for c in G.colors if c != i])
        point_of.append(offset + labels.astype(np.int64))
        point_sizes.append(np.bincount(labels, minlength=n_bubbles))
        offset += n_bubbles
    n_points = offset

    lo_parts, hi_parts = [], []
    for i, j in itertools.combinations(G.colors, 2):
        # D = 1 keeps no color: every vertex is its own (D-1)-bubble.
        labels, _ = cg.component_labels(G, [c for c in G.colors if c != i and c != j])
        reps = np.unique(labels, return_index=True)[1]
        u, v = point_of[i][reps], point_of[j][reps]
        lo_parts.append(np.minimum(u, v))
        hi_parts.append(np.maximum(u, v))
    lo, hi = np.concatenate(lo_parts), np.concatenate(hi_parts)
    _, first, mult = np.unique(lo * n_points + hi, return_index=True, return_counts=True)
    order = np.argsort(first)
    lo, hi, mult = lo[first[order]], hi[first[order]], mult[order]
    multiplicity = dict(zip(zip(lo.tolist(), hi.tolist()), mult.tolist()))

    src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    by_src = np.lexsort((dst, src))
    nbrs = dst[by_src].tolist()
    bounds = np.searchsorted(src[by_src], np.arange(n_points + 1)).tolist()

    counts = None
    if with_simplex_counts:
        census = cg.bubble_census(G)
        counts = {d: census[D - d] for d in range(D + 1)}

    return DualComplex(
        n_points=n_points,
        point_colors=tuple(np.repeat(np.arange(D + 1), [s.size for s in point_sizes]).tolist()),
        point_sizes=tuple(np.concatenate(point_sizes).tolist()),
        adjacency=tuple(tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])),
        edge_multiplicity=multiplicity,
        point_by_color_vertex=tuple(tuple(col.tolist()) for col in point_of),
        simplex_counts=counts,
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


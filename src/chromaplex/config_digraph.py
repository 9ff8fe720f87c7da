"""Directed configuration model, the color-quotient digraph, and the model
constants driving its component predictions.

Deleting one non-zero color inside every interaction bubble of a quartic or
recolored-copies graph and contracting the resulting pieces leaves a digraph
whose arcs are the 0-edges; its components are exactly the graph's bubbles
missing that color.  The digraph is a directed configuration model, so its
small components are cycles of degree-(1,1) vertices with Poisson counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import colored_graph as cg
from .models import BaseGraph, quartic_base


@dataclass(frozen=True)
class Digraph:
    """Vertex degrees plus one arc per matched (out, in) half-edge pair."""

    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.in_degrees)

    @property
    def m(self) -> int:
        return len(self.tails)


@dataclass(frozen=True)
class CycleCensus:
    counts: dict[int, int]        # k -> number of pure k-cycle components of (1,1)-vertices
    giant_size: int               # vertex count of the largest component
    component_count: int
    giant_degree_sum: int         # sum of in+out degrees over the largest component


@dataclass(frozen=True)
class ModelConstants:
    """Degree densities of the quotient digraph and derived constants."""

    c_delta: dict[int, Fraction]
    c_q: Fraction
    theta0: Fraction
    d0: Fraction
    p11: Fraction                 # limit density of (1,1)-vertices, c_1/c_q
    x: Fraction                   # cycle-rate base c_1/(c_q * theta0)
    c_G: float                    # sum over k >= 2 of lambda_k
    supercritical: bool           # d0 > 1, required for the giant component

    def lambda_k(self, k: int) -> Fraction:
        """Poisson rate of the k-cycle count, x^k / k."""
        if k < 1:
            raise ValueError("cycle length must be >= 1")
        return self.x**k / k

    def cycle_sum(self, from_k: int = 1) -> float:
        """Closed form for sum over k >= from_k of lambda_k; infinite at or
        past the critical point x = 1."""
        if self.x >= 1:
            return math.inf
        total = -math.log1p(-float(self.x))
        for k in range(1, from_k):
            total -= float(self.lambda_k(k))
        return total

    def expected_components(self, include_k1: bool = True) -> float:
        """1 + the cycle sum, starting at k = 1 or k = 2."""
        return 1.0 + self.cycle_sum(1 if include_k1 else 2)


def quotient_digraph(G: cg.ColoredGraph, i: int) -> Digraph:
    """Contract the components left after deleting colors 0 and i; blacks
    become out-half-edges, whites in-half-edges, arcs follow alpha_0."""
    if not 1 <= i <= G.D:
        raise ValueError(f"color {i} outside {{1..{G.D}}}")
    p = G.p
    colors = [c for c in range(1, G.D + 1) if c != i]
    labels, n_pieces = cg.component_labels(G, colors)
    return Digraph(
        in_degrees=tuple(np.bincount(labels[p:], minlength=n_pieces).tolist()),
        out_degrees=tuple(np.bincount(labels[:p], minlength=n_pieces).tolist()),
        tails=tuple(labels[:p].tolist()),
        heads=tuple(labels[p + G.alphas[0].images].tolist()),
    )


def sample_directed_config_model(
    degrees: Sequence[tuple[int, int]], rng: np.random.Generator
) -> Digraph:
    """Uniform matching of labelled out- and in-half-edges for a prescribed
    (in, out) degree sequence."""
    in_deg = [d[0] for d in degrees]
    out_deg = [d[1] for d in degrees]
    if any(i <= 0 or o <= 0 for i, o in zip(in_deg, out_deg)):
        raise ValueError("degenerate degrees: every vertex needs in > 0 and out > 0")
    m = sum(out_deg)
    if m != sum(in_deg):
        raise ValueError(f"unbalanced degrees: {m} out vs {sum(in_deg)} in half-edges")
    out_owner = np.repeat(np.arange(len(degrees)), out_deg)
    in_owner = np.repeat(np.arange(len(degrees)), in_deg)
    matching = rng.permutation(m)
    heads = in_owner[matching]
    return Digraph(
        in_degrees=tuple(in_deg),
        out_degrees=tuple(out_deg),
        tails=tuple(int(v) for v in out_owner),
        heads=tuple(int(v) for v in heads),
    )


def analyze(d: Digraph) -> CycleCensus:
    """Component census via the connectivity kernel, arcs taken as
    undirected edges.  In a quotient digraph every vertex has equal in- and
    out-degree, so each component is also one class of mutually reachable
    vertices (cross-checked in the tests)."""
    n_comp, labels = cg._components(d.n, d.heads, tails=d.tails)
    in_deg = np.asarray(d.in_degrees)
    out_deg = np.asarray(d.out_degrees)
    sizes = np.bincount(labels, minlength=n_comp)
    degree_sum = np.bincount(labels, weights=in_deg + out_deg, minlength=n_comp)
    not11 = np.bincount(labels, weights=(in_deg != 1) | (out_deg != 1), minlength=n_comp)
    counts: dict[int, int] = {}
    for k in sizes[not11 == 0].tolist():
        counts[k] = counts.get(k, 0) + 1
    giant = int(np.argmax(sizes))
    return CycleCensus(
        counts=counts,
        giant_size=int(sizes[giant]),
        component_count=n_comp,
        giant_degree_sum=int(degree_sum[giant]),
    )


def model_constants(base: BaseGraph) -> ModelConstants:
    """Evaluate the degree densities of the quotient over a random recolored
    copy: delete each color j of the base in turn and record the half-order
    multiset of the pieces."""
    D, t = base.D, base.t
    n_by_delta: dict[int, int] = {}
    for j in range(1, D + 1):
        sizes = _deleted_color_piece_sizes(base, j)
        for s in sizes:
            n_by_delta[s] = n_by_delta.get(s, 0) + 1
    c_delta = {delta: Fraction(cnt, D) for delta, cnt in sorted(n_by_delta.items())}
    c_q = sum(c_delta.values(), Fraction(0))
    first = sum((Fraction(delta) * c for delta, c in c_delta.items()), Fraction(0))
    second = sum((Fraction(delta**2) * c for delta, c in c_delta.items()), Fraction(0))
    theta0 = first / c_q
    d0 = second / first
    c1 = c_delta.get(1, Fraction(0))
    x = c1 / (c_q * theta0)
    c_G = (-math.log1p(-float(x)) - float(x)) if x < 1 else math.inf
    return ModelConstants(
        c_delta=c_delta,
        c_q=c_q,
        theta0=theta0,
        d0=d0,
        p11=c1 / c_q,
        x=x,
        c_G=c_G,
        supercritical=d0 > 1,
    )


def quartic_constants(D: int) -> ModelConstants:
    """Special case of the four-vertex bubble: lambda_k = 1/(k D^k)."""
    return model_constants(quartic_base(D))


def _deleted_color_piece_sizes(base: BaseGraph, j: int) -> list[int]:
    """Half-orders (black count = white count) of the pieces of the base
    graph after deleting color j."""
    labels, _ = cg.component_labels(base.colored, [c for c in range(base.D) if c != j - 1])
    return np.bincount(labels[: base.t]).tolist()  # blacks per piece, by first appearance


def load_degree_sequence(text: str) -> list[tuple[int, int]]:
    """Parse "count in out" lines into a degree list."""
    degrees: list[tuple[int, int]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'count in out', got {ln!r}")
        count, i, o = (int(tok) for tok in parts)
        if count < 0:
            raise ValueError("negative count")
        degrees.extend([(i, o)] * count)
    return degrees


def census_csv(census: CycleCensus) -> str:
    lines = ["k,count"]
    for k in sorted(census.counts):
        lines.append(f"{k},{census.counts[k]}")
    return "\n".join(lines) + "\n"

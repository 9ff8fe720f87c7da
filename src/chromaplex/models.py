"""Samplers for the random graph models and uniform ribbon maps.

Three colored-graph ensembles (uniform tuple, quartic, recolored-copies) plus
the uniform ribbon map, its cycle counts and Euler genus, and the
dangling-half-edge trim.
All samplers are pure functions of their RNG stream; the draw order is fixed
so results are reproducible from (seed, trial index).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import colored_graph as cg
from .perm import (
    Permutation,
    sample_fixed_point_free_involution,
    sample_uniform_permutation,
)


@dataclass(frozen=True)
class QuarticWitness:
    """Per-bubble distinguished color, 1-based entries in {1..D}."""

    distinguished_colors: tuple[int, ...]


@dataclass(frozen=True)
class BaseGraph:
    """A fixed connected D-colored bipartite graph on 2t vertices; color j
    joins black k to white pis[j-1](k)."""

    D: int
    t: int
    pis: tuple[Permutation, ...]

    @property
    def colored(self) -> cg.ColoredGraph:
        """The base as a colored graph on its D colors, base color j as
        color j-1."""
        return cg.ColoredGraph(D=self.D - 1, p=self.t, alphas=self.pis)


@dataclass(frozen=True)
class RibbonMap:
    """Combinatorial map on 2p half-edges: delta pairs them into edges,
    psi walks the faces, delta o psi^{-1} walks the vertices."""

    p: int
    delta: Optional[Permutation]
    psi: Optional[Permutation]

    def __post_init__(self):
        if self.p == 0:
            if self.delta is not None or self.psi is not None:
                raise ValueError("the empty map carries no permutations")
            return
        n = 2 * self.p
        if self.delta.n != n or self.psi.n != n:
            raise ValueError("delta and psi must act on the 2p half-edges")
        img = self.delta.images
        idx = np.arange(n)
        if np.any(img == idx) or np.any(img[img] != idx):
            raise ValueError("delta must be a fixed-point-free involution")

    @property
    def is_empty(self) -> bool:
        return self.p == 0


EMPTY_RIBBON_MAP = RibbonMap(p=0, delta=None, psi=None)

# The least D each model samples at; the other models take no D.
_MIN_D = {"uniform": 1, "quartic": 2}


def check_sizes(model: str, D: Optional[int], p: int) -> None:
    """Reject a (D, p) that the model cannot be sampled at, before any draw."""
    low = _MIN_D.get(model)
    if low is not None and (D is None or D < low):
        raise ValueError(f"{model} model needs D >= {low}")
    if p < 1:
        raise ValueError(f"{model} model needs p >= 1")


def check_base_dimension(D: Optional[int], base: BaseGraph) -> None:
    """Reject an uncolored-model D that contradicts the base graph's D;
    None stands for the base's D."""
    if D is not None and D != base.D:
        raise ValueError(f"uncolored model: D = {D} contradicts the base graph's D = {base.D}")


def sample_uniform_model(D: int, p: int, rng: np.random.Generator) -> cg.ColoredGraph:
    """D+1 independent uniform permutations of {1..p}."""
    check_sizes("uniform", D, p)
    alphas = [sample_uniform_permutation(p, rng) for _ in range(D + 1)]
    return cg.build(D, p, alphas)


def sample_quartic_model(
    D: int, p: int, rng: np.random.Generator
) -> tuple[cg.ColoredGraph, QuarticWitness]:
    """Graph on 2*(2p) vertices: p four-vertex interaction bubbles, each with
    a uniformly distinguished color carrying the crossing pair, glued by a
    uniform alpha_0 on S_{2p}.

    Draw order: alpha_0, then the p distinguished colors.
    """
    check_sizes("quartic", D, p)
    size = 2 * p
    alpha0 = sample_uniform_permutation(size, rng)
    colors = rng.integers(1, D + 1, size=p)
    alphas = [alpha0]
    for i in range(1, D + 1):
        img = np.arange(size, dtype=np.int64)
        sel = 2 * np.flatnonzero(colors == i)  # 0-based index of vertex 2k-1
        img[sel] = sel + 1
        img[sel + 1] = sel
        alphas.append(Permutation(img, _trusted=True))
    witness = QuarticWitness(distinguished_colors=tuple(int(c) for c in colors))
    return cg.build(D, size, alphas), witness


def quartic_base(D: int) -> BaseGraph:
    """The four-vertex interaction bubble as a base graph (t = 2), with
    color 1 distinguished."""
    if D < 2:
        raise ValueError("quartic base needs D >= 2")
    swap = Permutation.from_one_line([2, 1])
    ident = Permutation.identity(2)
    return BaseGraph(D=D, t=2, pis=(swap,) + (ident,) * (D - 1))


def base_components(base: BaseGraph) -> list[list[int]]:
    """Connected components of the base graph; vertices listed 1-based as
    blacks 1..t then whites t+1..2t."""
    G = base.colored
    labels, n_comp = cg.component_labels(G, G.colors)
    comps: list[list[int]] = [[] for _ in range(n_comp)]
    for v, lab in enumerate(labels.tolist()):
        comps[lab].append(v + 1)
    return comps


def make_base_graph(D: int, t: int, pis: Sequence[Permutation]) -> BaseGraph:
    if D < 2:
        raise ValueError("base graph needs D >= 2")
    if t < 2:
        raise ValueError("base graph needs t >= 2")
    if len(pis) != D:
        raise ValueError(f"expected {D} permutations, got {len(pis)}")
    for j, pi in enumerate(pis, start=1):
        if pi.n != t:
            raise ValueError(f"pi_{j} has size {pi.n}, expected {t}")
    base = BaseGraph(D=D, t=t, pis=tuple(pis))
    comps = base_components(base)
    if len(comps) != 1:
        raise ValueError(
            f"base graph is disconnected: components {comps}"
        )
    return base


def base_to_text(base: BaseGraph) -> str:
    lines = [f"{base.D} {base.t}"]
    lines.extend(pi.serialize() for pi in base.pis)
    return "\n".join(lines) + "\n"


def base_from_text(text: str) -> BaseGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty base-graph text")
    try:
        D, t = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != D + 1:
        raise ValueError(f"expected {D} permutation lines, got {len(lines) - 1}")
    pis = [Permutation.deserialize(ln) for ln in lines[1:]]
    return make_base_graph(D, t, pis)


def load_base_graph(path: str) -> BaseGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return base_from_text(fh.read())


def ribbon_to_text(m: RibbonMap) -> str:
    """Header "ribbon p", then the delta and psi permutation lines."""
    return f"ribbon {m.p}\n{m.delta.serialize()}\n{m.psi.serialize()}\n"


def ribbon_from_text(text: str) -> RibbonMap:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty ribbon-map text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "ribbon" or not head[1].isdigit():
        raise ValueError(f"bad header line {lines[0]!r}")
    if len(lines) != 3:
        raise ValueError(f"expected 2 permutation lines, got {len(lines) - 1}")
    delta, psi = (Permutation.deserialize(ln) for ln in lines[1:])
    return RibbonMap(p=int(head[1]), delta=delta, psi=psi)


def sample_uncolored_model(
    base: BaseGraph, p: int, rng: np.random.Generator
) -> cg.ColoredGraph:
    """p copies of the base graph, each with its colors permuted by an
    independent uniform element of S_D, glued by a uniform alpha_0.

    Copy k owns black/white labels (k-1)t+1 .. kt.  Draw order: alpha_0,
    then the color permutations for copies 1..p.
    """
    check_sizes("uncolored", None, p)
    D, t = base.D, base.t
    size = t * p
    alpha0 = sample_uniform_permutation(size, rng)
    images = [np.empty(size, dtype=np.int64) for _ in range(D)]
    for k in range(p):
        gamma = rng.permutation(D)  # gamma[j-1] + 1 is the new color of base color j
        off = k * t
        for j in range(D):
            images[gamma[j]][off : off + t] = base.pis[j].images + off
    alphas = [alpha0] + [Permutation(img, _trusted=True) for img in images]
    return cg.build(D, size, alphas)


def sample_ribbon_map(p: int, rng: np.random.Generator) -> RibbonMap:
    """Uniform map with p edges: delta uniform fixed-point-free involution,
    psi uniform permutation, independent.  Draw order: delta, then psi."""
    check_sizes("ribbon", None, p)
    delta = sample_fixed_point_free_involution(2 * p, rng)
    psi = sample_uniform_permutation(2 * p, rng)
    return RibbonMap(p=p, delta=delta, psi=psi)


def ribbon_stack_counts(
    p: int, delta: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(faces, vertices, genus, parity ok) of the maps in (m, 2p) stacks of
    delta and psi images: O(psi) and O(delta o psi^{-1}) from one kernel call,
    g = 1 + (p - O(psi) - O(delta o psi^{-1})) / 2 (through chi = F - E + V,
    so negative on some disconnected maps), and whether every numerator is
    even, as it is when each delta is a pairing."""
    m, n = psi.shape
    stack = np.empty((2 * m, n), dtype=np.int64)
    stack[:m] = psi
    stack.reshape(-1)[psi + np.arange(m * n, 2 * m * n, n)[:, None]] = delta  # delta o psi^{-1}
    faces, vertices = cg.cycle_counts(stack).reshape(2, m)
    num = p - faces - vertices
    return faces, vertices, 1 + num // 2, not (num % 2).any()


def ribbon_cycles(m: RibbonMap) -> tuple[int, int, int]:
    """(faces, vertices, genus) of one map (see `ribbon_stack_counts`)."""
    if m.is_empty:
        raise ValueError("empty ribbon map has no genus")
    faces, vertices, genus, parity_ok = ribbon_stack_counts(
        m.p, m.delta.images[None], m.psi.images[None]
    )
    if not parity_ok:
        raise AssertionError("parity violation: delta is not a pairing?")
    return int(faces[0]), int(vertices[0]), int(genus[0])


def ribbon_genus(m: RibbonMap) -> int:
    """Global Euler genus of the map (see `ribbon_cycles`)."""
    return ribbon_cycles(m)[2]


def ribbon_component_count(m: RibbonMap) -> int:
    """Components of the underlying map: orbits of the group generated by
    delta and psi on the half-edges."""
    if m.is_empty:
        raise ValueError("empty ribbon map")
    return cg._components(2 * m.p, np.stack((m.delta.images, m.psi.images), axis=1))[0]


def ribbon_trim(alpha: Permutation, phi: Permutation) -> RibbonMap:
    """Erase the fixed points of the pairing `alpha` from the ground set.

    The 2b fixed points are deleted, the surviving 2(p-b) points relabelled
    order-preservingly; delta is alpha restricted and psi is phi with the
    deleted points spliced out of its cycles.  Returns the empty sentinel
    when alpha is the identity (b = p).
    """
    n = alpha.n
    if phi.n != n:
        raise ValueError(f"size mismatch: {alpha.n} vs {phi.n}")
    if n % 2:
        raise ValueError("ground set must have even size")
    a = alpha.images.tolist()
    for k in range(n):
        if a[a[k]] != k:
            raise ValueError("alpha is not an involution")
    f = phi.images.tolist()
    fixed = [a[k] == k for k in range(n)]
    keep = [k for k in range(n) if not fixed[k]]
    if not keep:
        return EMPTY_RIBBON_MAP
    rank = {v: i for i, v in enumerate(keep)}
    delta = np.fromiter((rank[a[v]] for v in keep), dtype=np.int64, count=len(keep))
    psi = np.empty(len(keep), dtype=np.int64)
    for i, v in enumerate(keep):
        w = f[v]
        while fixed[w]:
            w = f[w]
        psi[i] = rank[w]
    return RibbonMap(
        p=len(keep) // 2,
        delta=Permutation(delta, _trusted=True),
        psi=Permutation(psi, _trusted=True),
    )

"""Exhaustive small-instance oracles: the exact joint law of a model's
observables over its whole finite state space, enumerated as numpy stacks a
chunk at a time and counted by the kernels a Monte Carlo trial uses, a few
calls per chunk.  Exact rationals come from the integer tallies.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import colored_graph as cg
from . import models

STATE_LIMIT = 10**7  # largest state space an oracle enumerates
# most permutation-product entries (tuples x color pairs x p) the uniform
# oracle builds; (D, p) = (2, 5) builds 2.6 * 10^7 in about 2 s on one core
WORK_LIMIT = 3 * 10**7
CHUNK_VERTICES = 10**6  # about this many vertices per kernel call


@dataclass(frozen=True)
class UniformOracle:
    D: int
    p: int
    total: int
    p_connected: Fraction
    mean_components: Fraction
    mean_b2: Fraction
    mean_degree: Fraction
    mean_jacket_faces: Fraction
    joint: dict[tuple[bool, int, int, Fraction, int], Fraction]


@dataclass(frozen=True)
class RibbonOracle:
    p: int
    total: int
    p_connected: Fraction
    mean_genus: Fraction
    parity_ok: bool
    joint: dict[tuple[int, int, bool, int], Fraction]  # (faces, vertices, connected, genus)


def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _joint(
    total: int, vertices_per_state: int, stats: Callable[[int, int], np.ndarray], key: Callable
) -> dict:
    """The law of key(*row) over states 0..total-1, where `stats(lo, hi)`
    returns one integer row of observables per state lo..hi-1 from kernel
    calls over at most about CHUNK_VERTICES vertices."""
    size = max(1, CHUNK_VERTICES // vertices_per_state)
    counter: Counter = Counter()
    for lo in range(0, total, size):
        rows, counts = np.unique(stats(lo, min(lo + size, total)), axis=0, return_counts=True)
        counter.update(dict(zip(map(tuple, rows.tolist()), counts.tolist())))
    return {key(*row): Fraction(count, total) for row, count in counter.items()}


def _mean(joint: dict, index: int) -> Fraction:
    return sum((prob * key[index] for key, prob in joint.items()), Fraction(0))


def exhaustive_oracle(D: int, p: int) -> UniformOracle:
    """Exact distribution of (connected, components, b2, degree, jacket
    faces) over every permutation tuple."""
    if D < 1:
        raise ValueError("need at least two colors (D >= 1)")
    if p < 1:
        raise ValueError("need p >= 1")
    # far past the bound, name the size rather than compute a power of millions of digits
    if (D + 1) * math.lgamma(p + 1) > 2 * math.log(STATE_LIMIT):
        raise ValueError(f"state space ({p}!)^{D + 1} exceeds the bound {STATE_LIMIT}")
    total = math.factorial(p) ** (D + 1)
    if total > STATE_LIMIT:
        raise ValueError(f"state space {total} exceeds the bound {STATE_LIMIT}")
    work = total * math.comb(D + 1, 2) * p
    if work > WORK_LIMIT:
        raise ValueError(
            f"work {work} (tuples x color pairs x p) exceeds the bound {WORK_LIMIT}"
        )
    perms = _all_permutations(p)
    pairs = list(itertools.combinations(range(D + 1), 2))
    tau = cg.canonical_jacket(D).tau
    jacket = [pairs.index((min(i, tau[i]), max(i, tau[i]))) for i in range(D + 1)]

    def stats(lo: int, hi: int) -> np.ndarray:
        # tuple t takes permutation t // f^(D-c) % f as color c, f = p!
        t = np.arange(lo, hi)
        f = len(perms)
        alphas = perms[[t // f ** (D - c) % f for c in range(D + 1)]]
        prods = np.empty((len(pairs), hi - lo, p), dtype=np.int64)
        for r, (i, j) in enumerate(pairs):
            np.put_along_axis(prods[r], alphas[j], alphas[i], axis=1)  # alpha_i o alpha_j^{-1}
        faces = cg.cycle_counts(prods.reshape(-1, p)).reshape(len(pairs), -1)
        # Color 0 matches every black to a white; contracting it leaves the
        # whites joined by alpha_0 o alpha_j^{-1}, j = 1..D: pairs[:D].
        components = cg.block_components(prods[:D].transpose(1, 2, 0))
        return np.stack((components, faces.sum(axis=0), faces[jacket].sum(axis=0)), axis=1)

    def key(k, b2, F):
        return (k == 1, k, b2, cg.degree_from_b2(D, p, b2) if D >= 2 else Fraction(0), F)

    joint = _joint(total, len(pairs) * p, stats, key)
    means = [_mean(joint, index) for index in range(5)]  # in key order, as the fields
    return UniformOracle(D, p, total, *means, joint=joint)


def exhaustive_ribbon_oracle(p: int) -> RibbonOracle:
    """Exact joint law of (faces, vertices, connected, genus) over every
    (pairing, face permutation) pair."""
    if p < 1:
        raise ValueError("ribbon map needs p >= 1")
    n = 2 * p
    if math.lgamma(n + 1) > 2 * math.log(STATE_LIMIT):  # (2p)! alone is far past the bound
        raise ValueError(f"state space (2p-1)!! (2p)! at p = {p} exceeds the bound {STATE_LIMIT}")
    total = math.prod(range(1, n, 2)) * math.factorial(n)
    if total > STATE_LIMIT:
        raise ValueError(f"state space {total} exceeds the bound {STATE_LIMIT}")
    psis = _all_permutations(n)
    ident = np.arange(n)
    involution = (np.take_along_axis(psis, psis, axis=1) == ident).all(axis=1)
    deltas = psis[involution & (psis != ident).all(axis=1)]  # the pairings
    parity_ok = True

    def stats(lo: int, hi: int) -> np.ndarray:
        nonlocal parity_ok
        t = np.arange(lo, hi)
        delta, psi = deltas[t % len(deltas)], psis[t // len(deltas)]
        faces, vertices, genus, parity = models.ribbon_stack_counts(p, delta, psi)
        parity_ok &= parity
        connected = cg.block_components(np.stack((delta, psi), axis=2)) == 1
        return np.stack((faces, vertices, connected, genus), axis=1)

    joint = _joint(total, 2 * n, stats, lambda F, V, c, g: (F, V, bool(c), g))
    return RibbonOracle(p, total, _mean(joint, 2), _mean(joint, 3), parity_ok, joint)

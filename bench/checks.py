"""Correctness checks for benchmark operations.

Each check recomputes an observable by a path that does not share the kernel
it checks, and returns a list of problems (empty when the output is right).
They run outside every timed interval.
"""
from __future__ import annotations

import hashlib
import math
from collections import deque
from fractions import Fraction
from typing import Optional

import numpy as np

from chromaplex import colored_graph as cg
from chromaplex import harness, models
from chromaplex import dual_complex as dc
from chromaplex.perm import count_cycles

EULER_GAMMA = 0.57721566490153286060


def sampled_trials(config: harness.ExperimentConfig, k: int) -> list[int]:
    """A seeded sample of k trial indices of one experiment."""
    rng = np.random.default_rng([config.seed, 1])
    return sorted(int(t) for t in rng.choice(config.trials, size=min(k, config.trials), replace=False))


def _ribbon_expected(m: models.RibbonMap) -> dict[str, float]:
    """Genus from Euler's relation with the vertex permutation delta o psi^-1
    built explicitly, connectivity from a BFS over delta and psi."""
    n = 2 * m.p
    delta, psi = m.delta.images, m.psi.images
    psi_inv = np.empty(n, dtype=np.int64)
    psi_inv[psi] = np.arange(n)
    faces = count_cycles(psi)
    vertices = count_cycles(delta[psi_inv])
    d, s, si = delta.tolist(), psi.tolist(), psi_inv.tolist()
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for w in (d[v], s[v], si[v]):
            if not seen[w]:
                seen[w] = 1
                reached += 1
                queue.append(w)
    return {
        "genus": float(1 + (m.p - faces - vertices) // 2),
        "connected": 1.0 if reached == n else 0.0,
    }


def _is_distance_two(adjacency, u: int, v: int) -> bool:
    """Breadth-first search from u, two levels deep."""
    if u == v:
        return False
    level1 = set(adjacency[u])
    if v in level1:
        return False
    return any(v in adjacency[w] for w in level1)


def expected_trial(
    config: harness.ExperimentConfig, base: Optional[models.BaseGraph], t: int
) -> dict[str, float]:
    """Observables of trial t, regenerated from substream(seed, t)."""
    rng = harness.substream(config.seed, t)
    if config.model == "uniform":
        G = models.sample_uniform_model(config.D, config.p, rng)
        tau = cg.canonical_jacket(G.D).tau
        F = sum(cg.face_count(G, i, tau[i]) for i in G.colors)
        if ((G.D + 1) * G.p - F) % 2:
            raise AssertionError(f"trial {t}: (D+1)p - F is odd")
        return {"jacket_faces": float(F), "jacket_parity_ok": 1.0}
    if config.model == "uncolored":
        G = models.sample_uncolored_model(base, config.p, rng)
        return {"k_of_S": float(cg.count_bubbles(G, [0] + list(range(2, G.D + 1))))}
    if config.model == "ribbon":
        return _ribbon_expected(models.sample_ribbon_map(config.p, rng))
    if config.model == "quartic":
        G, _ = models.sample_quartic_model(config.D, config.p, rng)
        cx = dc.build_dual_complex(G)
        n = cx.n_points
        hits = 0
        for _ in range(config.distance_pairs):
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            hits += _is_distance_two(cx.adjacency, u, v)
        return {"dist2_frac": hits / config.distance_pairs}
    raise ValueError(f"no check for model {config.model!r}")


def check_experiment(
    config: harness.ExperimentConfig,
    base: Optional[models.BaseGraph],
    samples: dict[str, np.ndarray],
    k: int,
) -> list[str]:
    """Shape of every sample array, then k regenerated trials."""
    problems = []
    for name, vals in samples.items():
        if vals.shape != (config.trials,) or not np.all(np.isfinite(vals)):
            problems.append(f"samples[{name}] has shape {vals.shape} or non-finite values")
    if problems:
        return problems
    for t in sampled_trials(config, k):
        for name, want in expected_trial(config, base, t).items():
            got = float(samples[name][t])
            if got != want:
                problems.append(f"trial {t}: {name} = {got!r}, independent path gives {want!r}")
    return problems


def _harmonic_from_table(model: str, D: Optional[int], p: int, rows: dict) -> tuple[int, Fraction]:
    """(n, H_n) recovered from the table row that is an affine image of H_n."""
    if model == "uniform":
        return p, rows["jacket_faces"] / (D + 1)
    if model == "quartic":
        return 2 * p, (rows["jacket_faces"] - Fraction(2 * p * (D - 1) ** 2, D)) / 2
    return 2 * p, 1 + Fraction(p, 2) - rows["genus"]


def check_table(model: str, D: Optional[int], p: int, table) -> list[str]:
    """Harmonic values against their asymptotic expansion, and each degree
    row against the degree formula applied to the table's own b2 row."""
    rows = {r.observable: r.value for r in table}
    expected = {
        "uniform": {"connected", "components", "b2", "b2_var", "jacket_faces", "gurau_degree", "bD"},
        "quartic": {"connected", "components", "b2", "b2_var", "jacket_faces", "gurau_degree",
                    "k_of_S", "bD", "C1", "C2"},
        "ribbon": {"connected", "genus"},
    }[model]
    if set(rows) != expected:
        return [f"{model} table rows {sorted(rows)}, expected {sorted(expected)}"]
    problems = []
    n, H = _harmonic_from_table(model, D, p, rows)
    approx = math.log(n) + EULER_GAMMA + 1 / (2 * n) - 1 / (12 * n * n)
    if abs(float(H) - approx) > 1e-12 * approx:
        problems.append(f"{model} p={p}: H_{n} = {float(H)!r}, expansion gives {approx!r}")
    if "gurau_degree" in rows:
        half_order = p if model == "uniform" else 2 * p
        want = Fraction(math.factorial(D - 1), 2) * (
            Fraction(D * (D - 1), 2) * half_order + D - rows["b2"]
        )
        if rows["gurau_degree"] != want:
            problems.append(f"{model} p={p}: gurau_degree row disagrees with its b2 row")
    return problems


def table_digest(rows) -> str:
    """sha256 over every row's name, kind, anchor and exact value.  Values
    are hashed as bytes: the numerators are too long for int-to-str."""
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r.name}|{r.kind}|{r.anchor}|".encode())
        v = r.value
        if hasattr(v, "numerator"):
            for part in (v.numerator, v.denominator):
                h.update(part.to_bytes((part.bit_length() + 8) // 8, "little", signed=True))
        else:
            h.update(repr(v).encode())
    return h.hexdigest()

"""The stacked exhaustive oracles against per-state reference loops, the
types of their exact laws, and their independence from the chunk size."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from chromaplex import colored_graph as cg
from chromaplex import models, oracles
from chromaplex.oracles import (
    RibbonOracle,
    UniformOracle,
    exhaustive_oracle,
    exhaustive_ribbon_oracle,
)
from chromaplex.perm import Permutation, count_cycles


def reference_uniform_oracle(D, p):
    """One graph and three kernel calls per permutation tuple."""
    total = math.factorial(p) ** (D + 1)
    perms = [
        Permutation(np.array(images, dtype=np.int64), _trusted=True)
        for images in itertools.permutations(range(p))
    ]
    counter = {}
    conn = 0
    sum_k = 0
    sum_b2 = 0
    sum_deg = Fraction(0)
    sum_faces = 0
    jacket = cg.canonical_jacket(D)
    for alphas in itertools.product(perms, repeat=D + 1):
        G = cg.ColoredGraph(D=D, p=p, alphas=alphas)
        k = cg.component_count(G)
        b2 = cg.face_total(G)
        deg = cg.degree_from_b2(D, p, b2) if D >= 2 else Fraction(0)
        F = cg.jacket_faces(G, jacket)
        key = (k == 1, k, b2, deg, F)
        counter[key] = counter.get(key, 0) + 1
        conn += k == 1
        sum_k += k
        sum_b2 += b2
        sum_deg += deg
        sum_faces += F
    return UniformOracle(
        D=D, p=p, total=total,
        p_connected=Fraction(conn, total),
        mean_components=Fraction(sum_k, total),
        mean_b2=Fraction(sum_b2, total),
        mean_degree=sum_deg / total,
        mean_jacket_faces=Fraction(sum_faces, total),
        joint={key: Fraction(cnt, total) for key, cnt in counter.items()},
    )


def fpf_involutions(n):
    """All fixed-point-free involutions of {0..n-1} as image lists."""
    points = list(range(n))

    def rec(remaining, img):
        if not remaining:
            yield list(img)
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            img[a], img[b] = b, a
            rest = remaining[1:idx] + remaining[idx + 1 :]
            yield from rec(rest, img)

    yield from rec(points, [0] * n)


def reference_ribbon_oracle(p):
    """Pointer chasing and one component call per (pairing, face
    permutation) pair."""
    n = 2 * p
    total = math.prod(range(1, n, 2)) * math.factorial(n)
    counter = {}
    conn = 0
    genus_sum = 0
    parity_ok = True
    deltas = list(fpf_involutions(n))
    for psi in itertools.permutations(range(n)):
        psi_arr = np.array(psi, dtype=np.int64)
        faces = count_cycles(psi)
        for d in deltas:
            prod = [0] * n
            for k in range(n):
                prod[psi[k]] = d[k]  # delta o psi^{-1}
            vertices = count_cycles(prod)
            if (faces + vertices - p) % 2:
                parity_ok = False
            genus = 1 + (p - faces - vertices) // 2
            m = models.RibbonMap(
                p=p,
                delta=Permutation(np.array(d, dtype=np.int64), _trusted=True),
                psi=Permutation(psi_arr, _trusted=True),
            )
            connected = models.ribbon_component_count(m) == 1
            key = (faces, vertices, connected, genus)
            counter[key] = counter.get(key, 0) + 1
            conn += connected
            genus_sum += genus
    return RibbonOracle(
        p=p, total=total,
        p_connected=Fraction(conn, total),
        mean_genus=Fraction(genus_sum, total),
        parity_ok=parity_ok,
        joint={key: Fraction(cnt, total) for key, cnt in counter.items()},
    )


UNIFORM_CASES = [(1, 3), (2, 2), (2, 3), (3, 2)]
RIBBON_CASES = [1, 2]


@pytest.mark.parametrize("D, p", UNIFORM_CASES)
def test_uniform_oracle_equals_reference(D, p):
    assert exhaustive_oracle(D, p) == reference_uniform_oracle(D, p)


@pytest.mark.parametrize("p", RIBBON_CASES)
def test_ribbon_oracle_equals_reference(p):
    assert exhaustive_ribbon_oracle(p) == reference_ribbon_oracle(p)


def _exact_types(value, types):
    return len(value) == len(types) and all(type(v) is t for v, t in zip(value, types))


@pytest.mark.parametrize("D, p", UNIFORM_CASES)
def test_uniform_law_holds_python_numbers(D, p):
    oracle = exhaustive_oracle(D, p)
    assert type(oracle.total) is int
    for key, prob in oracle.joint.items():
        assert _exact_types(key, (bool, int, int, Fraction, int)), key
        assert type(prob) is Fraction
    assert _exact_types(
        (oracle.p_connected, oracle.mean_components, oracle.mean_b2, oracle.mean_degree,
         oracle.mean_jacket_faces),
        (Fraction,) * 5,
    )


@pytest.mark.parametrize("p", RIBBON_CASES)
def test_ribbon_law_holds_python_numbers(p):
    oracle = exhaustive_ribbon_oracle(p)
    assert type(oracle.total) is int and type(oracle.parity_ok) is bool
    for key, prob in oracle.joint.items():
        assert _exact_types(key, (int, int, bool, int)), key
        assert type(prob) is Fraction
    assert _exact_types((oracle.p_connected, oracle.mean_genus), (Fraction, Fraction))


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    whole = exhaustive_oracle(2, 3), exhaustive_ribbon_oracle(2)
    calls = []
    cycle_counts = cg.cycle_counts
    monkeypatch.setattr(cg, "cycle_counts", lambda images: calls.append(1) or cycle_counts(images))
    monkeypatch.setattr(oracles, "CHUNK_VERTICES", 200)
    uniform = exhaustive_oracle(2, 3)
    assert len(calls) >= 3  # 216 tuples, 9 face vertices each: 22 per chunk
    del calls[:]
    ribbon = exhaustive_ribbon_oracle(2)
    assert len(calls) >= 3  # 72 maps, 8 cycle vertices each: 25 per chunk
    assert (uniform, ribbon) == whole

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Every tolerance is pinned here; the master seed of each criterion is
fixed so the whole suite is deterministic.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chromaplex import colored_graph as cg
from chromaplex import config_digraph as cd
from chromaplex import dual_complex as dc
from chromaplex import models
from chromaplex.harness import ExperimentConfig, run, substream
from chromaplex.models import base_to_text, quartic_base
from chromaplex.oracles import exhaustive_oracle
from chromaplex.perm import (
    Permutation,
    product_cycles,
    sample_uniform_permutation,
)
from reference import cycle_stats


def record(num: int, title: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# shared heavy runs (module-scoped so criteria 5 and 6 reuse one experiment)


@pytest.fixture(scope="module")
def quartic_structure_run():
    config = ExperimentConfig(
        model="quartic", D=3, p=2000, trials=500, seed=105,
        observables=("k_of_S", "C1", "C2", "giant_cover"),
        dispersion=("C1",),
    )
    return run(config)


@pytest.fixture(scope="module")
def uniform_clt_run():
    config = ExperimentConfig(
        model="uniform", D=3, p=5000, trials=2000, seed=110,
        observables=("jacket_faces", "jacket_parity_ok"),
        ks=("jacket_faces",),
    )
    return run(config)


@pytest.fixture(scope="module")
def quartic_clt_run():
    config = ExperimentConfig(
        model="quartic", D=3, p=5000, trials=2000, seed=111,
        observables=("jacket_faces", "jacket_parity_ok"),
        ks=("jacket_faces",),
    )
    return run(config)


@pytest.fixture(scope="module")
def ribbon_run():
    config = ExperimentConfig(
        model="ribbon", p=3000, trials=2000, seed=109,
        observables=("genus", "connected"),
        ks=("genus|connected",),
    )
    return run(config)


def test_criterion_1_exhaustive_oracle_equality():
    t0 = time.perf_counter()
    ok = True
    details = []
    oracle2 = exhaustive_oracle(2, 2)
    ok &= oracle2.p_connected == Fraction(3, 4)
    details.append(f"oracle P(conn|p=2)={oracle2.p_connected}")
    for p, seed in ((2, 101), (3, 201)):
        oracle = exhaustive_oracle(2, p)
        n_draws = 10**4
        conn = np.empty(n_draws)
        comps = np.empty(n_draws)
        b2 = np.empty(n_draws)
        for t in range(n_draws):
            G = models.sample_uniform_model(2, p, substream(seed, t))
            k = cg.component_count(G)
            conn[t] = k == 1
            comps[t] = k
            b2[t] = sum(cg.face_count(G, i, j)
                        for i in range(3) for j in range(i + 1, 3))
        for name, vals, target in (
            ("P(conn)", conn, float(oracle.p_connected)),
            ("E[k]", comps, float(oracle.mean_components)),
            ("E[b2]", b2, float(oracle.mean_b2)),
        ):
            se = vals.std(ddof=1) / math.sqrt(n_draws)
            z = abs(vals.mean() - target) / se
            ok &= z <= 4
            details.append(f"p={p} {name} z={z:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    assert record(1, "exhaustive oracle equality", ok,
                  "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_uniform_connectivity():
    report3 = run(ExperimentConfig(
        model="uniform", D=3, p=100, trials=5000, seed=102,
        observables=("connected",),
    ))
    row3 = report3.row("connected")
    report2 = run(ExperimentConfig(
        model="uniform", D=2, p=50, trials=5000, seed=1022,
        observables=("connected",),
    ))
    row2 = report2.row("connected")
    ok = row3.verdict == "PASS" and row2.verdict == "PASS"
    assert record(
        2, "uniform connectivity", ok,
        f"D=3: rate={row3.mean:.5f} target={row3.target:.5f}; "
        f"D=2: rate={row2.mean:.4f} target={row2.target:.4f} tol={row2.tolerance:.4f}",
    )


def test_criterion_3_uniform_faces():
    report = run(ExperimentConfig(
        model="uniform", D=3, p=1000, trials=2000, seed=103,
        observables=("b2",),
    ))
    mean_row = report.row("b2")
    var_row = report.row("b2_var")
    ok = mean_row.verdict == "PASS" and var_row.verdict == "PASS"
    assert record(
        3, "uniform faces", ok,
        f"mean={mean_row.mean:.3f} target={mean_row.target:.3f} "
        f"z={mean_row.statistic:.2f}; var-ratio={var_row.statistic:.3f} in [0.5..2]",
    )


def test_criterion_4_degree_consistency():
    ok = True
    step = Fraction(math.factorial(2), 2)  # (D-1)!/2 at D = 3
    for model, seed in (("uniform", 104), ("quartic", 204)):
        done = 0
        trial = 0
        while done < 1000:
            rng = substream(seed, trial)
            trial += 1
            if model == "uniform":
                G = models.sample_uniform_model(3, 30, rng)
            else:
                G, _ = models.sample_quartic_model(3, 30, rng)
            if not cg.is_connected(G):
                continue
            done += 1
            via_faces = cg.gurau_degree_via_faces(G)
            via_jackets = cg.gurau_degree_via_jackets(G)
            ok &= via_faces == via_jackets
            ok &= via_faces >= 0 and (via_faces / step).denominator == 1
    assert record(4, "degree consistency", ok,
                  "2x1000 connected graphs, exact equality")


def test_criterion_5_quartic_structure(quartic_structure_run):
    report = quartic_structure_run
    row = report.row("k_of_S")
    p = 2000
    bound = 4 * p - 10 * math.sqrt(p * math.log(p))
    cover = report.samples["giant_cover"]
    frac = float(np.mean(cover >= bound))
    ok = row.verdict == "PASS" and frac >= 0.99
    assert record(
        5, "quartic giant bubble", ok,
        f"mean k(S)={row.mean:.4f} target={row.target:.4f} z={row.statistic:.2f}; "
        f"cover>=({bound:.0f}) in {100 * frac:.1f}% of trials",
    )


def test_criterion_6_poisson_cycle_census(quartic_structure_run):
    report = quartic_structure_run
    c1 = report.row("C1")
    c2 = report.row("C2")
    disp = report.row("dispersion:C1")
    ok = all(r.verdict == "PASS" for r in (c1, c2, disp))
    assert record(
        6, "Poisson cycle census", ok,
        f"C1 mean={c1.mean:.4f} (target 1/3, z={c1.statistic:.2f}); "
        f"C2 mean={c2.mean:.4f} (target 1/18, z={c2.statistic:.2f}); "
        f"dispersion={disp.statistic:.3f} in [0.8..1.2]",
    )


def test_criterion_7_quartic_faces():
    report = run(ExperimentConfig(
        model="quartic", D=3, p=1000, trials=1000, seed=107,
        observables=("b2",),
    ))
    mean_row = report.row("b2")
    var_row = report.row("b2_var")
    ok = mean_row.verdict == "PASS" and var_row.verdict == "PASS"
    assert record(
        7, "quartic faces", ok,
        f"mean={mean_row.mean:.3f} target={mean_row.target:.3f} "
        f"z={mean_row.statistic:.2f}; var={var_row.variance:.1f} <= {var_row.target:.0f}",
    )


def test_criterion_8_distance_two():
    graphs, pairs = 50, 1000
    hits = total = 0
    for g in range(graphs):
        rng = substream(108, g)
        G, _ = models.sample_quartic_model(3, 2000, rng)
        cx = dc.build_dual_complex(G)
        for _ in range(pairs):
            if dc.sample_pair_distance(cx, rng) == 2:
                hits += 1
            total += 1
    frac = hits / total
    ok = frac >= 0.9
    assert record(8, "distance two", ok,
                  f"{hits}/{total} sampled pairs at distance exactly 2 ({frac:.3f})")


def test_criterion_9_ribbon_maps(ribbon_run):
    report = ribbon_run
    genus_row = report.row("genus")
    ks_row = report.row("ks:genus|connected")
    conn_row = report.row("connected")
    ok = all(r.verdict == "PASS" for r in (genus_row, ks_row, conn_row))
    assert record(
        9, "ribbon maps", ok,
        f"genus mean={genus_row.mean:.3f} target={genus_row.target:.3f} "
        f"z={genus_row.statistic:.2f}; KS p={ks_row.p_value:.3f}; "
        f"conn rate={conn_row.mean:.5f} target={conn_row.target:.5f}",
    )


def test_criterion_10_jacket_clts(uniform_clt_run, quartic_clt_run):
    ok = True
    details = []
    for label, report in (("uniform", uniform_clt_run), ("quartic", quartic_clt_run)):
        ks_row = report.row("ks:jacket_faces")
        parity_row = report.row("jacket_parity_ok")
        ok &= ks_row.verdict == "PASS" and parity_row.verdict == "PASS"
        details.append(
            f"{label}: KS p={ks_row.p_value:.3f} ({ks_row.note}), parity all-trials"
        )
    assert record(10, "jacket CLTs", ok, "; ".join(details))


def _uniform_involution(n: int, rng: np.random.Generator,
                        counts: list[int]) -> Permutation:
    """Uniform over all involutions of {1..n}; counts[m] is the number of
    involutions of S_m."""
    img = np.arange(n, dtype=np.int64)
    active = list(range(n))
    while active:
        a = active.pop()
        m = len(active)
        if m == 0 or rng.random() < counts[m] / counts[m + 1]:
            continue  # a stays fixed
        j = int(rng.integers(m))
        active[j], active[-1] = active[-1], active[j]
        b = active.pop()
        img[a], img[b] = b, a
    return Permutation(img, _trusted=True)


def _involution_counts(n: int) -> list[int]:
    counts = [1, 1]
    for m in range(2, n + 1):
        counts.append(counts[m - 1] + (m - 1) * counts[m - 2])
    return counts


def test_criterion_11_ribbon_trim():
    # As stated the identity must hold pointwise on every random pair.  It
    # provably cannot once a face cycle lies entirely inside the fixed-point
    # set of alpha (that face and its vertex vanish with the trim, dropping
    # the cycle sum by exactly 2); see the sharp bookkeeping check below.
    n_pairs, p = 10**4, 50
    counts = _involution_counts(2 * p)
    exact_hits = 0
    corrected_hits = 0
    evaluated = 0
    for t in range(n_pairs):
        rng = substream(1011, t)
        alpha = _uniform_involution(2 * p, rng, counts)
        phi = sample_uniform_permutation(2 * p, rng)
        m = models.ribbon_trim(alpha, phi)
        if m.is_empty:
            continue  # alpha = id never happens at this size
        evaluated += 1
        lhs = cycle_stats(phi).cycle_count + product_cycles(alpha, phi)
        rhs = cycle_stats(m.psi).cycle_count + product_cycles(m.delta, m.psi)
        dropped = _dropped_face_cycles(alpha, phi)
        exact_hits += lhs == rhs
        corrected_hits += lhs == rhs + 2 * dropped
    assert corrected_hits == evaluated == n_pairs, "trim bookkeeping is broken"
    ok = exact_hits == n_pairs
    assert record(
        11, "ribbon trim", ok,
        f"stated identity on {exact_hits}/{n_pairs} pairs; "
        f"corrected identity (sum + 2*vanished face cycles) on "
        f"{corrected_hits}/{n_pairs}",
    )


def test_uniform_involution_helper_is_uniform():
    # sanity for the criterion-11 sampler: S_4 has 10 involutions
    counts = _involution_counts(4)
    assert counts[4] == 10
    seen = {}
    n_draws = 20000
    for t in range(n_draws):
        inv = _uniform_involution(4, substream(1012, t), counts)
        seen[inv.one_line()] = seen.get(inv.one_line(), 0) + 1
    assert len(seen) == 10
    sigma = math.sqrt(0.1 * 0.9 / n_draws)
    for count in seen.values():
        assert abs(count / n_draws - 0.1) < 4 * sigma


def _dropped_face_cycles(alpha: Permutation, phi: Permutation) -> int:
    fixed = (alpha.images == np.arange(alpha.n)).tolist()
    img = phi.images.tolist()
    seen = bytearray(alpha.n)
    dropped = 0
    for start in range(alpha.n):
        if not seen[start]:
            j = start
            all_fixed = True
            while not seen[j]:
                seen[j] = 1
                all_fixed &= fixed[j]
                j = img[j]
            dropped += all_fixed
    return dropped


def test_criterion_12_uncolored_model(tmp_path):
    constants = cd.quartic_constants(3)
    exact_ok = (
        constants.c_delta[1] == Fraction(2, 3)
        and constants.c_q == Fraction(4, 3)
        and constants.theta0 == Fraction(3, 2)
        and constants.d0 == Fraction(5, 3)
    )
    base_path = tmp_path / "quartic_base.txt"
    base_path.write_text(base_to_text(quartic_base(3)))
    report = run(ExperimentConfig(
        model="uncolored", p=2000, trials=300, seed=112,
        base_path=str(base_path), observables=("k_of_S",),
    ))
    variant_row = report.row("k_of_S.variant")
    ok = exact_ok and variant_row.verdict == "PASS"
    assert record(
        12, "uncolored model", ok,
        f"constants exact: {exact_ok}; mean={variant_row.mean:.4f}; "
        f"{variant_row.note}",
    )

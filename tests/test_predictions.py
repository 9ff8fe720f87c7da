"""Exact rational targets and their asymptotic forms."""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chromaplex import harness, models
from chromaplex import predictions as pr

EULER_GAMMA = 0.5772156649015329


class TestHarmonic:
    def test_small_values(self):
        assert pr.harmonic(1) == 1
        assert pr.harmonic(2) == Fraction(3, 2)
        assert pr.harmonic(4) == Fraction(25, 12)

    def test_var_small_values(self):
        assert pr.harmonic_var(1) == 0
        assert pr.harmonic_var(2) == Fraction(1, 4)
        assert pr.harmonic_var(3) == Fraction(1, 4) + Fraction(2, 9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pr.harmonic(0)
        with pytest.raises(ValueError):
            pr.harmonic_var(0)

    def test_returns_real_fractions(self):
        h = pr.harmonic(100)
        assert isinstance(h, Fraction)
        assert h + Fraction(1, 101) == pr.harmonic(101)

    def test_matches_naive_sum(self):
        for n in (1, 7, 350, 1000):
            assert pr.harmonic(n) == sum(Fraction(1, j) for j in range(1, n + 1))
        assert pr.harmonic_var(350) == sum(
            Fraction(j - 1, j * j) for j in range(1, 351)
        )

    def test_pure_fraction_fallback(self, monkeypatch):
        monkeypatch.setattr(pr, "_HAVE_GMPY2", False)
        assert pr.harmonic(700) == sum(Fraction(1, j) for j in range(1, 701))
        assert pr.harmonic_var(2) == Fraction(1, 4)

    def test_integer_path_exact_and_reduced(self, monkeypatch):
        monkeypatch.setattr(pr, "_HAVE_GMPY2", False)
        running = Fraction(0)
        for n in range(1, 2001):
            running += Fraction(1, n)
            h = pr.harmonic(n)
            assert h == running, n
            # _fraction_from_coprime trusts these two, so check them here
            assert h.denominator > 0
            assert math.gcd(h.numerator, h.denominator) == 1, n
            if 33 <= n <= 43:  # H_3 = 11/6: the big prime 11 cancels
                assert h.denominator % 11 != 0
            if n + 1 in (5, 7, 11, 13, 1009, 1999):  # Wolstenholme: p^2 | H_{p-1}
                assert h.numerator % (n + 1) ** 2 == 0

    def test_integer_path_matches_fraction_tree(self, monkeypatch):
        monkeypatch.setattr(pr, "_HAVE_GMPY2", False)
        n = 10**5
        tree = pr._range_sum(1, n + 1, pr._harmonic_block)
        assert isinstance(tree, Fraction)
        assert pr.harmonic(n) == tree

    def test_integer_path_matches_gmpy2(self, monkeypatch):
        pytest.importorskip("gmpy2")
        n = 10**5
        with_gmpy2 = pr.harmonic(n)
        monkeypatch.setattr(pr, "_HAVE_GMPY2", False)
        assert pr.harmonic(n) == with_gmpy2

    def test_fft_merge_equals_integer_products(self):
        # all-0xFF digits give the largest convolution coefficients
        x, y = (1 << 90000) - 1, (1 << 120000) - 1
        size = pr._fft_size((x.bit_length() + y.bit_length()) // 8 + 2)
        spectrum = pr._spectrum(x, size) * pr._spectrum(y, size)
        assert pr._from_spectrum(spectrum, size) == x * y
        p1, q1, p2, q2 = (1 << 40000) - 1, (1 << 43000) - 1, y, 3**60000
        assert min(p1.bit_length(), p2.bit_length()) >= pr._FFT_MIN_BITS
        assert p1.bit_length() + p2.bit_length() >= pr._FFT_SUM_BITS
        assert pr._merge(p1, q1, p2, q2) == (p1 * p2, q1 * p2 + q2 * p1)
        rng = random.Random(5)
        for _ in range(20):  # operand sizes on both sides of the thresholds
            p1, p2 = (rng.getrandbits(rng.randrange(1 << 12, 1 << 18)) | 1 for _ in "ab")
            q1, q2 = rng.getrandbits(p1.bit_length() + 3000), rng.choice((0, p2 // 3))
            assert pr._merge(p1, q1, p2, q2) == (p1 * p2, q1 * p2 + q2 * p1)

    def test_fft_rounding_check_rejects_off_integer_coefficients(self):
        assert pr._from_spectrum(np.fft.rfft([3.0, 1.0, 0.0, 0.0]), 4) == 3 + 256
        assert pr._from_spectrum(np.fft.rfft([3.0, 0.5, 0.0, 0.0]), 4) is None

    def test_large_argument_performance(self):
        # contract: exact H_{10^6} in under a second on a laptop-class core.
        # Calibrate against a smaller run first so a slow CI box skips
        # instead of flaking; the absolute backstop still applies.
        t0 = time.perf_counter()
        pr.harmonic(10**5)
        small = time.perf_counter() - t0
        t0 = time.perf_counter()
        value = pr.harmonic(10**6)
        elapsed = time.perf_counter() - t0
        assert value.denominator > 10**400000  # really the exact rational
        assert elapsed < 5.0  # absolute backstop on any machine
        if small > 0.045:  # the full run scales ~21x the probe
            pytest.skip(
                f"machine too slow for the 1 s contract "
                f"(H_1e5 took {small:.3f}s, H_1e6 took {elapsed:.2f}s)"
            )
        assert elapsed < 1.0


class TestExactVsAsymptotic:
    def test_uniform_b2_gap_shrinks(self):
        gaps = []
        for p in (100, 1000, 10000):
            exact = float(pr.predict("uniform", "b2", D=3, p=p).value)
            asymptotic = 6 * (math.log(p) + EULER_GAMMA)
            gaps.append(abs(exact - asymptotic))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_ribbon_genus_gap_shrinks(self):
        gaps = []
        for p in (100, 1000, 10000):
            exact = float(pr.predict("ribbon", "genus", p=p).value)
            asymptotic = p / 2 - (math.log(2 * p) + EULER_GAMMA) + 1
            gaps.append(abs(exact - asymptotic))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestPredictValues:
    def test_uniform_connectivity(self):
        pred = pr.predict("uniform", "connected", D=3, p=100)
        assert pred.value == 1 - Fraction(1, 10**4)
        assert pred.kind == pr.ASYMPTOTIC
        assert pred.error_order == pytest.approx(100 ** -4.0)

    def test_uniform_d2_connectivity_error_order(self):
        pred = pr.predict("uniform", "connected", D=2, p=50)
        assert pred.value == 1 - Fraction(1, 50)
        assert pred.error_order == pytest.approx(1 / 2500)

    def test_uniform_d1_exact_laws(self):
        conn = pr.predict("uniform", "connected", D=1, p=3)
        comps = pr.predict("uniform", "components", D=1, p=3)
        assert conn.value == Fraction(1, 3) and conn.kind == pr.EXACT
        assert comps.value == Fraction(11, 6)
        oracle = harness.exhaustive_oracle(1, 3)
        assert oracle.p_connected == Fraction(1, 3)
        assert oracle.mean_components == Fraction(11, 6)

    def test_quartic_b2_exact(self):
        pred = pr.predict("quartic", "b2", D=3, p=2000)
        assert pred.value == 4 * 2000 + 3 * pr.harmonic(4000)
        assert pred.kind == pr.EXACT

    def test_quartic_k_of_s(self):
        pred = pr.predict("quartic", "k_of_S", D=3, p=2000)
        assert pred.value == pytest.approx(1 + math.log(1.5))

    def test_quartic_bd_low_dimension_exact(self):
        pred = pr.predict("quartic", "bD", D=2, p=500)
        assert pred.value == 500 + 2 * pr.harmonic(1000)
        assert pred.kind == pr.EXACT

    def test_quartic_cycle_rates(self):
        assert pr.predict("quartic", "C1", D=3, p=100).value == Fraction(1, 3)
        assert pr.predict("quartic", "C2", D=3, p=100).value == Fraction(1, 18)

    def test_ribbon_genus_exact_at_p2_matches_oracle(self):
        # the unconditional mean includes disconnected maps and is negative
        pred = pr.predict("ribbon", "genus", p=2)
        assert pred.value == Fraction(-1, 12)
        oracle = harness.exhaustive_ribbon_oracle(2)
        assert oracle.mean_genus == pred.value

    def test_uniform_oracle_matches_exact_predictions(self):
        # exhaustive enumeration reproduces the exact-rational targets
        oracle = harness.exhaustive_oracle(2, 3)
        assert oracle.mean_b2 == pr.predict("uniform", "b2", D=2, p=3).value
        assert oracle.mean_degree == pr.predict(
            "uniform", "gurau_degree", D=2, p=3
        ).value
        assert oracle.mean_jacket_faces == pr.predict(
            "uniform", "jacket_faces", D=2, p=3
        ).value

    def test_ribbon_connectivity_leading_term(self):
        oracle = harness.exhaustive_ribbon_oracle(2)
        pred = pr.predict("ribbon", "connected", p=2)
        # the exact value differs from the leading term by O(1/p^2)
        assert abs(float(oracle.p_connected) - float(pred.value)) <= 1.0 / 2**2

    def test_uncolored_connectivity(self):
        base = models.quartic_base(3)
        pred = pr.predict("uncolored", "connected", p=10, base=base)
        assert pred.value == 1 - Fraction(10, math.comb(20, 2))

    def test_uncolored_k_of_s_tail_starts_at_two(self):
        base = models.quartic_base(3)
        pred = pr.predict("uncolored", "k_of_S", p=100, base=base)
        assert pred.value == pytest.approx(1 + math.log(1.5) - 1 / 3)

    def test_degree_prediction_consistent_with_face_prediction(self):
        for model, D, p, half in (("uniform", 3, 50, 50), ("quartic", 3, 50, 100)):
            b2 = pr.predict(model, "b2", D=D, p=p).value
            deg = pr.predict(model, "gurau_degree", D=D, p=p).value
            direct = Fraction(math.factorial(D - 1), 2) * (
                Fraction(D * (D - 1), 2) * half + D - b2
            )
            assert deg == direct

    def test_jacket_faces_predictions(self):
        assert pr.predict("uniform", "jacket_faces", D=3, p=7).value == 4 * pr.harmonic(7)
        quartic = pr.predict("quartic", "jacket_faces", D=3, p=9).value
        assert quartic == Fraction(2 * 9 * 4, 3) + 2 * pr.harmonic(18)


class TestPredictErrors:
    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            pr.predict("uniform", "bD", D=2, p=10)
        with pytest.raises(ValueError):
            pr.predict("quartic", "k_of_S", D=2, p=10)
        with pytest.raises(ValueError):
            pr.predict("ribbon", "b2", p=10)
        with pytest.raises(ValueError):
            pr.predict("nonsense", "b2", D=2, p=10)
        with pytest.raises(ValueError):
            pr.predict("uncolored", "k_of_S", p=10)  # missing base

    def test_quartic_needs_d_at_least_2(self):
        with pytest.raises(ValueError):
            pr.predict("quartic", "b2", D=1, p=10)


class TestTable:
    def test_table_and_csv(self):
        rows = pr.prediction_table("quartic", D=3, p=2000)
        names = {r.observable for r in rows}
        assert {"connected", "b2", "k_of_S", "bD", "C1"} <= names
        csv_text = pr.predictions_csv(rows)
        lines = csv_text.splitlines()
        assert lines[0] == "name,model,D,p,value,kind,anchor"
        assert len(lines) == len(rows) + 1

    def test_table_skips_unsupported(self):
        rows = pr.prediction_table("uniform", D=2, p=10)
        assert "bD" not in {r.observable for r in rows}
        with pytest.raises(ValueError, match="unknown model"):
            pr.prediction_table("nonsense", D=2, p=10)

    @pytest.mark.parametrize(
        "model, D, observables",
        [
            ("uniform", 3, ["connected", "components", "b2", "b2_var", "jacket_faces",
                            "gurau_degree", "bD"]),
            ("uniform", 2, ["connected", "components", "b2", "b2_var", "jacket_faces",
                            "gurau_degree"]),
            ("uniform", 1, ["connected", "components", "b2", "b2_var", "jacket_faces"]),
            ("quartic", 3, ["connected", "components", "b2", "b2_var", "jacket_faces",
                            "gurau_degree", "k_of_S", "bD", "C1", "C2"]),
            ("quartic", 2, ["connected", "components", "b2", "b2_var", "jacket_faces",
                            "gurau_degree", "bD", "C1", "C2"]),
            ("uncolored", None, ["connected", "components", "k_of_S", "bD"]),
            ("ribbon", None, ["connected", "genus"]),
        ],
    )
    def test_table_rows_in_order(self, model, D, observables):
        base = models.quartic_base(3) if model == "uncolored" else None
        rows = pr.prediction_table(model, D=D, p=50, base=base)
        assert [r.observable for r in rows] == observables

    def test_format_value(self):
        assert pr.format_value(Fraction(3, 4)) == "3/4"
        assert pr.format_value(Fraction(5)) == "5"
        assert pr.format_value(0.25) == "0.25"

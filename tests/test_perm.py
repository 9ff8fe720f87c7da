"""Permutation kernel: sampling laws, group arithmetic, cycle statistics."""
import math

import numpy as np
import pytest

from chromaplex.perm import (
    Permutation,
    count_cycles,
    product_cycles,
    sample_fixed_point_free_involution,
    sample_uniform_permutation,
)
from chromaplex.predictions import harmonic, harmonic_var
from reference import compose, cycle_stats, invert


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestPermutationBasics:
    def test_identity_law(self):
        rng = rng_for(1)
        a = sample_uniform_permutation(7, rng)
        assert compose(Permutation.identity(7), a) == a
        assert compose(a, Permutation.identity(7)) == a

    def test_invert_three_cycle(self):
        c = Permutation.from_cycles(3, [(1, 2, 3)])
        assert invert(c) == Permutation.from_cycles(3, [(1, 3, 2)])

    def test_compose_with_inverse_is_identity(self):
        rng = rng_for(2)
        for _ in range(20):
            a = sample_uniform_permutation(31, rng)
            assert compose(a, invert(a)) == Permutation.identity(31)

    def test_one_based_call_and_one_line(self):
        a = Permutation.from_one_line([2, 3, 1])
        assert a(1) == 2 and a(3) == 1
        assert a.one_line() == (2, 3, 1)
        with pytest.raises(ValueError):
            a(0)
        with pytest.raises(ValueError):
            a(4)

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation.from_one_line([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation.from_one_line([1, 2, 5])

    @pytest.mark.parametrize("images", [5, [[1, 0]], []], ids=["scalar", "2d", "empty"])
    def test_bad_shape_rejected(self, images):
        with pytest.raises(ValueError):
            Permutation(images)

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)
        with pytest.raises(ValueError):
            sample_uniform_permutation(0, rng_for())

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_serialize_round_trip(self):
        rng = rng_for(3)
        a = sample_uniform_permutation(12, rng)
        assert Permutation.deserialize(a.serialize()) == a


class TestUniformSampling:
    def test_s1_always_identity(self):
        rng = rng_for(4)
        for _ in range(50):
            assert sample_uniform_permutation(1, rng) == Permutation.identity(1)

    def test_s2_frequency(self):
        # identity has probability 1/2; allow 3 sigma over 10^4 draws
        rng = rng_for(5)
        n_draws = 10**4
        hits = sum(
            sample_uniform_permutation(2, rng) == Permutation.identity(2)
            for _ in range(n_draws)
        )
        sigma = math.sqrt(0.25 / n_draws)
        assert abs(hits / n_draws - 0.5) < 3 * sigma

    def test_seeded_determinism(self):
        a = sample_uniform_permutation(5, rng_for(42))
        b = sample_uniform_permutation(5, rng_for(42))
        assert a == b

    def test_mean_cycle_count_matches_harmonic_sum(self):
        # E = H_n and Var = sum (j-1)/j^2, within 4 sigma at n = 1000
        rng = rng_for(6)
        n, n_draws = 1000, 10**4
        counts = np.array(
            [cycle_stats(sample_uniform_permutation(n, rng)).cycle_count
             for _ in range(n_draws)],
            dtype=float,
        )
        target = float(harmonic(n))
        se = math.sqrt(float(harmonic_var(n)) / n_draws)
        assert abs(counts.mean() - target) < 4 * se
        var_target = float(harmonic_var(n))
        var_se = var_target * math.sqrt(2.0 / (n_draws - 1))
        assert abs(counts.var(ddof=1) - var_target) < 5 * var_se


class TestInvolutions:
    def test_n2_unique_matching(self):
        rng = rng_for(7)
        for _ in range(20):
            assert sample_fixed_point_free_involution(2, rng).one_line() == (2, 1)

    def test_n4_three_matchings_uniform(self):
        rng = rng_for(8)
        n_draws = 10**4
        seen = {}
        for _ in range(n_draws):
            key = sample_fixed_point_free_involution(4, rng).one_line()
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 3
        sigma = math.sqrt((1 / 3) * (2 / 3) / n_draws)
        for count in seen.values():
            assert abs(count / n_draws - 1 / 3) < 3 * sigma

    def test_squares_to_identity_no_fixed_points(self):
        rng = rng_for(9)
        for n in (2, 6, 20, 100):
            for _ in range(10):
                d = sample_fixed_point_free_involution(n, rng)
                assert compose(d, d) == Permutation.identity(n)
                assert cycle_stats(d).fixed_points == 0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sample_fixed_point_free_involution(5, rng_for())
        with pytest.raises(ValueError):
            sample_fixed_point_free_involution(0, rng_for())

    def test_n6_determinism(self):
        a = sample_fixed_point_free_involution(6, rng_for(10))
        b = sample_fixed_point_free_involution(6, rng_for(10))
        assert a == b


class TestCycleStats:
    def test_identity(self):
        s = cycle_stats(Permutation.identity(5))
        assert s.cycle_count == 5 and s.fixed_points == 5
        assert s.cycle_type == (1, 1, 1, 1, 1) and s.sign == 1

    def test_hand_decomposition(self):
        a = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
        s = cycle_stats(a)
        assert s.cycle_count == 2
        assert s.cycle_type == (2, 3)
        assert s.fixed_points == 0
        assert s.sign == -1  # (-1)^(5-2)

    def test_invariant_under_inverse(self):
        rng = rng_for(11)
        for _ in range(50):
            a = sample_uniform_permutation(40, rng)
            assert cycle_stats(a) == cycle_stats(invert(a))

    def test_type_sums_to_n_and_sign(self):
        rng = rng_for(12)
        for _ in range(50):
            a = sample_uniform_permutation(23, rng)
            s = cycle_stats(a)
            assert sum(s.cycle_type) == 23
            assert len(s.cycle_type) == s.cycle_count
            assert s.sign == (-1) ** (23 - s.cycle_count)

    def test_count_cycles_agrees_with_stats(self):
        rng = rng_for(13)
        for _ in range(30):
            a = sample_uniform_permutation(17, rng)
            assert count_cycles(a.images) == cycle_stats(a).cycle_count

    def test_product_cycles_matches_explicit_composition(self):
        rng = rng_for(14)
        for _ in range(30):
            a = sample_uniform_permutation(19, rng)
            b = sample_uniform_permutation(19, rng)
            expected = cycle_stats(compose(a, invert(b))).cycle_count
            assert product_cycles(a, b) == expected

"""Model samplers: structural contracts, determinism, trim bookkeeping."""
import math

import numpy as np
import pytest

from chromaplex import colored_graph as cg
from chromaplex import models
from chromaplex.perm import (
    Permutation,
    product_cycles,
    sample_uniform_permutation,
)
from chromaplex.predictions import harmonic
from reference import cycle_stats, ribbon_is_connected


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestUniformModel:
    def test_d2_p1_is_melon(self):
        for seed in range(10):
            G = models.sample_uniform_model(2, 1, rng_for(seed))
            assert G.alphas == (Permutation.identity(1),) * 3

    def test_determinism(self):
        a = models.sample_uniform_model(3, 20, rng_for(5))
        b = models.sample_uniform_model(3, 20, rng_for(5))
        assert a == b

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            models.sample_uniform_model(0, 5, rng_for())
        with pytest.raises(ValueError):
            models.sample_uniform_model(2, 0, rng_for())


class TestQuarticModel:
    def test_bubble_template(self):
        # every 0-deleted bubble has 4 vertices, one crossing color, and
        # identity elsewhere
        G, witness = models.sample_quartic_model(3, 12, rng_for(1))
        assert G.p == 24
        bubbles = cg.bubbles(G, (1, 2, 3))
        assert len(bubbles) == 12
        for k, b in enumerate(bubbles, start=1):
            assert b.black_vertices == (2 * k - 1, 2 * k)
            assert b.white_vertices == (2 * k - 1, 2 * k)
        for k in range(1, 13):
            c = witness.distinguished_colors[k - 1]
            for i in range(1, 4):
                if i == c:
                    assert G.alphas[i](2 * k - 1) == 2 * k
                    assert G.alphas[i](2 * k) == 2 * k - 1
                else:
                    assert G.alphas[i](2 * k - 1) == 2 * k - 1
                    assert G.alphas[i](2 * k) == 2 * k

    def test_exactly_one_distinguished_color_per_bubble(self):
        G, _ = models.sample_quartic_model(4, 30, rng_for(2))
        for k in range(1, 31):
            swapped = [i for i in range(1, 5) if G.alphas[i](2 * k - 1) == 2 * k]
            assert len(swapped) == 1

    def test_color_frequencies(self):
        D, p = 3, 2000
        _, witness = models.sample_quartic_model(D, p, rng_for(3))
        sigma = math.sqrt((1 / D) * (1 - 1 / D) / p)
        for i in range(1, D + 1):
            freq = witness.distinguished_colors.count(i) / p
            assert abs(freq - 1 / D) < 4 * sigma

    def test_d2_p1_always_connected(self):
        for seed in range(20):
            G, _ = models.sample_quartic_model(2, 1, rng_for(seed))
            assert cg.is_connected(G)

    def test_d_below_two_rejected(self):
        with pytest.raises(ValueError):
            models.sample_quartic_model(1, 5, rng_for())

    def test_determinism(self):
        a, wa = models.sample_quartic_model(3, 9, rng_for(7))
        b, wb = models.sample_quartic_model(3, 9, rng_for(7))
        assert a == b and wa == wb


class TestBaseGraph:
    def test_quartic_base_round_trip(self):
        base = models.quartic_base(3)
        text = models.base_to_text(base)
        again = models.base_from_text(text)
        assert again == base

    def test_disconnected_base_rejected_with_components(self):
        text = "2 2\n1 2\n1 2\n"  # two disjoint melons
        with pytest.raises(ValueError, match="disconnected"):
            models.base_from_text(text)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            models.make_base_graph(2, 1, [Permutation.identity(1)] * 2)

    def test_wrong_line_count(self):
        with pytest.raises(ValueError):
            models.base_from_text("3 2\n2 1\n1 2\n")


class TestUncoloredModel:
    def test_p1_single_bubble_is_recolored_base(self):
        base = models.quartic_base(3)
        for seed in range(10):
            G = models.sample_uncolored_model(base, 1, rng_for(seed))
            assert G.p == 2
            bubbles = cg.bubbles(G, (1, 2, 3))
            assert len(bubbles) == 1
            # exactly one color carries the swap, the others are identity
            swaps = [i for i in range(1, 4) if G.alphas[i](1) == 2]
            assert len(swaps) == 1

    def test_copy_blocks_preserve_base_structure(self):
        base = models.quartic_base(3)
        p = 50
        G = models.sample_uncolored_model(base, p, rng_for(4))
        assert G.p == 100
        bubbles = cg.bubbles(G, (1, 2, 3))
        assert len(bubbles) == p
        for k, b in enumerate(bubbles):
            assert b.black_vertices == (2 * k + 1, 2 * k + 2)

    def test_quartic_base_matches_quartic_law(self):
        # cross-model Monte Carlo: the recolored-copies model with the
        # quartic base agrees with the exact quartic face target and with
        # the quartic component counts
        base = models.quartic_base(3)
        rng = rng_for(5)
        p, n_draws = 60, 400
        faces, comps = [], []
        for _ in range(n_draws):
            G = models.sample_uncolored_model(base, p, rng)
            faces.append(sum(cg.face_count(G, i, j)
                             for i in range(4) for j in range(i + 1, 4)))
            comps.append(cg.component_count(G))
        faces = np.array(faces, dtype=float)
        target = 4 * p + 3 * float(harmonic(2 * p))
        se = faces.std(ddof=1) / math.sqrt(n_draws)
        assert abs(faces.mean() - target) < 4 * se
        q = 1 - 1 / (2 * p - 1)
        sigma = math.sqrt(q * (1 - q) / n_draws)
        rate = np.mean(np.array(comps) == 1)
        assert abs(rate - q) < 3 * sigma + 5 / p**2

    def test_necklace_base_connectivity(self):
        # a base whose string color alone would be subcritical still gives
        # an almost-surely connected graph with mean component count near 1
        shift = Permutation.from_one_line([2, 3, 1])
        ident = Permutation.identity(3)
        base = models.make_base_graph(3, 3, [ident, ident, shift])
        rng = rng_for(6)
        comps = [
            cg.component_count(models.sample_uncolored_model(base, 60, rng))
            for _ in range(200)
        ]
        assert np.mean(comps) < 1.05

    def test_determinism(self):
        base = models.quartic_base(3)
        a = models.sample_uncolored_model(base, 8, rng_for(9))
        b = models.sample_uncolored_model(base, 8, rng_for(9))
        assert a == b


class TestRibbonMaps:
    def test_p1_genus_zero_always(self):
        for seed in range(20):
            m = models.sample_ribbon_map(1, rng_for(seed))
            assert models.ribbon_genus(m) == 0

    def test_hand_example(self):
        # delta = (1 2)(3 4), psi = (1 3)(2 4): two vertices joined by two
        # edges, a sphere
        m = models.RibbonMap(
            p=2,
            delta=Permutation.from_cycles(4, [(1, 2), (3, 4)]),
            psi=Permutation.from_cycles(4, [(1, 3), (2, 4)]),
        )
        assert ribbon_is_connected(m)
        assert models.ribbon_genus(m) == 0

    def test_genus_integer_and_nonnegative_when_connected(self):
        rng = rng_for(1)
        for _ in range(200):
            m = models.sample_ribbon_map(12, rng)
            g = models.ribbon_genus(m)
            assert isinstance(g, int)
            if ribbon_is_connected(m):
                assert g >= 0

    def test_genus_mean(self):
        rng = rng_for(2)
        p, n_draws = 200, 2000
        vals = np.array(
            [models.ribbon_genus(models.sample_ribbon_map(p, rng))
             for _ in range(n_draws)],
            dtype=float,
        )
        target = 1 + p / 2 - float(harmonic(2 * p))
        se = vals.std(ddof=1) / math.sqrt(n_draws)
        assert abs(vals.mean() - target) < 4 * se

    def test_connectivity_rate(self):
        rng = rng_for(3)
        p, n_draws = 200, 4000
        hits = sum(
            ribbon_is_connected(models.sample_ribbon_map(p, rng))
            for _ in range(n_draws)
        )
        q = 1 - 1 / (2 * p - 1)
        sigma = math.sqrt(q * (1 - q) / n_draws)
        assert abs(hits / n_draws - q) < 3 * sigma + 5 / p**2

    def test_determinism(self):
        a = models.sample_ribbon_map(15, rng_for(11))
        b = models.sample_ribbon_map(15, rng_for(11))
        assert a.delta == b.delta and a.psi == b.psi

    def test_invalid_pairing_rejected(self):
        with pytest.raises(ValueError, match="fixed-point-free"):
            models.RibbonMap(
                p=2,
                delta=Permutation.from_cycles(4, [(1, 2)]),  # 3, 4 fixed
                psi=Permutation.identity(4),
            )
        with pytest.raises(ValueError, match="half-edges"):
            models.RibbonMap(
                p=3,
                delta=Permutation.from_cycles(4, [(1, 2), (3, 4)]),
                psi=Permutation.identity(4),
            )


def random_involution(n, swap_prob, rng):
    """Involution pairing (2k-1, 2k) independently with probability swap_prob."""
    img = np.arange(n, dtype=np.int64)
    for k in range(n // 2):
        if rng.random() < swap_prob:
            img[2 * k], img[2 * k + 1] = 2 * k + 1, 2 * k
    return Permutation(img)


def euler_sum(alpha, phi):
    return cycle_stats(phi).cycle_count + product_cycles(alpha, phi)


def dropped_face_cycles(alpha, phi):
    """Number of phi-cycles made entirely of alpha-fixed points."""
    fixed = [alpha(k) == k for k in range(1, alpha.n + 1)]
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


class TestRibbonTrim:
    def test_b0_identity_transformation(self):
        rng = rng_for(4)
        alpha = random_involution(10, 1.0, rng)  # fixed-point free
        phi = sample_uniform_permutation(10, rng)
        m = models.ribbon_trim(alpha, phi)
        assert m.delta == alpha and m.psi == phi

    def test_hand_splice(self):
        alpha = Permutation.from_cycles(4, [(1, 2)])
        phi = Permutation.from_cycles(4, [(1, 3, 2, 4)])
        m = models.ribbon_trim(alpha, phi)
        assert m.p == 1
        assert m.delta.one_line() == (2, 1)
        assert m.psi.one_line() == (2, 1)
        assert euler_sum(m.delta, m.psi) == euler_sum(alpha, phi)

    def test_sum_identity_when_no_face_vanishes(self):
        # exact whenever no face cycle lies inside the fixed-point set
        rng = rng_for(5)
        checked = 0
        for _ in range(3000):
            alpha = random_involution(40, 0.6, rng)
            phi = sample_uniform_permutation(40, rng)
            if dropped_face_cycles(alpha, phi):
                continue
            checked += 1
            m = models.ribbon_trim(alpha, phi)
            assert euler_sum(m.delta, m.psi) == euler_sum(alpha, phi)
        assert checked > 1000

    def test_sharp_bookkeeping_identity(self):
        # in general the sum drops by exactly 2 per face cycle made of
        # unmatched half-edges (its point and face both vanish)
        rng = rng_for(6)
        for _ in range(3000):
            alpha = random_involution(30, 0.5, rng)
            phi = sample_uniform_permutation(30, rng)
            if cycle_stats(alpha).fixed_points == 30:
                continue
            m = models.ribbon_trim(alpha, phi)
            lhs = euler_sum(alpha, phi)
            rhs = euler_sum(m.delta, m.psi)
            assert lhs == rhs + 2 * dropped_face_cycles(alpha, phi)

    def test_empty_sentinel(self):
        alpha = Permutation.identity(6)
        phi = sample_uniform_permutation(6, rng_for(7))
        m = models.ribbon_trim(alpha, phi)
        assert m.is_empty and m.p == 0

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError, match="involution"):
            models.ribbon_trim(
                Permutation.from_cycles(4, [(1, 2, 3)]),
                Permutation.identity(4),
            )

    def test_size_preserved(self):
        rng = rng_for(8)
        alpha = random_involution(20, 0.5, rng)
        phi = sample_uniform_permutation(20, rng)
        b = cycle_stats(alpha).fixed_points // 2
        m = models.ribbon_trim(alpha, phi)
        assert m.p == 10 - b

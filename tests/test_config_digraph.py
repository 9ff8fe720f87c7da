"""Quotient digraph, directed configuration model, census, constants."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from chromaplex import colored_graph as cg
from chromaplex import config_digraph as cd
from chromaplex import models
from chromaplex.perm import Permutation
from chromaplex.predictions import harmonic, harmonic_var
from reference import scc_count


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestQuotient:
    def test_quartic_piece_degrees(self):
        # bubbles with distinguished color i split into two (1,1) pieces,
        # the rest stay one (2,2) piece
        G, witness = models.sample_quartic_model(3, 40, rng_for(1))
        d = cd.quotient_digraph(G, 1)
        n_split = witness.distinguished_colors.count(1)
        degree_multiset = sorted(zip(d.in_degrees, d.out_degrees))
        expected = sorted([(1, 1)] * (2 * n_split) + [(2, 2)] * (40 - n_split))
        assert degree_multiset == expected
        assert d.m == 80

    def test_component_count_matches_bubbles(self):
        for seed in range(1000):
            G, _ = models.sample_quartic_model(3, 6, rng_for(seed))
            for i in (1, 2, 3):
                census = cd.analyze(cd.quotient_digraph(G, i))
                direct = cg.count_bubbles(G, [c for c in range(4) if c != i])
                assert census.component_count == direct

    def test_uncolored_quotient_components_match(self):
        base = models.quartic_base(3)
        for seed in range(100):
            G = models.sample_uncolored_model(base, 10, rng_for(seed))
            census = cd.analyze(cd.quotient_digraph(G, 2))
            direct = cg.count_bubbles(G, [0, 1, 3])
            assert census.component_count == direct

    def test_necklace_degree_multiset(self):
        # deleting the string color leaves t pearls; deleting a pearl color
        # leaves one ring piece
        base = necklace_base(3, 4)
        G = models.sample_uncolored_model(base, 1, rng_for(2))
        # find the color the string was mapped to: deleting it gives 4 pieces
        piece_counts = {
            i: cd.quotient_digraph(G, i).n for i in (1, 2, 3)
        }
        assert sorted(piece_counts.values()) == [1, 1, 4]

    def test_color_zero_rejected(self):
        G, _ = models.sample_quartic_model(2, 3, rng_for(3))
        with pytest.raises(ValueError):
            cd.quotient_digraph(G, 0)
        with pytest.raises(ValueError):
            cd.quotient_digraph(G, 3)


def necklace_base(D, t):
    """Pearl necklace: one string color cyclically joining t melon pairs."""
    shift = Permutation.from_one_line([k % t + 1 for k in range(1, t + 1)])
    ident = Permutation.identity(t)
    return models.make_base_graph(D, t, [ident] * (D - 1) + [shift])


class TestConfigModel:
    def test_all_one_one_is_uniform_permutation(self):
        # components of an all-(1,1) digraph are the cycles of a uniform
        # permutation; mean component count is H_n
        rng = rng_for(4)
        n, n_draws = 50, 3000
        counts = np.array(
            [
                cd.analyze(
                    cd.sample_directed_config_model([(1, 1)] * n, rng)
                ).component_count
                for _ in range(n_draws)
            ],
            dtype=float,
        )
        target = float(harmonic(n))
        se = math.sqrt(float(harmonic_var(n)) / n_draws)
        assert abs(counts.mean() - target) < 4 * se

    def test_single_two_two_vertex(self):
        d = cd.sample_directed_config_model([(2, 2)], rng_for(5))
        assert d.m == 2
        assert d.tails == (0, 0) and d.heads == (0, 0)
        census = cd.analyze(d)
        assert census.component_count == 1
        assert census.counts == {}  # not a (1,1) cycle

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="unbalanced"):
            cd.sample_directed_config_model([(1, 2), (1, 1)], rng_for())

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cd.sample_directed_config_model([(0, 1), (2, 1)], rng_for())
        with pytest.raises(ValueError, match="degenerate"):
            cd.sample_directed_config_model([(1, 0), (1, 2)], rng_for())

    def test_determinism(self):
        a = cd.sample_directed_config_model([(1, 1)] * 9 + [(2, 2)], rng_for(6))
        b = cd.sample_directed_config_model([(1, 1)] * 9 + [(2, 2)], rng_for(6))
        assert a == b


class TestAnalyze:
    def test_hand_built_cycle_plus_selfloop(self):
        # a directed 5-cycle of (1,1) vertices plus one (2,2) self-loop vertex
        d = cd.Digraph(
            in_degrees=(1, 1, 1, 1, 1, 2),
            out_degrees=(1, 1, 1, 1, 1, 2),
            tails=(0, 1, 2, 3, 4, 5, 5),
            heads=(1, 2, 3, 4, 0, 5, 5),
        )
        census = cd.analyze(d)
        assert census.counts == {5: 1}
        assert census.component_count == 2
        assert census.giant_size == 5
        assert census.giant_degree_sum == 10

    def test_self_loop_counts_as_one_cycle(self):
        d = cd.Digraph(
            in_degrees=(1, 2), out_degrees=(1, 2),
            tails=(0, 1, 1), heads=(0, 1, 1),
        )
        census = cd.analyze(d)
        assert census.counts == {1: 1}
        assert census.component_count == 2

    def test_weak_equals_strong_for_balanced_degrees(self):
        for seed in range(50):
            G, _ = models.sample_quartic_model(3, 30, rng_for(seed))
            d = cd.quotient_digraph(G, 1)
            assert scc_count(d) == cd.analyze(d).component_count

    def test_scc_distinguishes_unbalanced(self):
        # path 0 -> 1 with balancing arcs: two strongly connected pieces
        d = cd.Digraph(
            in_degrees=(1, 1), out_degrees=(1, 1),
            tails=(0, 1), heads=(1, 0),
        )
        assert scc_count(d) == 1
        d2 = cd.Digraph(
            in_degrees=(1, 1, 1), out_degrees=(1, 1, 1),
            tails=(0, 1, 2), heads=(1, 0, 2),
        )
        assert scc_count(d2) == 2
        # parallel arcs, as in quotient digraphs
        d3 = cd.Digraph(
            in_degrees=(2, 2), out_degrees=(2, 2),
            tails=(0, 0, 1, 1), heads=(1, 1, 0, 0),
        )
        assert scc_count(d3) == 1

    def test_giant_component_emerges(self):
        # quartic degree profile at D=3: giant covers almost everything
        rng = rng_for(7)
        p = 3000
        degrees = [(1, 1)] * (2 * p // 3) + [(2, 2)] * (2 * p // 3)
        d = cd.sample_directed_config_model(degrees, rng)
        census = cd.analyze(d)
        assert census.giant_size >= d.n - 10 * math.sqrt(d.n * math.log(d.n))

    def test_census_against_direct_bubble_sizes(self):
        # C1 counts the 2-vertex bubbles, and the giant degree sum is the
        # vertex count of the largest bubble, both read off the graph itself
        for seed in range(60):
            G, _ = models.sample_quartic_model(3, 50, rng_for(400 + seed))
            census = cd.analyze(cd.quotient_digraph(G, 1))
            sizes = sorted(
                len(b.black_vertices) + len(b.white_vertices)
                for b in cg.bubbles(G, (0, 2, 3))
            )
            assert census.counts.get(1, 0) == sum(s == 2 for s in sizes)
            assert census.giant_degree_sum == sizes[-1]
            # every k-cycle of melon pieces is a bubble with 2k vertices
            cycle_vertices = sum(2 * k * c for k, c in census.counts.items())
            assert cycle_vertices <= 4 * 50


class TestFactorialMomentOracle:
    @staticmethod
    def exact_factorial_moments(degrees, r_max):
        """E[(C_1)_r] by enumerating all matchings of the half-edges."""
        in_deg = [d[0] for d in degrees]
        out_deg = [d[1] for d in degrees]
        m = sum(out_deg)
        out_owner = [v for v, k in enumerate(out_deg) for _ in range(k)]
        in_owner = [v for v, k in enumerate(in_deg) for _ in range(k)]
        ones = {v for v, d in enumerate(degrees) if d == (1, 1)}
        moments = [Fraction(0)] * (r_max + 1)
        total = 0
        for matching in itertools.permutations(range(m)):
            total += 1
            c1 = sum(
                1
                for h, t in enumerate(matching)
                if out_owner[h] == in_owner[t] and out_owner[h] in ones
            )
            for r in range(r_max + 1):
                f = 1
                for s in range(r):
                    f *= c1 - s
                moments[r] += f
        return [mm / total for mm in moments]

    def test_sampler_matches_exact_enumeration(self):
        degrees = [(1, 1)] * 4 + [(2, 2)]
        exact = self.exact_factorial_moments(degrees, 2)
        assert exact[0] == 1
        rng = rng_for(8)
        n_draws = 20000
        c1 = np.empty(n_draws)
        for t in range(n_draws):
            census = cd.analyze(cd.sample_directed_config_model(degrees, rng))
            c1[t] = census.counts.get(1, 0)
        for r, target in ((1, float(exact[1])), (2, float(exact[2]))):
            vals = c1.copy()
            for s in range(1, r):
                vals = vals * (c1 - s)
            se = vals.std(ddof=1) / math.sqrt(n_draws)
            assert abs(vals.mean() - target) < 4 * se


class TestModelConstants:
    def test_quartic_d3_exact_values(self):
        c = cd.quartic_constants(3)
        assert c.c_delta == {1: Fraction(2, 3), 2: Fraction(2, 3)}
        assert c.c_q == Fraction(4, 3)
        assert c.theta0 == Fraction(3, 2)
        assert c.d0 == Fraction(5, 3)
        assert c.p11 == Fraction(1, 2)
        assert c.lambda_k(1) == Fraction(1, 3)
        assert c.lambda_k(2) == Fraction(1, 18)
        assert c.supercritical

    def test_quartic_lambda_closed_form(self):
        for D in (3, 4, 5):
            c = cd.quartic_constants(D)
            for k in (1, 2, 3):
                assert c.lambda_k(k) == Fraction(1, k * D**k)
            assert abs(c.cycle_sum(1) - math.log(D / (D - 1))) < 1e-12

    def test_quartic_d2_subcritical(self):
        c = cd.quartic_constants(2)
        assert c.d0 == 1
        assert not c.supercritical

    def test_necklace_constants(self):
        c = cd.model_constants(necklace_base(3, 3))
        assert c.c_delta == {1: Fraction(1), 3: Fraction(2, 3)}
        assert c.c_q == Fraction(5, 3)
        assert c.theta0 == Fraction(9, 5)
        assert c.d0 == Fraction(7, 3)
        assert c.supercritical

    def test_d_at_least_2_always_supercritical(self):
        rng = rng_for(9)
        for seed in range(20):
            t = 3
            pis = [
                Permutation(rng_for(100 + seed * 3 + j).permutation(t))
                for j in range(3)
            ]
            try:
                base = models.make_base_graph(3, t, pis)
            except ValueError:
                continue  # disconnected draw
            assert cd.model_constants(base).supercritical

    def test_cycle_sum_variants(self):
        c = cd.quartic_constants(3)
        assert abs(c.expected_components(True) - (1 + math.log(1.5))) < 1e-12
        assert abs(
            c.expected_components(False) - (1 + math.log(1.5) - 1 / 3)
        ) < 1e-12
        assert abs(c.c_G - (math.log(1.5) - 1 / 3)) < 1e-12

    def test_necklace_component_mean_matches_constants(self):
        # Monte Carlo check of the constants pipeline on a base whose
        # quotient mixes (1,1) and (3,3) vertices
        base = necklace_base(3, 3)
        constants = cd.model_constants(base)
        target = constants.expected_components(include_k1=True)
        rng = rng_for(10)
        n_draws, p = 300, 1500
        counts = np.empty(n_draws)
        for t in range(n_draws):
            G = models.sample_uncolored_model(base, p, rng)
            counts[t] = cd.analyze(cd.quotient_digraph(G, 1)).component_count
        se = counts.std(ddof=1) / math.sqrt(n_draws)
        assert abs(counts.mean() - target) < 4 * se


class TestIO:
    def test_degree_sequence_parse(self):
        text = "# comment\n3 1 1\n1 2 2\n"
        assert cd.load_degree_sequence(text) == [(1, 1)] * 3 + [(2, 2)]

    def test_degree_sequence_bad_line(self):
        with pytest.raises(ValueError):
            cd.load_degree_sequence("1 2\n")

    def test_census_csv(self):
        census = cd.CycleCensus(
            counts={1: 2, 3: 1}, giant_size=7, component_count=4,
            giant_degree_sum=20,
        )
        assert cd.census_csv(census) == "k,count\n1,2\n3,1\n"

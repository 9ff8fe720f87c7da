"""Dual-complex skeleton: point/edge construction and the graph metric."""
import itertools

import numpy as np
import pytest

from chromaplex import colored_graph as cg
from chromaplex import dual_complex as dc
from chromaplex.models import sample_quartic_model, sample_uniform_model
from chromaplex.perm import Permutation


def melon(D):
    return cg.build(D, 1, [Permutation.identity(1)] * (D + 1))


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_melon_two_glued_simplices(self):
        cx = dc.build_dual_complex(melon(3))
        assert cx.n_points == 4
        assert cx.n_edges == 6
        assert dc.point_color_census(cx) == {0: 1, 1: 1, 2: 1, 3: 1}
        for u in range(4):
            for v in range(4):
                assert dc.distance(cx, u, v) == (0 if u == v else 1)
        # each edge is shared by the two glued top simplices
        assert all(mult == 1 for mult in cx.edge_multiplicity.values())

    def test_point_count_matches_bubble_enumeration(self):
        for seed in range(10):
            G = sample_uniform_model(3, 6, rng_for(seed))
            cx = dc.build_dual_complex(G)
            expected = sum(
                cg.count_bubbles(G, [c for c in range(4) if c != i])
                for i in range(4)
            )
            assert cx.n_points == expected

    def test_edge_count_matches_pair_bubble_enumeration(self):
        for seed in range(10):
            G = sample_uniform_model(3, 5, rng_for(seed))
            cx = dc.build_dual_complex(G)
            raw = sum(cx.edge_multiplicity.values())
            expected = sum(
                cg.count_bubbles(G, [c for c in range(4) if c not in pair])
                for pair in itertools.combinations(range(4), 2)
            )
            assert raw == expected

    def test_quartic_single_bubble_against_slow_oracle(self):
        for seed in range(10):
            G, _ = sample_quartic_model(3, 1, rng_for(seed))
            cx = dc.build_dual_complex(G)
            expected_points = sum(
                len(cg.bubbles(G, [c for c in range(4) if c != i]))
                for i in range(4)
            )
            assert cx.n_points == expected_points

    def test_point_lookup_by_vertex(self):
        G = sample_uniform_model(3, 6, rng_for(11))
        cx = dc.build_dual_complex(G)
        for i in range(4):
            for v in range(12):
                pid = cx.point_by_color_vertex[i][v]
                assert cx.point_colors[pid] == i
        # points of one color partition the vertices
        for i in range(4):
            total = sum(
                cx.point_sizes[pid]
                for pid in range(cx.n_points)
                if cx.point_colors[pid] == i
            )
            assert total == 12

    def test_edges_join_distinct_colors(self):
        G = sample_uniform_model(3, 8, rng_for(3))
        cx = dc.build_dual_complex(G)
        for (u, v) in cx.edge_multiplicity:
            assert cx.point_colors[u] != cx.point_colors[v]

    def test_simplex_counts_match_census(self):
        G = sample_uniform_model(3, 5, rng_for(4))
        cx = dc.build_dual_complex(G)
        census = cg.bubble_census(G)
        # points are the 3-bubbles, edges with multiplicity the 2-bubbles
        assert census[3] == cx.n_points
        assert census[2] == sum(cx.edge_multiplicity.values())

    def test_disconnected_graph_splits_points(self):
        # two disjoint melons: the point set splits into two unreachable halves
        G = cg.build(2, 2, [Permutation.identity(2)] * 3)
        cx = dc.build_dual_complex(G)
        assert cx.n_points == 6
        reachable = sum(dc.distance(cx, 0, v) is not None for v in range(6))
        assert reachable == 3


class TestDistance:
    def test_self_distance_zero(self):
        cx = dc.build_dual_complex(melon(2))
        assert dc.distance(cx, 0, 0) == 0

    def test_unreachable_sentinel(self):
        G = cg.build(2, 2, [Permutation.identity(2)] * 3)
        cx = dc.build_dual_complex(G)
        hit_none = 0
        for u in range(cx.n_points):
            for v in range(cx.n_points):
                d = dc.distance(cx, u, v)
                if d is None:
                    hit_none += 1
        assert hit_none > 0

    def test_unknown_ids_rejected(self):
        cx = dc.build_dual_complex(melon(2))
        with pytest.raises(ValueError):
            dc.distance(cx, 0, 99)

    def test_shortcut_agrees_with_bfs(self):
        # exercise distance-2-and-beyond on a sparse complex (D = 1 rings)
        rng = rng_for(5)
        for seed in range(20):
            G = sample_uniform_model(1, 6, rng_for(seed))
            cx = dc.build_dual_complex(G)
            for u in range(cx.n_points):
                for v in range(cx.n_points):
                    got = dc.distance(cx, u, v)
                    assert got == _bfs_reference(cx, u, v)

    def test_triangle_inequality_sampled(self):
        G = sample_uniform_model(3, 30, rng_for(6))
        cx = dc.build_dual_complex(G)
        rng = rng_for(7)
        for _ in range(200):
            u, v, w = rng.integers(cx.n_points, size=3)
            duv = dc.distance(cx, int(u), int(v))
            dvw = dc.distance(cx, int(v), int(w))
            duw = dc.distance(cx, int(u), int(w))
            if duv is not None and dvw is not None:
                assert duw is not None and duw <= duv + dvw

    def test_sample_pair_distance_melon(self):
        cx = dc.build_dual_complex(melon(3))
        rng = rng_for(8)
        vals = {dc.sample_pair_distance(cx, rng) for _ in range(50)}
        assert vals <= {0, 1}

    def test_sample_pair_distance_single_point(self):
        single = dc.DualComplex(
            n_points=1, point_colors=(0,), point_sizes=(2,), adjacency=((),),
            edge_multiplicity={}, point_by_color_vertex=((0, 0),),
        )
        rng = rng_for(9)
        assert all(dc.sample_pair_distance(single, rng) == 0 for _ in range(20))

    def test_empty_complex_rejected(self):
        empty = dc.DualComplex(
            n_points=0, point_colors=(), point_sizes=(), adjacency=(),
            edge_multiplicity={}, point_by_color_vertex=((),),
        )
        with pytest.raises(ValueError):
            dc.sample_pair_distance(empty, rng_for())


def _bfs_reference(cx, u, v):
    from collections import deque

    if u == v:
        return 0
    seen = {u}
    q = deque([(u, 0)])
    while q:
        node, d = q.popleft()
        for w in cx.adjacency[node]:
            if w == v:
                return d + 1
            if w not in seen:
                seen.add(w)
                q.append((w, d + 1))
    return None


class TestCensusAndHub:
    def test_quartic_zero_points_exact(self):
        G, _ = sample_quartic_model(3, 200, rng_for(9))
        cx = dc.build_dual_complex(G)
        assert dc.point_color_census(cx)[0] == 200

    def test_census_sums_to_point_count(self):
        G = sample_uniform_model(3, 12, rng_for(10))
        cx = dc.build_dual_complex(G)
        assert sum(dc.point_color_census(cx).values()) == cx.n_points

    def test_quartic_hub_adjacent_to_most_zero_points(self):
        # the giant bubble for each color i != 0 touches >= 90% of 0-points
        G, _ = sample_quartic_model(3, 500, rng_for(11))
        cx = dc.build_dual_complex(G)
        zero_points = [
            pid for pid in range(cx.n_points) if cx.point_colors[pid] == 0
        ]
        for i in (1, 2, 3):
            candidates = [
                pid for pid in range(cx.n_points) if cx.point_colors[pid] == i
            ]
            hub = max(candidates, key=lambda pid: cx.point_sizes[pid])
            hub_adj = set(cx.adjacency[hub])
            frac = sum(pid in hub_adj for pid in zero_points) / len(zero_points)
            assert frac >= 0.9

    def test_uniform_point_count_concentrates(self):
        # D = 3 at moderate p: the point count is almost always D+1
        rng = rng_for(12)
        counts = []
        for _ in range(100):
            G = sample_uniform_model(3, 200, rng)
            counts.append(dc.build_dual_complex(G).n_points)
        assert np.mean(counts) < 4.5

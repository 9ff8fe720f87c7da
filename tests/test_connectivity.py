"""The csgraph connectivity kernel against a reference union-find, the
numpy dual complex against a dict/set reference built on it, the per-block
component counts against scipy block by block, and the batched cycle counts
behind faces, jackets and ribbon genus against pointer chasing."""
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from chromaplex import colored_graph as cg
from chromaplex import config_digraph as cd
from chromaplex import dual_complex as dc
from chromaplex import models
from chromaplex.perm import Permutation, count_cycles, product_cycles
from reference import jacket_genus, scc_count


def reference_components(n, edges):
    """Union-find with path halving; labels numbered by first appearance."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    index = {}
    labels = [index.setdefault(find(x), len(index)) for x in range(n)]
    return labels, len(index)


def reference_labels(G, colors):
    p = G.p
    edges = [(k, p + int(G.alphas[c].images[k])) for c in colors for k in range(p)]
    return reference_components(2 * p, edges)


def reference_dual_complex(G):
    """Points and edges in the dict/set style, on reference labels."""
    D, p = G.D, G.p
    point_colors, point_sizes, point_of = [], [], []
    for i in range(D + 1):
        labels, n_bubbles = reference_labels(G, [c for c in range(D + 1) if c != i])
        offset = len(point_colors)
        sizes = [0] * n_bubbles
        for lab in labels:
            sizes[lab] += 1
        point_colors.extend([i] * n_bubbles)
        point_sizes.extend(sizes)
        point_of.append([offset + lab for lab in labels])
    multiplicity = {}
    for i, j in itertools.combinations(range(D + 1), 2):
        labels, _ = reference_labels(G, [c for c in range(D + 1) if c not in (i, j)])
        reps = {}
        for v in range(2 * p):
            reps.setdefault(labels[v], v)
        for v in reps.values():
            key = tuple(sorted((point_of[i][v], point_of[j][v])))
            multiplicity[key] = multiplicity.get(key, 0) + 1
    adj = [set() for _ in point_colors]
    for u, v in multiplicity:
        adj[u].add(v)
        adj[v].add(u)
    return dc.DualComplex(
        n_points=len(point_colors),
        point_colors=tuple(point_colors),
        point_sizes=tuple(point_sizes),
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        edge_multiplicity=multiplicity,
        point_by_color_vertex=tuple(tuple(col) for col in point_of),
    )


@st.composite
def colored_graphs(draw):
    D = draw(st.integers(1, 4))
    p = draw(st.integers(1, 40))
    perms = [draw(st.permutations(range(p))) for _ in range(D + 1)]
    return cg.build(D, p, [Permutation(np.array(a)) for a in perms])


@given(colored_graphs())
def test_labels_and_counts_match_union_find(G):
    for k in range(G.D + 2):
        for colors in itertools.combinations(G.colors, k):
            ref_labels, ref_n = reference_labels(G, colors)
            labels, n = cg.component_labels(G, colors)
            assert labels.tolist() == ref_labels and n == ref_n
            assert cg.count_bubbles(G, colors) == ref_n
            # canonical bubble order is first appearance over blacks, then whites
            members = [[] for _ in range(ref_n)]
            for v, lab in enumerate(ref_labels):
                members[lab].append(v + 1)
            bubbles = cg.bubbles(G, colors)
            assert [list(b.black_vertices) + [G.p + w for w in b.white_vertices]
                    for b in bubbles] == members
    assert cg.component_count(G) == reference_labels(G, G.colors)[1]


@given(colored_graphs())
def test_dual_complex_matches_reference(G):
    cx = dc.build_dual_complex(G)
    ref = reference_dual_complex(G)
    assert cx == ref
    assert list(cx.edge_multiplicity.items()) == list(ref.edge_multiplicity.items())


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_ribbon_components_match_union_find(p, seed):
    m = models.sample_ribbon_map(p, np.random.default_rng(seed))
    edges = [(k, int(m.delta.images[k])) for k in range(2 * p)]
    edges += [(k, int(m.psi.images[k])) for k in range(2 * p)]
    assert models.ribbon_component_count(m) == reference_components(2 * p, edges)[1]


@given(st.lists(st.integers(1, 3), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
def test_scc_count_equals_weak_count_on_balanced_digraphs(degrees, seed):
    d = cd.sample_directed_config_model([(k, k) for k in degrees], np.random.default_rng(seed))
    assert scc_count(d) == cd.analyze(d).component_count


@st.composite
def permutation_stacks(draw):
    """(k, n) stacks of permutation images; rows may be the identity or a
    single n-cycle."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(("random", "identity", "n-cycle")))
        if kind == "identity":
            rows.append(list(range(n)))
        elif kind == "n-cycle":
            rows.append([(x + 1) % n for x in range(n)])
        else:
            rows.append(draw(st.permutations(range(n))))
    return np.array(rows, dtype=np.int64).reshape(k, n)


@st.composite
def block_stacks(draw):
    """(k, n, w) arc-head stacks; each block random, all self-loops, or each
    vertex's w arcs one repeated head."""
    k, n, w = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    blocks = []
    for _ in range(k):
        kind = draw(st.sampled_from(("random", "self-loops", "repeats")))
        if kind == "self-loops":
            blocks.append(np.repeat(np.arange(n), w).reshape(n, w))
            continue
        size = n if kind == "repeats" else n * w
        heads = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
        blocks.append(np.repeat(heads, w).reshape(n, w) if kind == "repeats" else heads.reshape(n, w))
    return np.array(blocks, dtype=np.int64)


@given(block_stacks())
@example(np.zeros((1, 1, 1), dtype=np.int64))
@example(np.array([[[0, 0, 0], [0, 0, 0]], [[1, 1, 0], [1, 1, 1]]]))
def test_block_components_match_scipy_per_block(heads):
    _, n, w = heads.shape
    tails = np.repeat(np.arange(n), w)
    expected = [
        connected_components(csr_array((np.ones(n * w), (tails, block.reshape(-1))), shape=(n, n)),
                             directed=False)[0]
        for block in heads
    ]
    assert cg.block_components(heads).tolist() == expected


@given(permutation_stacks())
def test_cycle_counts_match_pointer_chasing(stack):
    assert cg.cycle_counts(stack).tolist() == [count_cycles(row) for row in stack]


@given(colored_graphs())
def test_face_and_jacket_counts_match_pointer_chasing(G):
    faces = {(i, j): product_cycles(G.alphas[i], G.alphas[j])
             for i in G.colors for j in G.colors if i != j}
    assert cg.face_total(G) == sum(faces[i, j] for i, j in itertools.combinations(G.colors, 2))
    for (i, j), count in faces.items():
        assert cg.face_count(G, i, j) == count
    genera = []
    for spec in cg.all_jackets(G.D):
        F = sum(faces[i, spec.tau[i]] for i in G.colors)
        genera.append(Fraction(2 - F + (G.D - 1) * G.p, 2))
        assert cg.jacket_faces(G, spec) == F
        assert jacket_genus(G, spec) == genera[-1]
    if G.D >= 2 and cg.is_connected(G):
        assert cg.gurau_degree_via_jackets(G) == sum(genera, Fraction(0)) / 2


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_ribbon_cycles_match_pointer_chasing(p, seed):
    m = models.sample_ribbon_map(p, np.random.default_rng(seed))
    faces = count_cycles(m.psi.images)
    vertices = product_cycles(m.delta, m.psi)
    assert models.ribbon_cycles(m) == (faces, vertices, 1 + (p - faces - vertices) // 2)
    assert models.ribbon_genus(m) == 1 + (p - faces - vertices) // 2

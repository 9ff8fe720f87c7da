"""Every observable of the models, declared once.

An entry names the models whose trials measure it, the kernel that computes
it from one sampled graph or map, the observables that kernel reads, how the
harness tests it on each model, and the models whose prediction table lists
it.  A kernel may set several observables at once (the component count
behind `connected` and `components`, the jacket face count behind
`jacket_faces` and `jacket_parity_ok`, the ribbon cycle counts behind
`faces`, `map_vertices` and `genus`, the quotient census), so a trial runs
each needed kernel once.  Kernels store ints, bools and Fractions; the
harness keeps them as floats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import colored_graph as cg
from . import config_digraph as cd
from . import dual_complex as dc
from . import models

# sampler(config, base, rng) -> one graph or map; config supplies D and p
SAMPLERS: dict[str, Callable] = {
    "uniform": lambda config, base, rng: models.sample_uniform_model(config.D, config.p, rng),
    "quartic": lambda config, base, rng: models.sample_quartic_model(config.D, config.p, rng)[0],
    "uncolored": lambda config, base, rng: models.sample_uncolored_model(base, config.p, rng),
    "ribbon": lambda config, base, rng: models.sample_ribbon_map(config.p, rng),
}

# kernel(sample, values, config, rng) stores its observables into values
Kernel = Callable[[object, dict, object, object], None]


def _components(s, values, config, rng) -> None:
    if isinstance(s, models.RibbonMap):
        k = models.ribbon_component_count(s)
    else:
        k = cg.component_count(s)
    values["connected"] = k == 1
    values["components"] = k


def _b2(G, values, config, rng) -> None:
    values["b2"] = cg.face_total(G)


def _degree(G, values, config, rng) -> None:
    values["gurau_degree"] = cg.degree_from_b2(G.D, G.p, values["b2"])


def _bD(G, values, config, rng) -> None:
    values["bD"] = sum(
        cg.count_bubbles(G, [c for c in G.colors if c != i]) for i in G.colors
    )


def _jacket(G, values, config, rng) -> None:
    F = cg.jacket_faces(G, cg.canonical_jacket(G.D))
    values["jacket_faces"] = F
    values["jacket_parity_ok"] = ((G.D + 1) * G.p - F) % 2 == 0


def _quotient(G, values, config, rng) -> None:
    census = cd.analyze(cd.quotient_digraph(G, 1))
    values["k_of_S"] = census.component_count
    values["giant_cover"] = census.giant_degree_sum
    for k in range(1, 5):
        values[f"C{k}"] = census.counts.get(k, 0)


def _dist2(G, values, config, rng) -> None:
    """The only kernel that draws from the trial's stream.  Its one call
    draws the same ids, and leaves the same next draw, as the scalar draws
    u, v pair by pair of `dual_complex.sample_pair_distance`."""
    sk = dc._skeleton(G)
    pairs = config.distance_pairs
    uv = rng.integers(sk.n_points, size=(pairs, 2))
    hits = dc.distance_two(sk.n_points, sk.indptr, sk.indices, uv)
    values["dist2_frac"] = int(np.count_nonzero(hits)) / pairs


def _ribbon(m, values, config, rng) -> None:
    faces, vertices, genus = models.ribbon_cycles(m)
    values["faces"] = faces
    values["map_vertices"] = vertices
    values["genus"] = genus


@dataclass(frozen=True)
class Observable:
    name: str
    models: frozenset[str]           # models whose trials measure it
    kernel: Optional[Kernel]         # None: a prediction only
    needs: tuple[str, ...] = ()      # observables the kernel reads
    # model -> proportion | mean | invariant | variant; an info row elsewhere
    tests: dict[str, str] = field(default_factory=dict)
    table: frozenset[str] = frozenset()  # models whose prediction_table lists it


_ALL = frozenset(SAMPLERS)
_GRAPHS = frozenset({"uniform", "quartic", "uncolored"})
_QUOTIENT = frozenset({"quartic", "uncolored"})
_UNIFORM_QUARTIC = frozenset({"uniform", "quartic"})
_RIBBON = frozenset({"ribbon"})
_MEAN = dict.fromkeys(_UNIFORM_QUARTIC, "mean")
_QUARTIC_MEAN = {"quartic": "mean"}

# declaration order is the row order of prediction_table
OBSERVABLES: dict[str, Observable] = {o.name: o for o in (
    Observable("connected", _ALL, _components, tests=dict.fromkeys(_ALL, "proportion"), table=_ALL),
    Observable("components", _ALL, _components, tests=dict.fromkeys(_GRAPHS, "mean"),
               table=_GRAPHS),
    Observable("b2", _GRAPHS, _b2, tests=_MEAN, table=_UNIFORM_QUARTIC),
    # the variance of b2, tested in the row after b2's mean row
    Observable("b2_var", frozenset(), None, table=_UNIFORM_QUARTIC),
    Observable("jacket_faces", _GRAPHS, _jacket, tests=_MEAN, table=_UNIFORM_QUARTIC),
    Observable("gurau_degree", _GRAPHS, _degree, needs=("b2",), tests=_MEAN,
               table=_UNIFORM_QUARTIC),
    Observable("k_of_S", _QUOTIENT, _quotient, tests={"quartic": "mean", "uncolored": "variant"},
               table=_QUOTIENT),
    Observable("bD", _GRAPHS, _bD, tests=_MEAN, table=_GRAPHS),
    Observable("C1", _QUOTIENT, _quotient, tests=_QUARTIC_MEAN, table=frozenset({"quartic"})),
    Observable("C2", _QUOTIENT, _quotient, tests=_QUARTIC_MEAN, table=frozenset({"quartic"})),
    Observable("C3", _QUOTIENT, _quotient, tests=_QUARTIC_MEAN),
    Observable("C4", _QUOTIENT, _quotient),
    Observable("giant_cover", _QUOTIENT, _quotient),
    Observable("jacket_parity_ok", _GRAPHS, _jacket, tests=dict.fromkeys(_GRAPHS, "invariant")),
    Observable("dist2_frac", _GRAPHS, _dist2),
    Observable("genus", _RIBBON, _ribbon, tests={"ribbon": "mean"}, table=_RIBBON),
    Observable("faces", _RIBBON, _ribbon),
    Observable("map_vertices", _RIBBON, _ribbon),
)}


def kernels_for(names) -> list[Kernel]:
    """The kernels that compute `names`, each once, dependencies first."""
    order: list[Kernel] = []

    def visit(name: str) -> None:
        entry = OBSERVABLES[name]
        for dep in entry.needs:
            visit(dep)
        if entry.kernel not in order:
            order.append(entry.kernel)

    for name in sorted(names):
        visit(name)
    return order

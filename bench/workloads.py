"""The five benchmark workloads and the seeded generation of their inputs.

Every input is a pure function of (benchmark seed, workload, stream, index),
so the same seed always gives the same operations; chromaplex itself only
ever receives the generated `ExperimentConfig` or table parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from chromaplex import harness

# Streams keep the inputs of the different benchmark phases apart.
WARMUP, TIMED, REPLAY, KERNELS, POOL = range(5)


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    # Monte Carlo workloads: one operation is harness.run of this config
    # (the seed is replaced per operation).  None for exact-table.
    config: Optional[harness.ExperimentConfig]
    shallow_trials: int = 0  # trials per replay when another workload is traced
    check_trials: int = 0    # trials regenerated per operation by the checks

    @property
    def is_exact(self) -> bool:
        return self.config is None


# Why each workload is here is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-jacket", 0,
            harness.ExperimentConfig(
                model="uniform", D=3, p=5000, trials=200, seed=0,
                observables=("jacket_faces", "jacket_parity_ok"),
                ks=("jacket_faces",),
            ),
            shallow_trials=16, check_trials=2,
        ),
        Workload(
            "uncolored-quotient", 1,
            harness.ExperimentConfig(
                model="uncolored", D=3, p=2000, trials=100, seed=0,
                observables=("k_of_S", "C1", "C2", "giant_cover"),
                dispersion=("C1",),
            ),
            shallow_trials=20, check_trials=2,
        ),
        Workload(
            "dual-distance", 2,
            harness.ExperimentConfig(
                model="quartic", D=3, p=2000, trials=10, seed=0,
                observables=("dist2_frac",), distance_pairs=1000,
            ),
            shallow_trials=4, check_trials=1,
        ),
        Workload(
            "ribbon-2proc", 3,
            harness.ExperimentConfig(
                model="ribbon", p=3000, trials=200, seed=0,
                observables=("genus", "connected"), ks=("genus|connected",),
                threads=2,
            ),
            shallow_trials=16, check_trials=2,
        ),
        Workload(
            "exact-table", 4,
            None,
        ),
    )
}

MC_WORKLOADS = tuple(w for w in WORKLOADS.values() if not w.is_exact)

EXACT_MODELS = (("uniform", 3), ("quartic", 3), ("ribbon", None))
P_LO, P_HI = 10_000, 50_000


def op_seed(seed: int, wl: Workload, stream: int, i: int) -> int:
    """Master seed of operation i of a phase."""
    return int(np.random.SeedSequence([seed, wl.index, stream, i]).generate_state(1)[0])


def mc_config(
    seed: int, wl: Workload, stream: int, i: int,
    base_path: Optional[str], trials: Optional[int] = None, **overrides,
) -> harness.ExperimentConfig:
    """The config of operation i; the base-graph path is set for the
    uncolored model only."""
    cfg = replace(wl.config, seed=op_seed(seed, wl, stream, i), **overrides)
    if trials is not None:
        cfg = replace(cfg, trials=trials)
    if cfg.model == "uncolored":
        cfg = replace(cfg, base_path=base_path)
    return cfg


def _van_der_corput(k: int) -> float:
    x, denom = 0.0, 1.0
    while k:
        denom *= 2
        k, bit = divmod(k, 2)
        x += bit / denom
    return x


def exact_op(seed: int, stream: int, i: int) -> tuple[str, Optional[int], int]:
    """(model, D, p) of table i.  The models take turns; for each model, p
    walks [P_LO, P_HI) in van der Corput order shifted by a seeded offset, so
    that every prefix of the tables covers the range evenly.  The mix of
    table sizes, and with it the throughput, then does not depend on how many
    tables a run gets through."""
    model, D = EXACT_MODELS[i % len(EXACT_MODELS)]
    offset = np.random.default_rng(
        [seed, WORKLOADS["exact-table"].index, stream, i % len(EXACT_MODELS)]).random()
    x = (_van_der_corput(i // len(EXACT_MODELS)) + offset) % 1.0
    return model, D, P_LO + int(x * (P_HI - P_LO))

"""Monte Carlo experiment runner, statistical tests, and exhaustive
small-instance oracles.

Each trial owns a private RNG stream derived from (master seed, trial
index), so reports are bit-identical across runs and across worker counts.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import scipy.stats

from . import colored_graph as cg
from . import config_digraph as cd
from . import dual_complex as dc
from . import models
from . import predictions as pred
from .perm import Permutation, count_cycles, product_cycles

THREADS_ENV = "CHROMAPLEX_THREADS"


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------
# statistical tests


def z_test(mean: float, se: float, target: float) -> float:
    """Two-sided z-score of a sample mean against a target."""
    if se <= 0:
        raise ValueError("degenerate sample: zero standard error")
    return (mean - target) / se


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    jitter: float  # half-width of the continuity jitter, 0 when not applied
    n: int


def ks_normality(
    samples: Sequence[float],
    rng: Optional[np.random.Generator] = None,
    lattice_jitter: bool = True,
) -> KSResult:
    """One-sample Kolmogorov-Smirnov against the standard normal after
    studentizing with the sample mean and variance.

    Integer-valued samples get a uniform continuity jitter of half the
    lattice span (the gcd of the sample gaps); raw KS on lattice data with
    slowly growing variance over-rejects otherwise.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 samples")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: zero variance")
    jitter = 0.0
    if lattice_jitter:
        rounded = np.round(x)
        if np.allclose(x, rounded, atol=1e-9, rtol=0):
            levels = np.unique(rounded.astype(np.int64))
            if levels.size > 1:
                span = int(np.gcd.reduce(np.diff(levels)))
                if span > 0:
                    if rng is None:
                        rng = np.random.default_rng(0)
                    jitter = span / 2.0
                    x = x + rng.uniform(-jitter, jitter, size=x.size)
    z = (x - x.mean()) / x.std(ddof=1)
    stat, p_value = scipy.stats.kstest(z, "norm")
    return KSResult(statistic=float(stat), p_value=float(p_value), jitter=jitter, n=x.size)


@dataclass(frozen=True)
class DispersionResult:
    index: float       # sample variance / expected Poisson rate
    statistic: float   # sum (x - mean)^2 / rate, chi-square with n-1 dof
    p_value: float     # two-sided
    in_band: bool


def dispersion_test(
    counts: Sequence[float], rate: float, band: tuple[float, float] = (0.8, 1.2)
) -> DispersionResult:
    """Poisson index-of-dispersion check of integer counts against a rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    x = np.asarray(counts, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 counts")
    mean = x.mean()
    stat = float(((x - mean) ** 2).sum() / rate)
    dof = x.size - 1
    cdf = scipy.stats.chi2.cdf(stat, dof)
    p_value = float(2 * min(cdf, 1 - cdf))
    index = float(x.var(ddof=1) / rate)
    return DispersionResult(
        index=index, statistic=stat, p_value=p_value,
        in_band=band[0] <= index <= band[1],
    )


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    p: int
    trials: int
    seed: int
    D: Optional[int] = None
    base_path: Optional[str] = None
    observables: tuple[str, ...] = ()
    ks: tuple[str, ...] = ()          # e.g. "jacket_faces" or "genus|connected"
    dispersion: tuple[str, ...] = ()  # count observables tested against lambda_k
    distance_pairs: int = 0           # uniform point pairs per trial
    z_threshold: float = 4.0
    proportion_sigma: float = 3.0
    ks_alpha: float = 0.01
    slack_factor: float = 5.0
    var_band: tuple[float, float] = (0.5, 2.0)
    dispersion_band: tuple[float, float] = (0.8, 1.2)
    output: Optional[str] = None
    samples_sidecar: bool = False
    threads: Optional[int] = None


def _parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


_CONFIG_KEYS = {
    "model": str, "p": int, "trials": int, "seed": int, "D": int,
    "base": str, "observables": "list", "ks": "list", "dispersion": "list",
    "distance_pairs": int, "z_threshold": float, "proportion_sigma": float,
    "ks_alpha": float, "slack_factor": float, "var_band": _parse_band,
    "dispersion_band": _parse_band, "output": str,
    "samples": "bool", "threads": int,
}

_KEY_TO_FIELD = {"base": "base_path", "samples": "samples_sidecar"}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value grammar; '#' starts a comment, lists are
    comma-separated."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        conv = _CONFIG_KEYS[key]
        if conv == "list":
            raw[key] = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        elif conv == "bool":
            raw[key] = value.lower() in ("1", "true", "yes", "on")
        else:
            raw[key] = conv(value)
    for short, long in _KEY_TO_FIELD.items():
        if short in raw:
            raw[long] = raw.pop(short)
    for required in ("model", "p", "trials", "seed"):
        if required not in raw:
            raise ValueError(f"missing required config key {required!r}")
    return ExperimentConfig(**raw)  # type: ignore[arg-type]


def format_config(config: ExperimentConfig) -> str:
    lines = [
        f"model = {config.model}",
        f"p = {config.p}",
        f"trials = {config.trials}",
        f"seed = {config.seed}",
    ]
    if config.D is not None:
        lines.append(f"D = {config.D}")
    if config.base_path is not None:
        lines.append(f"base = {config.base_path}")
    if config.observables:
        lines.append("observables = " + ",".join(config.observables))
    if config.ks:
        lines.append("ks = " + ",".join(config.ks))
    if config.dispersion:
        lines.append("dispersion = " + ",".join(config.dispersion))
    if config.distance_pairs:
        lines.append(f"distance_pairs = {config.distance_pairs}")
    lines += [
        f"z_threshold = {config.z_threshold}",
        f"proportion_sigma = {config.proportion_sigma}",
        f"ks_alpha = {config.ks_alpha}",
        f"slack_factor = {config.slack_factor}",
        f"var_band = {config.var_band[0]}:{config.var_band[1]}",
        f"dispersion_band = {config.dispersion_band[0]}:{config.dispersion_band[1]}",
    ]
    if config.output:
        lines.append(f"output = {config.output}")
    if config.samples_sidecar:
        lines.append("samples = true")
    if config.threads is not None:
        lines.append(f"threads = {config.threads}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-trial observable computation


def _needed_observables(config: ExperimentConfig) -> frozenset[str]:
    need = set(config.observables)
    for spec in config.ks:
        obs, _, cond = spec.partition("|")
        need.add(obs)
        if cond:
            need.add(cond)
    need.update(config.dispersion)
    if config.distance_pairs:
        need.add("dist2_frac")
    return frozenset(need)


def _graph_common(G: cg.ColoredGraph, want, out: dict[str, float]) -> None:
    if "connected" in want or "components" in want:
        k = cg.component_count(G)
        out["connected"] = 1.0 if k == 1 else 0.0
        out["components"] = float(k)
    b2 = None
    if "b2" in want or "gurau_degree" in want:
        b2 = sum(
            cg.face_count(G, i, j)
            for i, j in itertools.combinations(range(G.D + 1), 2)
        )
        out["b2"] = float(b2)
    if "gurau_degree" in want:
        fact = math.factorial(G.D - 1)
        out["gurau_degree"] = fact / 2 * (G.D * (G.D - 1) / 2 * G.p + G.D - b2)
    if "bD" in want:
        out["bD"] = float(
            sum(
                cg.count_bubbles(G, [c for c in range(G.D + 1) if c != i])
                for i in range(G.D + 1)
            )
        )
    if "jacket_faces" in want or "jacket_parity_ok" in want:
        F = cg.jacket_faces(G, cg.canonical_jacket(G.D))
        out["jacket_faces"] = float(F)
        out["jacket_parity_ok"] = 1.0 if ((G.D + 1) * G.p - F) % 2 == 0 else 0.0


def _quotient_stats(G: cg.ColoredGraph, want, out: dict[str, float]) -> None:
    census = cd.analyze(cd.quotient_digraph(G, 1))
    out["k_of_S"] = float(census.component_count)
    out["giant_cover"] = float(census.giant_degree_sum)
    for name in ("C1", "C2", "C3", "C4"):
        out[name] = float(census.counts.get(int(name[1:]), 0))


def _distance_stats(
    G: cg.ColoredGraph, pairs: int, rng: np.random.Generator, out: dict[str, float]
) -> None:
    cx = dc.build_dual_complex(G)
    hits = 0
    for _ in range(pairs):
        if dc.sample_pair_distance(cx, rng) == 2:
            hits += 1
    out["dist2_frac"] = hits / pairs


def _trial(
    config: ExperimentConfig,
    base: Optional[models.BaseGraph],
    want: frozenset[str],
    rng: np.random.Generator,
) -> dict[str, float]:
    out: dict[str, float] = {}
    if config.model == "uniform":
        G = models.sample_uniform_model(config.D, config.p, rng)
        _graph_common(G, want, out)
    elif config.model == "quartic":
        G, _ = models.sample_quartic_model(config.D, config.p, rng)
        _graph_common(G, want, out)
        if want & {"k_of_S", "giant_cover", "C1", "C2", "C3", "C4"}:
            _quotient_stats(G, want, out)
    elif config.model == "uncolored":
        G = models.sample_uncolored_model(base, config.p, rng)
        _graph_common(G, want, out)
        if want & {"k_of_S", "giant_cover", "C1", "C2", "C3", "C4"}:
            _quotient_stats(G, want, out)
    elif config.model == "ribbon":
        m = models.sample_ribbon_map(config.p, rng)
        if "genus" in want:
            out["genus"] = float(models.ribbon_genus(m))
        if "connected" in want or "components" in want:
            k = models.ribbon_component_count(m)
            out["connected"] = 1.0 if k == 1 else 0.0
            out["components"] = float(k)
        if "faces" in want:
            out["faces"] = float(count_cycles(m.psi.images))
        if "map_vertices" in want:
            out["map_vertices"] = float(product_cycles(m.delta, m.psi))
    else:
        raise ValueError(f"unknown model {config.model!r}")
    if "dist2_frac" in want:
        _distance_stats(G, config.distance_pairs, rng, out)
    missing = want - out.keys()
    if missing:
        raise ValueError(
            f"observables {sorted(missing)} unsupported for model {config.model!r}"
        )
    return out


def _run_chunk(
    config: ExperimentConfig,
    base: Optional[models.BaseGraph],
    want: frozenset[str],
    lo: int,
    hi: int,
) -> dict[str, np.ndarray]:
    names = sorted(want)
    arrays = {name: np.empty(hi - lo) for name in names}
    for t in range(lo, hi):
        rng = substream(config.seed, t)
        row = _trial(config, base, want, rng)
        for name in names:
            arrays[name][t - lo] = row[name]
    return arrays


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class ReportRow:
    name: str
    kind: str            # mean | proportion | ks | dispersion | var-band | var-bound | invariant | info
    n: int
    mean: float
    variance: float
    se: float
    target: Optional[float]
    statistic: Optional[float]
    p_value: Optional[float]
    tolerance: Optional[float]
    verdict: str         # PASS | FAIL | INFO
    note: str = ""


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow]
    samples: dict[str, np.ndarray]
    runtime_seconds: float = 0.0  # metadata only, never serialized

    @property
    def all_pass(self) -> bool:
        return all(row.verdict != "FAIL" for row in self.rows)

    def row(self, name: str) -> ReportRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def report_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["name", "kind", "n", "mean", "variance", "se", "target", "statistic",
         "p_value", "tolerance", "verdict", "note"]
    )
    for r in report.rows:
        writer.writerow(
            [r.name, r.kind, str(r.n), _fmt(r.mean), _fmt(r.variance),
             _fmt(r.se), _fmt(r.target), _fmt(r.statistic), _fmt(r.p_value),
             _fmt(r.tolerance), r.verdict, r.note]
        )
    return buf.getvalue()


def report_summary(report: ExperimentReport) -> str:
    lines = ["# experiment", "", "```", format_config(report.config).rstrip(), "```", ""]
    width = max((len(r.name) for r in report.rows), default=4)
    for r in report.rows:
        bits = [f"{r.name:<{width}}  {r.kind:<10} {r.verdict:<4}"]
        bits.append(f"mean={r.mean:.6g} var={r.variance:.6g} se={r.se:.3g}")
        if r.target is not None:
            bits.append(f"target={r.target:.6g}")
        if r.statistic is not None:
            bits.append(f"stat={r.statistic:.4g}")
        if r.p_value is not None:
            bits.append(f"p={r.p_value:.4g}")
        if r.note:
            bits.append(f"[{r.note}]")
        lines.append("  ".join(bits))
    lines.append("")
    lines.append("verdict: " + ("PASS" if report.all_pass else "FAIL"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# test wiring


_MEAN_TESTED = {
    ("uniform", "b2"), ("uniform", "components"), ("uniform", "bD"),
    ("uniform", "jacket_faces"), ("uniform", "gurau_degree"),
    ("quartic", "b2"), ("quartic", "components"), ("quartic", "k_of_S"),
    ("quartic", "bD"), ("quartic", "C1"), ("quartic", "C2"), ("quartic", "C3"),
    ("quartic", "jacket_faces"), ("quartic", "gurau_degree"),
    ("ribbon", "genus"), ("uncolored", "components"),
}


def _stats(vals: np.ndarray) -> tuple[float, float, float]:
    mean = float(vals.mean())
    var = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
    se = math.sqrt(var / vals.size) if vals.size else 0.0
    return mean, var, se


def _prediction_for(config, base, obs) -> Optional[pred.Prediction]:
    try:
        return pred.predict(config.model, obs, D=config.D, p=config.p, base=base)
    except ValueError:
        return None


def _mean_row(config, obs, vals, prediction) -> ReportRow:
    mean, var, se = _stats(vals)
    target = prediction.as_float()
    slack = config.slack_factor * prediction.error_order
    tol = config.z_threshold * se + slack
    z = (mean - target) / se if se > 0 else math.inf
    verdict = "PASS" if abs(mean - target) <= tol else "FAIL"
    return ReportRow(
        name=obs, kind="mean", n=vals.size, mean=mean, variance=var, se=se,
        target=target, statistic=z, p_value=None, tolerance=tol, verdict=verdict,
        note=prediction.anchor,
    )


def _proportion_row(config, obs, vals, prediction) -> ReportRow:
    mean, var, se = _stats(vals)
    q = prediction.as_float()
    sigma = math.sqrt(max(q * (1 - q), 0.0) / vals.size)
    slack = config.slack_factor * prediction.error_order
    tol = config.proportion_sigma * sigma + slack
    stat = (mean - q) / sigma if sigma > 0 else math.inf
    verdict = "PASS" if abs(mean - q) <= tol else "FAIL"
    return ReportRow(
        name=obs, kind="proportion", n=vals.size, mean=mean, variance=var, se=se,
        target=q, statistic=stat, p_value=None, tolerance=tol, verdict=verdict,
        note=prediction.anchor,
    )


def _var_row(config, base, vals) -> Optional[ReportRow]:
    prediction = _prediction_for(config, base, "b2_var")
    if prediction is None:
        return None
    mean, var, se = _stats(vals)
    target = prediction.as_float()
    if config.model == "uniform":
        ratio = var / target
        lo, hi = config.var_band
        verdict = "PASS" if lo <= ratio <= hi else "FAIL"
        return ReportRow(
            name="b2_var", kind="var-band", n=vals.size, mean=mean, variance=var,
            se=se, target=target, statistic=ratio, p_value=None,
            tolerance=hi, verdict=verdict, note=f"band [{lo}..{hi}] vs {prediction.anchor}",
        )
    verdict = "PASS" if var <= target else "FAIL"
    return ReportRow(
        name="b2_var", kind="var-bound", n=vals.size, mean=mean, variance=var,
        se=se, target=target, statistic=var / target, p_value=None,
        tolerance=target, verdict=verdict, note=prediction.anchor,
    )


def _uncolored_k_rows(config, base, vals) -> list[ReportRow]:
    """Compare against both cycle-sum variants and record which matches."""
    mean, var, se = _stats(vals)
    constants = cd.model_constants(base)
    rows = []
    matched = []
    for label, include_k1 in (("k>=1", True), ("k>=2", False)):
        target = constants.expected_components(include_k1)
        tol = config.z_threshold * se
        ok = abs(mean - target) <= tol
        if ok:
            matched.append(label)
        rows.append(
            ReportRow(
                name=f"k_of_S[{label}]", kind="mean", n=vals.size, mean=mean,
                variance=var, se=se, target=target,
                statistic=(mean - target) / se if se > 0 else math.inf,
                p_value=None, tolerance=tol, verdict="INFO",
                note=f"1 + cycle sum from {label}",
            )
        )
    verdict = "PASS" if len(matched) == 1 else "FAIL"
    rows.append(
        ReportRow(
            name="k_of_S.variant", kind="invariant", n=vals.size, mean=mean,
            variance=var, se=se, target=None, statistic=None, p_value=None,
            tolerance=None, verdict=verdict,
            note="matched " + ("+".join(matched) if matched else "none"),
        )
    )
    return rows


def _check_distance_pairs(config: ExperimentConfig, want: frozenset[str]) -> None:
    if config.distance_pairs < 0:
        raise ValueError(f"distance_pairs must be >= 0, got {config.distance_pairs}")
    if config.model == "ribbon" and "dist2_frac" in want:
        raise ValueError(
            "dist2_frac and distance_pairs are unsupported for model 'ribbon' "
            "(a ribbon map has no dual complex)"
        )
    if "dist2_frac" in want and not config.distance_pairs:
        raise ValueError("dist2_frac needs distance_pairs > 0")


def _env_thread_cap() -> Optional[int]:
    """The worker cap from CHROMAPLEX_THREADS, None when it is unset."""
    text = os.environ.get(THREADS_ENV)
    if text is None:
        return None
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {text!r}")
    return cap


def run(config: ExperimentConfig, threads: Optional[int] = None) -> ExperimentReport:
    """Run the experiment and assemble verdict rows for every requested
    observable and distributional test."""
    t0 = time.perf_counter()
    base = models.load_base_graph(config.base_path) if config.base_path else None
    if config.model == "uncolored" and base is None:
        raise ValueError("uncolored model needs a base graph path")
    want = _needed_observables(config)
    if not want:
        raise ValueError("no observables requested")
    _check_distance_pairs(config, want)
    n = config.trials
    if n < 1:
        raise ValueError("need at least one trial")

    if threads is None:
        threads = config.threads
    if threads is None:
        threads = 1
    env_cap = _env_thread_cap()
    if env_cap is not None:
        threads = min(threads, env_cap)
    threads = max(1, min(threads, n))

    if threads == 1:
        samples = _run_chunk(config, base, want, 0, n)
    else:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(
                pool.map(
                    _run_chunk,
                    itertools.repeat(config),
                    itertools.repeat(base),
                    itertools.repeat(want),
                    (lo for lo, _ in chunks),
                    (hi for _, hi in chunks),
                )
            )
        samples = {
            name: np.concatenate([part[name] for part in parts])
            for name in sorted(want)
        }

    rows: list[ReportRow] = []
    for obs in config.observables:
        vals = samples[obs]
        if obs == "connected":
            prediction = _prediction_for(config, base, "connected")
            if prediction is not None:
                rows.append(_proportion_row(config, obs, vals, prediction))
                continue
        if obs == "jacket_parity_ok":
            ok = bool(np.all(vals == 1.0))
            mean, var, se = _stats(vals)
            rows.append(
                ReportRow(
                    name=obs, kind="invariant", n=vals.size, mean=mean,
                    variance=var, se=se, target=1.0, statistic=None, p_value=None,
                    tolerance=0.0, verdict="PASS" if ok else "FAIL",
                    note="(D+1)p - F even on every trial",
                )
            )
            continue
        if config.model == "uncolored" and obs == "k_of_S":
            rows.extend(_uncolored_k_rows(config, base, vals))
            continue
        if (config.model, obs) in _MEAN_TESTED:
            prediction = _prediction_for(config, base, obs)
            if prediction is not None:
                rows.append(_mean_row(config, obs, vals, prediction))
                if obs == "b2":
                    var_row = _var_row(config, base, vals)
                    if var_row is not None:
                        rows.append(var_row)
                continue
        mean, var, se = _stats(vals)
        rows.append(
            ReportRow(
                name=obs, kind="info", n=vals.size, mean=mean, variance=var,
                se=se, target=None, statistic=None, p_value=None, tolerance=None,
                verdict="INFO",
            )
        )

    for idx, spec in enumerate(config.ks):
        obs, _, cond = spec.partition("|")
        vals = samples[obs]
        if cond:
            vals = vals[samples[cond] == 1.0]
        rng = substream(config.seed, 2**31 + idx)
        result = ks_normality(vals, rng=rng)
        mean, var, se = _stats(vals)
        verdict = "PASS" if result.p_value >= config.ks_alpha else "FAIL"
        rows.append(
            ReportRow(
                name=f"ks:{spec}", kind="ks", n=result.n, mean=mean, variance=var,
                se=se, target=None, statistic=result.statistic,
                p_value=result.p_value, tolerance=config.ks_alpha, verdict=verdict,
                note=f"jitter +/-{result.jitter}",
            )
        )

    for obs in config.dispersion:
        vals = samples[obs]
        prediction = _prediction_for(config, base, obs)
        rate = prediction.as_float() if prediction is not None else float(vals.mean())
        result = dispersion_test(vals, rate, band=config.dispersion_band)
        mean, var, se = _stats(vals)
        rows.append(
            ReportRow(
                name=f"dispersion:{obs}", kind="dispersion", n=vals.size, mean=mean,
                variance=var, se=se, target=rate, statistic=result.index,
                p_value=result.p_value, tolerance=config.dispersion_band[1],
                verdict="PASS" if result.in_band else "FAIL",
                note=f"index band [{config.dispersion_band[0]}..{config.dispersion_band[1]}]",
            )
        )

    report = ExperimentReport(
        config=config, rows=rows, samples=samples,
        runtime_seconds=time.perf_counter() - t0,
    )
    if config.output:
        write_report(report)
    return report


def write_report(report: ExperimentReport) -> None:
    prefix = report.config.output
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    with open(prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    with open(prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(report_summary(report))
    if report.config.samples_sidecar:
        for name in sorted(report.samples):
            path = f"{prefix}.{name}.samples"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(repr(v) for v in report.samples[name].tolist()) + "\n")


# ---------------------------------------------------------------------------
# exhaustive oracles


@dataclass(frozen=True)
class UniformOracle:
    D: int
    p: int
    total: int
    p_connected: Fraction
    mean_components: Fraction
    mean_b2: Fraction
    mean_degree: Fraction
    mean_jacket_faces: Fraction
    joint: dict[tuple[bool, int, int, Fraction, int], Fraction]


def exhaustive_oracle(D: int, p: int, limit: int = 10**7) -> UniformOracle:
    """Exact distribution of (connected, components, b2, degree, jacket
    faces) by iterating every permutation tuple."""
    total = math.factorial(p) ** (D + 1)
    if total > limit:
        raise ValueError(f"state space {total} exceeds the bound {limit}")
    perms = [
        Permutation(np.array(images, dtype=np.int64), _trusted=True)
        for images in itertools.permutations(range(p))
    ]
    counter: dict[tuple[bool, int, int, Fraction, int], int] = {}
    conn = 0
    sum_k = 0
    sum_b2 = 0
    sum_deg = Fraction(0)
    sum_faces = 0
    jacket = cg.canonical_jacket(D)
    prefactor = Fraction(math.factorial(D - 1), 2) if D >= 2 else None
    for alphas in itertools.product(perms, repeat=D + 1):
        G = cg.ColoredGraph(D=D, p=p, alphas=alphas)
        k = cg.component_count(G)
        b2 = sum(
            cg.face_count(G, i, j) for i, j in itertools.combinations(range(D + 1), 2)
        )
        if prefactor is not None:
            deg = prefactor * (Fraction(D * (D - 1), 2) * p + D - b2)
        else:
            deg = Fraction(0)
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


def _fpf_involutions(n: int):
    """All fixed-point-free involutions of {0..n-1} as image lists."""
    points = list(range(n))

    def rec(remaining: list[int], img: list[int]):
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


@dataclass(frozen=True)
class RibbonOracle:
    p: int
    total: int
    p_connected: Fraction
    mean_genus: Fraction
    parity_ok: bool
    joint: dict[tuple[int, int, bool, int], Fraction]  # (faces, vertices, connected, genus)


def exhaustive_ribbon_oracle(p: int, limit: int = 10**7) -> RibbonOracle:
    """Exact joint law of (faces, vertices, connected, genus) over every
    (pairing, face permutation) pair."""
    n = 2 * p
    total = math.prod(range(1, n, 2)) * math.factorial(n)
    if total > limit:
        raise ValueError(f"state space {total} exceeds the bound {limit}")
    counter: dict[tuple[int, int, bool, int], int] = {}
    conn = 0
    genus_sum = 0
    parity_ok = True
    deltas = list(_fpf_involutions(n))
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

"""Monte Carlo experiment runner and statistical tests.

Each trial owns a private RNG stream derived from (master seed, trial
index), so reports are bit-identical across runs and across worker counts.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.stats

from . import config_digraph as cd
from . import models
from . import predictions as pred
from .observables import OBSERVABLES, SAMPLERS, Kernel, kernels_for

THREADS_ENV = "CHROMAPLEX_THREADS"


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------
# statistical tests


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    jitter: float  # half-width of the continuity jitter, 0 when not applied
    n: int


def ks_normality(samples: Sequence[float], rng: np.random.Generator) -> KSResult:
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
    rounded = np.round(x)
    if np.allclose(x, rounded, atol=1e-9, rtol=0):
        levels = np.unique(rounded.astype(np.int64))
        if levels.size > 1:
            span = int(np.gcd.reduce(np.diff(levels)))
            if span > 0:
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
    """One experiment. Each field is a key of the config grammar, under its
    own name except `base` and `samples` (see _ALIASES)."""

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


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# field type (X for Optional[X]) -> (parse one value, format one value)
_CODECS = {
    str: (str, str),
    int: (int, str),
    float: (float, str),
    bool: (_parse_bool, lambda flag: "true" if flag else "false"),
    tuple[str, ...]: (_parse_list, ",".join),
    tuple[float, float]: (_parse_band, lambda band: f"{band[0]}:{band[1]}"),
}
_ALIASES = {"base_path": "base", "samples_sidecar": "samples"}  # field -> key


def _set_type(hint):
    """X for Optional[X], else the hint itself."""
    if typing.get_origin(hint) is typing.Union:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint


_HINTS = typing.get_type_hints(ExperimentConfig)
# config key -> (field, codec), in field order
_KEYS = {
    _ALIASES.get(f.name, f.name): (f, _CODECS[_set_type(_HINTS[f.name])])
    for f in dataclasses.fields(ExperimentConfig)
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value grammar; '#' starts a comment, lists are
    comma-separated."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        field, (parse, _) = _KEYS[key]
        try:
            values[field.name] = parse(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value for key {key!r}: {value!r}") from None
    for key, (field, _) in _KEYS.items():
        if field.default is dataclasses.MISSING and field.name not in values:
            raise ValueError(f"missing required config key {key!r}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def format_config(config: ExperimentConfig) -> str:
    """The text parse_config reads back as `config`. A key whose default is
    empty (None, 0, (), False) is left out while it holds that default."""
    lines = []
    for key, (field, (_, fmt)) in _KEYS.items():
        value = getattr(config, field.name)
        if field.default is dataclasses.MISSING or field.default or value != field.default:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-trial observable computation


def _trial(
    config: ExperimentConfig,
    base: Optional[models.BaseGraph],
    kernels: list[Kernel],
    rng: np.random.Generator,
) -> dict:
    sample = SAMPLERS[config.model](config, base, rng)
    values: dict = {}
    for kernel in kernels:
        kernel(sample, values, config, rng)
    return values


def _run_chunk(
    config: ExperimentConfig,
    base: Optional[models.BaseGraph],
    want: set[str],
    lo: int,
    hi: int,
) -> dict[str, np.ndarray]:
    names = sorted(want)
    kernels = kernels_for(names)
    arrays = {name: np.empty(hi - lo) for name in names}
    for t in range(lo, hi):
        rng = substream(config.seed, t)
        row = _trial(config, base, kernels, rng)
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
    target: Optional[float] = None
    statistic: Optional[float] = None
    p_value: Optional[float] = None
    tolerance: Optional[float] = None
    verdict: str = "INFO"  # PASS | FAIL | INFO
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


def _row(name: str, kind: str, vals: np.ndarray, **fields) -> ReportRow:
    """A row over the samples `vals`, with their size, mean, variance and
    standard error."""
    mean, var, se = _stats(vals)
    return ReportRow(name=name, kind=kind, n=vals.size, mean=mean, variance=var, se=se, **fields)


def _tested_row(config, obs, kind, vals, prediction) -> ReportRow:
    """A mean row (z test) or a proportion row (binomial sigma) against the
    prediction, widened by its error order."""
    mean, _, se = _stats(vals)
    target = prediction.as_float()
    if kind == "proportion":
        spread = math.sqrt(max(target * (1 - target), 0.0) / vals.size)
        tol = config.proportion_sigma * spread
    else:
        spread = se
        tol = config.z_threshold * spread
    tol += config.slack_factor * prediction.error_order
    return _row(
        obs, kind, vals, target=target,
        statistic=(mean - target) / spread if spread > 0 else math.inf, tolerance=tol,
        verdict="PASS" if abs(mean - target) <= tol else "FAIL", note=prediction.anchor,
    )


def _var_row(config, base, vals) -> Optional[ReportRow]:
    prediction = _prediction_for(config, base, "b2_var")
    if prediction is None:
        return None
    var = _stats(vals)[1]
    target = prediction.as_float()
    if target == 0:
        # b2 is constant (uniform at p = 1): no ratio, the variance must be 0 exactly
        return _row(
            "b2_var", "var-band" if config.model == "uniform" else "var-bound", vals,
            target=target, statistic=var, tolerance=0.0,
            verdict="PASS" if var == 0 else "FAIL", note=f"exact vs {prediction.anchor}",
        )
    if config.model == "uniform":
        ratio = var / target
        lo, hi = config.var_band
        return _row(
            "b2_var", "var-band", vals, target=target, statistic=ratio, tolerance=hi,
            verdict="PASS" if lo <= ratio <= hi else "FAIL",
            note=f"band [{lo}..{hi}] vs {prediction.anchor}",
        )
    return _row(
        "b2_var", "var-bound", vals, target=target, statistic=var / target,
        tolerance=target, verdict="PASS" if var <= target else "FAIL", note=prediction.anchor,
    )


def _uncolored_k_rows(config, base, vals) -> list[ReportRow]:
    """Compare against both cycle-sum variants and record which matches."""
    mean, _, se = _stats(vals)
    constants = cd.model_constants(base)
    rows = []
    matched = []
    for label, include_k1 in (("k>=1", True), ("k>=2", False)):
        target = constants.expected_components(include_k1)
        tol = config.z_threshold * se
        if abs(mean - target) <= tol:
            matched.append(label)
        rows.append(
            _row(
                f"k_of_S[{label}]", "mean", vals, target=target,
                statistic=(mean - target) / se if se > 0 else math.inf,
                tolerance=tol, note=f"1 + cycle sum from {label}",
            )
        )
    rows.append(
        _row(
            "k_of_S.variant", "invariant", vals,
            verdict="PASS" if len(matched) == 1 else "FAIL",
            note="matched " + ("+".join(matched) if matched else "none"),
        )
    )
    return rows


def _check_request(config: ExperimentConfig, want: set[str]) -> None:
    """Reject, before any trial, what no trial of the model can measure."""
    if config.distance_pairs < 0:
        raise ValueError(f"distance_pairs must be >= 0, got {config.distance_pairs}")
    if config.model not in SAMPLERS:
        raise ValueError(f"unknown model {config.model!r}")
    models.check_sizes(config.model, config.D, config.p)
    unknown = sorted(want - OBSERVABLES.keys())
    if unknown:
        raise ValueError(f"unknown observables {unknown}")
    unsupported = sorted(n for n in want if config.model not in OBSERVABLES[n].models)
    if unsupported:
        raise ValueError(f"observables {unsupported} unsupported for model {config.model!r}")
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
    if config.model == "uncolored":
        if base is None:
            raise ValueError("uncolored model needs a base graph path")
        models.check_base_dimension(config.D, base)
    want = set(config.observables) | set(config.dispersion)
    for spec in config.ks:
        name, _, cond = spec.partition("|")
        want.add(name)
        if cond:
            want.add(cond)
    if config.distance_pairs:
        want.add("dist2_frac")
    if not want:
        raise ValueError("no observables requested")
    _check_request(config, want)
    n = config.trials
    if n < 1:
        raise ValueError("need at least one trial")

    if threads is None:
        threads = config.threads
    if threads is None:
        threads = 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
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
            futures = [pool.submit(_run_chunk, config, base, want, lo, hi) for lo, hi in chunks]
            parts = [future.result() for future in futures]
        samples = {
            name: np.concatenate([part[name] for part in parts])
            for name in sorted(want)
        }

    rows: list[ReportRow] = []
    for name in config.observables:
        vals = samples[name]
        kind = OBSERVABLES[name].tests.get(config.model, "info")
        if kind == "invariant":
            rows.append(_row(
                name, kind, vals, target=1.0, tolerance=0.0,
                verdict="PASS" if np.all(vals == 1.0) else "FAIL",
                note="(D+1)p - F even on every trial",
            ))
            continue
        if kind == "variant":
            rows.extend(_uncolored_k_rows(config, base, vals))
            continue
        prediction = None if kind == "info" else _prediction_for(config, base, name)
        if prediction is None:
            rows.append(_row(name, "info", vals))
            continue
        rows.append(_tested_row(config, name, kind, vals, prediction))
        if name == "b2":
            var_row = _var_row(config, base, vals)
            if var_row is not None:
                rows.append(var_row)

    for idx, spec in enumerate(config.ks):
        obs, _, cond = spec.partition("|")
        vals = samples[obs]
        if cond:
            vals = vals[samples[cond] == 1.0]
        result = ks_normality(vals, rng=substream(config.seed, 2**31 + idx))
        rows.append(_row(
            f"ks:{spec}", "ks", vals, statistic=result.statistic, p_value=result.p_value,
            tolerance=config.ks_alpha,
            verdict="PASS" if result.p_value >= config.ks_alpha else "FAIL",
            note=f"jitter +/-{result.jitter}",
        ))

    for obs in config.dispersion:
        vals = samples[obs]
        prediction = _prediction_for(config, base, obs)
        rate = prediction.as_float() if prediction is not None else float(vals.mean())
        result = dispersion_test(vals, rate, band=config.dispersion_band)
        lo, hi = config.dispersion_band
        rows.append(_row(
            f"dispersion:{obs}", "dispersion", vals, target=rate, statistic=result.index,
            p_value=result.p_value, tolerance=hi,
            verdict="PASS" if result.in_band else "FAIL", note=f"index band [{lo}..{hi}]",
        ))

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

"""Traced replay of the workloads, and timing of single kernels.

The replay calls the public chromaplex functions that a harness trial calls,
in the same draw order, and records one span around each call from outside
the package.  Every replayed experiment runs three times on the same config:
untraced through `harness.run` (threads=1), replayed with a null tracer, and
replayed with spans recorded.  The first two give the glue that `run` adds
around the kernels, the last two the cost of tracing itself.
"""
from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from chromaplex import colored_graph as cg
from chromaplex import config_digraph as cd
from chromaplex import dual_complex as dc
from chromaplex import harness, models, predictions
from chromaplex.perm import product_cycles

import workloads as W
from checks import check_experiment, check_table, table_digest

CONTAINERS = ("experiment", "trial")


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, op, trial]."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self._name = ""
        self.op = -1
        self.trial = -1

    def span(self, name: str) -> "Tracer":
        self._name = name
        return self

    def __enter__(self):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.records))
        rec = [self._name, 0, 0, parent, self.op, self.trial]
        self.records.append(rec)
        rec[1] = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.records[self._stack.pop()][2] = time.perf_counter_ns()
        return False


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    def __init__(self):
        self.op = -1
        self.trial = -1

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


@contextmanager
def counting_harmonic(tracer: Tracer, calls: list):
    """Route chromaplex.predictions.harmonic through a counter and a span,
    inside this process and for the duration of the block only."""
    original = predictions.harmonic

    def harmonic(n):
        calls.append((tracer.op, n))
        with tracer.span("predictions.harmonic"):
            return original(n)

    predictions.harmonic = harmonic
    try:
        yield
    finally:
        predictions.harmonic = original


def self_times(records: list[list]) -> list[int]:
    """Span duration minus the part its child spans cover, in ns."""
    covered = [0] * len(records)
    for rec in records:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - covered[i] for i, rec in enumerate(records)]


# ---------------------------------------------------------------------------
# replay of one harness trial per model, mirroring harness._trial


def _trial_uniform(cfg, base, rng, tr):
    with tr.span("models.sample_uniform_model"):
        G = models.sample_uniform_model(cfg.D, cfg.p, rng)
    with tr.span("colored_graph.jacket_faces"):
        F = cg.jacket_faces(G, cg.canonical_jacket(G.D))
    return {
        "jacket_faces": float(F),
        "jacket_parity_ok": 1.0 if ((G.D + 1) * G.p - F) % 2 == 0 else 0.0,
    }


def _trial_uncolored(cfg, base, rng, tr):
    with tr.span("models.sample_uncolored_model"):
        G = models.sample_uncolored_model(base, cfg.p, rng)
    with tr.span("config_digraph.quotient_digraph"):
        d = cd.quotient_digraph(G, 1)
    with tr.span("config_digraph.analyze"):
        census = cd.analyze(d)
    return {
        "k_of_S": float(census.component_count),
        "C1": float(census.counts.get(1, 0)),
        "C2": float(census.counts.get(2, 0)),
        "giant_cover": float(census.giant_degree_sum),
    }


def _trial_quartic_distance(cfg, base, rng, tr):
    with tr.span("models.sample_quartic_model"):
        G, _ = models.sample_quartic_model(cfg.D, cfg.p, rng)
    with tr.span("dual_complex.build_dual_complex"):
        cx = dc.build_dual_complex(G)
    with tr.span("dual_complex.sample_pair_distance"):
        hits = sum(1 for _ in range(cfg.distance_pairs) if dc.sample_pair_distance(cx, rng) == 2)
    return {"dist2_frac": hits / cfg.distance_pairs}


def _trial_ribbon(cfg, base, rng, tr):
    with tr.span("models.sample_ribbon_map"):
        m = models.sample_ribbon_map(cfg.p, rng)
    with tr.span("models.ribbon_genus"):
        g = models.ribbon_genus(m)
    with tr.span("models.ribbon_component_count"):
        k = models.ribbon_component_count(m)
    return {"genus": float(g), "connected": 1.0 if k == 1 else 0.0}


def _ks(cfg, vals, idx, tr):
    with tr.span("harness.ks_normality"):
        harness.ks_normality(vals, rng=harness.substream(cfg.seed, 2**31 + idx))


def _stats_uniform(cfg, base, s, tr):
    with tr.span("predictions.predict"):
        predictions.predict("uniform", "jacket_faces", D=cfg.D, p=cfg.p)
    _ks(cfg, s["jacket_faces"], 0, tr)


def _stats_uncolored(cfg, base, s, tr):
    with tr.span("config_digraph.model_constants"):
        cd.model_constants(base)
    rate = float(s["C1"].mean())
    with tr.span("predictions.predict"):
        try:
            rate = predictions.predict("uncolored", "C1", D=cfg.D, p=cfg.p, base=base).as_float()
        except ValueError:
            pass  # no closed form for C1 here; run() falls back to the sample mean too
    with tr.span("harness.dispersion_test"):
        harness.dispersion_test(s["C1"], rate, band=cfg.dispersion_band)


def _stats_quartic_distance(cfg, base, s, tr):
    pass  # dist2_frac is an information row: no prediction, no test


def _stats_ribbon(cfg, base, s, tr):
    with tr.span("predictions.predict"):
        predictions.predict("ribbon", "genus", p=cfg.p)
        predictions.predict("ribbon", "connected", p=cfg.p)
    _ks(cfg, s["genus"][s["connected"] == 1.0], 0, tr)


REPLAY = {
    "uniform": (_trial_uniform, _stats_uniform),
    "uncolored": (_trial_uncolored, _stats_uncolored),
    "quartic": (_trial_quartic_distance, _stats_quartic_distance),
    "ribbon": (_trial_ribbon, _stats_ribbon),
}


def replay_experiment(cfg: harness.ExperimentConfig, tr) -> dict[str, np.ndarray]:
    trial_fn, stats_fn = REPLAY[cfg.model]
    with tr.span("experiment"):
        base = None
        if cfg.base_path:
            with tr.span("models.load_base_graph"):
                base = models.load_base_graph(cfg.base_path)
        rows = []
        for t in range(cfg.trials):
            tr.trial = t
            with tr.span("trial"):
                rows.append(trial_fn(cfg, base, harness.substream(cfg.seed, t), tr))
        tr.trial = -1
        samples = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        with tr.span("harness.statistics"):
            stats_fn(cfg, base, samples, tr)
    return samples


# ---------------------------------------------------------------------------
# kernels on fixed inputs, at the configs of the ROADMAP baseline table

# ms per call measured when the baseline was taken (2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1, no gmpy2); None where the table has no row.
BASELINE_MS = {
    "models.sample_uniform_model.uniform_D3_p5000.ms": 0.55,
    "perm.product_cycles.p5000.ms": None,
    "colored_graph.jacket_faces.uniform_D3_p5000.ms": 3.7,
    "colored_graph.b2.uniform_D3_p5000.ms": 5.5,
    "colored_graph.component_count.uniform_D3_p5000.ms": 13.7,
    "colored_graph.bubble_census.uniform_D3_p5000.ms": 65.0,
    "config_digraph.quotient_analyze.quartic_D3_p2000.ms": 13.5,
    "dual_complex.build_dual_complex.quartic_D3_p2000.ms": 92.0,
    "models.sample_uncolored_model.quartic_p2000.ms": 24.0,
    "models.ribbon_genus.p3000.ms": 1.55,
    "models.ribbon_component_count.p3000.ms": 5.7,
    "predictions.harmonic.n100000.ms": None,
}


def time_kernels(seed: int) -> dict[str, list[float]]:
    """Each kernel once to warm up, then a fixed number of timed calls (ms)."""
    def rng(*key):
        return np.random.default_rng([seed, W.KERNELS, *key])

    Gu = models.sample_uniform_model(3, 5000, rng(0))
    Gq, _ = models.sample_quartic_model(3, 2000, rng(1))
    ribbon = models.sample_ribbon_map(3000, rng(2))
    base = models.quartic_base(3)
    jacket = cg.canonical_jacket(3)
    pairs = list(itertools.combinations(range(4), 2))
    cases = [
        ("models.sample_uniform_model.uniform_D3_p5000.ms", 7,
         lambda r: models.sample_uniform_model(3, 5000, rng(3, r))),
        ("perm.product_cycles.p5000.ms", 7, lambda r: product_cycles(Gu.alphas[0], Gu.alphas[1])),
        ("colored_graph.jacket_faces.uniform_D3_p5000.ms", 7, lambda r: cg.jacket_faces(Gu, jacket)),
        ("colored_graph.b2.uniform_D3_p5000.ms", 7,
         lambda r: sum(cg.face_count(Gu, i, j) for i, j in pairs)),
        ("colored_graph.component_count.uniform_D3_p5000.ms", 7, lambda r: cg.component_count(Gu)),
        ("colored_graph.bubble_census.uniform_D3_p5000.ms", 5, lambda r: cg.bubble_census(Gu)),
        ("config_digraph.quotient_analyze.quartic_D3_p2000.ms", 7,
         lambda r: cd.analyze(cd.quotient_digraph(Gq, 1))),
        ("dual_complex.build_dual_complex.quartic_D3_p2000.ms", 5, lambda r: dc.build_dual_complex(Gq)),
        ("models.sample_uncolored_model.quartic_p2000.ms", 7,
         lambda r: models.sample_uncolored_model(base, 2000, rng(4, r))),
        ("models.ribbon_genus.p3000.ms", 7, lambda r: models.ribbon_genus(ribbon)),
        ("models.ribbon_component_count.p3000.ms", 7, lambda r: models.ribbon_component_count(ribbon)),
        ("predictions.harmonic.n100000.ms", 3, lambda r: predictions.harmonic(100_000)),
    ]
    out = {}
    for name, repeats, fn in cases:
        fn(repeats)  # warm-up call on its own input
        times = []
        for r in range(repeats):
            t0 = time.perf_counter()
            fn(r)
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = times
    return out


# ---------------------------------------------------------------------------
# the traced run


@dataclass
class McReplay:
    wl: W.Workload
    deep: bool
    ops: list = field(default_factory=list)
    trials: int = 0
    run_s: float = 0.0
    off_s: float = 0.0
    on_s: float = 0.0


@dataclass
class TableReplay:
    deep: bool
    ops: list = field(default_factory=list)
    plain_s: float = 0.0
    traced_s: float = 0.0
    calls: list = field(default_factory=list)


class TracedRun:
    """Kernels on fixed inputs, then replays of every workload: the chosen
    one for `seconds` of experiments or tables, the others briefly."""

    def __init__(self, chosen: W.Workload, seed: int, seconds: float, base_path: str, say):
        self.chosen = chosen
        self.seed = seed
        self.seconds = seconds
        self.base_path = base_path
        self.say = say
        self.tracer = Tracer()
        self.next_op = 0
        self.attempted = 0
        self.failed_ops: set[str] = set()

    def _fail(self, what: str, problems: list[str]) -> None:
        for p in problems:
            self.failed_ops.add(what)
            self.say(f"FAILED {what}: {p}")

    def _mc_experiment(self, rep: McReplay, cfg) -> float:
        """Untraced run, null-tracer replay and traced replay of one config;
        returns the wall time of the three."""
        op = self.next_op
        self.next_op += 1
        self.attempted += 1
        t0 = time.perf_counter()
        report = harness.run(cfg, threads=1)
        t1 = time.perf_counter()
        off = replay_experiment(cfg, NullTracer())
        t2 = time.perf_counter()
        self.tracer.op = op
        with counting_harmonic(self.tracer, []):
            on = replay_experiment(cfg, self.tracer)
        t3 = time.perf_counter()
        self.tracer.op = -1
        rep.ops.append(op)
        rep.trials += cfg.trials
        rep.run_s += t1 - t0
        rep.off_s += t2 - t1
        rep.on_s += t3 - t2
        problems = [
            f"replay {name} differs from harness.run"
            for name in report.samples
            if not (np.array_equal(off[name], report.samples[name])
                    and np.array_equal(on[name], report.samples[name]))
        ]
        base = models.load_base_graph(cfg.base_path) if cfg.base_path else None
        problems += check_experiment(cfg, base, report.samples, 1)
        self._fail(f"{rep.wl.name} replay op {op}", problems)
        return t3 - t0

    def _table(self, rep: TableReplay, i: int) -> float:
        model, D, p = W.exact_op(self.seed, W.REPLAY, i)
        op = self.next_op
        self.next_op += 1
        self.attempted += 1
        t0 = time.perf_counter()
        plain = predictions.prediction_table(model, D=D, p=p)
        t1 = time.perf_counter()
        self.tracer.op = op
        with counting_harmonic(self.tracer, rep.calls):
            with self.tracer.span("predictions.prediction_table"):
                traced = predictions.prediction_table(model, D=D, p=p)
        t2 = time.perf_counter()
        self.tracer.op = -1
        rep.ops.append(op)
        rep.plain_s += t1 - t0
        rep.traced_s += t2 - t1
        problems = check_table(model, D, p, traced)
        if table_digest(plain) != table_digest(traced):
            problems.append("traced table differs from the plain one")
        self._fail(f"exact-table replay {model} p={p}", problems)
        return t2 - t0

    def _pool(self) -> tuple[float, float]:
        rb = W.WORKLOADS["ribbon-2proc"]
        cfg = W.mc_config(self.seed, rb, W.POOL, 0, None, trials=64)
        self.attempted += 1
        t0 = time.perf_counter()
        serial = harness.run(cfg, threads=1)
        t1 = time.perf_counter()
        pooled = harness.run(cfg, threads=2)
        t2 = time.perf_counter()
        if harness.report_csv(serial) != harness.report_csv(pooled):
            self._fail("ribbon pool", ["threads=2 report differs from threads=1"])
        small = W.mc_config(self.seed, rb, W.POOL, 1, None, trials=2, ks=())
        starts = []
        for _ in range(5):
            t3 = time.perf_counter()
            harness.run(small, threads=2)
            starts.append((time.perf_counter() - t3) * 1e3)
        return (t1 - t0) / (2 * (t2 - t1)), statistics.median(starts)

    def run(self) -> dict[str, tuple[float, str]]:
        kernels = time_kernels(self.seed)
        mc = {}
        for wl in W.MC_WORKLOADS:
            rep = mc[wl.name] = McReplay(wl, deep=wl is self.chosen)
            # One untimed trial first, so that no timed pass pays for this
            # config's first allocations.
            harness.run(W.mc_config(self.seed, wl, W.WARMUP, 1, self.base_path, trials=1,
                                    ks=(), dispersion=()), threads=1)
            spent, i = 0.0, 0
            while True:
                trials = None if rep.deep else wl.shallow_trials
                cfg = W.mc_config(self.seed, wl, W.REPLAY, i, self.base_path, trials=trials, threads=1)
                spent += self._mc_experiment(rep, cfg)
                i += 1
                if not rep.deep or spent >= self.seconds:
                    break
        exact = TableReplay(deep=self.chosen.is_exact)
        model, D, p = W.exact_op(self.seed, W.WARMUP, 0)
        predictions.prediction_table(model, D=D, p=p)
        spent, i = 0.0, 0
        while True:
            spent += self._table(exact, i)
            i += 1
            if i % len(W.EXACT_MODELS) == 0 and (not exact.deep or spent >= self.seconds):
                break
        efficiency, pool_start = self._pool()
        return self._metrics(kernels, mc, exact, efficiency, pool_start)

    # -- aggregation ---------------------------------------------------------

    def _metrics(self, kernels, mc, exact, efficiency, pool_start):
        records = self.tracer.records
        selfs = self_times(records)
        op_of = {}
        for name, rep in mc.items():
            for op in rep.ops:
                op_of[op] = name
        per_trial = defaultdict(list)    # (workload, span name) -> ms per trial
        stats_ms = defaultdict(list)     # workload -> ms per experiment
        layer_ns = defaultdict(float)    # workload -> non-container self time
        module_ns = defaultdict(float)   # (workload, module) -> self time
        loop_ns = defaultdict(float)     # workload -> container self time
        for rec, own in zip(records, selfs):
            name, start, end, _, op, trial = rec
            wl = op_of.get(op)
            if wl is None:
                continue
            if name in CONTAINERS:
                loop_ns[wl] += own
                continue
            layer_ns[wl] += own
            module_ns[wl, name.split(".")[0]] += own
            if trial >= 0:
                per_trial[wl, name].append(own / 1e6)
            if name == "harness.statistics":
                stats_ms[wl].append((end - start) / 1e6)

        def trial_median(wl, name):
            return statistics.median(per_trial[wl, name])

        metrics: dict[str, tuple[float, str]] = {}
        for wl, name in (
            ("uniform-jacket", "models.sample_uniform_model"),
            ("uncolored-quotient", "models.sample_uncolored_model"),
            ("dual-distance", "models.sample_quartic_model"),
            ("ribbon-2proc", "models.sample_ribbon_map"),
            ("uniform-jacket", "colored_graph.jacket_faces"),
            ("uncolored-quotient", "config_digraph.quotient_digraph"),
            ("uncolored-quotient", "config_digraph.analyze"),
            ("dual-distance", "dual_complex.build_dual_complex"),
            ("dual-distance", "dual_complex.sample_pair_distance"),
            ("ribbon-2proc", "models.ribbon_genus"),
            ("ribbon-2proc", "models.ribbon_component_count"),
        ):
            metrics[f"{name}.ms_per_trial"] = (trial_median(wl, name), "ms")

        # On a Monte Carlo workload the harness figures describe its own
        # experiments; exact-table never calls the harness, so there they
        # pool one short experiment of each Monte Carlo config.
        pool = [self.chosen.name] if not self.chosen.is_exact else list(mc)
        metrics["harness.statistics.ms_per_experiment"] = (
            sum(statistics.median(stats_ms[wl]) for wl in pool), "ms")
        metrics["harness.glue_frac"] = (
            1 - sum(layer_ns[wl] for wl in pool) / 1e9 / sum(mc[wl].run_s for wl in pool), "ratio")
        metrics["harness.parallel_efficiency"] = (efficiency, "ratio")
        metrics["harness.pool_start_ms"] = (pool_start, "ms")

        harmonic_ms = defaultdict(float)
        table_self_ms = {}
        table_ops = set(exact.ops)
        for rec, own in zip(records, selfs):
            if rec[4] not in table_ops:
                continue
            if rec[0] == "predictions.harmonic":
                harmonic_ms[rec[4]] += (rec[2] - rec[1]) / 1e6
            elif rec[0] == "predictions.prediction_table":
                table_self_ms[rec[4]] = own / 1e6
        distinct = sum(len({n for o, n in exact.calls if o == op}) for op in exact.ops)
        metrics["predictions.harmonic.ms_per_table"] = (
            statistics.median(harmonic_ms[op] for op in exact.ops), "ms")
        metrics["predictions.harmonic.calls_per_table"] = (len(exact.calls) / len(exact.ops), "count")
        metrics["predictions.harmonic.distinct_arg_ratio"] = (distinct / len(exact.calls), "ratio")
        metrics["predictions.prediction_table.self_ms"] = (statistics.median(table_self_ms.values()), "ms")

        for name, times in kernels.items():
            metrics[name] = (statistics.median(times), "ms")

        if self.chosen.is_exact:
            overhead = exact.traced_s / exact.plain_s - 1
        else:
            rep = mc[self.chosen.name]
            overhead = rep.on_s / rep.off_s - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")

        self._print_kernels(kernels)
        for wl, rep in mc.items():
            self._print_where(rep, module_ns, layer_ns[wl], loop_ns[wl], stats_ms[wl])
        self.say(
            f"exact-table replay: {len(exact.ops)} tables, harmonic "
            f"{metrics['predictions.harmonic.ms_per_table'][0]:.1f} ms/table over "
            f"{metrics['predictions.harmonic.calls_per_table'][0]:.3f} calls/table "
            f"(distinct/calls {metrics['predictions.harmonic.distinct_arg_ratio'][0]:.3f}), "
            f"prediction_table self {metrics['predictions.prediction_table.self_ms'][0]:.2f} ms; "
            f"traced/plain - 1 = {exact.traced_s / exact.plain_s - 1:+.4f}"
        )
        self.say(f"ribbon pool: parallel_efficiency {efficiency:.3f} (64 trials, threads 1 vs 2), "
                 f"pool_start_ms {pool_start:.1f} (2 trials at threads=2, median of 5)")
        return metrics

    def _print_kernels(self, kernels) -> None:
        self.say("kernels on fixed inputs (ms per call; ROADMAP baseline beside it):")
        for name, times in kernels.items():
            q1, med, q3 = np.percentile(times, [25, 50, 75])
            ref = BASELINE_MS[name]
            note = ""
            if ref is not None:
                note = f"baseline {ref:g}"
                if abs(med - ref) > q3 - q1:
                    note += f"  differs: measured {med:.3g} ({(med / ref - 1) * 100:+.0f}%)"
            self.say(f"  {name:<54} {med:9.3f}  [{q1:.3f}..{q3:.3f}] n={len(times)}  {note}")

    def _print_where(self, rep: McReplay, module_ns, layer_ns, loop_ns, stats_ms) -> None:
        wl = rep.wl.name
        n = rep.trials
        run_ms = rep.run_s * 1e3 / n
        glue = 1 - layer_ns / 1e9 / rep.run_s
        depth = "deep" if rep.deep else "short"
        self.say(
            f"where the time goes: {wl} ({depth} replay, {len(rep.ops)} experiment(s), {n} trials; "
            f"untraced harness.run {run_ms:.3f} ms/trial, statistics "
            f"{statistics.median(stats_ms):.2f} ms/experiment)"
        )
        shares = [(ns / 1e6 / n, mod) for (w, mod), ns in module_ns.items() if w == wl]
        shares.append((glue * run_ms, "harness.glue_frac"))
        for ms, mod in sorted(shares, reverse=True):
            self.say(f"  {mod:<20} {ms:9.3f} ms/trial  {ms / run_ms * 100:6.2f}%")
        self.say(
            f"  accounted {sum(ms for ms, _ in shares):.3f} of {run_ms:.3f} ms/trial; replay loop "
            f"{loop_ns / 1e6 / n:.3f} ms/trial of the glue; trace.overhead_frac "
            f"{rep.on_s / rep.off_s - 1:+.4f}"
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, trial in self.tracer.records:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "trial": trial}) + "\n")

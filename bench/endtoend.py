"""The end-to-end run: one workload's operations, one at a time with tracing
off, each checked outside its timed interval.  Before each operation the
reference loop of calibrate.py is timed, and the operation's wall time is
reported scaled to the host speed that loop measured (see calibrate.py); the
set-up time is scaled by the median loop time.  The raw wall times are
printed beside the scaled ones."""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from chromaplex import harness, models, predictions

import calibrate
import checks
import workloads as W

BENCH_PY = Path(__file__).resolve().with_name("bench.py")
SETUP_REPEATS = 3  # interpreters whose start-up is timed: this one and two probes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def probe_start(args) -> float:
    """Start-up time of a fresh interpreter doing the same set-up, up to the
    warm-up operation."""
    cmd = [sys.executable, str(BENCH_PY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=BENCH_PY.parent.parent, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["start_s"]


class Ops:
    """One workload's operations: how to make, run, check and digest them."""

    def __init__(self, wl: W.Workload, seed: int, base_path: str):
        self.wl, self.seed, self.base_path = wl, seed, base_path
        self.base = models.load_base_graph(base_path)

    def make(self, stream: int, i: int):
        if self.wl.is_exact:
            return W.exact_op(self.seed, stream, i)
        return W.mc_config(self.seed, self.wl, stream, i, self.base_path)

    def execute(self, op, threads=None):
        """threads overrides the config's worker count; tables ignore it."""
        if self.wl.is_exact:
            model, D, p = op
            return predictions.prediction_table(model, D=D, p=p)
        return harness.run(op, threads=threads)

    def items(self, op) -> int:
        return 1 if self.wl.is_exact else op.trials

    def check(self, op, out) -> list[str]:
        if self.wl.is_exact:
            return checks.check_table(*op, out)
        return checks.check_experiment(op, self.base, out.samples, self.wl.check_trials)

    def digest(self, out) -> str:
        if self.wl.is_exact:
            return checks.table_digest(out)
        return hashlib.sha256(harness.report_csv(out).encode()).hexdigest()

    def describe(self) -> str:
        if self.wl.is_exact:
            return (f"op = predictions.prediction_table, models {[m for m, _ in W.EXACT_MODELS]} in turn, "
                    f"p spread over [{W.P_LO}, {W.P_HI}) in van der Corput order")
        c = self.wl.config
        return (f"op = harness.run: model {c.model}, D={c.D}, p={c.p}, {c.trials} trials, "
                f"observables {','.join(c.observables)}, threads {c.threads or 1}")


def run(args, wl: W.Workload, base_path: str, t_start: float, say) -> dict:
    ops = Ops(wl, args.seed, base_path)
    first = ops.make(W.TIMED, 0)
    # A Monte Carlo workload warms up on operation 0 itself at threads=1, and
    # the timed run of it must give the same report: that is the repeat of
    # the determinism record, and on ribbon-2proc it also shows that the
    # report does not depend on the worker count.  exact-table warms up on an
    # input of its own, so that no timed table finds its p already seen.
    warm = ops.make(W.WARMUP, 0) if wl.is_exact else first
    t_ready = time.perf_counter()
    if args.setup_probe:
        return {"start_s": t_ready - t_start}
    warm_out = ops.execute(warm, threads=1)
    warm_s = time.perf_counter() - t_ready

    say(f"workload {wl.name}: closed loop, 1 client; {ops.describe()}")
    durations, cals, items, failed = [], [], 0, set()
    verdicts = Counter()
    digest = None
    i = 0
    deadline = time.perf_counter() + 3 * args.seconds  # in case operations fail at once
    while sum(durations) < args.seconds and time.perf_counter() < deadline:
        op = first if i == 0 else ops.make(W.TIMED, i)
        cals.append(calibrate.measure())
        t0 = time.perf_counter()
        try:
            out = ops.execute(op)
        except Exception:
            durations.append(time.perf_counter() - t0)
            failed.add(i)
            say(f"FAILED op {i}: raised\n{traceback.format_exc()}")
            i += 1
            continue
        durations.append(time.perf_counter() - t0)
        items += ops.items(op)
        try:
            problems = ops.check(op, out)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        for p in problems:
            say(f"FAILED op {i}: {p}")
        if problems:
            failed.add(i)
        if not wl.is_exact:
            verdicts.update(r.verdict for r in out.rows)
        if i == 0:
            digest = ops.digest(out)
        i += 1
    attempted = i

    if digest is not None:
        again = ops.digest(ops.execute(first) if wl.is_exact else warm_out)
        same = again == digest
        say(f"determinism: op 0 sha256 {digest}; "
            f"{'repeated' if wl.is_exact else 'warm-up run of it at threads=1'}: "
            f"{'identical' if same else 'DIFFERENT ' + again}")
        if not same:
            failed.add(0)
    rss = peak_rss_mb()
    starts = [t_ready - t_start] + [probe_start(args) for _ in range(SETUP_REPEATS - 1)]
    setup_wall = statistics.median(starts) + warm_s

    scaled = [d * calibrate.REFERENCE_S / c for d, c in zip(durations, cals)]
    setup_scale = calibrate.REFERENCE_S / statistics.median(cals)
    wall = sum(durations)
    per_s, per_s_scaled = items / wall, items / sum(scaled)
    op_p50, op_p50_scaled = statistics.median(durations), statistics.median(scaled)
    unit = "tables/s" if wl.is_exact else "trials/s"
    say(f"host speed: reference loop median {statistics.median(cals) * 1e3:.2f} ms against "
        f"{calibrate.REFERENCE_S * 1e3:.1f} ms at definition; each operation's scaled time is its "
        f"wall time * {calibrate.REFERENCE_S * 1e3:.1f} ms / the loop time before it "
        f"(loop ms: {', '.join(f'{c * 1e3:.1f}' for c in cals)})")
    say(f"{'tables_per_s' if wl.is_exact else 'trials_per_s'} {per_s:.4f} {unit} wall, "
        f"{per_s_scaled:.4f} scaled ({items} {'tables' if wl.is_exact else 'trials'} "
        f"in {wall:.3f} s of timed operations, {sum(scaled):.3f} s scaled)")
    say(f"op_s_p50 {op_p50:.4f} s wall, {op_p50_scaled:.4f} scaled (n={len(durations)} operations: "
        f"{', '.join(f'{d:.3f}' for d in durations)})")
    say(f"setup_s {setup_wall:.4f} s wall, {setup_wall * setup_scale:.4f} scaled (imports, base graph "
        f"and inputs: median of {', '.join(f'{s:.3f}' for s in starts)} s over {SETUP_REPEATS} "
        f"interpreters; plus warm-up operation {warm_s:.3f} s)")
    say(f"peak_rss_mb {rss:.1f} MB")
    say(f"ops_failed_frac {len(failed) / attempted:.4f} ({len(failed)} of {attempted} operations)")
    if verdicts:
        say("statistical verdicts, information only (FAIL can occur by chance at these trial counts): "
            + ", ".join(f"{k} {verdicts[k]}" for k in sorted(verdicts)))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            "items_per_s_scaled": {"value": per_s_scaled, "unit": "items/s"},
            "op_s_p50_scaled": {"value": op_p50_scaled, "unit": "s"},
            "setup_s": {"value": setup_wall * setup_scale, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }

"""The benchmark's own tests: every correctness check passes on real output
and fires on a corrupted one, the replay reproduces harness.run, and the
benchmark refuses to run without the chromaplex sources.

    python3 -m pytest bench -q
"""
import gc
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from chromaplex import harness, models, predictions  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SMALL = {
    "uniform-jacket": dict(p=60, trials=12),
    "uncolored-quotient": dict(p=40, trials=30),
    "dual-distance": dict(p=40, trials=3, distance_pairs=200),
    "ribbon-2proc": dict(p=40, trials=12),
}


@pytest.fixture(scope="module")
def base_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "quartic_D3.txt"
    path.write_text(models.base_to_text(models.quartic_base(3)))
    return str(path)


def small_config(name, base_path):
    return W.mc_config(11, W.WORKLOADS[name], W.TIMED, 0, base_path, threads=1, **SMALL[name])


@pytest.fixture(scope="module")
def reports(base_path):
    out = {}
    for name in SMALL:
        cfg = small_config(name, base_path)
        out[name] = (cfg, harness.run(cfg))
    return out


@pytest.mark.parametrize("name, observable, corrupt", [
    ("uniform-jacket", "jacket_faces", lambda v: v + 2),
    ("uniform-jacket", "jacket_parity_ok", lambda v: v * 0),
    ("uncolored-quotient", "k_of_S", lambda v: v + 1),
    ("ribbon-2proc", "genus", lambda v: v + 1),
    ("ribbon-2proc", "connected", lambda v: 1 - v),
    ("dual-distance", "dist2_frac", lambda v: v + 1 / 200),
])
def test_trial_check_fires_on_corrupted_observable(reports, base_path, name, observable, corrupt):
    cfg, report = reports[name]
    base = models.load_base_graph(base_path)
    k = W.WORKLOADS[name].check_trials
    assert checks.check_experiment(cfg, base, report.samples, k) == []
    bad = dict(report.samples)
    bad[observable] = corrupt(report.samples[observable])
    problems = checks.check_experiment(cfg, base, bad, k)
    assert problems and observable in problems[0]


def test_trial_check_fires_on_missing_trials(reports, base_path):
    cfg, report = reports["uniform-jacket"]
    bad = {name: vals[:-1] for name, vals in report.samples.items()}
    assert checks.check_experiment(cfg, None, bad, 2)


@pytest.mark.parametrize("model, D", W.EXACT_MODELS)
def test_table_checks(model, D):
    p = 1000
    table = predictions.prediction_table(model, D=D, p=p)
    assert checks.check_table(model, D, p, table) == []
    harmonic_row = "genus" if model == "ribbon" else "jacket_faces"
    shifted = [replace(r, value=r.value + Fraction(1, 10**6)) if r.observable == harmonic_row else r
               for r in table]
    assert any("H_" in p for p in checks.check_table(model, D, p, shifted))
    assert checks.check_table(model, D, p, table[:-1])
    if D is not None:
        degree = [replace(r, value=r.value + 1) if r.observable == "gurau_degree" else r
                  for r in table]
        assert any("gurau_degree" in p for p in checks.check_table(model, D, p, degree))


def test_table_digest_sees_any_changed_value():
    table = predictions.prediction_table("quartic", D=3, p=500)
    again = predictions.prediction_table("quartic", D=3, p=500)
    assert checks.table_digest(table) == checks.table_digest(again)
    changed = [replace(table[0], value=table[0].value + Fraction(1, 10**30))] + table[1:]
    assert checks.table_digest(changed) != checks.table_digest(table)


@pytest.mark.parametrize("name", list(SMALL))
def test_replay_reproduces_harness_run(reports, name):
    cfg, report = reports[name]
    tracer = tracing.Tracer()
    samples = tracing.replay_experiment(cfg, tracer)
    assert samples.keys() == report.samples.keys()
    for obs, vals in samples.items():
        assert np.array_equal(vals, report.samples[obs]), obs
    names = {rec[0] for rec in tracer.records}
    assert {"experiment", "trial", "harness.statistics"} <= names


def test_self_times_subtract_children():
    records = [["a", 0, 100, -1, 0, -1], ["b", 10, 40, 0, 0, -1], ["c", 50, 60, 0, 0, -1],
               ["d", 12, 20, 1, 0, -1]]
    assert tracing.self_times(records) == [60, 22, 10, 8]


def test_counting_harmonic_restores_the_module_attribute():
    original = predictions.harmonic
    calls = []
    tracer = tracing.Tracer()
    with tracing.counting_harmonic(tracer, calls):
        predictions.prediction_table("uniform", D=3, p=50)
    assert predictions.harmonic is original
    assert [n for _, n in calls] == [50, 50, 50]


def test_exact_inputs_are_seeded_and_cover_the_range_evenly():
    assert [W.exact_op(5, W.TIMED, i) for i in range(6)] == [W.exact_op(5, W.TIMED, i) for i in range(6)]
    assert W.exact_op(5, W.TIMED, 0) != W.exact_op(6, W.TIMED, 0)
    for m, (model, D) in enumerate(W.EXACT_MODELS):
        ops = [W.exact_op(7, W.TIMED, 3 * k + m) for k in range(8)]
        assert all(op[:2] == (model, D) for op in ops)
        eighths = {(p - W.P_LO) * 8 // (W.P_HI - W.P_LO) for _, _, p in ops}
        assert eighths == set(range(8))


def test_reference_loop_is_fixed_work_and_restores_the_collector():
    assert calibrate.reference_loop() == calibrate.EXPECTED
    assert gc.isenabled()
    assert calibrate.measure() > 0
    assert gc.isenabled()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "uniform-jacket", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text())["paths"] == ["bench"]

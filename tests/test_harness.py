"""Statistical tests, exhaustive oracles, and the experiment runner."""
import dataclasses
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromaplex import dual_complex as dc
from chromaplex import harness
from chromaplex.harness import (
    ExperimentConfig,
    dispersion_test,
    format_config,
    ks_normality,
    parse_config,
    report_csv,
    report_summary,
    run,
    substream,
)
from chromaplex.models import base_to_text, quartic_base, sample_quartic_model
from chromaplex.oracles import exhaustive_oracle, exhaustive_ribbon_oracle


def _no_trials(*args):
    raise AssertionError("a trial ran")


# any config the grammar can carry: tokens free of ',', '#', '=' and
# whitespace, finite or infinite floats
_TOKENS = st.text("abcXYZ019_-./|:", min_size=1, max_size=8)
_WORDS = st.lists(_TOKENS, max_size=3).map(tuple)
_FLOATS = st.floats(allow_nan=False)
_BANDS = st.tuples(_FLOATS, _FLOATS)
_CONFIGS = st.builds(
    ExperimentConfig,
    model=_TOKENS, p=st.integers(), trials=st.integers(), seed=st.integers(),
    D=st.none() | st.integers(), base_path=st.none() | _TOKENS,
    observables=_WORDS, ks=_WORDS, dispersion=_WORDS, distance_pairs=st.integers(),
    z_threshold=_FLOATS, proportion_sigma=_FLOATS, ks_alpha=_FLOATS, slack_factor=_FLOATS,
    var_band=_BANDS, dispersion_band=_BANDS, output=st.none() | _TOKENS,
    samples_sidecar=st.booleans(), threads=st.none() | st.integers(),
)


class TestSubstream:
    def test_deterministic_and_distinct(self):
        a = substream(7, 3).integers(1 << 30, size=4)
        b = substream(7, 3).integers(1 << 30, size=4)
        c = substream(7, 4).integers(1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestKSNormality:
    def test_calibration_true_normal(self):
        # false-rejection rate at alpha = 0.01 stays near nominal
        reps, n = 200, 10**4
        passes = 0
        for r in range(reps):
            rng = substream(1000, r)
            res = ks_normality(rng.normal(size=n), rng=rng)
            passes += res.p_value >= 0.01
        assert passes / reps >= 0.98

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ks_normality([3.0] * 100, rng=substream(2, 0))

    def test_lattice_span_detection(self):
        rng = substream(2, 0)
        ints = np.round(rng.normal(scale=8, size=4000))
        res1 = ks_normality(ints, rng=substream(2, 1))
        assert res1.jitter == 0.5
        res2 = ks_normality(2 * ints, rng=substream(2, 2))
        assert res2.jitter == 1.0
        cont = rng.normal(size=4000)
        res3 = ks_normality(cont, rng=substream(2, 3))
        assert res3.jitter == 0.0

    def test_span_two_lattice_needs_wide_jitter(self):
        # normal rounded to the even lattice: span-aware jitter keeps the
        # nominal level, a half-unit jitter would not
        rng = substream(3, 0)
        data = 2 * np.round(rng.normal(scale=2.6, size=5000))
        res = ks_normality(data, rng=substream(3, 1))
        assert res.p_value >= 0.01

    def test_detects_gross_non_normality(self):
        rng = substream(4, 0)
        res = ks_normality(rng.exponential(size=5000), rng=rng)
        assert res.p_value < 0.01


class TestDispersion:
    def test_poisson_synthetic(self):
        rng = substream(5, 0)
        counts = rng.poisson(1 / 3, size=5000)
        res = dispersion_test(counts, 1 / 3)
        assert 0.9 < res.index < 1.1
        assert res.in_band

    def test_overdispersed_flagged(self):
        rng = substream(6, 0)
        counts = rng.poisson(rng.gamma(0.5, 2.0, size=4000))
        res = dispersion_test(counts, 1.0)
        assert not res.in_band

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dispersion_test([1, 2, 3], 0.0)


class TestExhaustiveOracle:
    def test_d2_p2_exact_values(self):
        oracle = exhaustive_oracle(2, 2)
        assert oracle.total == 8
        assert oracle.p_connected == Fraction(3, 4)
        assert oracle.mean_b2 == Fraction(9, 2)  # 3 * H_2
        assert sum(oracle.joint.values()) == 1

    def test_d3_p1_always_melon(self):
        oracle = exhaustive_oracle(3, 1)
        assert oracle.total == 1
        ((connected, k, b2, degree, faces),) = oracle.joint
        assert connected and k == 1 and b2 == 6 and degree == 0 and faces == 4

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_oracle(2, 6)

    @pytest.mark.parametrize("D, p", [(10**4, 1), (4, 4), (1, 10**9)])
    def test_work_bound_enforced_before_enumeration(self, D, p):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_oracle(D, p)
        assert time.perf_counter() - t0 < 0.5

    def test_sampler_converges_to_oracle(self):
        from chromaplex import colored_graph as cg
        from chromaplex.models import sample_uniform_model

        oracle = exhaustive_oracle(2, 3)
        n_draws = 3000
        conn = 0
        for t in range(n_draws):
            G = sample_uniform_model(2, 3, substream(7, t))
            conn += cg.is_connected(G)
        q = float(oracle.p_connected)
        se = math.sqrt(q * (1 - q) / n_draws)
        assert abs(conn / n_draws - q) < 4 * se


class TestRibbonOracle:
    def test_p1_genus_zero(self):
        oracle = exhaustive_ribbon_oracle(1)
        assert oracle.total == 2
        assert oracle.mean_genus == 0
        assert all(genus == 0 for (_, _, _, genus) in oracle.joint)
        assert oracle.p_connected == 1

    def test_p2_parity_and_totals(self):
        oracle = exhaustive_ribbon_oracle(2)
        assert oracle.total == 72
        assert oracle.parity_ok
        assert sum(oracle.joint.values()) == 1
        assert oracle.p_connected == Fraction(5, 6)

    def test_p3_mean_genus_matches_formula(self):
        from chromaplex.predictions import harmonic

        oracle = exhaustive_ribbon_oracle(3)
        assert oracle.mean_genus == 1 + Fraction(3, 2) - harmonic(6)

    def test_sampler_converges_to_ribbon_oracle(self):
        from chromaplex.models import ribbon_genus, sample_ribbon_map

        oracle = exhaustive_ribbon_oracle(3)
        n_draws = 4000
        genus = np.empty(n_draws)
        for t in range(n_draws):
            genus[t] = ribbon_genus(sample_ribbon_map(3, substream(8, t)))
        target = float(oracle.mean_genus)
        se = genus.std(ddof=1) / math.sqrt(n_draws)
        assert abs(genus.mean() - target) < 4 * se

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_ribbon_oracle(5)
        with pytest.raises(ValueError, match="exceeds"):  # a total past int-to-str limits
            exhaustive_ribbon_oracle(10**4)


class TestConfigIO:
    def test_round_trip(self):
        config = ExperimentConfig(
            model="quartic", p=100, trials=50, seed=3, D=3,
            observables=("connected", "b2"), ks=("jacket_faces",),
            dispersion=("C1",), distance_pairs=10, output="out/run",
            samples_sidecar=True, threads=2,
        )
        assert parse_config(format_config(config)) == config

    def test_format_golden_every_field_set(self):
        config = ExperimentConfig(
            model="uncolored", p=12, trials=7, seed=0, D=3, base_path="bases/q.txt",
            observables=("k_of_S", "C1"), ks=("genus|connected", "b2"), dispersion=("C1", "C2"),
            distance_pairs=9, z_threshold=0.0, proportion_sigma=2.5, ks_alpha=0.05,
            slack_factor=1.25, var_band=(0.25, 4.0), dispersion_band=(0.5, 1.5),
            output="out/golden", samples_sidecar=True, threads=3,
        )
        assert format_config(config) == (
            "model = uncolored\n"
            "p = 12\n"
            "trials = 7\n"
            "seed = 0\n"
            "D = 3\n"
            "base = bases/q.txt\n"
            "observables = k_of_S,C1\n"
            "ks = genus|connected,b2\n"
            "dispersion = C1,C2\n"
            "distance_pairs = 9\n"
            "z_threshold = 0.0\n"
            "proportion_sigma = 2.5\n"
            "ks_alpha = 0.05\n"
            "slack_factor = 1.25\n"
            "var_band = 0.25:4.0\n"
            "dispersion_band = 0.5:1.5\n"
            "output = out/golden\n"
            "samples = true\n"
            "threads = 3\n"
        )
        assert parse_config(format_config(config)) == config

    def test_format_golden_minimal(self):
        config = ExperimentConfig(model="ribbon", p=30, trials=10, seed=1)
        assert format_config(config) == (
            "model = ribbon\n"
            "p = 30\n"
            "trials = 10\n"
            "seed = 1\n"
            "z_threshold = 4.0\n"
            "proportion_sigma = 3.0\n"
            "ks_alpha = 0.01\n"
            "slack_factor = 5.0\n"
            "var_band = 0.5:2.0\n"
            "dispersion_band = 0.8:1.2\n"
        )
        assert parse_config(format_config(config)) == config

    def test_comments_and_whitespace(self):
        config = parse_config(
            "# experiment\nmodel = ribbon\np= 30\ntrials =10\nseed=1\n"
            "observables = genus , connected\n"
        )
        assert config.model == "ribbon"
        assert config.observables == ("genus", "connected")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("model=ribbon\np=3\ntrials=1\nseed=0\nbogus=1\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("model=ribbon\np=3\ntrials=1\n")

    @pytest.mark.parametrize("line, key, value", [
        ("p = abc", "p", "abc"),
        ("z_threshold = four", "z_threshold", "four"),
        ("var_band = 0.5", "var_band", "0.5"),
        ("samples = maybe", "samples", "maybe"),
        ("threads = 1.5", "threads", "1.5"),
    ])
    def test_bad_value_names_line_and_key(self, line, key, value):
        with pytest.raises(ValueError) as info:
            parse_config(f"model = ribbon\n# comment\n{line}\ntrials = 1\nseed = 0\np = 3\n")
        assert str(info.value) == f"line 3: bad value for key {key!r}: {value!r}"

    def test_required_fields_have_no_default(self):
        with pytest.raises(TypeError):
            ExperimentConfig()

    @given(config=_CONFIGS)
    def test_round_trip_any_config(self, config):
        assert parse_config(format_config(config)) == config

    def test_readme_grammar_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file grammar", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        parse_config(block)
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()]
        assert sorted(keys) == sorted(harness._KEYS)


class TestRun:
    def _config(self, **kw):
        defaults = dict(
            model="uniform", p=20, trials=200, seed=11, D=2,
            observables=("connected", "components", "b2"),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_report_rows_and_verdicts(self):
        report = run(self._config())
        names = [r.name for r in report.rows]
        assert names == ["connected", "components", "b2", "b2_var"]
        assert report.row("connected").kind == "proportion"
        assert report.row("b2").kind == "mean"
        assert report.row("b2").verdict in ("PASS", "FAIL")
        assert report.all_pass  # generous tolerances at these sizes

    def test_zero_predicted_variance_checked_exactly(self):
        # b2 is constant at p = 1, where the predicted variance D(D+1)/2 ln p is 0
        report = run(self._config(p=1, trials=5, seed=1, observables=("b2",)))
        row = report.row("b2_var")
        assert (row.target, row.statistic, row.tolerance) == (0.0, 0.0, 0.0)
        assert row.verdict == "PASS"
        assert "b2_var" in report_csv(report)

    def test_bit_identical_reports(self):
        a = run(self._config())
        b = run(self._config())
        assert report_csv(a) == report_csv(b)
        assert report_summary(a) == report_summary(b)

    def test_parallel_matches_serial(self):
        serial = run(self._config(), threads=1)
        parallel = run(self._config(), threads=3)
        assert report_csv(serial) == report_csv(parallel)
        for name in serial.samples:
            assert np.array_equal(serial.samples[name], parallel.samples[name])

    def test_env_caps_threads(self, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV, "1")
        report = run(self._config(trials=50), threads=4)
        assert report.all_pass or True  # just exercising the capped path

    @pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-2"])
    def test_bad_env_threads_rejected(self, monkeypatch, value):
        monkeypatch.setenv(harness.THREADS_ENV, value)
        with pytest.raises(ValueError, match=harness.THREADS_ENV):
            run(self._config(trials=5))

    def test_ks_and_parity_rows(self):
        config = ExperimentConfig(
            model="uniform", p=200, trials=400, seed=5, D=3,
            observables=("jacket_faces", "jacket_parity_ok"),
            ks=("jacket_faces",),
        )
        report = run(config)
        parity = report.row("jacket_parity_ok")
        assert parity.kind == "invariant" and parity.verdict == "PASS"
        ks_row = report.row("ks:jacket_faces")
        assert ks_row.kind == "ks" and ks_row.p_value is not None
        assert "jitter +/-1.0" in ks_row.note  # face counts live on a span-2 lattice

    def test_ribbon_conditioned_ks(self):
        config = ExperimentConfig(
            model="ribbon", p=100, trials=500, seed=6,
            observables=("genus", "connected"), ks=("genus|connected",),
        )
        report = run(config)
        row = report.row("ks:genus|connected")
        assert row.n <= 500

    def test_quartic_rows(self):
        config = ExperimentConfig(
            model="quartic", p=150, trials=150, seed=7, D=3,
            observables=("k_of_S", "C1", "C2", "giant_cover"),
            dispersion=("C1",),
        )
        report = run(config)
        assert report.row("giant_cover").kind == "info"
        assert report.row("dispersion:C1").kind == "dispersion"
        assert report.row("C1").target == pytest.approx(1 / 3)

    def test_uncolored_dual_variant_rows(self, tmp_path):
        base_path = tmp_path / "base.txt"
        base_path.write_text(base_to_text(quartic_base(3)))
        config = ExperimentConfig(
            model="uncolored", p=150, trials=200, seed=8,
            base_path=str(base_path), observables=("k_of_S",),
        )
        report = run(config)
        names = [r.name for r in report.rows]
        assert names == ["k_of_S[k>=1]", "k_of_S[k>=2]", "k_of_S.variant"]
        assert report.row("k_of_S.variant").note.startswith("matched")

    def test_output_files(self, tmp_path):
        out = tmp_path / "exp" / "report"
        config = self._config(output=str(out), samples_sidecar=True, trials=50)
        run(config)
        assert (tmp_path / "exp" / "report.csv").exists()
        assert (tmp_path / "exp" / "report.txt").exists()
        sidecar = tmp_path / "exp" / "report.b2.samples"
        assert len(sidecar.read_text().splitlines()) == 50

    def test_unsupported_observable_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            run(self._config(observables=("k_of_S",)))

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            run(self._config(trials=0))

    def test_no_observables_rejected(self):
        with pytest.raises(ValueError, match="observables"):
            run(self._config(observables=()))

    def test_parallel_uncolored(self, tmp_path):
        # base graphs must survive the worker boundary
        base_path = tmp_path / "base.txt"
        base_path.write_text(base_to_text(quartic_base(3)))
        config = ExperimentConfig(
            model="uncolored", p=40, trials=60, seed=21,
            base_path=str(base_path), observables=("k_of_S", "connected"),
        )
        serial = run(config, threads=1)
        parallel = run(config, threads=2)
        assert report_csv(serial) == report_csv(parallel)

    def test_distance_observable(self):
        config = ExperimentConfig(
            model="quartic", p=100, trials=20, seed=9, D=3,
            observables=("dist2_frac",), distance_pairs=50,
        )
        report = run(config)
        assert 0.5 < report.row("dist2_frac").mean <= 1.0

    def test_distance_never_builds_the_tuple_complex(self, monkeypatch):
        def tuples(*args):
            raise AssertionError("dist2_frac went through the tuple-based complex")

        monkeypatch.setattr(dc, "build_dual_complex", tuples)
        monkeypatch.setattr(dc, "sample_pair_distance", tuples)
        config = ExperimentConfig(
            model="quartic", p=50, trials=4, seed=9, D=3,
            observables=("dist2_frac",), distance_pairs=40,
        )
        report = run(config)
        assert report.all_pass and report.row("dist2_frac").n == 4

    def test_distance_equals_the_scalar_draws(self):
        # trial by trial, dist2_frac is distance == 2 over the pairs that
        # sample_pair_distance draws from the trial's stream
        config = ExperimentConfig(
            model="quartic", p=60, trials=6, seed=4, D=3,
            observables=("dist2_frac",), distance_pairs=80,
        )
        samples = run(config).samples["dist2_frac"]
        for t in range(config.trials):
            rng = substream(config.seed, t)
            cx = dc.build_dual_complex(sample_quartic_model(3, 60, rng)[0])
            hits = sum(dc.sample_pair_distance(cx, rng) == 2 for _ in range(80))
            assert samples[t] == hits / 80

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(model="quartic", D=3, distance_pairs=-5), "distance_pairs must be >= 0"),
            (dict(model="quartic", D=3, observables=("dist2_frac",)), "needs distance_pairs > 0"),
            (dict(model="ribbon", observables=("genus",), distance_pairs=10), "unsupported for model 'ribbon'"),
        ],
    )
    def test_bad_distance_pairs_rejected_before_sampling(self, monkeypatch, kw, message):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_chunk", no_trials)
        with pytest.raises(ValueError, match=message):
            run(self._config(**kw))

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(model="tetrahedral"), "unknown model 'tetrahedral'"),
            (dict(observables=("b2", "bogus")), r"unknown observables \['bogus'\]"),
            (dict(observables=("genus",)), "unsupported for model 'uniform'"),
            (dict(ks=("b2|genus",)), r"\['genus'\] unsupported"),
            (dict(ks=("C1|connected",)), r"\['C1'\] unsupported"),
            (dict(dispersion=("faces",)), r"\['faces'\] unsupported"),
            (dict(model="ribbon", observables=("genus", "b2_var")), r"\['b2_var'\] unsupported"),
            (dict(threads=0), "threads must be >= 1, got 0"),
            (dict(threads=-3), "threads must be >= 1, got -3"),
            (dict(D=None), "uniform model needs D >= 1"),
            (dict(model="quartic", D=None), "quartic model needs D >= 2"),
            (dict(model="quartic", D=1), "quartic model needs D >= 2"),
            (dict(p=0), "uniform model needs p >= 1"),
            (dict(model="ribbon", p=0, observables=("genus",)), "ribbon model needs p >= 1"),
        ],
    )
    def test_bad_request_rejected_before_sampling(self, monkeypatch, kw, message):
        monkeypatch.setattr(harness, "_run_chunk", _no_trials)
        with pytest.raises(ValueError, match=message):
            run(self._config(**kw))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_argument_rejected(self, monkeypatch, threads):
        monkeypatch.setattr(harness, "_run_chunk", _no_trials)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run(self._config(), threads=threads)

    def test_threads_clamped_to_trials(self):
        report = run(self._config(trials=2, threads=5))
        assert report.samples["b2"].size == 2


_UNIFORM_ROWS = {
    "connected": [("connected", "proportion")],
    "components": [("components", "mean")],
    "b2": [("b2", "mean"), ("b2_var", "var-band")],
    "bD": [("bD", "mean")],
    "gurau_degree": [("gurau_degree", "mean")],
    "jacket_faces": [("jacket_faces", "mean")],
    "jacket_parity_ok": [("jacket_parity_ok", "invariant")],
    "dist2_frac": [("dist2_frac", "info")],
}
_QUARTIC_ROWS = {
    **_UNIFORM_ROWS,
    "b2": [("b2", "mean"), ("b2_var", "var-bound")],
    **{name: [(name, "mean")] for name in ("k_of_S", "C1", "C2", "C3")},
    **{name: [(name, "info")] for name in ("C4", "giant_cover")},
}
_UNCOLORED_ROWS = {
    "connected": [("connected", "proportion")],
    "components": [("components", "mean")],
    "k_of_S": [("k_of_S[k>=1]", "mean"), ("k_of_S[k>=2]", "mean"),
               ("k_of_S.variant", "invariant")],
    "jacket_parity_ok": [("jacket_parity_ok", "invariant")],
    **{name: [(name, "info")] for name in (
        "b2", "bD", "gurau_degree", "jacket_faces", "giant_cover",
        "C1", "C2", "C3", "C4", "dist2_frac")},
}
_RIBBON_ROWS = {
    "connected": [("connected", "proportion")],
    "genus": [("genus", "mean")],
    **{name: [(name, "info")] for name in ("components", "faces", "map_vertices")},
}


@pytest.fixture(scope="module")
def quartic_base_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "base.txt"
    path.write_text(base_to_text(quartic_base(3)))
    return str(path)


@pytest.mark.parametrize(
    "model, D, observable, rows",
    [("uniform", 3, obs, rows) for obs, rows in _UNIFORM_ROWS.items()]
    + [("uniform", 2, "bD", [("bD", "info")])]  # no prediction at D = 2
    + [("quartic", 3, obs, rows) for obs, rows in _QUARTIC_ROWS.items()]
    + [("uncolored", None, obs, rows) for obs, rows in _UNCOLORED_ROWS.items()]
    + [("ribbon", None, obs, rows) for obs, rows in _RIBBON_ROWS.items()],
)
def test_row_kinds_per_observable(quartic_base_path, model, D, observable, rows):
    config = ExperimentConfig(
        model=model, p=20, trials=12, seed=3, D=D,
        base_path=quartic_base_path if model == "uncolored" else None,
        observables=(observable,),
        distance_pairs=10 if observable == "dist2_frac" else 0,
    )
    report = run(config)
    assert [(r.name, r.kind) for r in report.rows] == rows
    assert sorted(report.samples) == [observable]


def test_uncolored_d_must_match_the_base(quartic_base_path, monkeypatch):
    config = ExperimentConfig(
        model="uncolored", p=20, trials=3, seed=1, D=7,
        base_path=quartic_base_path, observables=("k_of_S",),
    )
    with monkeypatch.context() as m:
        m.setattr(harness, "_run_chunk", _no_trials)
        with pytest.raises(ValueError, match="D = 7 contradicts the base graph's D = 3"):
            run(config)
    for D in (None, 3):
        assert run(dataclasses.replace(config, D=D)).row("k_of_S[k>=1]").n == 3

"""Command-line entry point.

Subcommands: sample (emit one serialized graph/map), experiment (run a
config file through the harness), exact (prediction table), oracle
(exhaustive small-instance enumeration), inspect (summarize a serialized
graph).  Exit codes: 0 success, 1 experiment verdict failure, 2 usage or
config errors.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import colored_graph as cg
from . import dual_complex as dc
from . import harness, models, oracles, predictions
from .observables import SAMPLERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chromaplex")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="emit one serialized graph or map")
    p_sample.add_argument("--model", required=True,
                          choices=tuple(SAMPLERS))
    p_sample.add_argument("--D", type=int)
    p_sample.add_argument("--p", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--base", help="base graph file (uncolored model)")
    p_sample.add_argument("--out", help="output path (default: stdout)")

    p_exp = sub.add_parser("experiment", help="run a config file through the harness")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--threads", type=int)

    p_exact = sub.add_parser("exact", help="print the prediction table")
    p_exact.add_argument("--model", required=True,
                         choices=tuple(SAMPLERS))
    p_exact.add_argument("--D", type=int)
    p_exact.add_argument("--p", type=int, required=True)
    p_exact.add_argument("--base")

    p_oracle = sub.add_parser("oracle", help="run an exhaustive oracle")
    p_oracle.add_argument("--model", required=True, choices=("uniform", "ribbon"))
    p_oracle.add_argument("--D", type=int)
    p_oracle.add_argument("--p", type=int, required=True)

    p_inspect = sub.add_parser("inspect", help="summarize a serialized graph or map")
    p_inspect.add_argument("path")
    return parser


def _cmd_sample(args) -> int:
    models.check_sizes(args.model, args.D, args.p)
    if args.model == "uncolored" and not args.base:
        raise ValueError("--base is required for the uncolored model")
    base = models.load_base_graph(args.base) if args.model == "uncolored" else None
    sample = SAMPLERS[args.model](args, base, np.random.default_rng(args.seed))
    text = models.ribbon_to_text(sample) if args.model == "ribbon" else cg.to_text(sample)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = harness.parse_config(fh.read())
    report = harness.run(config, threads=args.threads)
    sys.stdout.write(harness.report_summary(report))
    print(f"runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    return 0 if report.all_pass else 1


def _cmd_exact(args) -> int:
    base = models.load_base_graph(args.base) if args.base else None
    if args.model == "uncolored" and base is None:
        raise ValueError("--base is required for the uncolored model")
    rows = predictions.prediction_table(args.model, D=args.D, p=args.p, base=base)
    if not rows:
        raise ValueError("no predictions available at these parameters")
    sys.stdout.write(predictions.predictions_csv(rows))
    return 0


def _cmd_oracle(args) -> int:
    if args.model == "uniform":
        if args.D is None:
            raise ValueError("--D is required for the uniform oracle")
        oracle = oracles.exhaustive_oracle(args.D, args.p)
        print(f"uniform D={oracle.D} p={oracle.p}: {oracle.total} permutation tuples")
        print(f"P(connected) = {predictions.format_value(oracle.p_connected)}")
        print(f"E[k] = {predictions.format_value(oracle.mean_components)}")
        print(f"E[b2] = {predictions.format_value(oracle.mean_b2)}")
        print(f"E[degree] = {predictions.format_value(oracle.mean_degree)}")
        print(f"E[jacket_faces] = {predictions.format_value(oracle.mean_jacket_faces)}")
    else:
        oracle = oracles.exhaustive_ribbon_oracle(args.p)
        print(f"ribbon p={oracle.p}: {oracle.total} (pairing, faces) pairs")
        print(f"P(connected) = {predictions.format_value(oracle.p_connected)}")
        print(f"E[genus] = {predictions.format_value(oracle.mean_genus)}")
        print(f"parity invariant: {'holds' if oracle.parity_ok else 'VIOLATED'}")
    return 0


def _cmd_inspect(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = text.split(None, 1)[0] if text.split() else ""
    if first == "ribbon":
        m = models.ribbon_from_text(text)
        k = models.ribbon_component_count(m)
        faces, vertices, genus = models.ribbon_cycles(m)
        print(f"ribbon map: p={m.p} half-edges={2 * m.p}")
        print(f"connected: {'yes' if k == 1 else f'no (components = {k})'}")
        print(f"faces = {faces}; vertices = {vertices}")
        print(f"genus = {genus}")
        return 0
    G = cg.from_text(text)
    census = cg.bubble_census(G)
    k = cg.component_count(G)
    print(f"colored graph: D={G.D} p={G.p} vertices={2 * G.p}")
    print(f"connected: {'yes' if k == 1 else f'no (components = {k})'}")
    print(f"b = {[census[i] for i in range(G.D + 2)]}")
    if G.D >= 2:
        degree_faces = cg.gurau_degree_via_faces(G)
        print(f"degree (face formula) = {predictions.format_value(degree_faces)}")
        if k == 1:
            degree_jackets = cg.gurau_degree_via_jackets(G)
            print(f"degree (jacket genera) = {predictions.format_value(degree_jackets)}")
    cx = dc.build_dual_complex(G)
    census_pts = dc.point_color_census(cx)
    colors = " ".join(f"{c}:{census_pts[c]}" for c in sorted(census_pts))
    print(f"dual complex: {cx.n_points} points, {cx.n_edges} edges; points per color {colors}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "experiment": _cmd_experiment,
        "exact": _cmd_exact,
        "oracle": _cmd_oracle,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

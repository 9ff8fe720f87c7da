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
from fractions import Fraction

import numpy as np

from . import colored_graph as cg
from . import dual_complex as dc
from . import harness, models, predictions
from .observables import SAMPLERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chromaplex")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="emit one serialized graph or map")
    p_sample.add_argument("--model", required=True,
                          choices=("uniform", "quartic", "uncolored", "ribbon"))
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
                         choices=("uniform", "quartic", "uncolored", "ribbon"))
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


def _rational(value: Fraction) -> str:
    return predictions.format_value(value)


def _cmd_sample(args) -> int:
    if args.model in ("uniform", "quartic") and args.D is None:
        raise SystemExit2(f"--D is required for the {args.model} model")
    if args.model == "uncolored" and not args.base:
        raise SystemExit2("--base is required for the uncolored model")
    base = models.load_base_graph(args.base) if args.model == "uncolored" else None
    sample = SAMPLERS[args.model](args, base, np.random.default_rng(args.seed))
    if args.model == "ribbon":
        text = f"ribbon {sample.p}\n{sample.delta.serialize()}\n{sample.psi.serialize()}\n"
    else:
        text = cg.to_text(sample)
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
        raise SystemExit2("--base is required for the uncolored model")
    rows = predictions.prediction_table(args.model, D=args.D, p=args.p, base=base)
    if not rows:
        raise SystemExit2("no predictions available at these parameters")
    sys.stdout.write(predictions.predictions_csv(rows))
    return 0


def _cmd_oracle(args) -> int:
    if args.model == "uniform":
        if args.D is None:
            raise SystemExit2("--D is required for the uniform oracle")
        oracle = harness.exhaustive_oracle(args.D, args.p)
        print(f"uniform D={oracle.D} p={oracle.p}: {oracle.total} permutation tuples")
        print(f"P(connected) = {_rational(oracle.p_connected)}")
        print(f"E[k] = {_rational(oracle.mean_components)}")
        print(f"E[b2] = {_rational(oracle.mean_b2)}")
        print(f"E[degree] = {_rational(oracle.mean_degree)}")
        print(f"E[jacket_faces] = {_rational(oracle.mean_jacket_faces)}")
    else:
        oracle = harness.exhaustive_ribbon_oracle(args.p)
        print(f"ribbon p={oracle.p}: {oracle.total} (pairing, faces) pairs")
        print(f"P(connected) = {_rational(oracle.p_connected)}")
        print(f"E[genus] = {_rational(oracle.mean_genus)}")
        print(f"parity invariant: {'holds' if oracle.parity_ok else 'VIOLATED'}")
    return 0


def _cmd_inspect(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = text.split(None, 1)[0] if text.split() else ""
    if first == "ribbon":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        p = int(lines[0].split()[1])
        from .perm import Permutation, count_cycles, product_cycles

        delta = Permutation.deserialize(lines[1])
        psi = Permutation.deserialize(lines[2])
        m = models.RibbonMap(p=p, delta=delta, psi=psi)
        k = models.ribbon_component_count(m)
        print(f"ribbon map: p={p} half-edges={2 * p}")
        print(f"connected: {'yes' if k == 1 else f'no (components = {k})'}")
        print(f"faces = {count_cycles(psi.images)}; vertices = {product_cycles(delta, psi)}")
        print(f"genus = {models.ribbon_genus(m)}")
        return 0
    G = cg.from_text(text)
    census = cg.bubble_census(G)
    k = cg.component_count(G)
    print(f"colored graph: D={G.D} p={G.p} vertices={2 * G.p}")
    print(f"connected: {'yes' if k == 1 else f'no (components = {k})'}")
    print(f"b = {[census[i] for i in range(G.D + 2)]}")
    if G.D >= 2:
        degree_faces = cg.gurau_degree_via_faces(G)
        print(f"degree (face formula) = {_rational(degree_faces)}")
        if k == 1:
            degree_jackets = cg.gurau_degree_via_jackets(G)
            print(f"degree (jacket genera) = {_rational(degree_jackets)}")
    cx = dc.build_dual_complex(G)
    census_pts = dc.point_color_census(cx)
    colors = " ".join(f"{c}:{census_pts[c]}" for c in sorted(census_pts))
    print(f"dual complex: {cx.n_points} points, {cx.n_edges} edges; points per color {colors}")
    return 0


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


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
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

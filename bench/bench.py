#!/usr/bin/env python3
"""chromaplex benchmark: one closed-loop client (one operation at a time)
drives one workload through chromaplex's public API, checks every output and
prints every metric by name with its unit.

Run from the root of a repository checkout:

    python3 bench/bench.py --workload uniform-jacket --seed 1 --seconds 22 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the traced replay and the single-kernel timings and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; everything above it is for people.
Workloads and metrics are declared in BENCHMARK.json.  The checks have their
own tests:

    python3 -m pytest bench -q
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def say(line: str = "") -> None:
    print(line, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import, write the base graph, make the inputs, print the time "
                         "taken as JSON and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> str:
    import chromaplex
    import numpy
    import scipy

    gmpy2 = "present" if importlib.util.find_spec("gmpy2") else "absent (harmonic uses pure Fraction)"
    return (
        f"chromaplex {chromaplex.__version__}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, gmpy2 {gmpy2}, "
        f"nproc {len(os.sched_getaffinity(0))}, seed {seed}, commit {git_commit()}"
    )


def traced(args, wl, base_path: str) -> dict:
    import tracing

    run = tracing.TracedRun(wl, args.seed, args.seconds, base_path, say)
    say(f"workload {wl.name}: traced replay, deep on this workload and short on the others, "
        "plus single-kernel timings")
    metrics = run.run()
    spans = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    run.write_spans(str(spans))
    say(f"{len(run.tracer.records)} spans written to {spans.relative_to(ROOT)}")
    return {
        "correct": not run.failed_ops,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chromaplex" / "__init__.py").is_file():
        print(f"bench: no chromaplex sources under {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CHROMAPLEX_THREADS", None)  # each workload fixes its own worker count
    import chromaplex
    from chromaplex import models

    if Path(chromaplex.__file__).resolve().parent != SRC / "chromaplex":
        print(f"bench: imported chromaplex from {chromaplex.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    base_path = str(OUT / f"quartic_D3_base.{os.getpid()}.txt")
    try:
        with open(base_path, "w", encoding="utf-8") as fh:
            fh.write(models.base_to_text(models.quartic_base(3)))
        if not args.setup_probe:
            say("# chromaplex benchmark")
            say("provenance: " + provenance(args.seed))
        if args.trace:
            result = traced(args, wl, base_path)
        else:
            import endtoend

            result = endtoend.run(args, wl, base_path, T_START, say)
    finally:
        os.remove(base_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

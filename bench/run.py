"""Benchmark of biharm: one workload, one seed, one JSON line.

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; biharm is imported from its ``src``.
The run times ``setup_s`` in fresh interpreters, makes the seeded inputs
and their references, then repeats whole rounds of the workload until
``--seconds`` have passed, checking every round's outputs.  The last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians over rounds
of the primary and secondary sections, set-up time and peak memory.  With
``--trace 1`` every other round runs with every layer wrapped (tracing.py);
the metrics are then the per-layer figures of one round and the tracing
overhead, and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("exact_sweep", "kernel_eval", "dirichlet_grid")
SETUP_REPEATS = 7

# One thread per process: this benchmark measures single-core work.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def _hooks():
    from tracing import Hook

    def points(args, kwargs, result):
        return len(result)

    def unknowns(args, kwargs, result):
        return args[0].ncols()

    def coeff_bits(args, kwargs, result):
        return max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for poly in result.expansion.terms.values() for c in poly.values()),
            default=0,
        )

    return [
        Hook("biharm.builder.solve_linear", "exact.solve_linear", counts={"exact.unknowns": unknowns}),
        Hook("biharm.builder.assemble_system", "builder.assemble_system"),
        Hook("biharm.builder.build_raw", "builder.build_raw", counts={"builder.coeff_bits_max": coeff_bits}),
        Hook("biharm.conjecture.build_raw", "builder.build_raw", counts={"builder.coeff_bits_max": coeff_bits}),
        Hook("biharm.builder.build", "builder.build"),
        Hook("biharm.numeric.build", "builder.build"),
        Hook("biharm.cli.build", "builder.build"),
        Hook("biharm.conjecture.biharmonic", "operators.biharmonic"),
        Hook("biharm.builder.biharmonic_via_rules", "operators.biharmonic_via_rules"),
        Hook("biharm.cli.biharmonic_via_rules", "operators.biharmonic_via_rules"),
        Hook("biharm.builder.expansion_boundary", "boundary.expansion_boundary"),
        Hook("biharm.conjecture.expansion_boundary", "boundary.expansion_boundary"),
        Hook("biharm.cli.expansion_boundary", "boundary.expansion_boundary"),
        Hook("biharm.conjectured_kernel", "conjecture.conjectured_kernel"),
        Hook("biharm.conjecture.conjectured_kernel", "conjecture.conjectured_kernel"),
        Hook("biharm.cli.verify_conjecture", "conjecture.verify_conjecture"),
        Hook(
            "biharm.numeric.values_at",
            "numeric.values_at",
            counts={"numeric.values_at_points": points},
            nested={"numeric.quad_nodes": "numeric.solve_dirichlet", "numeric.l1_nodes": "numeric.l1_norm"},
        ),
        Hook("biharm.eval_kernel", "numeric.eval_kernel"),
        Hook("biharm.numeric._eval_extended", "numeric.eval_extended"),
        Hook("biharm.solve_dirichlet", "numeric.solve_dirichlet"),
        Hook("biharm.cli.integral_mean", "numeric.integral_mean"),
        Hook("biharm.cli.l1_norm", "numeric.l1_norm"),
        Hook("biharm.cli.main", "cli.main"),
        Hook("biharm.cli.to_document", "cli.to_document"),
    ]


# per-layer metric -> unit; each is a key of the tracer's buckets
LAYER_METRICS = {
    "exact.solve_linear_s": "s",
    "exact.solve_linear_calls": "count",
    "exact.unknowns": "count",
    "builder.assemble_system_s": "s",
    "builder.build_calls": "count",
    "builder.build_s": "s",
    "builder.coeff_bits_max": "bits",
    "operators.biharmonic_s": "s",
    "operators.biharmonic_via_rules_s": "s",
    "boundary.expansion_boundary_s": "s",
    "conjecture.conjectured_kernel_s": "s",
    "conjecture.verify_conjecture_self_s": "s",
    "numeric.values_at_s": "s",
    "numeric.values_at_points": "count",
    "numeric.eval_kernel_s": "s",
    "numeric.eval_extended_calls": "count",
    "numeric.solve_dirichlet_self_s": "s",
    "numeric.quad_nodes": "count",
    "numeric.integral_mean_s": "s",
    "numeric.l1_norm_s": "s",
    "numeric.l1_nodes": "count",
    "cli.main_s": "s",
    "cli.to_document_s": "s",
    "cli.document_bytes": "bytes",
    "probes_s": "s",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload: str) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time from
    starting one to the end of the workload's set-up, speed-normalised."""
    from meter import Meter
    from tracing import median

    meter = Meter("python")
    for _ in range(SETUP_REPEATS):
        meter.time(
            subprocess.run,
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            timeout=120,
            check=True,
        )
    return median(meter.sections)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "biharm" / "__init__.py").is_file():
        print(f"bench: no biharm sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    import biharm
    import biharm.cli
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer(_hooks()) if args.trace else None
    if tracer:
        tracer.install()
        setup_bucket = tracer.new_bucket()
    state = workload.setup(biharm)
    if tracer:
        tracer.uninstall()
    errors = workload.prepare(biharm, state)

    # A traced run alternates untraced and traced rounds, so that the two
    # kinds share the machine's conditions and the overhead can be read off.
    rounds, buckets = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer and len(rounds) % 2:
            tracer.install()
            buckets.append(tracer.new_bucket())
            rounds.append(workload.run_round(biharm, state, tracer))
            tracer.uninstall()
        else:
            rounds.append(workload.run_round(biharm, state))
        if time.perf_counter() >= deadline and (not tracer or buckets):
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors += [e for r in rounds for e in r.errors]
    probe_errors = sorted({e for r in rounds for e in r.probe_errors})
    for line in errors[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    for line in probe_errors:
        print(f"bench: probe failed (known fault): {line}", file=sys.stderr)

    if tracer:
        def timed(kind):
            return tracing.median([r.primary.normalised + r.secondary.normalised for r in kind])

        overhead = 100.0 * (timed(rounds[1::2]) / timed(rounds[0::2]) - 1.0)
        metrics = {
            name: {"value": tracing.per_round(setup_bucket, buckets, name), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for target in tracer.absent:
            print(f"bench: layer absent, its metrics read 0: {target}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace_{args.workload}_{args.seed}.json", "w") as fh:
            json.dump(
                {"setup": setup_bucket, "rounds": buckets, "overhead_pct": overhead, "absent": tracer.absent},
                fh,
                indent=1,
            )
    else:
        metrics = {
            "setup_s": {"value": _setup_seconds(args.workload), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "primary_s": {"value": tracing.median([r.primary.normalised for r in rounds]), "unit": "s"},
            "secondary_s": {"value": tracing.median([r.secondary.normalised for r in rounds]), "unit": "s"},
        }
    print(f"bench: {args.workload} seed={args.seed}: {len(rounds)} rounds", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

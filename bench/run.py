#!/usr/bin/env python3
"""Benchmark of weylalg: factor over the C08 corpus, and derivation sweeps.

One workload, as a single-process closed loop, printing its result as one
JSON line last:

    python3 bench/run.py --workload derivation-sweep --seed 1 --seconds 20 \
        --trace 0

Every workload, each in its own process, with a summary table; `--trace 1`
adds the traced runs, every per-layer metric and the tracing overhead:

    python3 bench/run.py [--seed 1] [--seconds 20] [--trace 1]

Run from the root of a checkout; the program is imported from ./src.
Times are the CPU time of the calling thread (`time.thread_time`): the
benchmark is one thread, and time in which the machine runs something else
does not count. Outputs go to bench/out/. See bench/README.md for the
workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("factor-corpus", "derivation-sweep")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

# Timed-phase spans per round, then set-up spans per set-up ("setup.").
PER_LAYER = [
    ("exprio.parse.s", "s"), ("exprio.parse.calls", "count"),
    ("exprio.parse.terms", "count"), ("exprio.parse.bytes", "B"),
    ("exprio.format.s", "s"),
    ("factorization.factor.s", "s"), ("factorization.factor.self_s", "s"),
    ("factorization.linear.s", "s"),
    ("factorization.peel.s", "s"), ("factorization.peel.self_s", "s"),
    ("factorization.log.s", "s"), ("factorization.log.self_s", "s"),
    ("factorization.integrate.s", "s"),
    ("factorization.integrate.self_s", "s"),
    ("factorization.verify.s", "s"), ("factorization.verify.self_s", "s"),
    ("symplectic.pullback.calls", "count"), ("symplectic.pullback.s", "s"),
    ("symplectic.pullback.terms_in", "count"),
    ("symplectic.pullback.terms_out", "count"),
    ("automorphism.apply.calls", "count"), ("automorphism.apply.s", "s"),
    ("automorphism.apply.terms_in", "count"),
    ("automorphism.apply.terms_out", "count"),
    ("automorphism.compose.s", "s"),
    ("automorphism.inner_automorphism.s", "s"),
    ("automorphism.log_automorphism.s", "s"),
    ("automorphism.derivation_apply.calls", "count"),
    ("automorphism.derivation_apply.s", "s"),
    ("automorphism.exp_derivation.s", "s"),
    ("star.moyal.calls", "count"), ("star.moyal.s", "s"),
    ("star.moyal.term_pairs", "count"), ("star.moyal.terms_out", "count"),
    ("star.moyal.term_pairs_per_s", "1/s"),
    ("star.scaled_bracket.calls", "count"), ("star.scaled_bracket.s", "s"),
    ("round.s", "s"), ("round.ops", "count"), ("round.top_s", "s"),
    ("setup.sampling.random_instance.s", "s"),
    ("setup.symplectic.pullback_automorphism.s", "s"),
    ("setup.automorphism.compose.s", "s"),
    ("setup.automorphism.inner_automorphism.s", "s"),
    ("setup.automorphism.apply.calls", "count"),
    ("setup.automorphism.apply.s", "s"),
    ("setup.star.scaled_bracket.calls", "count"),
    ("setup.star.scaled_bracket.s", "s"),
    ("setup.exprio.format.s", "s"),
]


def percentile(samples, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, with the weights of the Beta
    distribution of the sample p-quantile. It uses every sample near the
    quantile, not one alone, so it moves less from run to run than the
    nearest-rank value when the samples are few (150 on factor-corpus).
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(samples, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(cdf), x))


def _layer_value(name, run_tracer, rounds, setup_tracer, setups):
    if name.startswith("setup."):
        tracer, per, name = setup_tracer, setups, name[len("setup."):]
    else:
        tracer, per = run_tracer, rounds
    span, key = name.rsplit(".", 1)
    if span == "star.moyal" and key == "term_pairs_per_s":
        agg = tracer.totals.get(span, {})
        return agg["term_pairs"] / agg["s"] if agg.get("s") else 0.0
    return tracer.totals.get(span, {}).get(key, 0.0) / per


def run_workload(name, seed, seconds, trace):
    """Runs one workload in this process; returns the result object."""
    import workloads
    from tracer import Tracer
    from weylalg.scalars import BACKEND

    cls = workloads.WORKLOADS[name]
    if cls is workloads.FactorCorpus:
        w = cls(seed, str(OUT / f"corpus-{os.getpid()}"))
    else:
        w = cls(seed)
    try:
        setup_tracer = Tracer() if trace else None
        setup_times = []
        with setup_tracer or nullcontext():
            for _ in range(cls.setups):
                t0 = thread_time()
                w.setup()
                setup_times.append(thread_time() - t0)
        digest = w.digest()

        stats = workloads.Stats()
        run_tracer = Tracer() if trace else None
        rounds = 0
        with run_tracer or nullcontext():
            t0, wall0 = thread_time(), perf_counter()
            while True:     # whole rounds, at least `seconds` of CPU time
                w.run_round(stats)
                rounds += 1
                elapsed = thread_time() - t0
                if elapsed >= seconds:
                    break
            wall = perf_counter() - wall0
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks_ok = w.finish(stats)
    finally:
        w.close()

    if trace:
        run_tracer.totals["round"]["s"] = elapsed
        run_tracer.totals["round"]["ops"] = stats.attempted
        run_tracer.totals["round"]["top_s"] = run_tracer.top_s
        metrics = {
            m: {"value": _layer_value(m, run_tracer, rounds,
                                      setup_tracer, cls.setups),
                "unit": unit}
            for m, unit in PER_LAYER}
        missing = sorted(set(setup_tracer.missing + run_tracer.missing))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": (stats.attempted - stats.failed) / elapsed,
            "op_p50_ms": percentile(stats.op_ms, 0.5),
            "op_p90_ms": percentile(stats.op_ms, 0.9),
            "call_p50_ms": percentile(stats.call_ms, 0.5),
            "call_p90_ms": percentile(stats.call_ms, 0.9),
            "peak_rss_mib": peak_mib,
        }
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in END_TO_END}
        missing = []

    print(f"workload {name}, seed {seed}, trace {trace}, coefficient "
          f"backend {BACKEND}, Python {platform.python_version()}")
    print(f"inputs: {w.describe()}; sha256 {digest}")
    print(f"set-up: {len(setup_times)} x, "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"timed phase: {elapsed:.3f} s CPU ({wall:.3f} s wall), "
          f"{rounds} round(s), "
          f"{stats.attempted} attempted, {stats.failed} failed")
    for label, samples in (("op", stats.op_ms), ("call", stats.call_ms)):
        beyond = len(samples) - math.ceil(0.9 * len(samples))
        print(f"samples: {label} {len(samples)} ({beyond} beyond p90)")
    if missing:
        print("missing spans (their metrics read 0): " + ", ".join(missing))
    if stats.first_failure:
        print(f"first failure: {stats.first_failure}", file=sys.stderr)
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    return {"correct": bool(checks_ok), "attempted": stats.attempted,
            "failed": stats.failed, "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in its own process; a summary, and the traced runs."""
    results = {}
    for name in WORKLOAD_NAMES:
        for t in ((0, 1) if trace else (0,)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(t)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {t}) exited with {proc.returncode}")
                return 1
            results[name, t] = json.loads(lines[-1])
    print("\nworkload            correct attempted failed  "
          + "  ".join(m for m, _u in END_TO_END))
    for name in WORKLOAD_NAMES:
        r = results[name, 0]
        print(f"{name:<19} {str(r['correct']):<7} {r['attempted']:>9} "
              f"{r['failed']:>6}  " + "  ".join(
                  f"{r['metrics'][m]['value']:.4g}" for m, _u in END_TO_END))
    if trace:
        print("\ntracing overhead (time per operation, traced / untraced - 1)"
              ":")
        for name in WORKLOAD_NAMES:
            lay = results[name, 1]["metrics"]
            per_op = lay["round.s"]["value"] / lay["round.ops"]["value"]
            base = 1 / results[name, 0]["metrics"]["ops_per_s"]["value"]
            cover = lay["round.top_s"]["value"] / lay["round.s"]["value"]
            print(f"  {name:<19} {100 * (per_op / base - 1):+.1f} %; "
                  f"top-level spans cover {100 * cover:.1f} % of the round")
    ok = all(r["correct"] and not r["failed"] for r in results.values())
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weylalg" / "__init__.py").is_file():
        print(f"error: {SRC}/weylalg not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

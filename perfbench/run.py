"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_sweep", "radio_bound", "large_mesh", "oracle_small")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, build the inputs and exit")
    return p.parse_args(argv)


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import the program and
    build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait returns as the child ends; wait(timeout=...)
        # sleeps up to 50 ms between polls, which added that much
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_seconds(passes) -> float:
    """Typical time of one pass: the median over the passes of each
    topology's segment, summed, plus the median of the rest.

    On a shared 2-vCPU VM the speed dips by up to half for a few seconds
    at a time; a per-segment median discards a dip that a whole-pass
    median of two or three passes would average in. With one pass it is
    that pass's time.
    """
    keys = passes[0].segments.keys()
    segments = sum(statistics.median(p.segments[k] for p in passes) for k in keys)
    rest = statistics.median(p.wall_s - sum(p.segments.values()) for p in passes)
    return segments + rest


class Summary(NamedTuple):
    """What is kept of a pass after the first: its timings and what the
    checks compare, so that the process's peak RSS does not grow with
    the number of passes."""

    wall_s: float
    segments: dict
    digest: tuple
    attempted: int
    failed: int


def summary(p) -> Summary:
    import checks

    return Summary(p.wall_s, p.segments, checks.digest(p),
                   checks.attempted_operations(p), checks.failed_operations(p))


def measure(w, seconds: float, traced: bool):
    """Whole rounds until the next one would end past ``seconds``.

    Untraced, a round is one pass. Traced, a round is an untraced pass
    then a pass under the timing wrappers, so that the overhead is
    measured on the same inputs in the same process. Returns the first
    pass whole, a summary of every untraced and every traced pass, the
    tracers, and how far the first pass raised the process's peak RSS.
    """
    import workloads
    from tracing import Tracer

    out_dir = HERE / "out" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    clock = time.perf_counter
    first = None
    untraced, traced_passes, tracers = [], [], []
    rss_before = max_rss_mb()
    start = clock()
    while True:
        round_start = clock()
        p = workloads.run_pass(w, out_dir)
        if first is None:
            first = p
            pass_peak_mb = max_rss_mb() - rss_before
        untraced.append(summary(p))
        del p
        if traced:
            tracer = Tracer()
            with tracer.installed():
                p = workloads.run_pass(w, out_dir)
            traced_passes.append(summary(p))
            del p
            tracers.append(tracer)
        now = clock()
        if now - start + (now - round_start) > seconds:
            break
    return first, untraced, traced_passes, tracers, pass_peak_mb, out_dir


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meshca" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'meshca'} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    w = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    import checks
    import fingerprint
    import selftest

    setup_s = None if args.trace else setup_seconds(args)
    first, untraced, traced_passes, tracers, pass_peak_mb, out_dir = measure(
        w, args.seconds, bool(args.trace))
    passes = untraced + traced_passes
    peak_rss_mb = max_rss_mb()

    errors = checks.check_pass(first)
    errors += [f"pass {i} differs from pass 0" for i, p in enumerate(passes)
               if i and p.digest != passes[0].digest]
    errors += [f"self-test: {p}" for p in selftest.problems()]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    wall_s = pass_seconds(untraced)
    if args.trace:
        per_layer = {}
        for name, (_, unit) in tracers[0].metrics().items():
            per_layer[name] = (statistics.median(t.metrics()[name][0] for t in tracers), unit)
        per_layer["mem.pass_peak_rss_mb"] = (pass_peak_mb, "MB")
        traced_wall = pass_seconds(traced_passes)
        per_layer["trace.wall_s"] = (traced_wall, "s")
        per_layer["trace.untraced_wall_s"] = (wall_s, "s")
        per_layer["trace.overhead_s"] = (traced_wall - wall_s, "s")
        metrics = per_layer
    else:
        fa = [r.record for r in first.results if r.record.algorithm == "fa_scga"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fa_scga_fi": (statistics.fmean(r.fairness_index for r in fa), "index"),
            # pooled over links: a plain mean of nc_norm is dominated by
            # the smallest topologies and spreads ~50% across seeds
            "fa_scga_nc_norm": (sum(r.nc_raw for r in fa) / sum(r.links for r in fa),
                                "ratio"),
        }

    print(f"workload {w.name} seed {args.seed}: {len(passes)} passes, "
          f"results fingerprint {fingerprint.of_file(out_dir / 'sweep' / 'results.csv')}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the qmodw exact checker.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mod3 --seed 1 \
        --seconds 26 --trace 0

The workload's pass is repeated for ``--seconds`` seconds, and every
pass's outputs go through the correctness gate.

* ``--trace 0`` reports the end-to-end metrics, from passes with nothing
  installed: ``wall_s`` (median pass time, CPU time for the serial
  workloads and wall time for sweep-pool, scaled to a reference machine
  speed by the probe of ``speed.py``), ``inputs_per_s``,
  ``setup_s`` (median over a block of fresh processes running
  ``import qmodw``, plus the pool start for sweep-pool, timed before any
  pass) and ``peak_rss_mib`` (one pass in a fresh process, pool workers
  included).  The set-up block and the passes share the ``--seconds``.
* ``--trace 1`` repeats the untraced passes, then runs one traced pass
  with the spans of ``tracer.py`` installed and reports the per-layer
  metrics, including the traced pass's overhead over the untraced ones.

The metric names and units come from ``BENCHMARK.json``; ``layers.json``
says which end-to-end metric each per-layer metric should move.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a gate failure, a failed gate
self-test or an exception in a pass counts as a failed check, makes
``correct`` false and the exit code 1.  A copy of the result, stamped
with the commit, nproc and the Python and numpy versions, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep-mod3", "sweep-mod2", "sweep-pool", "exact-algebra")
MIN_PASSES = 3
# Fresh processes timed for setup_s; for sweep-pool, every third one
# only imports, for comparison.
SETUP_SAMPLES = 30
CHILD_TIMEOUT_S = 90


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qmodw benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: what a fresh child process measures.
    parser.add_argument("--child", choices=("pass",),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


SETUP_CODE = "import qmodw"
POOL_SETUP_CODE = """
import qmodw
from concurrent.futures import ProcessPoolExecutor
with ProcessPoolExecutor(max_workers={threads}) as pool:
    list(pool.map(qmodw.query_bound, [2] * {threads}, [2] * {threads}))
"""


def setup_time(code):
    """Wall time of one fresh process running ``code``.

    Not scaled by the speed probe: the import is file reads and extension
    start-up more than Python work, and the probe does not track it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, subprocess polls for the exit in steps of up
    # to 50 ms, which would quantize the measurement.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True)
    return perf_counter() - t0


def setup_block(workers):
    """Time SETUP_SAMPLES fresh set-up processes back to back.

    Returns the samples of setup_s and, for a pooled workload, the
    samples of every third process, which only imports: a pool start
    does strictly more than the import, so its median should not read
    below theirs.
    """
    code = (POOL_SETUP_CODE.format(threads=workers) if workers
            else SETUP_CODE)
    samples, bare = [], []
    for i in range(SETUP_SAMPLES):
        if workers and i % 3 == 2:
            bare.append(setup_time(SETUP_CODE))
        else:
            samples.append(setup_time(code))
    return samples, bare


def child_pass(args):
    """One pass in this fresh process; report its peak resident memory."""
    import workloads
    wl = workloads.make(args.workload, args.seed)
    out, _ = wl.run()
    attempted, failures = wl.check(out)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss of the children is that of the largest one; every pool
    # worker is counted at that size.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_kib": own + wl.workers * workers,
                      "attempted": attempted, "failures": failures}))
    return 0


def peak_rss(args):
    """Run one pass in a fresh process (``--child pass``); its report."""
    cmd = [sys.executable, str(HERE / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", "pass"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child pass exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Checks attempted and failed over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


def timed_passes(wl, seconds, tally):
    """Passes for ``seconds``, with a speed probe before each and after
    the last.

    Returns the pass times, the cell times, and the clock.  The gate
    self-test has already built the circuit matrices' kernels, the one
    lazy set-up a pass would otherwise pay on its first call.
    """
    # A serial pass is timed in CPU time, which leaves out steal time;
    # the pooled pass in wall time, which its workers' overlap sets.
    clock = Clock(cpu=not wl.workers)
    walls = []
    cell_runs = []
    began = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - began < seconds:
        gc.collect()
        (out, cells), wall = clock.time(wl.run)
        walls.append(wall)
        tally.add(*wl.check(out))
        if cells:
            cell_runs.append(cells)
    return walls, cell_runs, clock


def end_to_end(args, wl, tally, setups, bare, setup_elapsed):
    peak = peak_rss(args)
    tally.add(peak["attempted"], peak["failures"])
    walls, _, clock = timed_passes(wl, args.seconds - setup_elapsed, tally)
    wall = clock.scale(statistics.median(walls))
    metrics = {"wall_s": wall,
               "inputs_per_s": wl.inputs / wall,
               "setup_s": statistics.median(setups),
               "peak_rss_mib": peak["peak_rss_kib"] / 1024}
    detail = {"pass_s": walls, "probe_s": clock.probes, "setup_s": setups}
    if bare:
        detail["setup_import_only_s"] = bare
    return metrics, detail


def per_layer(args, wl, tally, names):
    from tracer import Tracer

    walls, cell_runs, clock = timed_passes(wl, args.seconds, tally)
    wall = statistics.median(walls)
    timer = clock.timer
    if wl.workers:
        # Pool workers would keep their spans, so the traced pass and the
        # cell times are serial; the overhead compares serial with serial.
        gc.collect()
        t0 = timer()
        rows, cells = wl.run_serial()
        untraced = timer() - t0
        tally.add(*wl.check(rows))
        cell_runs = [cells]
        traced_run = wl.run_serial
    else:
        # The pass just before the traced one ran in the same stretch of
        # machine speed, which drifts over tens of seconds on a shared host.
        untraced = walls[-1]
        traced_run = wl.run

    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        t0 = timer()
        out, _ = tracer.wrap("bench.pass", traced_run)()
        traced = timer() - t0
    finally:
        left = tracer.remove()
    tally.add(1, [f"left patched after tracing: {left}"] if left else [])
    tally.add(*wl.check(out))

    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}.tsv.gz")
    metrics = layer_metrics(tracer, wl, cell_runs, wall, names)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics, {"pass_s": walls, "untraced_s": untraced,
                     "traced_s": traced, "spans": len(tracer.start)}


def layer_metrics(tracer, wl, cell_runs, wall, names):
    """Per-layer metrics of one traced pass; ``wall`` is the untraced
    workload pass time, pooled for sweep-pool."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0])[1]

    def mean_us(name):
        return seconds(name) / calls(name) * 1e6 if calls(name) else 0.0

    def distinct_ratio(name):
        found = len(tracer.distinct.get(name, ()))
        return found / calls(name) if calls(name) else 0.0

    def per_input(value):
        return value / tracer.inputs if tracer.inputs else 0.0

    partition = "hamming_mod.partition_weight"
    cells = {}
    if cell_runs:
        cells = {cell: statistics.median(run[cell] for run in cell_runs)
                 for cell in cell_runs[0]}
    cell_seconds = seconds("sweep.verify_cell")
    metrics = {
        "linalg.apply_us": mean_us("linalg.apply"),
        "linalg.apply_calls": calls("linalg.apply"),
        "linalg.mass_us": mean_us("linalg.mass"),
        "linalg.mass_calls": calls("linalg.mass"),
        "linalg.apply_distinct_ratio": distinct_ratio("linalg.apply"),
        "linalg.mass_distinct_ratio": distinct_ratio("linalg.mass"),
        "subroutines.mod3_us": mean_us("subroutines.mod3"),
        "subroutines.mod3_calls": calls("subroutines.mod3"),
        "subroutines.deutsch_us": mean_us("subroutines.deutsch"),
        "subroutines.deutsch_calls": calls("subroutines.deutsch"),
        "hamming_mod.partition_us": per_input(
            tracer.top_level_seconds(partition, "sweep.verify_cell")) * 1e6,
        "hamming_mod.self_us": per_input(
            totals.get(partition, [0, 0.0, 0.0])[2]) * 1e6,
        "hamming_mod.calls_per_input": per_input(calls(partition)),
        "oracle.phase_apply_us": mean_us("oracle.phase_apply"),
        "oracle.query_bit_us": mean_us("oracle.query_bit"),
        "oracle.queries_per_input": per_input(
            calls("oracle.phase_apply") + calls("oracle.query_bit")),
        "sweep.audit_us": mean_us("sweep.audit_partition"),
        "sweep.audit_share": (seconds("sweep.audit_partition") / cell_seconds
                              if cell_seconds else 0.0),
        "sweep.cell_max_s": max(cells.values(), default=0.0),
        "sweep.pool_efficiency": (sum(cells.values())
                                  / (wl.workers * wall)
                                  if wl.workers else 0.0),
        "algebra.mul_us": mean_us("algebra.mul"),
        "algebra.mul_calls": calls("algebra.mul"),
        "algebra.add_us": mean_us("algebra.add"),
        "algebra.add_calls": calls("algebra.add"),
        "linalg.matmul_us": mean_us("linalg.matmul"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "polymethod.is_nondeterministic_poly_s": seconds(
            "polymethod.is_nondeterministic_poly"),
        "polymethod.symmetrize_us": mean_us("polymethod.symmetrize"),
        "polymethod.bruteforce_us": mean_us("polymethod.bruteforce"),
    }
    prefix = "sweep.cell_s."
    for name in names:
        if name.startswith(prefix):
            n, m = (int(part) for part in name[len(prefix):].split("_"))
            metrics[name] = cells.get((n, m), 0.0)
    return metrics


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qmodw" / "__init__.py").is_file():
        print(f"error: no qmodw source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_pass(args)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    if set(layers) != {m["name"] for m in spec["per_layer"]}:
        print("error: layers.json and BENCHMARK.json list different "
              "per-layer metrics", file=sys.stderr)
        return 2

    import numpy
    import qmodw
    if not Path(qmodw.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qmodw from {qmodw.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import selftest
    import workloads

    wl = workloads.make(args.workload, args.seed)
    tally = Tally()
    metrics, detail = {}, {}
    try:
        if not args.trace:
            # Before the self-test and every pass, so that the set-up
            # samples of every workload start from the same state.
            began = perf_counter()
            setups, bare = setup_block(wl.workers)
            setup_elapsed = perf_counter() - began
        problems = selftest.self_test()
        tally.add(1, ["gate self-test: " + "; ".join(problems)]
                  if problems else [])
        if not problems and args.trace:
            metrics, detail = per_layer(args, wl, tally, units)
        elif not problems:
            metrics, detail = end_to_end(args, wl, tally, setups, bare,
                                         setup_elapsed)
    except Exception as exc:
        traceback.print_exc()
        tally.add(1, [f"run raised {type(exc).__name__}: {exc}"])
        metrics = {}
    if metrics and set(metrics) != set(units):
        tally.add(1, [f"metrics {sorted(set(metrics) ^ set(units))} differ "
                      f"from BENCHMARK.json {section}"])
        metrics = {}
    if not metrics:
        detail = {}

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "commit": git_commit(),
             "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps({"stamp": stamp, "result": result,
                                "detail": detail,
                                "failures": tally.failures[:50]}, indent=1))

    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if detail and not args.trace:
        print(f"# unscaled pass median "
              f"{statistics.median(detail['pass_s'])} s; speed probe "
              f"median {statistics.median(detail['probe_s'])} s, "
              f"reference {REFERENCE_S} s")
        if "setup_import_only_s" in detail:
            pooled = statistics.median(detail["setup_s"])
            bare = statistics.median(detail["setup_import_only_s"])
            print(f"# setup_s with pool start {pooled} s, import only "
                  f"{bare} s: pool start "
                  f"{'at least' if pooled >= bare else 'BELOW'} import")
    print(f"# checks attempted={tally.attempted} failed="
          f"{len(tally.failures)} failed_frac="
          f"{len(tally.failures) / tally.attempted}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps(result))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())

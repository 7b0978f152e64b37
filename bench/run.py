"""Benchmark of the vanlat CLI: one closed-loop client in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` a fixed number of the workload's ops, sized so that
they take about ``--seconds`` of wall time, run back to back, and the
end-to-end metrics are printed.  With ``--trace 1``
each op of a fixed list runs untraced and then under the span tracer, and
the per-layer metrics are printed; the spans are written to
``.bench_work/``.  Every op's output is checked against an independent
truth outside the timed window.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
failure ratio and the reference kernel's median time.  The exit code is
1 when any output was wrong or no op succeeded (then no result is
printed), 2 when the program cannot be found or the arguments are bad,
and 0 otherwise.  Workloads, metrics and the clock are described in
``bench/README.md``.
"""

import argparse
import functools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Time of the reference kernel on the nominal machine that the end-to-end
# times are scaled to (close to its time on a 2.1 GHz Xeon vCPU).
NOMINAL_REFERENCE_S = 0.03
_REFERENCE_ROWS = tuple(tuple((7 * r + 3 * c) % 11 - 5 for c in range(64))
                        for r in range(64))


def reference():
    """Thread CPU time of a fixed pure-Python kernel.

    The kernel is an integer loop plus one product of 64x64 integer
    matrices stored as tuple rows, the program's dominant inner loop at
    the workloads' largest size.  So it slows down with the machine both
    when a neighbour competes for the core and when it competes for the
    caches.  It is the benchmark's own code; no change to the program can
    change its cost.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
    cols = tuple(zip(*_REFERENCE_ROWS))
    tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
          for row in _REFERENCE_ROWS)
    return time.thread_time() - t0


def nominal(spent, before, after):
    """``spent`` seconds of CPU time scaled to the nominal machine by the
    reference samples taken just before and just after it."""
    return spent * 2 * NOMINAL_REFERENCE_S / (before + after)


class Runner:
    """Runs ops of one workload and tallies attempts, failures and timings.

    When ``timed``, a reference-kernel sample is taken before an op and
    after each of its commands; each command's CPU time is scaled by the
    samples on either side of it, so the scale follows the machine's
    speed through the run.  An op's nominal time is the sum over its
    commands.
    """

    def __init__(self, workload, run_command, timed):
        self.workload = workload
        self.run_command = run_command
        self.timed = timed
        self.references = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.ok = 0
        self.op_times = []
        self.items = 0

    def _reference(self):
        if not self.timed:
            return None
        self.references.append(reference())
        return self.references[-1]

    def _fail(self, exc):
        # The workload's known defect is a failed op with no output to
        # judge; any other exception is a wrong output.
        self.failed += 1
        if not self.workload.tolerates(exc):
            self.wrong += 1
        print("failed op: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)

    def run(self, op):
        self.attempted += 1
        results, spent = [], 0.0
        before = self._reference()
        try:
            for argv in op.commands:
                t0 = time.process_time()
                results.append(self.run_command(argv))
                t = time.process_time() - t0
                after = self._reference()
                if self.timed:
                    spent += nominal(t, before, after)
                before = after
        except Exception as e:
            self._fail(e)
            return
        problem = op.check(results)
        if problem:
            self.failed += 1
            self.wrong += 1
            print("wrong output: %s" % problem, file=sys.stderr)
        else:
            self.ok += 1
            self.op_times.append(spent)
            self.items += op.items

    def probe(self):
        for call in self.workload.probe():
            self.attempted += 1
            try:
                call()
            except Exception as e:
                self._fail(e)


def timed_run(workload, state, seconds, runner):
    """A fixed number of ops back to back, then the probe.  The count
    comes from ``seconds`` and the workload's typical op time, not from
    the clock, so a seed always gives the same ops, attempts and
    failures however fast the machine runs."""
    for i in range(workload.ops_for(seconds)):
        runner.run(workload.op(state, i))
    runner.probe()


def traced_run(workload, state, out_path, runner):
    from tracer import Tracer
    tracer = Tracer()
    steps = [functools.partial(runner.run, workload.op(state, i))
             for i in range(workload.trace_ops)] + [runner.probe]
    # Each step runs untraced and then traced straight after, so machine
    # drift between the two halves stays small.
    plain = traced = 0.0
    for step in steps:
        t0 = time.process_time()
        step()
        t1 = time.process_time()
        with tracer:
            step()
        plain += t1 - t0
        traced += time.process_time() - t1
    tracer.write(out_path)
    metrics = tracer.layer_metrics()
    metrics["intmat.max_entry_bits"] = (workload.max_entry_bits(state), "bits")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics


def main(argv=None, tiny=False):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vanlat" / "__init__.py").is_file():
        print("vanlat sources not found under %s" % src, file=sys.stderr)
        return 2
    for path in (str(src), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    table = workloads.TINY if tiny else workloads.FULL
    if args.workload not in table:
        print("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(table)), file=sys.stderr)
        return 2
    workload = table[args.workload]()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work_root))
    references = [reference() for _ in range(5)]
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            state = workload.setup(scratch, args.seed)
            t = time.process_time() - t0
            references.append(reference())
            setup_times.append(nominal(t, references[-2], references[-1]))
        runner = Runner(workload, workloads.run_command, timed=not args.trace)
        if args.trace:
            out_path = work_root / ("trace-%s-seed%d.csv" % (args.workload, args.seed))
            metrics = traced_run(workload, state, out_path, runner)
        else:
            timed_run(workload, state, args.seconds, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not runner.ok:
        print("no operation succeeded (%d attempted, %d failed)"
              % (runner.attempted, runner.failed), file=sys.stderr)
        return 1
    ref = statistics.median(references + runner.references)
    print("# %s seed %d: %d ops ok, %d attempted, %d failed (failed_ratio %.4f); "
          "reference median %.6f s"
          % (args.workload, args.seed, runner.ok, runner.attempted, runner.failed,
             runner.failed / runner.attempted, ref))
    if args.trace:
        metrics["calib.ref_s"] = (ref, "s")
    else:
        metrics = {
            "op_p50_nominal_s": (statistics.median(runner.op_times), "s"),
            "items_per_nominal_s": (runner.items / sum(runner.op_times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if runner.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

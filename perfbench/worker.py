"""One benchmark process: import qatorsion, load the inputs, then run the
workload's operations as a closed loop with one caller until the time is up.

Usage: python3 worker.py JOB.json RESULT.json

JOB.json is written by run.py: the source directory, the operations of one
pass, the seconds to run, whether to trace, and whether to stop after
set-up.  The result file gets the set-up time, the start and duration of
every operation and pass, the CPU time of each pass, machine-speed samples
(SpeedProbe), every output and the peak RSS.  Nothing is checked here;
run.py checks the outputs after this process has ended.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_INTERVAL_S = 0.25   # machine-speed samples during the timed loop
SETUP_KERNELS = 9         # machine-speed samples right after set-up
_FORM = ((3, 1, 0, -1), (1, 4, 1, 0), (0, 1, 5, 2), (-1, 0, 2, 6))


def _load(job):
    """Fresh-process set-up: import the package from the checkout's source
    tree and load the workload's input files."""
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import qatorsion
    from qatorsion import cli, lattice, pipeline
    if not os.path.realpath(qatorsion.__file__).startswith(src + os.sep):
        raise SystemExit(f"qatorsion imported from {qatorsion.__file__}, "
                         f"not from {src}")
    for path in job.get("input_files", []):
        with open(path) as fh:
            lattice.catalog_from_json(fh.read())
    return cli, pipeline


def kernel() -> float:
    """Seconds for a fixed piece of stdlib work of the kinds qatorsion spends
    its time on: exact rationals, dicts, tuples and sorting, small integer
    quadratic forms in generator expressions, and a dict too large for the
    nearer caches walked in scattered order.  It tells how fast this machine
    runs Python at this moment and never calls qatorsion, so a change to the
    package cannot move it."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i, i % 7)] = [i, str(i)]
    sorted(table, key=lambda k: (k[1], -k[0]))
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                v = (a, b, c, a - b)
                acc += sum(v[i] * _FORM[i][j] * v[j]
                           for i in range(4) for j in range(4))
    scattered = {(i * 7919) % 40009: (i, i + 1) for i in range(12000)}
    for i in range(0, 40009, 3):
        pair = scattered.get(i)
        if pair:
            acc += pair[0]
    return time.perf_counter() - start


class SpeedProbe:
    """Runs `kernel` from a SIGALRM handler every `interval` seconds, so the
    machine's speed is sampled all through the timed loop, inside long
    operations too.  `clock` is perf_counter without the handler's time;
    every timing of the loop uses it, and each sample is stored as
    (clock time, kernel seconds).  No thread is started."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append((start - self.spent, kernel()))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_op(op, cli, pipeline, clock):
    """Run one operation; return (start, seconds, output text, error or
    None).  Only the call itself is timed."""
    if op["kind"] == "cli":
        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op["argv"]))
        elapsed = clock() - start
        return start, elapsed, buf.getvalue(), None if code == 0 else f"exit {code}"
    if op["kind"] == "run_family":
        start = clock()
        report = pipeline.run_family(op["j"], op["n"])
        elapsed = clock() - start
        return start, elapsed, report.to_json(), None
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _loop(job, cli, pipeline, probe, tracer):
    """Whole passes over the operations until the time is up."""
    clock = probe.clock
    passes, outputs = [], []
    loop_start = clock()
    op_id = 0
    while True:
        pass_start = clock()
        cpu_start = time.process_time() - probe.spent
        timings = []
        for op in job["ops"]:
            if tracer is not None:
                tracer.op = op_id
            try:
                start, elapsed, text, error = _run_op(op, cli, pipeline, clock)
            except Exception as exc:  # a failed operation is counted, not fatal
                start, elapsed, text = None, None, ""
                error = f"{type(exc).__name__}: {exc}"
            timings.append([start, elapsed])
            outputs.append({"op": op_id, "error": error, "output": text})
            op_id += 1
        now = clock()
        passes.append({"start": pass_start, "wall_s": now - pass_start,
                       "ops": timings,
                       "cpu_s": time.process_time() - probe.spent - cpu_start})
        # Whole passes only: stop before a pass that would end past the
        # time, so a pass longer than the time (catalog) runs exactly once.
        if now - loop_start + (now - pass_start) > job["seconds"]:
            return passes, outputs


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    cli, pipeline = _load(job)
    result = {"setup_s": time.perf_counter() - _T0,
              "setup_kernel_s": statistics.median(kernel()
                                                  for _ in range(SETUP_KERNELS))}
    if not job.get("setup_only"):
        tracer = None
        with SpeedProbe(PROBE_INTERVAL_S) as probe:
            if job["trace"]:
                import tracer as tracer_mod
                tracer = tracer_mod.Tracer(probe.clock)
                tracer.install()
            passes, outputs = _loop(job, cli, pipeline, probe, tracer)
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.dump(job["spans_path"])
            wrapped = None
        else:
            loaded = "tracer" in sys.modules
            import tracer as tracer_mod
            wrapped = loaded or tracer_mod.wrappers_installed()
        result.update({
            "passes": passes,
            "outputs": outputs,
            "speed_samples": probe.samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wrappers_installed": wrapped,
        })
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

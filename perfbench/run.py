"""qatorsion benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0

The program is driven from one process with no extra threads, as a closed
loop with one caller: the next operation starts only when the previous one
has returned.  Each run starts fresh interpreters (worker.py) for set-up
probes and for the timed loop, so set-up time and peak RSS belong to the
workload.  Outputs are checked by check.py after the worker has exited.

Times are reported at a reference machine speed.  On a shared machine the
speed at which Python runs drifts by tens of percent over minutes.  So the
worker times a short fixed stdlib kernel (worker.kernel) every 0.25 s of
its timed loop, from a timer signal, and takes that time out of every
timing; each set-up probe times the kernel right after its set-up.  Each
time is reported at the reference speed, the speed at which the kernel
takes REF_KERNEL_S (see to_ref): a change to the package moves these times
as it moves raw ones, but a slow minute of the machine mostly does not.
The raw times are printed in the summary.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the loop twice in
two processes, untraced and traced, for half the seconds each, and prints
the per-layer metrics from the traced one.  The last line of stdout is the
JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("family", "family_deep", "catalog", "verdict")
SETUP_PROBES = 3          # fresh-process set-ups before and again after the loop
TIME_LIMIT_S = 170        # every process of one run ends within this
# family_deep: one member per rung of n, each rung with a pair of offsets
# whose members cost about the same (j and j + 5 have the same H_1 images;
# 1 and 6 are the non-cyclic pair, which skips the minor and torsion).  The
# seed picks one offset of each pair and jitters n below each rung, so every
# seed has about the same pass cost, peak memory and median operation.
DEEP_RUNGS = ((300, (1, 6)), (475, (0, 5)), (650, (2, 7)), (825, (3, 8)),
              (1000, (4, 9)))
DEEP_JITTER = 25
VERDICT_MAX_N = 40        # the obstruction fires from n = 7 on
REF_KERNEL_S = 0.008      # kernel time that defines the reference speed
MIN_WINDOW_S = 2.0        # shortest span of kernel samples behind one time


def make_ops(workload: str, seed: int, catalog_path: str) -> list[dict]:
    """The operations of one pass, generated from the seed alone."""
    rng = random.Random(seed)
    if workload == "family":
        offsets = list(range(10))
        rng.shuffle(offsets)
        return [{"kind": "cli", "check": "family", "j": j, "items": 11,
                 "argv": ["family", "--j", str(j), "--nmax", "10",
                          "--format", "json"]} for j in offsets]
    if workload == "family_deep":
        ops = [{"kind": "run_family", "check": "family_deep",
                "j": rng.choice(pair),
                "n": [0, rung - rng.randrange(DEEP_JITTER)], "items": 2}
               for rung, pair in DEEP_RUNGS]
        rng.shuffle(ops)
        return ops
    if workload == "catalog":
        # D = 25 is the determinant every verdict uses; the seed is unused.
        return [{"kind": "cli", "check": "catalog", "items": 20,
                 "argv": ["catalog", "--det", "25"]}]
    if workload == "verdict":
        ks = [rng.randrange(0, 7), rng.randrange(7, VERDICT_MAX_N + 1)]
        rng.shuffle(ks)
        return [{"kind": "cli", "check": "verdict", "k": k, "items": 1,
                 "argv": ["verdict", "--n", str(k), "--catalog", catalog_path,
                          "--format", "json"]} for k in ks]
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.tag = f"{workload}-{seed}-{os.getpid()}"
        self.hash_seed = str(seed % (2 ** 32))
        self.deadline = deadline
        self.count = 0

    def worker(self, job: dict) -> dict:
        self.count += 1
        job_path = os.path.join(OUT, f"job-{self.tag}-{self.count}.json")
        result_path = os.path.join(OUT, f"result-{self.tag}-{self.count}.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONHASHSEED=self.hash_seed)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path,
                 result_path],
                capture_output=True, text=True, env=env,
                timeout=max(1.0, self.deadline - time.monotonic()))
            if proc.returncode != 0:
                raise SystemExit(f"worker failed ({proc.returncode}):\n"
                                 f"{proc.stderr[-4000:]}")
            with open(result_path) as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker exceeded the {TIME_LIMIT_S} s run limit")
        finally:
            for path in (job_path, result_path):
                if os.path.exists(path):
                    os.remove(path)


def to_ref(samples: list, start: float, seconds: float) -> float:
    """`seconds` measured from `start` (worker clock), at the reference
    speed: times the mean of REF_KERNEL_S / k over the kernel samples k
    taken in that interval, widened about its middle to at least
    MIN_WINDOW_S so that a short operation still averages several samples.
    Time spent at a speed counts in proportion, so this estimates the
    interval's work in reference seconds."""
    half = max(seconds, MIN_WINDOW_S) / 2
    mid = start + seconds / 2
    inside = [k for t, k in samples if mid - half <= t <= mid + half]
    return seconds * statistics.fmean(REF_KERNEL_S / k for k in inside)


def pass_walls(res: dict, ref: bool) -> list[float]:
    if not ref:
        return [p["wall_s"] for p in res["passes"]]
    return [to_ref(res["speed_samples"], p["start"], p["wall_s"])
            for p in res["passes"]]


def latencies_ms(res: dict, ref: bool) -> list[float]:
    samples = res["speed_samples"]
    return [1000 * (to_ref(samples, start, s) if ref else s)
            for p in res["passes"] for start, s in p["ops"] if s is not None]


def end_to_end(res: dict, ops: list[dict], setup: list[dict], failed: int,
               attempted: int) -> tuple[dict, list[str]]:
    items = sum(op["items"] for op in ops)
    wall, raw_wall = (statistics.median(pass_walls(res, ref)) for ref in (True, False))
    lat_ms, raw_lat = (latencies_ms(res, ref) for ref in (True, False))
    setup_ref = [r["setup_s"] * REF_KERNEL_S / r["setup_kernel_s"] for r in setup]
    raw_setup = statistics.median(r["setup_s"] for r in setup)
    metrics = {
        "wall_ref_s": (wall, "s"),
        "op_p50_ref_ms": (statistics.median(lat_ms), "ms"),
        "items_per_ref_s": (items / wall, "1/s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    kernels = [k for _t, k in res["speed_samples"]]
    notes = [f"passes: {len(res['passes'])}, operations: {len(lat_ms)}, "
             f"set-up samples: {len(setup)}, speed samples: {len(kernels)}",
             f"fail_ratio: {failed / attempted} ({failed}/{attempted} operations)",
             f"raw: wall_s {raw_wall} s, op_p50_ms {statistics.median(raw_lat)} ms, "
             f"items_per_s {items / raw_wall} 1/s, setup_s {raw_setup} s",
             f"kernel: median {statistics.median(kernels)} s in the loop, "
             f"reference {REF_KERNEL_S} s"]
    beyond = len(lat_ms) - int(0.9 * len(lat_ms))
    if beyond >= 10:
        notes.append(f"op_p90_ref_ms: {statistics.quantiles(lat_ms, n=10)[-1]} ms "
                     f"({len(lat_ms)} samples, {beyond} beyond it)")
    else:
        notes.append(f"op_p90_ref_ms: not reported ({len(lat_ms)} samples, "
                     f"fewer than 10 beyond the 90th percentile)")
    return metrics, notes


def per_layer(untraced: dict, traced: dict, spans_path: str) -> dict:
    """Per-pass layer times and counters from the traced worker's spans."""
    with open(spans_path) as fh:
        counts = json.loads(fh.readline())["counts"]
        spans = [json.loads(line) for line in fh]
    passes = len(traced["passes"])
    incl = defaultdict(float)             # name -> seconds, inclusive
    incl_tag = defaultdict(float)         # (name, tag) -> seconds
    calls = defaultdict(int)
    tag_calls = defaultdict(int)
    tag_sum = defaultdict(int)
    child = defaultdict(float)
    top = 0.0
    for name, tag, start, end, parent, _op in spans:
        dur = end - start
        incl[name] += dur
        calls[name] += 1
        if isinstance(tag, int):
            tag_sum[name] += tag
        elif tag is not None:
            incl_tag[(name, tag)] += dur
            tag_calls[(name, tag)] += 1
        if parent >= 0:
            child[parent] += dur
        else:
            top += dur
    self_s = defaultdict(float)
    for idx, (name, _tag, start, end, _parent, _op) in enumerate(spans):
        self_s[name.split(".")[0]] += end - start - child[idx]

    def ms(seconds):
        return 1000 * seconds / passes

    iso = "lattice.lattices_isometric"
    ell = "lattice.enumerate_in_ellipsoid<-lattice."
    m = {
        "torsion.from_minor_ms": (ms(incl["torsion.torsion_from_minor"]), "ms"),
        "groupring.phi_ms": (ms(incl["groupring.phi_at_divisor"]), "ms"),
        "groupring.reconstruct_ms":
            (ms(incl["groupring.phi_reconstruct_divisors"]), "ms"),
        "groupring.cyclo_inv_calls":
            (counts.get("groupring.CyclotomicNumber.inv", 0) / passes, "count"),
        "covers.presentation_ms": (ms(incl["covers.kanenobu_presentation"]), "ms"),
        "covers.relator_letters":
            (tag_sum["covers.kanenobu_presentation"] / passes, "count"),
        "covers.minor_ms": (ms(incl["covers.abelianized_minor"]), "ms"),
        "intmat.snf_ms": (ms(incl["intmat.smith_normal_form"]), "ms"),
        "diagrams.build_ms": (ms(incl["diagrams.kanenobu_diagram"]), "ms"),
        "diagrams.crossings": (tag_sum["diagrams.kanenobu_diagram"] / passes, "count"),
        "skein.goeritz_ms": (ms(incl["skein.goeritz_invariants"]), "ms"),
    }
    for r in range(5):
        m[f"lattice.enumerate_ms.r{r}"] = (
            ms(incl_tag[("lattice.enumerate_definite_lattices", f"r{r}")]), "ms")
    m.update({
        "lattice.isometry_ms": (ms(incl[iso]), "ms"),
        "lattice.isometry_calls": (calls[iso] / passes, "count"),
        "lattice.isometry_hit_ratio":
            (tag_calls[(iso, "hit")] / calls[iso] if calls[iso] else 0.0, "ratio"),
        "lattice.ellipsoid_vectors.isometry":
            (counts.get(ell + "lattices_isometric", 0) / passes, "count"),
        "intmat.det_calls": (calls["intmat.det_bareiss"] / passes, "count"),
        "lattice.cbound_ms": (ms(incl["lattice.c_bound"]), "ms"),
    })
    for r in range(1, 5):
        m[f"lattice.m_ms.r{r}"] = (
            ms(incl_tag[("lattice.m_invariant", f"r{r}")]), "ms")
    m.update({
        "lattice.char_cosets_ms": (ms(incl["lattice.char_cosets"]), "ms"),
        "lattice.cosets": (tag_sum["lattice.char_cosets"] / passes, "count"),
        "lattice.ellipsoid_vectors.coset":
            (counts.get(ell + "coset_square_maxima", 0) / passes, "count"),
        "skein.jones_ms": (ms(incl["skein.jones_polynomial"]), "ms"),
    })
    for layer in ("covers", "foxcalc", "intmat", "groupring", "torsion",
                  "diagrams", "skein", "lattice", "pipeline", "cli"):
        m[f"{layer}.self_ms"] = (ms(self_s[layer]), "ms")
    op_time = sum(s for p in traced["passes"] for _t, s in p["ops"] if s is not None)
    m.update({
        "run.cpu_s": (statistics.median(p["cpu_s"] for p in untraced["passes"]), "s"),
        "trace.spans": (len(spans) / passes, "count"),
        "trace.coverage": (top / op_time, "ratio"),
        "trace.overhead": (statistics.median(pass_walls(traced, True))
                           / statistics.median(pass_walls(untraced, True)), "ratio"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "qatorsion", "__init__.py")):
        print(f"error: no qatorsion source tree at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    refs = check.load_refs()
    ops = make_ops(args.workload, args.seed, refs["catalog_path"])
    runner = Runner(args.workload, args.seed, deadline)
    base = {"src": SRC, "ops": ops, "trace": False,
            "input_files": [refs["catalog_path"]] if args.workload == "verdict" else []}

    # Set-up: one unmeasured probe leaves the byte-code cache warm, as an
    # installed package has it.  setup_s is the median of fresh-process
    # set-ups taken before and after the loop, so that it samples the
    # machine at more than one moment.
    runner.worker(dict(base, setup_only=True))

    def probe_setup():
        return [runner.worker(dict(base, setup_only=True))
                for _ in range(SETUP_PROBES)]

    setup = [] if args.trace else probe_setup()
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.worker(dict(base, seconds=seconds))
    setup.append(untraced)
    results = [untraced]
    spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    if args.trace:
        results.append(runner.worker(dict(base, seconds=seconds, trace=True,
                                          spans_path=spans_path)))
    else:
        setup += probe_setup()

    # Checking happens here, after every timed loop has ended.
    attempted = failed = 0
    problems = []
    for res in results:
        for out in res["outputs"]:
            op = ops[out["op"] % len(ops)]
            attempted += 1
            reason = out["error"] or check.check(op, out["output"], refs)
            if reason:
                failed += 1
                if len(problems) < 5:
                    problems.append(reason)
    if untraced["wrappers_installed"]:
        problems.append("the untraced run had tracer wrappers installed")

    if args.trace:
        metrics = per_layer(untraced, results[1], spans_path)
        notes = [f"traced passes: {len(results[1]['passes'])}, spans: {spans_path}"]
    else:
        metrics, notes = end_to_end(untraced, ops, setup, failed, attempted)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in notes + problems:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not untraced["wrappers_installed"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

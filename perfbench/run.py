"""convexlab benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload {train-desk,scan-1-3-1,gradcheck}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The seed makes every
input.  Blocks of fixed work run until S seconds of block time are
measured, and each block's outputs are checked outside the timed region.
A fixed set of operations is then verified once; it gives `attempted` and
`failed`, the same in every run.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed`, and the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`).  Throughput is
reported per run of a calibration kernel timed between blocks (see
calibration.py).  Earlier lines record the environment and the unscaled
per-job rates.  A traced run first runs block 0 untraced and traced,
alternately, and is only correct if every traced run gives bit-identical
outputs; the median extra wall time is reported as `trace.overhead_share`.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Pin BLAS before numpy is imported: with 2 OpenBLAS threads the same seed
# trains to different weights, and throughput swings by 3x between runs.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402  (this file's directory is on sys.path)
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-desk", "scan-1-3-1", "gradcheck")
SETUP_REPEATS = 15
# setup_s is scaled, like the throughput, by the speed of the machine at the
# time: to a machine on which the dense calibration kernel takes this long
# (about the 2-vCPU host the benchmark was built on).  Unscaled, the median
# set-up time of ten runs moved by 20% between two sets an hour apart.
SETUP_CAL_SECONDS = 8e-3
MIN_BLOCKS = 3
OVERHEAD_PAIRS = 3
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_cal", "items/cal"))
IMPORT_PROBE = "import time; t = time.perf_counter(); import convexlab; print(time.perf_counter() - t)"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description="convexlab benchmark (one workload per process)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import convexlab from this checkout's src/ and the workloads that use it."""
    package = SRC / "convexlab"
    if not (package / "__init__.py").is_file():
        fail(f"no convexlab sources under {package}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import convexlab
    if Path(convexlab.__file__).resolve().parent != package.resolve():
        fail(f"imported convexlab from {convexlab.__file__}, not from {package}")
    import workloads
    return workloads


def import_seconds():
    """Time of `import convexlab` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(wl, seconds, tracer=None):
    """Run blocks 0, 1, ... until `seconds` of block time are measured and
    every kind of block has run equally often; check each block outside
    its timed interval.  The calibration kernel runs between blocks, so
    each block has one timing on either side."""
    costs = [[] for _ in range(wl.KINDS)]   # per kind: (items, s/item, cal-scaled s/item)
    walls, keys = [], []
    ok = True
    b = 0
    cal_before = calibration.seconds(wl.CALIBRATION)
    while sum(walls) < seconds or b < MIN_BLOCKS or b % wl.KINDS:
        t0 = time.perf_counter()
        items, key, payload = wl.block(b, tracer)
        dt = time.perf_counter() - t0
        cal_after = calibration.seconds(wl.CALIBRATION)
        costs[b % wl.KINDS].append((items, dt / items, dt / items / (0.5 * (cal_before + cal_after))))
        cal_before = cal_after
        walls.append(dt)
        keys.append(key)
        ok = wl.check(payload) and ok
        b += 1
    return {"items_per_s": throughput(costs, 1), "items_per_cal": throughput(costs, 2),
            "walls": walls, "keys": keys, "ok": ok}


def throughput(costs, column):
    """Items of one block of each kind over the summed median cost of
    those blocks: the median over blocks when there is one kind, and no
    hopping between kinds of different cost when there are several."""
    items = sum(statistics.median(c[0] for c in kind) for kind in costs)
    return items / sum(statistics.median(c[0] for c in kind) * statistics.median(c[column] for c in kind)
                       for kind in costs)


def trace_overhead(wl):
    """Run block 0 untraced and traced, OVERHEAD_PAIRS times, alternating
    which goes first, with a throwaway tracer.  Returns the untraced outputs, whether every traced
    run reproduced them bit for bit, and the median traced/untraced wall
    time ratio as a percentage overhead (adjacent runs, so slow drifts of
    the machine's speed cancel)."""
    def timed_block(traced):
        tracer = Tracer()
        with wl.hooks(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            _, key, _ = wl.block(0, tracer if traced else None)
            return key, time.perf_counter() - t0

    ratios = []
    keys = {True: [], False: []}
    for i in range(OVERHEAD_PAIRS):
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            key, walls[traced] = timed_block(traced)
            keys[traced].append(key)
        ratios.append(walls[True] / walls[False])
    wl.reset_counts()
    ref_key = keys[False][0]
    reproduced = all(key == ref_key for key in keys[True] + keys[False])
    return ref_key, reproduced, 100.0 * (statistics.median(ratios) - 1.0)


def digest(key):
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()

    print(json.dumps({"environment": environment()}))
    setup, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        wl = None  # free the previous inputs first, so peak RSS holds one set
        wl = workloads.WORKLOADS[args.workload]()
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setup.append(imp + time.perf_counter() - t0)
        setup_cal.append(calibration.seconds("dense"))

    with wl.recording():
        wl.warmup()
        if args.trace:
            ref_key, reproduced, overhead = trace_overhead(wl)
            tracer = Tracer()
            with wl.hooks(tracer):
                run = measure(wl, args.seconds, tracer)
            reproduced = reproduced and run["keys"][0] == ref_key
        else:
            run = measure(wl, args.seconds)
    attempted, failed, verified = wl.verify()

    median = statistics.median
    items_per_s = run["items_per_s"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"blocks={len(run['walls'])} block0_outputs={digest(run['keys'][0])}")
    if args.trace:
        print(f"traced block 0 reproduces untraced block 0: {reproduced}; "
              f"trace overhead {overhead:+.1f}% (median of {OVERHEAD_PAIRS} pairs)")
        units = layer_units(workloads)
        values = dict.fromkeys(units, 0.0)  # metrics of the other workloads read 0
        values.update(wl.layer_metrics(tracer, sum(run["walls"])))
        values["trace.overhead_share"] = overhead
        correct = run["ok"] and verified and reproduced
    else:
        values = {
            "setup_s": median(setup) * SETUP_CAL_SECONDS / median(setup_cal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_cal": run["items_per_cal"],
        }
        print(f"setup = {median(setup):.6g} s (unscaled)")
        print(f"items_per_s = {items_per_s:.6g} items/s (unscaled)")
        for name, value, unit in wl.summary(median, items_per_s):
            print(f"{name} = {value:.6g} {unit}")
        units = dict(END_TO_END)
        correct = run["ok"] and verified
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


def layer_units(workloads):
    units = {name: unit for w in workloads.WORKLOADS.values() for name, unit in w.LAYER_METRICS}
    units["trace.overhead_share"] = "%"
    return units


if __name__ == "__main__":
    sys.exit(main())

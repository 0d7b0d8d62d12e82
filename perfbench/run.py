#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the diracosc workflows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned. BLAS threads are capped at the number of usable
cores. The package is imported from ``src/`` next to this directory, never
from an installed copy.

With ``--trace 0`` a run times whole passes over the workload's operations
for at least ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json)
and reports the end-to-end metrics named in BENCHMARK.json. With
``--trace 1`` it alternates untraced and traced passes for twice as long
and reports the per-layer metrics. Either way human-readable lines come
first and the last line is one JSON object.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 6  # fresh processes before the timed passes, and as many after

# before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cap = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cap), NPROC) if _cap.isdigit() and int(_cap) > 0
                           else NPROC)

import checks  # noqa: E402  (pure Python, no numpy)

SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed}, {work!r})
print(time.monotonic())
"""


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*.so*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _blas_threads(),
    }


def run_pass(ops, tracer=None):
    """Run every op once; (seconds inside the ops, outcomes)."""
    wall = 0.0
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{i}:{op.name}"
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception:  # an operation that raises is a failed operation
            wall += time.perf_counter() - t0
            traceback.print_exc()
            outcomes.append((op.name, checks.Outcome(False, False, note="raised")))
            continue
        wall += time.perf_counter() - t0
        try:
            outcome = op.check(raw)
        except Exception:  # output the check cannot read is a wrong output
            traceback.print_exc()
            outcome = checks.Outcome(False, False, note="unreadable output")
        outcomes.append((op.name, outcome))
    return wall, outcomes


def timed_passes(ops, seconds):
    """Whole passes until `seconds` have passed, at least one."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outs = run_pass(ops)
        walls.append(wall)
        outcomes += outs
    return walls, outcomes


def measure_setup(name, seed, work):
    """Fresh-process start until the first operation is ready, SETUP_SAMPLES times."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                              work=str(work))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def _fmt(value):
    return "absent" if value is None else f"{value:.6g}"


def end_to_end(args, ops, warm, work):
    # set-up samples on both sides of the passes, so that they span the run
    samples = measure_setup(args.workload, args.seed, work)
    run_pass(warm)
    walls, outcomes = timed_passes(ops, args.seconds)
    samples += measure_setup(args.workload, args.seed, work)
    failed = sum(not o.passed for _, o in outcomes)
    e2 = [o.e2_err for _, o in outcomes if o.e2_err is not None]
    res = [o.residual for _, o in outcomes if o.residual is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "fail_frac": failed / len(outcomes),
        "e2_err_max": max(e2) if e2 else None,
        "residual_max": max(res) if res else None,
    }
    print(f"wall_s        {_fmt(metrics['wall_s'])} s  (median of {len(walls)} passes: "
          f"{', '.join(f'{w:.3f}' for w in walls)})")
    print(f"setup_s       {_fmt(metrics['setup_s'])} s  (median of {len(samples)} "
          f"fresh processes)")
    print(f"peak_rss_mb   {_fmt(metrics['peak_rss_mb'])} MB  (1 process)")
    print(f"fail_frac     {_fmt(extra['fail_frac'])}  ({failed} failed / "
          f"{len(outcomes)} attempted)")
    print(f"e2_err_max    {_fmt(extra['e2_err_max'])}  (|dE^2|/max(E^2,1), "
          f"{len(e2)} ops)")
    print(f"residual_max  {_fmt(extra['residual_max'])}  ({len(res)} ops)")
    detail = {"walls": walls, "setup_samples": samples, **extra}
    return metrics, outcomes, detail


def per_layer(args, ops, warm, tracer):
    import tracing
    run_pass(warm)
    plain, traced, outcomes = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < 2 * args.seconds:
        # untraced then traced, then the other way round, so that a drift in
        # host speed falls on both sides of the paired differences
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            try:
                wall, outs = run_pass(ops, tracer if with_trace else None)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(wall)
            outcomes += outs
    traced_wall = statistics.median(traced)
    metrics = tracer.metrics(len(traced), traced_wall)
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    print(f"traced pass   {traced_wall:.6g} s (median of {len(traced)}); untraced "
          f"{statistics.median(plain):.6g} s (median of {len(plain)}); overhead is the "
          f"median of {len(traced)} paired differences")
    for name, unit in tracing.REPORTED:
        value = metrics.get(name)
        share = ""
        if unit == "s" and value is not None and traced_wall > 0:
            share = f"  ({100 * value / traced_wall:.1f}% of traced pass)"
        print(f"{name:44s} {_fmt(value)} {unit}{share}")
    for note in tracer.absent:
        print(f"absent: {note}")
    return metrics, outcomes, {"walls": plain, "traced_walls": traced,
                               "absent": tracer.absent}


def run_one(args, spec):
    import tracing
    import workloads

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
        tracer.op = "setup"
    try:
        ops = workloads.build(args.workload, args.seed, str(work))
    finally:
        tracer.uninstall()
    tracer.keep_setup_under("cli.parse_config")
    warm = workloads.build(args.workload, args.seed, str(work / "warmup"), small=True)

    if args.trace:
        metrics, outcomes, detail = per_layer(args, ops, warm, tracer)
        tracer.dump(work / "spans.json")
        wanted = spec["per_layer"]
    else:
        metrics, outcomes, detail = end_to_end(args, ops, warm, work)
        wanted = spec["end_to_end"]

    correct = all(o.consistent for _, o in outcomes)
    for name, outcome in outcomes[:len(ops)]:
        print(f"op {name}: {'pass' if outcome.passed else 'FAIL'}"
              f"{'' if outcome.consistent else ' (INCONSISTENT)'}  {outcome.note}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for _, o in outcomes),
        # a metric the run did not produce is left out, never written as 0
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted if metrics.get(m["name"]) is not None},
    }
    with open(work / f"result-trace{args.trace}.json", "w") as handle:
        json.dump({"args": vars(args), "env": env, "result": result,
                   "all_metrics": metrics, "detail": detail,
                   "ops": [{"name": n, **vars(o)} for n, o in outcomes]},
                  handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Every workload in its own process, one after another."""
    status = 0
    for name in names:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900)
        status = status or proc.returncode
        print(flush=True)
    return status


def _import_package():
    """Import diracosc from SRC; an error message, or None on success."""
    if not (SRC / "diracosc" / "__init__.py").is_file():
        return f"no diracosc package under {SRC}"
    sys.path.insert(0, str(SRC))
    import diracosc
    if Path(diracosc.__file__).resolve().parent != (SRC / "diracosc").resolve():
        return f"imported diracosc from {diracosc.__file__}, not from {SRC}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    failures = checks.selftest()
    if failures:
        print("error: checker self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 3
    spec_path = ROOT / "BENCHMARK.json"
    try:
        with open(spec_path) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {spec_path}: {err}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    error = _import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.BUILDERS))
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{list(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

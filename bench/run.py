"""The heiscf benchmark: one seeded workload, timed end to end or layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-orbits --seed 1 --seconds 30 --trace 0

The workload's fixed, seeded task list is one pass.  Passes repeat in one
process and one thread, each task starting when the previous one ends,
until --seconds have passed and at least MIN_PASSES passes are in
(MIN_TRACED_PASSES pairs of passes when traced); untraced passes are
each followed by SETUPS_PER_PASS set-ups in fresh interpreters.  Every
task's output is checked after its timer stops.  A calibration chunk
(calibration.py) runs before every task and after every set-up, and each
time is scaled to a host on which that chunk takes CAL_REF_S, so that the
host's changing speed cancels.  With --trace 0 the last line reports the
end-to-end metrics; with --trace 1 untraced and traced passes alternate
and it reports the per-layer metrics of tracing.py.  The line before it
holds provenance, the output digest and the failed fraction.  See
bench/NOTES.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from calibration import CAL_REF_S, calibration_chunk

T_START = perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUPS_PER_PASS = 2
TAIL_BEYOND = 10  # item_tail_ms is the slowest item with ten slower ones
HARD_LIMIT_S = 140.0  # stop starting passes here, to exit well within 180 s


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "heiscf", "__init__.py")):
        fail(f"no heiscf sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import heiscf

    if not os.path.abspath(heiscf.__file__).startswith(src + os.sep):
        fail(f"heiscf imported from {heiscf.__file__}, not from {src}")
    import heiscf.cli  # noqa: F401
    import heiscf.lab  # noqa: F401


def measure_setup(root: str, workload: str, seed: int) -> tuple[float, float]:
    """Time from a fresh interpreter until the first item is ready: raw, scaled.

    The probe reports the calibration chunks it ran after set-up, in its own
    process, so that the scale follows the CPU the set-up ran on.
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                             workload, str(seed)], cwd=root, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    dt = perf_counter() - t0
    cal = proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        fail(f"set-up probe failed for {workload}")
    return dt, dt * CAL_REF_S / float(cal)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(task, result):
    try:
        return task.check(result)
    except Exception as exc:  # a check that cannot run fails the task
        return {"check_error": repr(exc)}, [f"check raised {exc!r}"]


def run_pass(workload, tasks, expected, tracer=None) -> dict:
    """One pass over the task list: timings, digests and failures.

    Each task starts from a collected heap, so that the garbage of the
    tasks before it does not land in its time.  A task's scaled time is its
    time over the median of the calibration chunks run just before it and
    before the two tasks on either side, times CAL_REF_S.
    """
    workload.reset()
    times, cal, digests, failed = [], [], [], 0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, task in enumerate(tasks):
            gc.collect()
            cal.append(calibration_chunk())
            t0 = perf_counter()
            try:
                result = task.run()
            except Exception as exc:  # counted as a failed task, run continues
                dt = perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                record, problems = {"error": repr(exc)}, [f"raised {exc!r}"]
            else:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
                record, problems = _check(task, result)
                if tracer is not None:
                    tracer.enabled = True
            times.append(dt)
            task_digest = digest([task.label, record])
            digests.append(task_digest)
            if expected is not None and (len(expected) != len(tasks) or expected[i] != task_digest):
                problems = problems + ["output digest differs from the recorded one"]
            if problems:
                failed += 1
                print(f"bench: {task.label}: {'; '.join(problems)}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled = [dt * CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 3])
              for i, dt in enumerate(times)]
    return {"wall": sum(scaled), "times": scaled, "raw_wall": sum(times),
            "cal_ms": statistics.median(cal) * 1e3, "digests": digests, "failed": failed,
            "layers": tracer.layer_metrics() if tracer is not None else None}


def _git_commit(root: str):
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None  # no git, or a repository around the checkout, not of it
    return lines[1]


def provenance(root: str) -> dict:
    import mpmath
    import numpy

    lines = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as f:
                lines += f.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "src_lines": lines,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    load_package(root)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if not args.trace:
        measure_setup(root, args.workload, args.seed)  # writes the bytecode caches

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tasks = workload.tasks()
    with open(DIGESTS) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    tracer = tracing.Tracer() if args.trace else None

    passes, traced, setups = [], [], []
    t_measure = perf_counter()
    while True:
        passes.append(run_pass(workload, tasks, expected))
        if tracer is not None:
            traced.append(run_pass(workload, tasks, expected, tracer))
        else:
            setups += [measure_setup(root, args.workload, args.seed)
                       for _ in range(SETUPS_PER_PASS)]
        enough = len(traced) >= MIN_TRACED_PASSES if tracer else len(passes) >= MIN_PASSES
        now = perf_counter()
        if now - T_START > HARD_LIMIT_S or (enough and now - t_measure >= args.seconds):
            break

    everything = passes + traced
    attempted = len(tasks) * len(everything)
    failed = sum(p["failed"] for p in everything)
    seed_digest = digest(passes[0]["digests"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced),
        "tasks_per_pass": len(tasks),
        "items_per_pass": sum(t.item for t in tasks),
        "item_tail_percentile": 100 * (1 - TAIL_BEYOND / sum(t.item for t in tasks)),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall"], 4) for p in passes],
        "pass_calibration_ms": [round(p["cal_ms"], 4) for p in everything],
        "setup_probe_s": [round(scaled, 4) for _, scaled in setups],
        "setup_probe_raw_s": [round(raw, 4) for raw, _ in setups],
        "digest": seed_digest,
        "digest_check": "unrecorded" if expected is None else (
            "match" if all(p["digests"] == expected for p in everything) else "mismatch"),
        "failed_frac": failed / attempted,
        "provenance": provenance(root),
    }

    if tracer is None:
        # a task's time is the median of its scaled times over the passes,
        # and set-up's the median over its probes
        task_s = [statistics.median(x) for x in zip(*(p["times"] for p in passes))]
        item_s = sorted(dt for dt, task in zip(task_s, tasks) if task.item)
        metrics = {
            "wall_s": (sum(task_s), "s"),
            "item_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
            "item_tail_ms": (item_s[-TAIL_BEYOND - 1] * 1e3, "ms"),
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = [p["layers"] for p in traced]
        units = dict(tracing.per_layer_metrics())
        metrics = {}
        for name, value in layers[0].items():
            if units[name] == "s":
                value = statistics.median(x[name] for x in layers)
            metrics[name] = (value, units[name])
        # each traced pass minus the untraced pass just before it, so that
        # the host's slow drift in speed cancels
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall"] - u["wall"] for u, t in zip(passes, traced)), "s")
        details["untraced_wall_s"] = statistics.median(p["wall"] for p in passes)
        details["traced_wall_s"] = statistics.median(p["wall"] for p in traced)
        details["counts_repeat"] = all(
            x[n] == layers[0][n] for x in layers for n in x if units[n] != "s")

    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

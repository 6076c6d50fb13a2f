#!/usr/bin/env python3
"""Run one geosampler benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 30 --trace 0

Run from anywhere; the checkout root is the parent of this directory and the
package is imported from its ``src/``. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. Lines before
it are a human-readable report. A detailed record (samples, environment,
fingerprint, failures) goes to ``.perfbench/results/``; traced runs also write
their spans there.

The exit code is 0 when every operation and output check passed, 1 when one
failed, and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-vCPU virtual machine shared with other tenants, two
# OpenBLAS threads made identical matrix-vector work vary by up to 20x between
# repetitions, while one thread stayed within a few percent.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
STOP_SLACK = 1.25
WORKLOAD_NAMES = ("pipeline-demo", "solve-large", "augment-large")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import geosampler.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="time the workload for about this long (at least one repetition)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--population-seed", type=int, default=42,
                   help="seed of the synthetic population")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    return p.parse_args(argv)


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            k = min(n - 1, int(round(p / 100 * (n - 1))))
            out["tail"] = {"percentile": p, "value": xs[k]}
            break
    return out


def describe(summary: dict) -> str:
    tail = summary["tail"]
    if tail is None:
        return f"median of n={summary['n']}; no tail percentile (needs n >= 20)"
    return f"median of n={summary['n']}; p{tail['percentile']:g} = {tail['value']:.6g}"


def environment() -> dict:
    import numpy

    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        blob = f.read_bytes()
        lines += blob.count(b"\n")
        digest.update(str(f.relative_to(src)).encode() + b"\0" + blob)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "src_py_lines": lines,
        "src_sha256": digest.hexdigest(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_times(n: int) -> list[float]:
    """Seconds to import the package, measured in n fresh interpreters."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(n)
    ]


def fingerprint(rep: Path) -> dict[str, str]:
    """sha256 of every file a repetition wrote, keyed by relative path."""
    return {
        str(f.relative_to(rep)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(rep.rglob("*")) if f.is_file()
    }


def combined(prints: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(prints, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def _no_span(name: str):
    yield {}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "geosampler" / "__init__.py").is_file():
        print(f"error: no geosampler package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    import geosampler
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(geosampler.__file__).resolve().parent != ROOT / "src" / "geosampler":
        print(f"error: imported geosampler from {geosampler.__file__}", file=sys.stderr)
        return 2

    work = Path(".perfbench") / "work" / args.workload
    results = Path(".perfbench") / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.scale, args.population_seed, work)
    tracer = Tracer() if args.trace else None
    try:
        return measure(args, wl, work, results, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, work: Path, results: Path, tracer) -> int:
    from tracer import PER_LAYER
    from workloads import Checked

    # -- set-up, several times; the last context is the one measured
    import_samples = import_times(SETUP_REPEATS)
    imports = summarize(import_samples)
    setups, setup_phases = [], []
    for i in range(SETUP_REPEATS):
        ctx = None
        gc.collect()
        if tracer:
            setup_phases.append(f"setup{i}")
            tracer.phase(setup_phases[-1])
            tracer.install()
        t0 = time.perf_counter()
        try:
            ctx = wl.setup(args.seed)
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(time.perf_counter() - t0)

    # -- timed repetitions; a traced run alternates untraced and traced reps
    rep = work / "rep"
    walls, cpus, traced_walls, rep_phases = [], [], [], []
    attempted = failed = rows = infeasible = 0
    failures: list[dict] = []
    gap_times: list[float] = []
    reference: dict[str, str] | None = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        gc.collect()
        if traced:
            rep_phases.append(f"rep{i}")
            tracer.phase(rep_phases[-1])
            tracer.install()
        span = tracer.span if traced else _no_span
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run(ctx, rep, args.seed, span)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)

        if error is not None:
            attempted += 1
            failed += 1
            failures.append({"rep": i, "op": "run", "reason": error})
        else:
            try:
                if hasattr(wl, "write_outputs"):
                    wl.write_outputs(ctx, rep, out)
                chk = wl.check(ctx, rep, args.seed, out)
            except Exception:  # noqa: BLE001 - malformed output fails its check
                chk = Checked(ops=["check"])
                chk.fail("check", traceback.format_exc())
            prints = fingerprint(rep)
            if reference is None:
                reference = prints
            for path in sorted(set(prints) | set(reference)):
                if prints.get(path) != reference.get(path):
                    chk.fail(f"fingerprint:{path}", "differs from the first repetition")
            attempted += len(chk.ops) + sum(op not in chk.ops for op in chk.failures)
            failed += len(chk.failures)
            failures += [{"rep": i, "op": op, "reason": r} for op, r in chk.failures.items()]
            rows, infeasible = chk.rows, chk.infeasible_cells
            if chk.solve_to_gap_s is not None and not traced:
                gap_times.append(chk.solve_to_gap_s)
        i += 1
        # stop before a repetition that would end well past --seconds
        elapsed = time.perf_counter() - start
        if (walls and (tracer is None or traced_walls)
                and elapsed + wall > STOP_SLACK * args.seconds):
            break

    wall, cpu = summarize(walls), summarize(cpus)
    setup = summarize(setups)
    e2e = {
        "setup_s": (imports["median"] + setup["median"], "s"),
        "wall_s": (wall["median"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    reported = {
        "cells_per_s": (rows / wall["median"], "1/s") if rows else None,
        "solve_to_gap_s": (statistics.median(gap_times), "s") if gap_times else None,
        "failed_ops_ratio": (failed / attempted if attempted else 1.0, "ratio"),
    }
    correct = failed == 0 and attempted > 0
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        label += f"-{args.scale}"

    print(f"geosampler benchmark: workload={args.workload} seed={args.seed} "
          f"population_seed={args.population_seed} scale={args.scale} trace={args.trace}")
    print(f"  setup_s          {e2e['setup_s'][0]:.4f} s   imports {imports['median']:.4f} s + "
          f"set-up {setup['median']:.4f} s, each the {describe(setup)}")
    print(f"  wall_s           {wall['median']:.4f} s   {describe(wall)}")
    print(f"  cpu time         {cpu['median']:.4f} s   {describe(cpu)}")
    for name, value in reported.items():
        if value is None:
            print(f"  {name:<16} n/a on this workload")
        else:
            print(f"  {name:<16} {value[0]:.6g} {value[1]}")
    print(f"  peak_rss_mb      {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"  operations       {attempted} attempted, {failed} failed; "
          f"{rows} scored rows per rep, {infeasible} infeasible cells (valid outcomes)")
    print(f"  fingerprint      {combined(reference or {})[:16]} over {len(walls) + len(traced_walls)} reps")
    for f in failures[:10]:
        print(f"  FAILED rep {f['rep']} {f['op']}: {f['reason'].strip().splitlines()[-1]}")

    env = environment()
    print(f"  environment      nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, BLAS threads {BLAS_THREADS}, src/ {env['src_py_lines']} lines, "
          f"commit {env['git_commit'] or 'n/a (not a git checkout)'}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "population_seed": args.population_seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "import_s_samples": import_samples,
        "setup_s_samples": setups,
        "wall_s_samples": walls,
        "wall_s_summary": wall,
        "cpu_s_samples": cpus,
        "cpu_s_summary": cpu,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "reported": {k: (None if v is None else {"value": v[0], "unit": v[1]})
                     for k, v in reported.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fingerprint": combined(reference or {}),
        "fingerprint_files": reference,
    }
    if tracer:
        layer = tracer.metrics(setup_phases, rep_phases)
        overhead = statistics.median(traced_walls) - wall["median"]
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / wall["median"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        record["traced_wall_s_samples"] = traced_walls
        record["per_layer"] = metrics
        tracer.write_spans(results / f"{label}-spans.jsonl")
        print(f"  tracing overhead {overhead:.4f} s ({overhead / wall['median']:.1%} of wall_s); "
              f"{len(tracer.spans)} spans; no layer waits on another (single process, "
              f"single thread)")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    (results / f"{label}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

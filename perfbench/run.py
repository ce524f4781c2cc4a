"""Episode-throughput benchmark for fsdc.

    python3 perfbench/run.py --workload paper-1shot --seed 1 --seconds 20 --trace 0

One run writes a world from ``--seed`` (untimed, in a child process), then in
this process loads it and builds the base statistics several times
(``setup_s`` is the median), runs one warm-up episode, and calls ``evaluate``
in blocks of a fixed number of episodes.  ``--trace 0`` runs the workload's
fixed blocks and then further blocks until ``--seconds`` have passed, and
reports the end-to-end metrics.  ``--trace 1`` runs the workload's traced
blocks, then the same blocks again with every layer wrapped by
:class:`tracing.Tracer`, and reports the per-layer metrics.  Both check the
reports of their fixed blocks, print every metric with its unit, save a
result file (and, traced, the spans) under ``--out-dir``, and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

The load is one process with ``workers=1``; BLAS keeps its default thread
count, which the result records.  README.md says why each workload is here.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from generate import (DATASET_FILE, ROOT, SPLIT_FILE, WORKLOADS, Workload,
                      import_fsdc)
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up repeats until both bounds are met, or ``SETUP_MAX_REPS``.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 1000

N_WAY = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", default=os.path.join(HERE, "out"),
                   help="where result and span files go (default %(default)s)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    fsdc = import_fsdc()
    workload = WORKLOADS[args.workload]
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.out_dir) as world_dir:
        subprocess.run([sys.executable, os.path.join(HERE, "generate.py"),
                        workload.world, str(args.seed), world_dir],
                       check=True, timeout=120)
        run = measure(fsdc, workload, world_dir, args.seed, args.seconds,
                      tracer)

    stem = os.path.join(args.out_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        records = tracer.records()
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        metrics = per_layer_metrics(records, run)
    else:
        metrics = end_to_end_metrics(run)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(fsdc), "run": summary_of(run),
              "result": result}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"report_sha256 {run['sha256']}")
    print(f"mean accuracy {run['accuracy_pct']:.4f}% over {run['episodes']} "
          f"checked episodes")
    print(f"failed_frac {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} episodes)")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def measure(fsdc, workload: Workload, world_dir: str, seed: int,
            seconds: float, tracer: Tracer | None) -> dict:
    """Set up, warm up, and run the measured (and traced) blocks."""
    path = os.path.join(world_dir, DATASET_FILE)
    load = fsdc.load_dataset
    build = fsdc.build_base_stats
    if tracer is not None:
        load = tracer.wrap("features_io.load", load, attrs=lambda a, out:
                           {"bytes": os.path.getsize(path)})
        build = tracer.wrap("stats.build", build, attrs=lambda a, out:
                            {"classes": len(out)})
    setup_s = []
    ds = split = stats = None
    while (len(setup_s) < SETUP_MAX_REPS
           and (len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S)):
        ds = split = stats = None   # one world in memory at a time
        start = perf_counter()
        ds = load(path)
        split = fsdc.load_split(os.path.join(world_dir, SPLIT_FILE))
        stats = build(ds, split)
        setup_s.append(perf_counter() - start)

    cfg = fsdc.PipelineConfig()
    episode_seed = fsdc.derive_key(seed, 1)

    def spec(block, episodes):
        return fsdc.EpisodeSpec(n_way=N_WAY, k_shot=workload.k_shot, q_queries=15,
                                num_episodes=episodes, seed=episode_seed + block)

    run = {"setup_s": setup_s, "blocks": [], "traced_blocks": [],
           "attempted": 0, "problems": []}

    def timed(block_spec, label):
        run["attempted"] += block_spec.num_episodes
        start = perf_counter()
        try:
            report = fsdc.evaluate(ds, split, stats, block_spec, cfg, workers=1)
        except Exception:   # reported as a failed check, not fatal
            traceback.print_exc()
            run["problems"].append(f"{label}: evaluate raised")
            return None, perf_counter() - start
        wall = perf_counter() - start
        problem = check_report(report, block_spec)
        if problem:
            run["problems"].append(f"{label}: {problem}")
        return report, wall

    warm, _ = timed(spec(0, 1), "warm-up")
    # the checked episodes are the same on every machine and at every speed:
    # an untraced run completes the fixed blocks and then times further
    # blocks until --seconds have passed; a traced run runs its fixed blocks
    # untraced and then the same blocks traced
    per_block = workload.block_episodes
    fixed = workload.traced_blocks if tracer is not None else workload.fixed_blocks
    untraced_s = 0.0 if tracer is not None else seconds
    reports = []
    start = perf_counter()
    while len(run["blocks"]) < fixed or perf_counter() - start < untraced_s:
        block = len(run["blocks"])
        report, wall = timed(spec(block, per_block), f"block {block}")
        run["blocks"].append((per_block, wall))
        reports.append(report)
    if warm is not None and reports[0] is not None and (
            warm.episode_accuracies[0] != reports[0].episode_accuracies[0]):
        run["problems"].append("a rerun of episode 0 gave another accuracy")
    texts = [r.to_json() if r is not None else "" for r in reports[:fixed]]
    run["sha256"] = hashlib.sha256("".join(texts).encode()).hexdigest()
    accs = [a for r in reports[:fixed] if r is not None
            for a in r.episode_accuracies]
    run["episodes"] = len(accs)
    run["accuracy_pct"] = 100.0 * statistics.fmean(accs) if accs else 0.0
    # the tolerance keeps a constant prediction, exactly at chance, from
    # passing through rounding in the mean
    if accs and run["accuracy_pct"] <= 100.0 / N_WAY + 1e-7:
        run["problems"].append("mean accuracy is not above chance")

    if tracer is not None:
        tracer.install(fsdc)
        try:
            for block, text in enumerate(texts):
                tracer.block = block
                report, wall = timed(spec(block, per_block),
                                     f"traced block {block}")
                run["traced_blocks"].append((per_block, wall))
                if report is not None and report.to_json() != text:
                    run["problems"].append(
                        f"traced block {block}: report differs from untraced")
        finally:
            missing = tracer.remove()
        for name in missing:
            print(f"warning: no {name} span; that layer was not reached "
                  f"through the attribute the tracer wraps", file=sys.stderr)
    # a run that fails any check fails every episode it attempted
    run["failed"] = run["attempted"] if run["problems"] else 0
    return run


def check_report(report, spec) -> str | None:
    accs = report.episode_accuracies
    if len(accs) != spec.num_episodes:
        return f"{len(accs)} episode accuracies, {spec.num_episodes} requested"
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
        return "an episode accuracy is not a finite number in [0, 1]"
    return None


def block_rate(blocks) -> float:
    """Median over blocks of episodes per second of ``evaluate`` wall time."""
    return statistics.median(n / wall for n, wall in blocks)


def end_to_end_metrics(run) -> dict:
    return {
        "episodes_per_s": block_rate(run["blocks"]),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_pct": run["accuracy_pct"],
    }


def per_layer_metrics(records, run) -> dict:
    metrics = layer_metrics(records)
    metrics["trace.overhead_frac"] = (
        1.0 - block_rate(run["traced_blocks"]) / block_rate(run["blocks"]))
    return metrics


def metric_units(group: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[group]}


def summary_of(run) -> dict:
    return {"setup_s": run["setup_s"],
            "blocks": [{"episodes": n, "wall_s": w} for n, w in run["blocks"]],
            "traced_blocks": [{"episodes": n, "wall_s": w}
                              for n, w in run["traced_blocks"]],
            "report_sha256": run["sha256"],
            "accuracy_pct": run["accuracy_pct"],
            "measured_episodes": run["episodes"],
            "problems": run["problems"]}


def machine_info(fsdc) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "code_sha256": code_sha256(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def code_sha256() -> str:
    """Hash of the package and benchmark sources, which names the code under
    test where no git commit is at hand."""
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "fsdc", "*.py"))
                   + glob.glob(os.path.join(HERE, "*.py"))
                   + [os.path.join(ROOT, "BENCHMARK.json")])
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())

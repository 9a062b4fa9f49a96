"""Run one speechq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; speechq is imported from its ``src``.
Every metric is printed with its unit and direction; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. The line
before it is a JSON record of the run and its environment. ``--workload
all`` runs each workload in a process of its own.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Keep BLAS thread pools at or below the CPUs this process may use.

    Must run before numpy is imported.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)


def git_state():
    """(commit SHA, dirty flag) of the checkout, or (None, None) outside git."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import speechq from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(workloads.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"speechq was imported from {workloads.cli.__file__}, not {ROOT}/src", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), work, import_s=import_s
    )
    defs = load_definitions()["per_layer" if args.trace else "end_to_end"]
    if set(result.metrics) != {d["name"] for d in defs}:
        print(
            "metrics do not match BENCHMARK.json: "
            f"{sorted(set(result.metrics) ^ {d['name'] for d in defs})}",
            file=sys.stderr,
        )
        return 2
    if result.tracer is not None:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        result.tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))

    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    for d in defs:
        print(f"{args.workload:12s} {d['name']:42s} {result.metrics[d['name']]:14.6g} {d['unit']:10s} {d['better']}")
    correct = result.failed == 0
    info = dict(result.info, environment=environment(args.seed))
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    d["name"]: {"value": result.metrics[d["name"]], "unit": d["unit"]} for d in defs
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in [w["name"] for w in load_definitions()["workloads"]]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode} and no result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in load_definitions()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

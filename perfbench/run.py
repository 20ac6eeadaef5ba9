"""Benchmark entry point for rieszvar.

    python3 perfbench/run.py --workload verify_demos --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is loaded from ``src/``; the
load comes from one process at a time, single-threaded, with the BLAS
pool capped at one thread. One fresh process (``worker.py``) runs a
warm-up pass, then closed-loop passes for ``--seconds``, and checks every
output. Between passes, spread over the run, it starts fresh processes
that import the package, validate the configs and materialise the grids
and fields; ``setup_s`` is the median of their set-up times.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` every other pass is traced and the last line carries the
per-layer metrics. The lines before it record the
environment and the timing samples. Exit status is nonzero, with no
result line, when the program cannot be set up or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
# Per-process limit; the whole run must end well inside three minutes.
PROCESS_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout):
    """Run one worker process to completion and return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {args[0]} exceeded {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment(worker_result):
    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    res = run_worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", str(out_dir)], PROCESS_TIMEOUT_S)

    print(json.dumps({"environment": environment(res)}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "variant": res["variant"],
        "wall_s": res["wall_s"], "passes": res["passes"],
        "setup_samples": res.get("setup_samples"),
        "attempted": res["attempted"], "failed": res["failed"],
        "mismatched": res["mismatched"], "errors": res["errors"],
    }))
    if args.trace:
        metrics = res["layers"]
        print(json.dumps({"traced_passes": res["traced_passes"],
                          "spans": str((out_dir / "spans.npz").relative_to(ROOT))}))
    else:
        metrics = {
            "wall_s": (res["wall_s"], "s"),
            "setup_s": (statistics.median(res["setup_samples"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "success_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
            "pack_total_ratio": (res["pack_total_ratio"], "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["mismatched"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

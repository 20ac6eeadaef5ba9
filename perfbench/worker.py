"""One fresh benchmark process: set up a workload, then optionally run it.

``setup`` mode times a fresh process importing the package, validating
the configs and materialising the grids and fields, and prints that time.
``run`` mode sets up the same way, runs one warm-up pass, then runs
closed-loop passes (each operation starts when the previous one has
returned) for the given number of seconds, with set-up probes in fresh
processes between passes, checks every output against the references,
and prints one JSON result line. With ``--trace 1``
every other pass is traced and per-layer figures are reported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 8

def new_tally():
    return {"attempted": 0, "failed": 0, "mismatched": 0, "total": 0.0,
            "ref_total": 0.0, "errors": []}


def run_pass(ops, prepared, reference, tally):
    """One closed-loop pass; returns {timed part: seconds}. Checks are not timed.

    A verify operation is split into its suites plus the rest (run_config
    outside the suites, and CSV emission).
    """
    inputs = prepared["inputs"]
    seconds = {}
    for i, (name, op) in enumerate(ops):
        started = time.perf_counter()
        parts = {}
        try:
            result, parts = op()
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, exc
        seconds[name] = time.perf_counter() - started - sum(parts.values())
        seconds.update((f"{name}/{part}", t) for part, t in parts.items())
        if error is not None:
            tally["errors"].append(f"{name}: {error!r}")
        if "configs" in prepared:
            config = prepared["configs"][i][1]
            if error is not None:
                for key in ("attempted", "failed", "mismatched"):
                    tally[key] += len(config.suites)
                continue
            attempted, failed, mismatched, got, want = workloads.check_verify(
                config, result, reference[name])
            tally["attempted"] += attempted
            tally["failed"] += failed
            tally["mismatched"] += mismatched
        else:
            _, f, w = prepared["problems"][i]
            ok, got = (False, 0.0) if error is not None else workloads.check_packing(
                f, w, result, inputs["p"], reference[name])
            want = reference[name]
            tally["attempted"] += 1
            tally["failed"] += not ok
            tally["mismatched"] += not ok
        tally["total"] += got
        tally["ref_total"] += want
    return seconds


def timed_passes(ops, prepared, reference, tally, seconds, probe):
    """Whole passes until ``seconds`` have elapsed (at least one).

    SETUP_PROBES calls of ``probe`` run between passes, spread evenly over
    the run (any not yet taken run at the end), so the median set-up time
    covers the whole run and not one moment of it. Returns the passes and
    the probe results.
    """
    passes, probes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops, prepared, reference, tally))
        due = start + len(probes) * seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and time.perf_counter() >= due:
            probes.append(probe())
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return passes, probes


def setup_probe(workload, seed):
    """Set-up seconds of a fresh process, as measured by that process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def fastest_pass(passes):
    """Sum over timed parts of each one's fastest time in the run.

    On a shared machine the same operation slows by up to 2x for seconds
    at a time; the per-operation minimum tracks the program, the median
    tracks the neighbours.
    """
    return sum(min(p[name] for p in passes) for name in passes[0])


def pass_summary(passes):
    """Median pass, the highest order statistic with ten passes beyond it, count."""
    ordered = sorted(sum(p.values()) for p in passes)
    n = len(ordered)
    k = n - 10
    tail = ({"percentile": round(100.0 * k / n, 1), "value": ordered[k - 1]}
            if k >= 1 else None)
    return {"median": statistics.median(ordered), "tail": tail, "samples": n,
            "values": ordered}


def layer_metrics(tracer, passes, untraced_wall, traced_wall):
    """Per-layer figures per traced pass, each as (value, unit)."""
    from rieszvar.config import KNOWN_SUITES

    summary = tracer.summary()
    counts = tracer.counts

    def per_pass(x):
        return x / passes

    def self_s(name):
        return per_pass(summary.get(name, (0, 0.0, 0.0))[2])

    def calls(name):
        if name in summary:
            return per_pass(summary[name][0])
        return per_pass(counts.get(f"{name}.calls", 0))

    ls_calls = summary.get("riesz.pack_local_search", (0, 0.0, 0.0))[0]
    m = {}
    for name in (
        "riesz.candidate_balls", "riesz.measure_balls", "riesz.pack_1d_exact",
        "riesz.pack_local_search", "riesz.pack_greedy", "weights.ap_constant",
        "weights.generate_cubes", "sobolev.mollify", "sobolev.morrey_check",
        "sobolev.weighted_lp_norm", "varexp.explore_packings",
        "varexp.rbv_collection_norm", "varexp.luxemburg_norm", "varexp.g_operator",
        "grid.region_mask", "report.emit",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "grid.balls_disjoint", "weights.ap_constant", "weights.estimate_rw",
        "config.materialize_level", "riesz.measure_balls", "grid.region_mask",
        "grid.ball_in_domain",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
    m["riesz.n_candidates"] = (per_pass(counts.get("riesz.n_candidates", 0)), "count")
    m["weights.n_cubes"] = (per_pass(counts.get("weights.n_cubes", 0)), "count")
    m["riesz.ls_improved_frac"] = (
        counts.get("riesz.ls_improved", 0) / ls_calls if ls_calls else 0.0, "ratio")
    for suite in KNOWN_SUITES:
        m[f"harness.{suite}.s"] = (per_pass(summary.get(f"harness.{suite}", (0, 0.0))[1]), "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    inputs = workloads.generate(args.workload, args.seed)
    prepared = workloads.setup(inputs)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = workloads.load_reference(args.workload, inputs["variant"])
    ops = workloads.operations(prepared, str(out_dir))
    run_pass(ops, prepared, reference, new_tally())  # warm-up, not counted
    tally = new_tally()

    import numpy as np

    result = {"setup_s": setup_s, "variant": inputs["variant"],
              "numpy": np.__version__, "python": sys.version.split()[0]}
    if args.trace:
        from tracing import Tracer

        # Untraced and traced passes alternate, so both see the same
        # machine and the difference is the tracing overhead.
        tracer = Tracer()
        passes, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            passes.append(run_pass(ops, prepared, reference, tally))
            tracer.install()
            try:
                traced.append(run_pass(ops, prepared, reference, tally))
            finally:
                tracer.uninstall()
        tracer.dump(out_dir / "spans.npz")
        result["layers"] = layer_metrics(tracer, len(traced), fastest_pass(passes),
                                         fastest_pass(traced))
        result["traced_passes"] = pass_summary(traced)
    else:
        passes, probes = timed_passes(
            ops, prepared, reference, tally, args.seconds,
            lambda: setup_probe(args.workload, args.seed))
        result["setup_samples"] = probes
    result.update(
        wall_s=fastest_pass(passes),
        passes=pass_summary(passes),
        attempted=tally["attempted"],
        failed=tally["failed"],
        mismatched=tally["mismatched"],
        errors=tally["errors"][:5],
        pack_total_ratio=tally["total"] / tally["ref_total"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

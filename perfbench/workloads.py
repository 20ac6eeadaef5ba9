"""Workload definitions: seeded input generation, operations and output checks.

A workload is a fixed list of inputs that one pass runs in order. The
seed picks one of ``N_VARIANTS`` parameter variants and never a size, so
every seed does the same amount of work and its outputs can be checked
against references recorded from the program (``reference/``).

Why each workload exists:

- ``verify_demos``: the path users actually run, ``toolkit verify`` on
  the two shipped demo configs (1D). Dominated by candidate generation
  and ball measurement, repeated across suites and levels; the weight
  layer is small and there is no local search. The known ``lemma21``
  error row of ``weak_type_hat.json`` is kept, so one of the ten suite
  runs fails at the baseline.
- ``verify_2d``: all ten suites on a 2D config owned by the benchmark.
  The only workload where the weight layer (``A_p`` bisection over the
  cube family) and the Sobolev layer (mollification, Morrey check) do
  real work. Uses the greedy packer, because local search on these
  grids takes minutes. One 33x33 level only: with a second 65x65 level
  a pass took 3.5-6.5 s, too few passes fit in a run, and the spread of
  its time over ten seeds exceeded a quarter of the median.
- ``pack_2d_disk``: ``riesz_variation(method="auto")`` (greedy then
  local search) on dyadic disks and one 3D box. Local search dominates;
  the harness, weight and variable-exponent layers are bypassed. Some
  instances find improving moves, others scan exhaustively and find
  none.

Every grid spacing and radius is dyadic, so ball membership is exact in
floating point and the recorded outputs do not depend on rounding.
"""

import copy
import csv
import functools
import hashlib
import json
import math
import os
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

N_VARIANTS = 8
WORKLOADS = ("verify_demos", "verify_2d", "pack_2d_disk")

DEMO_CONFIGS = ("theorem1_linear", "weak_type_hat")
PACK_P = 2.0
PACK_H = 0.125
# Closed-disjointness and containment slack of the package's geometry.
ATOL = 1e-9
# The eight symmetries of the square: (sign x, sign y, swap axes).
D4 = (
    (1, 1, False), (-1, 1, False), (1, -1, False), (-1, -1, False),
    (1, 1, True), (-1, 1, True), (1, -1, True), (-1, -1, True),
)
# Fixed packing instances. The 17x17 bump and the 3D bump are moved by the
# variant's symmetry (which changes the search order but not its cost);
# the 21x21 instances are only rescaled, because their local-search cost
# depends on the symmetry.
PACK_INSTANCES = (
    {"name": "disk17_bump_pw", "disk_radius": 1.0, "function": "bump",
     "fparams": {"radius": 0.75, "center": [0.125, -0.0625]},
     "weight": "power_weight", "wparams": {"alpha": 1.0, "center": [0.0625, -0.1875]},
     "symmetric": True},
    {"name": "disk17_sin_const", "disk_radius": 1.0, "function": "sinusoid",
     "fparams": {"freq": 2.0}, "weight": "constant", "wparams": {"value": 1.0},
     "symmetric": False},
    {"name": "disk21_bump_pw", "disk_radius": 1.25, "function": "bump",
     "fparams": {"radius": 0.75, "center": [0.125, -0.125]},
     "weight": "power_weight", "wparams": {"alpha": 1.0, "center": [-0.0625, 0.1875]},
     "symmetric": False},
    {"name": "disk21_sin_const", "disk_radius": 1.25, "function": "sinusoid",
     "fparams": {"freq": 1.0}, "weight": "constant", "wparams": {"value": 1.0},
     "symmetric": False},
    {"name": "box3d_bump", "box_half": 0.5, "function": "bump",
     "fparams": {"radius": 0.5, "center": [0.125, -0.125, 0.0]},
     "weight": "constant", "wparams": {"value": 1.0}, "symmetric": True},
)


def variant_of(workload, seed):
    """Map a seed to one of N_VARIANTS parameter variants, stably across versions."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % N_VARIANTS


def _apply_symmetry(vec, sym):
    sx, sy, swap = sym
    x, y = vec[0] * sx, vec[1] * sy
    return [y, x, *vec[2:]] if swap else [x, y, *vec[2:]]


def _verify_2d_config(variant):
    with open(HERE / "configs" / "verify_2d.json") as fh:
        raw = json.load(fh)
    sym = D4[variant]
    for spec in (raw["function"], raw["weight"]):
        spec["params"]["center"] = _apply_symmetry(spec["params"]["center"], sym)
    slope = raw["exponent"]["params"]["slope"]
    raw["exponent"]["params"]["slope"] = _apply_symmetry(slope, sym)
    raw["seed"] = variant
    return raw


def generate(workload, seed):
    """The workload's input list for this seed, as plain JSON-able data."""
    return generate_variant(workload, variant_of(workload, seed))


def generate_variant(workload, variant):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "verify_demos":
        configs = []
        for name in DEMO_CONFIGS:
            with open(ROOT / "demos" / "configs" / f"{name}.json") as fh:
                raw = json.load(fh)
            raw["seed"] = variant
            configs.append({"name": name, "raw": raw})
        return {"workload": workload, "variant": variant, "configs": configs}
    if workload == "verify_2d":
        return {"workload": workload, "variant": variant,
                "configs": [{"name": "verify_2d", "raw": _verify_2d_config(variant)}]}
    sym = D4[variant]
    amplitude = 2.0 ** (variant % 4 - 1)
    weight_scale = 2.0 ** (variant // 4)
    instances = []
    for base in PACK_INSTANCES:
        inst = copy.deepcopy(base)
        if inst.pop("symmetric"):
            inst["fparams"]["center"] = _apply_symmetry(inst["fparams"]["center"], sym)
            if "center" in inst["wparams"]:
                inst["wparams"]["center"] = _apply_symmetry(inst["wparams"]["center"], sym)
        inst["amplitude"] = amplitude
        inst["weight_scale"] = weight_scale
        instances.append(inst)
    return {"workload": workload, "variant": variant, "instances": instances,
            "p": PACK_P, "radii": [2 * PACK_H, 4 * PACK_H]}


# --------------------------------------------------------------------------
# Set-up: everything below imports the package under test.


def _pack_grid(rv, inst):
    import numpy as np

    h = PACK_H
    if "disk_radius" in inst:
        radius = inst["disk_radius"]
        n = int(round(2 * radius / h)) + 1
        return rv.build_grid(
            2, [-radius, -radius], h, [n, n],
            lambda pts: np.linalg.norm(pts, axis=-1) < radius,
        )
    half = inst["box_half"]
    n = int(round(2 * half / h)) + 1
    return rv.build_grid(3, [-half] * 3, h, [n] * 3)


def setup(inputs):
    """Import the package, validate configs, materialise grids and fields.

    Returns the prepared state that ``operations`` turns into a pass.
    """
    import rieszvar as rv
    import rieszvar.cli  # noqa: F401  (the user path imports the CLI too)
    from rieszvar.config import load_config, materialize_level

    prepared = {"inputs": inputs}
    if "configs" in inputs:
        configs = []
        for entry in inputs["configs"]:
            config = load_config(copy.deepcopy(entry["raw"]))
            for level in range(config.refinements):
                materialize_level(config, level)
            configs.append((entry["name"], config))
        prepared["configs"] = configs
        return prepared
    problems = []
    for inst in inputs["instances"]:
        grid = _pack_grid(rv, inst)
        f = rv.sample_catalog(grid, inst["function"], inst["fparams"])
        w = rv.sample_catalog(grid, inst["weight"], inst["wparams"])
        f = rv.SampledField(grid, inst["amplitude"] * f.values, rv.FieldKind.FUNCTION)
        w = rv.SampledField(grid, inst["weight_scale"] * w.values, rv.FieldKind.WEIGHT)
        problems.append((inst["name"], f, w))
    prepared["problems"] = problems
    return prepared


class SuiteClock:
    """Times every suite call that ``run_config`` makes.

    Installed in the harness's suite table, so each suite on each config
    (the verify workloads' unit of work) gets its own time sample.
    """

    def __init__(self, harness):
        self.seconds = {}
        for suite, fn in list(harness._SUITES.items()):
            harness._SUITES[suite] = self._timed(suite, fn)

    def _timed(self, suite, fn):
        @functools.wraps(fn)
        def wrapper(config):
            started = time.perf_counter()
            try:
                return fn(config)
            finally:
                self.seconds[suite] = time.perf_counter() - started

        return wrapper

    def take(self):
        seconds, self.seconds = self.seconds, {}
        return seconds


def operations(prepared, out_dir):
    """The pass as a list of (name, callable) operations, run in order.

    Each callable returns (output, {part: seconds}). A verify operation is
    one config, run_config plus CSV emission, and its parts are the
    suites; ``check_verify`` scores each suite on its own. A packing
    operation is one solve. Functions are looked up on their modules at
    call time, so a tracer that replaces them there sees every call.
    """
    import rieszvar.harness as harness
    import rieszvar.report as report
    import rieszvar.riesz as riesz

    if "configs" in prepared:
        clock = SuiteClock(harness)

        def verify_op(name, config):
            path = os.path.join(out_dir, f"{name}.csv")

            def op():
                clock.take()
                out = report.emit_report(harness.run_config(config), path, "csv")
                return out, clock.take()

            return op

        return [(name, verify_op(name, config)) for name, config in prepared["configs"]]
    p = prepared["inputs"]["p"]
    radii = prepared["inputs"]["radii"]

    def pack_op(f, w):
        return lambda: (riesz.riesz_variation(f, w, p, radii, method="auto"), {})

    return [(name, pack_op(f, w)) for name, f, w in prepared["problems"]]


# --------------------------------------------------------------------------
# Output checks. They use numpy and the recorded references only, never the
# package's own geometry helpers.


def load_reference(workload, variant):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)[str(variant)]


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return [
            [r["experiment"], r["quantity"], r["params"], r["value"], r["status"]]
            for r in csv.DictReader(fh)
        ]


def _value_matches(got, want):
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def _rows_match(got, want):
    return (
        len(got) == len(want)
        and all(g[:3] == w[:3] and g[4] == w[4] and _value_matches(g[3], w[3])
                for g, w in zip(got, want))
    )


def _variation_sum(rows):
    return math.fsum(float(r[3]) for r in rows
                     if r[0] == "theorem1" and r[1] == "variation")


def check_verify(config, csv_path, ref_rows):
    """Score one config's report, suite by suite.

    Returns (attempted, failed, mismatched, variation_sum, ref_variation_sum).
    A suite fails when it emits an error row or when its rows differ from
    the reference; only a difference counts as a mismatch.
    """
    rows = read_csv_rows(csv_path)
    attempted = failed = mismatched = 0
    for suite in config.suites:
        attempted += 1
        got = [r for r in rows if r[0] == suite]
        want = [r for r in ref_rows if r[0] == suite]
        ok = _rows_match(got, want)
        if not ok:
            mismatched += 1
        if not ok or any(r[4] == "error" for r in got):
            failed += 1
    return attempted, failed, mismatched, _variation_sum(rows), _variation_sum(ref_rows)


def _open_ball_members(grid, center, radius):
    import numpy as np

    pts = grid.points().reshape(-1, grid.dim)
    return np.sum((pts - center) ** 2, axis=1) < radius**2


def check_packing(f, w, solution, p, ref_total):
    """Feasibility, honest total and no loss against the reference.

    Every ball must lie inside the domain (bounding box and masked-in
    nodes), balls must be pairwise closed-disjoint, the reported total
    must equal the sum of independently recomputed scores, and that
    total must not fall below the recorded reference.
    Returns (ok, total).
    """
    import numpy as np

    grid = f.grid
    balls = list(solution.collection)
    if not balls:
        return False, 0.0
    centers = np.array([b.center for b in balls], dtype=float)
    radii = np.array([b.radius for b in balls], dtype=float)
    lo = grid.origin
    hi = grid.origin + grid.spacing * (np.array(grid.shape) - 1)
    if np.any(centers - radii[:, None] < lo - ATOL) or np.any(centers + radii[:, None] > hi + ATOL):
        return False, 0.0
    dist = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    pair_ok = dist + ATOL >= radii[:, None] + radii[None, :]
    np.fill_diagonal(pair_ok, True)
    if not pair_ok.all():
        return False, 0.0
    mask = grid.mask.reshape(-1)
    fv = f.values.reshape(-1)
    wv = w.values.reshape(-1)
    scores = []
    for c, r in zip(centers, radii):
        member = _open_ball_members(grid, c, r)
        if not member.any() or not mask[member].all():
            return False, 0.0
        osc = fv[member].max() - fv[member].min()
        scores.append((osc / r) ** p * wv[member].sum() * grid.cell_volume())
    total = math.fsum(scores)
    honest = abs(total - solution.total) <= 1e-9 * max(abs(total), 1e-300)
    return honest and total >= ref_total * (1.0 - 1e-12), total


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print a workload's generated inputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed), indent=2))

"""Self-check of the benchmark: one short run per workload and mode.

    python3 -m pytest -q perfbench/tests

Every metric that BENCHMARK.json names is emitted, with its unit, on
every workload; outputs check out; the generator is deterministic and
the seed never changes a size; and without the program the benchmark
exits nonzero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=3, seconds=1):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_workloads_match_spec():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_run_emits_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert result["metrics"]["pack_total_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_picks_parameters_not_sizes(workload):
    def sizes(inputs):
        if "configs" in inputs:
            return [(c["raw"]["grid"], c["raw"].get("radii"), c["raw"]["refinements"])
                    for c in inputs["configs"]]
        return [(i.get("disk_radius"), i.get("box_half")) for i in inputs["instances"]]

    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    base = sizes(workloads.generate_variant(workload, 0))
    for variant in range(workloads.N_VARIANTS):
        assert sizes(workloads.generate_variant(workload, variant)) == base


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOAD_NAMES[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every parameter variant of every workload once and writes
``perfbench/reference/<workload>.json``: the report rows of each verify
config, and the packing total of each solve. Re-record only when the
benchmark's definition changes, never to make a changed program pass.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record(workload):
    table = {}
    for variant in range(workloads.N_VARIANTS):
        prepared = workloads.setup(workloads.generate_variant(workload, variant))
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.operations(prepared, tmp)
            entry = {}
            for name, op in ops:
                result, _ = op()
                if "configs" in prepared:
                    entry[name] = workloads.read_csv_rows(result)
                else:
                    entry[name] = result.total
            table[str(variant)] = entry
        print(workload, variant, flush=True)
    path = workloads.REFERENCE_DIR / f"{workload}.json"
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)

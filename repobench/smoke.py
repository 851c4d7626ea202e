"""Smoke test of the benchmark itself, on small-preset inputs.

Run from the repository root::

    python3 repobench/smoke.py

For every workload in ``BENCHMARK.json`` it runs the benchmark once
untraced and twice traced, with the same seed, and asserts that

* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* every output check passes (``correct``, no failed job);
* the layer counts repeat exactly between the two traced runs;
* each workload's ``why`` matches the one its class records.

It also runs the benchmark in a directory holding only ``BENCHMARK.json``
and the benchmark's files, where it must fail without printing a result.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
#: Counts that must repeat exactly across runs with one seed.
REPEATED = (
    "workload.messages", "mrt.records", "mrt.bytes", "stream.batches",
    "stream.elems", "stream.rows_materialised", "core.elems", "core.row_touches",
    "core.observations", "core.events", "exec.plan.stream_passes",
    "exec.distrib.datasets_built", "exec.distrib.cells_done",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"benchmark exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{label}: checks failed: {result}"
    assert result["attempted"] >= 1, label
    for metric in declared:
        emitted = result["metrics"].get(metric["name"])
        assert emitted is not None, f"{label}: {metric['name']} not emitted"
        assert emitted["unit"] == metric["unit"], f"{label}: {metric['name']} unit"
    extra = set(result["metrics"]) - {metric["name"] for metric in declared}
    assert not extra, f"{label}: undeclared metrics {sorted(extra)}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    for workload in spec["workloads"]:
        name = workload["name"]
        assert WORKLOADS[name].why == workload["why"], f"{name}: why differs"
        check_metrics(result_of(bench(name, 0)), spec["end_to_end"], f"{name} untraced")
        first, second = (result_of(bench(name, 1)) for _ in range(2))
        for result in (first, second):
            check_metrics(result, spec["per_layer"], f"{name} traced")
        for key in REPEATED + tuple(
            key for key in first["metrics"] if key.startswith("exec.campaign.builds.")
        ):
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            assert a == b, f"{name}: {key} differs between runs ({a} != {b})"
        print(f"ok {name}")

    scratch = ROOT / ".repobench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        assert completed.returncode != 0, "benchmark succeeded without the package"
        assert '"correct"' not in completed.stdout, "result printed without the package"
        print("ok fails without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

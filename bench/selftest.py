"""Self-test of the benchmark: every workload at tiny size on two seeds.

    python3 bench/selftest.py

For each workload and seed it runs ``run.py`` with a one-second window
(which still covers the workload's pool once) untraced and traced. It checks that the run is correct, that
the last line holds exactly the metrics BENCHMARK.json names, each with its
unit, and that the text report prints every named metric with its unit. It
then checks that ``run.py`` fails without printing a result when the
program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (1, 2)
QUALITY = {
    "detect_clean": ("auc_adds", "auc_add", "detection_rate"),
    "refine_noisy": ("auc_adds", "auc_add", "detection_rate"),
    "sloss_histogram": ("sloss_mode_frac",),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace))
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != named:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(named.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            errors.append(f"{where}: {name} value {m['value']!r} is not a number")
    text = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in ("metric", "layer", "quality"):
            text[parts[1]] = parts[3]
    expected = dict(named)
    expected.update({q: None for q in QUALITY[workload]})
    if not trace:
        expected["ops_failed_frac"] = "ratio"
        if not any(line.split()[:2] == ["metric", "op_p90_s"] for line in lines):
            errors.append(f"{where}: no op_p90_s line")
    for name, unit in expected.items():
        if name not in text:
            errors.append(f"{where}: {name} not printed")
        elif unit is not None and text[name] != unit:
            errors.append(f"{where}: {name} printed with unit {text[name]}, not {unit}")
    if not any(line.startswith("digest ") for line in lines):
        errors.append(f"{where}: no digest line")
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources run.py must fail and print no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "detect_clean", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                print(f"{workload:16} seed={seed} trace={trace} "
                      f"{'FAIL' if found else 'ok'}", flush=True)
                errors += found
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Whole-pipeline benchmark for paperlens.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root. The command generates the workload's inputs
from the seed, then starts one fresh process per measured run of the
pipeline (``bench/pipeline.py``) until ``--seconds`` are spent, and reports
medians over those runs. Every run's outputs pass through the correctness
gate in ``bench/gate.py``.

With ``--trace 0`` all runs are untraced and the end-to-end metrics are
reported. With ``--trace 1`` traced and untraced runs alternate; the
per-layer metrics come from the traced runs, and the fixed-input kernels
and the similarity-error probes run once in a process of their own.

Load model: a closed loop with one driving process. The only concurrency is
the program's own: the provider pool (``max_inflight=2``) and the thread
pools in ``ingest`` and ``verify_dataset``.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record, including the environment, each run's values and
a sha256 of every output, goes to ``.bench_out/BENCH_<workload>_<size>_seed<N>_trace<T>.json``.
The command exits with 1 when the gate fails and with 2 when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import generate
import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
#: Set-up is sampled this many times in set-up-only processes, on top of one
#: sample per measured run, so its median is steady.
SETUP_SAMPLES = 5
#: Every child process must finish before this many seconds have passed.
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not run."""


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


class Children:
    """Starts ``pipeline.py`` processes one at a time, under a shared deadline."""

    def __init__(self, inputs: Path, work: Path, deadline: float) -> None:
        self.inputs, self.work, self.deadline = inputs, work, deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def __call__(self, mode: str, trace: bool = False) -> dict:
        cmd = [sys.executable, str(ROOT / "bench" / "pipeline.py"), mode,
               "--inputs", str(self.inputs), "--work", str(self.work)]
        if trace:
            cmd.append("--trace")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a run")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} run exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.perf_counter() - start
        return result


def measure(w: generate.Workload, seed: int, seconds: int, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = OUT / f"{w.name}-{size}"
    inputs = base / "inputs"
    start = time.perf_counter()
    generate.generate(w, seed, ROOT / inputs)
    generate_s = time.perf_counter() - start

    child = Children(inputs, base / "work", deadline)
    child("setup")  # warm-up: byte-compiles the package and fills the file cache
    setups = [child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    kernels = child("kernels") if trace else {}

    # Runs start until the window is spent, so the last may overrun it; a
    # traced run always gets an untraced partner for the overhead figure.
    runs: list[dict] = []
    budget_end = time.perf_counter() + seconds
    while time.perf_counter() < budget_end or (trace and len(runs) < 2):
        traced = trace and len(runs) % 2 == 0
        run = child("run", trace=traced)
        run["traced"] = traced
        runs.append(run)
    return {"generate_s": generate_s, "setups": setups, "kernels": kernels, "runs": runs}


def summarize(m: dict, trace: bool) -> tuple[dict, dict]:
    """End-to-end and per-layer metric values (medians over runs)."""
    untraced = [r for r in m["runs"] if not r["traced"]]
    traced = [r for r in m["runs"] if r["traced"]]
    med = statistics.median

    e2e = {
        "setup_s": med(m["setups"] + [r["setup_s"] for r in m["runs"]]),
        "pipeline_s": med(r["pipeline_s"] for r in untraced),
        "cpu_s": med(r["cpu_s"] for r in untraced),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        "verdict_agreement": med(r["verdict_agreement"] for r in untraced),
        "completed_ops_share": med(1 - r["failed"] / r["attempted"] for r in untraced),
    }
    layers: dict = {}
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = med(r["layers"][name] for r in traced)
        layers.update(m["kernels"])
        layers["bench.generate_s"] = m["generate_s"]
        layers["bench.trace_overhead_s"] = med(r["pipeline_s"] for r in traced) - e2e["pipeline_s"]
        layers = {p.name: layers[p.name] for p in metrics.PER_LAYER}
    return e2e, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Whole-pipeline benchmark for paperlens.")
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny configuration for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "paperlens" / "__init__.py").is_file():
        print(f"error: no paperlens source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    w = generate.workload(args.workload, args.size)
    trace = bool(args.trace)
    try:
        m = measure(w, args.seed, args.seconds, trace, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    e2e, layers = summarize(m, trace)

    runs = m["runs"]
    errors = sorted({e for r in runs for e in r["errors"]})
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    outputs = [r["outputs"] for r in runs]
    units = {d.name: d.unit for d in metrics.END_TO_END + metrics.PER_LAYER}
    reported = layers if trace else e2e

    for name, value in {**e2e, **layers}.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ops_share {failed / attempted:.6g} ratio")
    for error in errors:
        print(f"GATE: {error}")

    record = {
        "environment": {
            "git_sha": _git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "workload": w.name,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "run_count": len(runs),
        "traced_runs": sum(r["traced"] for r in runs),
        "setup_samples": len(m["setups"]) + len(runs),
        "correct": not errors,
        "gate_errors": errors,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "end_to_end": {
            d.name: {"value": e2e[d.name], "unit": d.unit, "better": d.better, "bound": d.bound,
                     "definition": d.definition}
            for d in metrics.END_TO_END
        },
        "per_layer": {
            d.name: {"value": layers[d.name], "unit": d.unit, "better": d.better, "layer": d.layer,
                     "moves": d.moves}
            for d in metrics.PER_LAYER if d.name in layers
        },
        "runs": [{k: v for k, v in r.items() if k != "outputs"} for r in runs],
        "setup_s_samples": m["setups"],
        "outputs_sha256": outputs[0],
        "outputs_identical_across_runs": all(o == outputs[0] for o in outputs),
    }
    bench_file = OUT / f"BENCH_{w.name}_{args.size}_seed{args.seed}_trace{args.trace}.json"
    bench_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record -> {bench_file}")

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record a baseline: every workload on several seeds, plus one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 --out perfbench/BASELINE.json

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the file holds the median and the quartile spread
(distance between the first and third quartile over the median) across
seeds; the traced run adds each layer's share of request time and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("compose_words", "adjoint_chains", "function_field")
TRACE_SEED = 1

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_TO_METRIC = {
    "exact_algebra.content_gcd.self_s": {
        "compose_words": ["requests_per_s", "request_s.p90"],
        "function_field": ["request_s.p50"],
        "adjoint_chains": [],
    },
    "exact_algebra.substitute.self_s": {"compose_words": ["requests_per_s", "request_s.p90"]},
    "exact_algebra.tri_divrem.self_s": {"function_field": ["requests_per_s", "request_s.p90"]},
    "jonquieres.*": {"function_field": ["requests_per_s", "request_s.p90"]},
    "curve_model.*": {"function_field": ["requests_per_s", "request_s.p50"]},
    "linear_systems.remove_fixed_components.self_s": {
        "adjoint_chains": ["requests_per_s", "request_s.p90"],
        "compose_words": [],
        "function_field": [],
    },
    "serialization.*": {
        "compose_words": ["request_s.p50"],
        "adjoint_chains": ["request_s.p50"],
        "function_field": ["request_s.p50"],
    },
    "cli.self_s": {
        "compose_words": ["request_s.p50"],
        "adjoint_chains": ["request_s.p50"],
        "function_field": ["request_s.p50"],
    },
    "import cost": {"all": ["setup_s"]},
}


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    info = json.loads((BENCH_DIR / "out" / f"{stem}.json").read_text())
    print(f"{stem}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr, flush=True)
    return result, info


def _summary(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    args = parser.parse_args()

    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": _seeds(args.seeds),
        "layer_to_metric": LAYER_TO_METRIC,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [_run(workload, seed, args.seconds, 0) for seed in doc["seeds"]]
        metrics = {}
        for result, _ in runs:
            for key, value in result["metrics"].items():
                metrics.setdefault(key, []).append(value["value"])
        traced, traced_info = _run(workload, TRACE_SEED, args.seconds, 1)
        shares = traced_info["layer_shares"]
        doc["workloads"][workload] = {
            "inputs_sha256": {str(info["seed"]): info["inputs_sha256"] for _, info in runs},
            "samples_per_run": [info["samples"] for _, info in runs],
            "failed_ratio": [info["failed_ratio"] for _, info in runs],
            "all_correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "end_to_end": {k: _summary(v) for k, v in metrics.items()},
            "request_s_by_kind": runs[0][1]["request_s_by_kind"],
            "traced_seed": TRACE_SEED,
            "tracing_overhead_ratio": traced_info["metrics"]["trace.overhead_ratio"],
            "layer_shares": {k: v for k, v in sorted(shares.items()) if v > 0},
            "per_layer": traced_info["metrics"],
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Closed-loop benchmark of the cremona-kit command line.

    python3 perfbench/run.py --workload compose_words --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One client drives the real
entry point ``cremona_kit.cli.main(argv)`` in this single process,
sending each request after the previous one returned.  The request list
is generated from ``--seed`` before timing starts; the program sees only
its JSON inputs.  The list, sized from ``--seconds``, is timed in three
whole passes; each request counts with the median of its three times,
every pass must give the same bytes, and every output is checked
semantically.  Set-up time is the median, over fresh interpreters
spawned between the passes, of the time each takes to import the CLI
and build its parser.  Times are scaled to a reference machine speed
measured by a probe around every call (see REF_S).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` a traced pass follows the timed passes and the last
line reports per-layer metrics.  Details of each run, including the
input digest and the sample count, go to ``perfbench/out/`` and stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import exact

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# At least this many distinct requests per run, so that p90 has ten
# samples beyond it.
MIN_REQUESTS = 100
# Every request runs PASSES times and counts with the median of its
# times.  A program that cached results across calls would gain here what
# a command-line user, who starts a fresh process per call, would not;
# peak_rss_mb shows such caches.
PASSES = 3
# Blocks of the workload's schedule per second of --seconds, so that the
# passes take about --seconds on a 2-core x86 container.
BLOCKS_PER_SECOND = {"compose_words": 0.05, "adjoint_chains": 0.15, "function_field": 0.3}
# On a shared machine other tenants slow the CPU by up to 2x for seconds
# or minutes at a time.  A speed probe, a fixed piece of exact arithmetic
# from the benchmark's own code, runs before and after every timed call,
# and each time is scaled by REF_S / (mean probe time): every reported
# time is the time the call would take on a machine that runs the probe
# in REF_S seconds.  Scaled times of one call vary by about 8% across such
# swings; raw times go to the run record.
REF_S = 0.0025
_REF = random.Random(0)
_REF_A = {(i, j, 5 - i - j): Fraction(_REF.randint(-9, 9), _REF.randint(1, 9)) for i in range(6) for j in range(6 - i)}
_REF_B = {(i, j, 4 - i - j): Fraction(_REF.randint(-9, 9), _REF.randint(1, 9)) for i in range(5) for j in range(5 - i)}
SETUP_SPAWNS_PER_PASS = 5
# Run by a fresh interpreter: time the import of the CLI and the building
# of its parser, the start-up a command-line user pays on every call.
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import cremona_kit.cli as cli; cli.build_parser(); print(time.perf_counter() - t0)"
)
WARMUP = ["pencil-check", "--n", "2", "--mults", "1,1,1,1"]


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_cli():
    if not (SRC / "cremona_kit" / "cli.py").is_file():
        _fail(f"no cremona_kit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cremona_kit
    import cremona_kit.cli

    if Path(cremona_kit.__file__).resolve().parent != (SRC / "cremona_kit").resolve():
        _fail(f"imported cremona_kit from {cremona_kit.__file__}, not from {SRC}")
    return cremona_kit.cli


def probe() -> float:
    """Seconds the reference work takes right now."""
    t0 = time.perf_counter()
    exact.tri_mul(_REF_A, _REF_B)
    exact.tri_mul(_REF_B, _REF_A)
    return time.perf_counter() - t0


def time_setup(spawns: int) -> list:
    """Scaled seconds fresh interpreters take to import the CLI and build its parser."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    times = []
    before = probe()
    for _ in range(spawns):
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        seconds = float(proc.stdout)
        after = probe()
        times.append(seconds * 2 * REF_S / (before + after))
        before = after
    return times


def call(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not an aborted run
        code = -1
        out.write(f"\n{type(exc).__name__}: {exc}")
    return code, out.getvalue(), time.perf_counter() - t0


def run_pass(cli, requests, expected=None, tracer=None):
    """Run every request once, in order.  Returns the outputs (or, given
    the outputs of an earlier pass, the number that differ), the scaled
    seconds of each request and the raw seconds of the pass."""
    results, times, differ, raw = [], [], 0, 0.0
    previous = ""
    before = probe()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        code, stdout, seconds = call(cli, req.command(previous))
        after = probe()
        times.append(seconds * 2 * REF_S / (before + after))
        raw += seconds
        before = after
        if expected is None:
            results.append((code, stdout))
        else:
            differ += (code, stdout) != expected[i]
        previous = stdout
    return (results if expected is None else differ), times, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    import checks
    import workloads

    if args.workload not in workloads.GENERATORS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")

    blocks = max(1, round(args.seconds * BLOCKS_PER_SECOND[args.workload]))
    requests = workloads.generate(args.workload, args.seed, blocks)
    while len(requests) < MIN_REQUESTS:
        blocks += 1
        requests = workloads.generate(args.workload, args.seed, blocks)
    digest = workloads.inputs_sha256(requests)

    time_setup(1)  # writes the bytecode caches once, as an installation would
    call(cli, WARMUP)

    # Timed closed loop: PASSES whole passes, each after a few set-up
    # spawns; every later pass must repeat the first byte for byte.
    setup = time_setup(SETUP_SPAWNS_PER_PASS)
    first, pass_times, raw = run_pass(cli, requests)
    per_pass, raw_pass_s = [pass_times], [raw]
    mismatched = 0
    for _ in range(PASSES - 1):
        setup += time_setup(SETUP_SPAWNS_PER_PASS)
        differ, pass_times, raw = run_pass(cli, requests, expected=first)
        mismatched += differ
        per_pass.append(pass_times)
        raw_pass_s.append(raw)
    per_request = [statistics.median(ts) for ts in zip(*per_pass)]
    setup_s = statistics.median(setup)

    reasons = checks.check_all(requests, first)
    attempted = len(requests) * PASSES
    failed = sum(1 for r in reasons if r) * PASSES + mismatched
    ok = sum(1 for r in reasons if not r)

    by_kind = {}
    for req, seconds in zip(requests, per_request):
        by_kind.setdefault(req.kind, []).append(seconds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": digest,
        "requests": len(requests),
        "passes": PASSES,
        "samples": len(per_request),
        "pass_s": [sum(ts) for ts in per_pass],
        "raw_pass_s": raw_pass_s,
        "determinism_mismatches": mismatched,
        "request_s_by_kind": {
            k: {"count": len(v), "median": statistics.median(v), "max": max(v), "total": sum(v)}
            for k, v in sorted(by_kind.items())
        },
        "failures": [f"{i} {requests[i].kind}: {r}" for i, r in enumerate(reasons) if r][:20],
    }
    if args.trace:
        untraced_s = statistics.median(info["pass_s"])
        metrics = traced_metrics(cli, requests, first, untraced_s, info)
        failed += info["traced_mismatches"]
        attempted += len(requests)
    else:
        metrics = {
            "requests_per_s": (ok / sum(per_request), "1/s"),
            "request_s.p50": (statistics.median(per_request), "s"),
            "request_s.p90": (statistics.quantiles(per_request, n=10)[8], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    info["failed_ratio"] = failed / attempted
    info["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in info.items() if k != "metrics"}), file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(cli, requests, untraced_results, untraced_s, info):
    """One traced pass; per-layer metrics plus the tracing overhead."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install("cremona_kit")
    try:
        differ, times, raw = run_pass(cli, requests, expected=untraced_results, tracer=tracer)
    finally:
        tracer.uninstall()
    info["traced_mismatches"] = differ
    layer = tracer.metrics()
    traced_s = sum(times)
    info["layer_shares"] = {
        k[: -len(".self_s")]: v / raw for k, v in layer.items() if k.endswith(".self_s")
    }
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    metrics["trace.requests_per_s_untraced"] = (len(requests) / untraced_s, "1/s")
    metrics["trace.requests_per_s_traced"] = (len(requests) / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    info["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{info['workload']}-seed{info['seed']}-spans.json.gz", info)
    return metrics


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes_out"):
        return "bytes"
    if key.endswith("ratio"):
        return "ratio"
    if key.endswith("bits.max"):
        return "bits"
    if key.endswith("degree.max"):
        return "degree"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())

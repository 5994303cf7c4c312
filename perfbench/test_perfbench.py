"""Self-tests of the benchmark: the checker catches wrong outputs, the
generator is a function of the seed, and tracing changes no output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cremona_kit import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def _first(workload, predicate, seed=0):
    requests = workloads.generate(workload, seed, 1)
    return next(i for i, r in enumerate(requests) if predicate(r)), requests


def _run(request, previous=""):
    code, stdout, _ = run.call(cli, request.command(previous))
    return code, stdout


def _bump_first_coefficient(stdout):
    out = json.loads(stdout)
    term = out["components"][1][0]
    term[1] = str(int(term[1].split("/")[0]) + 1)
    return json.dumps(out)


@pytest.mark.parametrize("template", ["PGP*H3", "GP*inv"])
def test_corrupted_map_is_a_failure(template):
    i, requests = _first("compose_words", lambda r: r.meta.get("template") == template)
    code, stdout = _run(requests[i])
    assert checks.check_compose(requests[i].meta, code, stdout) == ""
    assert checks.check_compose(requests[i].meta, code, _bump_first_coefficient(stdout))
    wrong_degree = json.loads(stdout)
    wrong_degree["deg"] += 1
    assert checks.check_compose(requests[i].meta, code, json.dumps(wrong_degree))
    assert checks.check_compose(requests[i].meta, 2, stdout)


def test_flipped_verdicts_are_failures():
    i, requests = _first("compose_words", lambda r: r.meta.get("template") == "GP*inv")
    compose = _run(requests[i])
    code, stdout = _run(requests[i + 1], compose[1])
    assert checks.check_fixcheck(requests[i + 1].meta, code, stdout, compose[1]) == ""
    flipped = json.loads(stdout)
    flipped["fixes_pointwise"] = False
    assert checks.check_fixcheck(requests[i + 1].meta, code, json.dumps(flipped), compose[1])

    for kind, key, check in (
        ("jonq-fix-check", "fixes_pointwise", checks.check_fix),
        ("validate", "passed", checks.check_validate),
    ):
        j, reqs = _first("function_field", lambda r: r.kind == kind)
        code, stdout = _run(reqs[j])
        assert check(reqs[j].meta, code, stdout) == ""
        out = json.loads(stdout)
        out[key] = not out[key]
        assert check(reqs[j].meta, code, json.dumps(out))


def test_wrong_order_is_a_failure():
    j, reqs = _first("function_field", lambda r: r.kind == "jonq-order")
    code, stdout = _run(reqs[j])
    assert checks.check_order(reqs[j].meta, code, stdout) == ""
    for order in (3, 1 if json.loads(stdout)["order"] != 1 else 2):
        out = json.loads(stdout)
        out["order"] = order
        assert checks.check_order(reqs[j].meta, code, json.dumps(out))


@pytest.mark.parametrize("kind", ["adjoint-chain", "classify"])
def test_wrong_class_is_a_failure(kind):
    i, requests = _first("adjoint_chains", lambda r: r.kind == kind and r.meta["landmark"])
    code, stdout = _run(requests[i])
    check = checks.CHECKERS[kind]
    assert check(requests[i].meta, code, stdout) == ""
    out = json.loads(stdout)
    out["class"] = "EllipticNet" if out["class"] != "EllipticNet" else "RationalPencil"
    assert check(requests[i].meta, code, json.dumps(out))


def test_changed_chain_step_is_a_failure():
    i, requests = _first("adjoint_chains", lambda r: r.kind == "adjoint-chain" and r.meta["planted"])
    code, stdout = _run(requests[i])
    assert checks.check_chain(requests[i].meta, code, stdout) == ""
    out = json.loads(stdout)
    out["steps"][0]["removed"] = []
    assert checks.check_chain(requests[i].meta, code, json.dumps(out))


def test_malformed_output_counts_as_failed():
    requests = workloads.generate("function_field", 0, 1)
    reasons = checks.check_all(requests, [(0, "not json")] * len(requests))
    assert all(reasons)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_inputs_digest_is_a_function_of_the_seed(workload):
    a = workloads.inputs_sha256(workloads.generate(workload, 7, 1))
    b = workloads.inputs_sha256(workloads.generate(workload, 7, 1))
    c = workloads.inputs_sha256(workloads.generate(workload, 8, 1))
    assert a == b
    assert a != c


def test_tracing_changes_no_output_and_uninstalls():
    requests = workloads.generate("adjoint_chains", 0, 1)[:6]
    plain, _, _ = run.run_pass(cli, requests)
    original = cli.main
    tracer = Tracer()
    tracer.install("cremona_kit")
    try:
        differ, _, _ = run.run_pass(cli, requests, expected=plain, tracer=tracer)
    finally:
        tracer.uninstall()
    assert differ == 0
    assert cli.main is original
    metrics = tracer.metrics()
    assert metrics["cli.calls"] >= len(requests)
    assert metrics["linear_systems.adjoint_chain.calls"] >= 1

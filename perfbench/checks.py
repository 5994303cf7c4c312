"""Semantic checks of CLI outputs.

Outputs are judged by what they mean, not by a byte digest, so an
intended change of format (a dropped field, a different scaling of a
map) does not count as a failure.  Every check returns an empty string
when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import exact as ex

CLASS_BY_GENUS_DIM = {(0, 1): "RationalPencil", (1, 1): "EllipticPencil", (1, 2): "EllipticNet"}


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _map_triple(obj) -> Optional[Tuple[int, List[ex.Tri]]]:
    """(degree, components) of a map payload whose terms are homogeneous."""
    if not isinstance(obj, dict) or not isinstance(obj.get("deg"), int):
        return None
    comps = obj.get("components")
    if not isinstance(comps, list) or len(comps) != 3:
        return None
    polys = [ex.tri_from_json(c) for c in comps]
    deg = obj["deg"]
    if any(sum(e) != deg for p in polys for e in p) or not any(polys):
        return None
    return deg, polys


# -- compose_words ------------------------------------------------------------


def check_compose(meta: Dict, code: int, stdout: str) -> str:
    if code != 0:
        return f"exit code {code}"
    got = _map_triple(_parse(stdout))
    if got is None:
        return "output is not a homogeneous map"
    deg, comps = got
    outer = ex.map_from_json(meta["outer"])
    inner = ex.map_from_json(meta["inner"])
    if deg != meta["degree"]:
        return f"degree {deg}, expected {meta['degree']}"
    agreed = 0
    for p in meta["points"]:
        target = ex.map_eval(outer, ex.map_eval(inner, p))
        value = ex.map_eval(comps, p)
        if not any(target) or not any(value):
            continue
        if not ex.proportional(value, target):
            return f"map disagrees with outer(inner(p)) at p = {[str(v) for v in p]}"
        if meta["identity"] and not ex.proportional(value, p):
            return "inverse pair did not collapse to the identity"
        agreed += 1
    if agreed < 2:
        return "too few points to compare the composite"
    return ""


def check_fixcheck(meta: Dict, code: int, stdout: str, compose_stdout: str) -> str:
    out = _parse(stdout)
    if not isinstance(out, dict):
        return "output is not an object"
    if out.get("fixes_pointwise") is not True or code != 0:
        return f"x = 0 not certified fixed (exit {code})"
    composed = _map_triple(_parse(compose_stdout))
    if composed is None or out.get("map_degree") != composed[0]:
        return "map_degree differs from the composed map"
    if out.get("curve_degree") != 1:
        return "curve degree is not 1"
    return ""


# -- adjoint_chains -----------------------------------------------------------


def genus(d: int, ms) -> int:
    """Genus of a general member of (d; ms)."""
    return (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in ms)


def vdim(d: int, ms) -> int:
    """Virtual dimension of (d; ms)."""
    return d * (d + 3) // 2 - sum(m * (m + 1) // 2 for m in ms)


def classify(system: Dict) -> str:
    d, ms = system["degree"], list(system["mults"].values())
    v = vdim(d, ms)
    if v <= 0:
        return "Exhausted"
    g = genus(d, ms)
    if g == 0 and v >= 2:
        return "RationalSystem"
    return CLASS_BY_GENUS_DIM.get((g, v), "Exhausted")


def _system(obj) -> Optional[Tuple[int, Dict[str, int]]]:
    if not isinstance(obj, dict) or not isinstance(obj.get("degree"), int):
        return None
    mults = obj.get("mults")
    if not isinstance(mults, dict):
        return None
    return obj["degree"], {l: m for l, m in mults.items() if m}


def _free_of_rules(n: int, mults: Dict[str, int]) -> bool:
    top = sorted(mults.values(), reverse=True)
    return sum(top[:2]) <= n and (len(top) < 5 or sum(top[:5]) <= 2 * n)


def _check_step(step: Dict, expected_input) -> str:
    inp, raw, out = (_system(step.get(k)) for k in ("input", "raw", "output"))
    if None in (inp, raw, out):
        return "step lacks input, raw or output"
    if inp != expected_input:
        return "step input is not the previous output"
    n, ms = inp
    if raw != (n - 3, {l: m - 1 for l, m in ms.items() if m > 1}):
        return "raw adjoint is not (d-3; m-1)"
    rn, rms = raw[0], dict(raw[1])
    for comp in step.get("removed", []):
        k = comp["count"]
        rn -= k * (1 if comp["kind"] == "line" else 2)
        for l in comp["labels"]:
            rms[l] = rms.get(l, 0) - k
    reduced = (rn, {l: m for l, m in rms.items() if m})
    pencil = step.get("pencil")
    if pencil:
        c = pencil["content"]
        pn, pms = _system(pencil["system"])
        if out != (pn, pms) or (c * pn, {l: c * m for l, m in pms.items()}) != reduced:
            return "pencil reduction does not match the reduced system"
    elif out != reduced:
        return "output is not the raw adjoint minus the removed components"
    if not _free_of_rules(*reduced):
        return "a Bezout rule still applies after removal"
    if out[0] > n - 3:
        return "chain degree fell by less than 3"
    return ""


def check_chain(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    steps = out.get("steps")
    if not steps:
        return "no steps"
    expected = (meta["degree"], {f"p{i:02d}": m for i, m in enumerate(meta["mults"])})
    for step in steps:
        err = _check_step(step, expected)
        if err:
            return err
        expected = _system(step["output"])
    if _system(out.get("terminal")) != expected:
        return "terminal is not the last output"
    if out.get("class") != classify(out["terminal"]):
        return f"class {out.get('class')} does not match the terminal"
    fired = [s for s in steps if s.get("removed")]
    if meta["planted"] is True and not steps[0].get("removed"):
        return "planted rule did not fire"
    if meta["planted"] is False and fired:
        return "a rule fired on a scan-only system"
    if meta["landmark"] and out["class"] != meta["landmark"]:
        return f"landmark class {out['class']}, expected {meta['landmark']}"
    return ""


def check_classify(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    if _system(out.get("terminal")) is None:
        return "no terminal system"
    if out.get("class") != classify(out["terminal"]):
        return f"class {out.get('class')} does not match the terminal"
    if not isinstance(out.get("steps"), int) or out["steps"] < 1:
        return "no steps"
    if meta["landmark"] and out["class"] != meta["landmark"]:
        return f"landmark class {out['class']}, expected {meta['landmark']}"
    return ""


def check_pencil_enum(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    types = out.get("types")
    if not isinstance(types, list) or out.get("count") != len(types):
        return "count does not match the types listed"
    seen = set()
    for t in types:
        n, ms = t["degree"], t["mults"]
        if not 1 <= n <= meta["max"] or ms != sorted(ms, reverse=True) or min(ms) < 1:
            return f"malformed type {t}"
        if sum(ms) != 3 * n - 2 or sum(m * m for m in ms) != n * n:
            return f"type {t} violates the pencil equations"
        seen.add((n, tuple(ms)))
    if len(seen) != len(types):
        return "duplicate types"
    for n in range(1, meta["max"] + 1):
        if (n, (n - 1,) + (1,) * (2 * n - 1) if n > 1 else (1,)) not in seen:
            return f"landmark type of degree {n} missing"
    return ""


# -- function_field -----------------------------------------------------------


def _ratfunc_at(obj, x: Fraction) -> Optional[Fraction]:
    num = ex.uni_eval(_uni(obj["num"]), x)
    den = ex.uni_eval(_uni(obj["den"]), x)
    return None if den == 0 else num / den


def _uni(items) -> List[Fraction]:
    coeffs: Dict[int, Fraction] = {e[0]: Fraction(c) for e, c in items}
    return [coeffs.get(e, Fraction(0)) for e in range(max(coeffs, default=-1) + 1)]


def check_mul(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    if _uni(out.get("h", [])) != [Fraction(c) for c in meta["h"]]:
        return "h changed under multiplication"
    (u1, u2), (v1, v2) = meta["u"], meta["v"]
    for x in meta["points"]:
        h = ex.uni_eval(meta["h"], x)
        a1, a2 = _ratfunc_at(out["a1"], x), _ratfunc_at(out["a2"], x)
        if a1 is None or a2 is None:
            continue
        e = [ex.uni_eval(p, x) for p in (u1, u2, v1, v2)]
        if a1 != e[0] * e[2] + h * e[1] * e[3] or a2 != e[0] * e[3] + e[1] * e[2]:
            return f"product disagrees at x = {x}"
    return ""


def check_order(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    order = out.get("order")
    if order not in (1, 2, "infinite"):
        return f"order {order!r} outside {{1, 2, infinite}}"
    want = 2 if meta["a1_zero"] else 1 if meta["a2_zero"] else "infinite"
    if order != want:
        return f"order {order!r}, expected {want!r}"
    if out.get("conclusion_holds", True) is not True:
        return "conclusion does not hold"
    return ""


def check_fix(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict):
        return f"exit code {code}"
    if out.get("fixes_pointwise") is not True:
        return "fixation of y^2 = h(x) not certified"
    if out.get("map_degree") != meta["map_degree"]:
        return f"map degree {out.get('map_degree')}, expected {meta['map_degree']}"
    return ""


def check_validate(meta: Dict, code: int, stdout: str) -> str:
    out = _parse(stdout)
    if code != 0 or not isinstance(out, dict) or out.get("passed") is not True:
        return f"validation did not pass (exit {code})"
    names = {c.get("name"): c.get("passed") for c in out.get("checks", [])}
    if names.get(f"poly-multiplicity-at-{meta['label']}") is not True:
        return "multiplicity at the point at infinity not verified"
    return ""


CHECKERS: Dict[str, Callable[[Dict, int, str], str]] = {
    "map-compose": check_compose,
    "adjoint-chain": check_chain,
    "classify": check_classify,
    "pencil-enum": check_pencil_enum,
    "jonq-mul": check_mul,
    "jonq-order": check_order,
    "jonq-fix-check": check_fix,
    "validate": check_validate,
}


def check_all(requests, results) -> List[str]:
    """One reason per request ('' when right); results are (code, stdout)."""
    reasons = []
    for i, (req, (code, stdout)) in enumerate(zip(requests, results)):
        try:
            if req.kind == "map-fixcheck":
                reason = check_fixcheck(req.meta, code, stdout, results[i - 1][1])
            else:
                reason = CHECKERS[req.kind](req.meta, code, stdout)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        reasons.append(reason)
    return reasons

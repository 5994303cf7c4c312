"""JSON encoding and decoding for everything the CLI exchanges.

Conventions:

* rationals are exact strings ("3", "-1/2"); JSON integers are accepted,
  floats are rejected everywhere;
* univariate polynomials are sparse ``[[e], "c"]`` lists in ascending
  exponent order;
* homogeneous trivariate polynomials are sparse ``[[i, j, k], "c"]``
  lists in descending lexicographic order (x > y > z), leading term first;
* emitted JSON always has sorted object keys and two-space indentation,
  so identical inputs produce byte-identical output;
* ``dumps`` writes a list of ``[[e, ...], "c"]`` terms from one template
  per indent, and a ``PencilType`` record as
  ``{"degree": n, "mults": [...]}``.

Decoders raise :class:`~cremona_kit.errors.SchemaError` carrying the path
of the offending field.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Dict, List, NoReturn, Optional, Tuple

from .curve_model import (
    CurveReport,
    PlaneCurveModel,
    PointSpec,
    SingularityData,
)
from .cremona_maps import CremonaMap, _check_cap
from .errors import SchemaError
from .exact_algebra import RatFunc, TriHomPoly, UniPoly
from .jonquieres import JonqElement, OrderReport
from .linear_systems import ChainReport, ChainStep, LinSysData, RemovedComponent
from .rational_pencils import PencilCheckReport, PencilType

_Path = Tuple[Any, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _pstr(path: _Path) -> str:
    out = "$"
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else f".{p}"
    return out


def _fail(path: _Path, message: str) -> NoReturn:
    raise SchemaError(_pstr(path), message)


def _as_obj(v: Any, path: _Path) -> Dict[str, Any]:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, got {type(v).__name__}")
    return v


def _as_list(v: Any, path: _Path) -> List[Any]:
    if not isinstance(v, list):
        _fail(path, f"expected an array, got {type(v).__name__}")
    return v


def _as_int(v: Any, path: _Path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {type(v).__name__}")
    return v


def _as_str(v: Any, path: _Path) -> str:
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {type(v).__name__}")
    return v


def _get(obj: Dict[str, Any], key: str, path: _Path) -> Any:
    if key not in obj:
        _fail(path + (key,), "missing required field")
    return obj[key]


# -- rationals ----------------------------------------------------------------


def _read_rational(v: Any, path: _Path) -> Tuple[int, int]:
    """(p, q) with v = p / q and q > 0, not necessarily in lowest terms."""
    if isinstance(v, str):
        if not _RATIONAL_RE.match(v):
            _fail(path, f"malformed rational {v!r}; expected \"p\" or \"p/q\"")
        # Checked by the pattern, so int() reads each part as Fraction(v) would.
        num, _, den = v.partition("/")
        q = int(den or 1)
        if not q:
            _fail(path, f"rational {v!r} has a zero denominator")
        return int(num), q
    if isinstance(v, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, float):
        _fail(path, "floats are not accepted; use exact strings like \"1/3\"")
    _fail(path, f"expected a rational, got {type(v).__name__}")


def decode_rational(v: Any, path: _Path) -> Fraction:
    return Fraction(*_read_rational(v, path))


def encode_rational(q: Fraction) -> str:
    return str(q)


def _ratio_str(c: int, den: int) -> str:
    """``str(Fraction(c, den))`` for den > 0, without building the Fraction."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


# -- polynomials ---------------------------------------------------------------


def _uni_term(item: Any, path: _Path) -> Tuple[int, Any]:
    """The exponent and the coefficient of a term [[e], c], checked in
    order, so the first failure names its field."""
    pair = _as_list(item, path)
    if len(pair) != 2:
        _fail(path, "expected [[exponent], coefficient]")
    exps = _as_list(pair[0], path + (0,))
    if len(exps) != 1:
        _fail(path + (0,), "univariate terms have a single exponent")
    e = _as_int(exps[0], path + (0, 0))
    if e < 0:
        _fail(path + (0, 0), "exponents must be >= 0")
    return e, pair[1]


def decode_unipoly(v: Any, path: _Path) -> UniPoly:
    items = _as_list(v, path)
    terms: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for i, item in enumerate(items):
        # One test passes a well-formed term, as in decode_trihom; _uni_term
        # and _read_rational name what is wrong with any other.
        try:
            exps, c = item
            (e,) = exps
            ok = type(item) is list and type(exps) is list and type(e) is int and e >= 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            e, c = _uni_term(item, path + (i,))
        if (e, 0) in terms:
            _fail(path + (i,), f"duplicate exponent {e}")
        terms[e, 0] = _read_rational(c, path + (i, 1))
    # Checked before any body is built, zero terms included.
    _check_cap(max(terms, default=(-1, 0))[0], f"the polynomial at {_pstr(path)}")
    return UniPoly._sorted(*UniPoly._integer_form(terms))


def encode_unipoly(p: UniPoly) -> List[Any]:
    den = p._den
    return [[[e], _ratio_str(c, den)] for (e, _), c in reversed(p._body.items())]


def _term(item: Any, path: _Path) -> Tuple[Tuple[int, ...], Any]:
    """The exponents and the coefficient of a term [[i, j, k], c], checked in
    order, so the first failure names its field."""
    pair = _as_list(item, path)
    if len(pair) != 2:
        _fail(path, "expected [[i, j, k], coefficient]")
    exps = _as_list(pair[0], path + (0,))
    if len(exps) != 3:
        _fail(path + (0,), "trivariate terms need three exponents")
    e = tuple(_as_int(x, path + (0, a)) for a, x in enumerate(exps))
    if min(e) < 0:
        _fail(path + (0,), "exponents must be >= 0")
    return e, pair[1]


def decode_trihom(v: Any, path: _Path, degree: Optional[int] = None) -> TriHomPoly:
    items = _as_list(v, path)
    terms: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    for n, item in enumerate(items):
        # One test passes a well-formed term; _term and _read_rational name
        # what is wrong with any other.
        try:
            (i, j, k), c = item
            ok = type(item) is list and type(item[0]) is list
            ok = ok and type(i) is int and type(j) is int and type(k) is int and min(i, j, k) >= 0
        except (TypeError, ValueError):
            ok = False
        if ok:
            e = (i, j, k)
        else:
            e, c = _term(item, path + (n,))
        if e in terms:
            _fail(path + (n,), f"duplicate monomial {list(e)}")
        terms[e] = _read_rational(c, path + (n, 1))
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        _fail(path, f"terms are not homogeneous: total degrees {sorted(degrees)}")
    if degree is None:
        if not degrees:
            _fail(path, "cannot infer the degree of a zero polynomial")
        degree = degrees.pop()
    elif degrees and degrees != {degree}:
        _fail(path, f"terms have degree {degrees.pop()}, expected {degree}")
    if degree < 0:
        raise ValueError("homogeneous degree must be >= 0")
    body, den = TriHomPoly._integer_form({e[:2]: r for e, r in terms.items()})
    return TriHomPoly._sorted(degree, body, den)


def encode_trihom(f: TriHomPoly) -> List[Any]:
    d, den = f.degree, f._den
    return [[[i, j, d - i - j], _ratio_str(c, den)] for (i, j), c in f._body.items()]


def decode_ratfunc(v: Any, path: _Path) -> RatFunc:
    obj = _as_obj(v, path)
    num = decode_unipoly(_get(obj, "num", path), path + ("num",))
    den = decode_unipoly(_get(obj, "den", path), path + ("den",))
    if den.is_zero:
        _fail(path + ("den",), "denominator must be nonzero")
    return RatFunc(num, den)


def encode_ratfunc(r: RatFunc) -> Dict[str, Any]:
    return {"num": encode_unipoly(r.num), "den": encode_unipoly(r.den)}


# -- curves ---------------------------------------------------------------------


def decode_curve_parts(
    v: Any,
) -> Tuple[int, Tuple[SingularityData, ...], Optional[TriHomPoly]]:
    """Decode the curve schema without enforcing model invariants."""
    path: _Path = ()
    obj = _as_obj(v, path)
    degree = _as_int(_get(obj, "degree", path), ("degree",))
    sing_list = _as_list(_get(obj, "singularities", path), ("singularities",))
    sings: List[SingularityData] = []
    for i, raw in enumerate(sing_list):
        spath = ("singularities", i)
        sobj = _as_obj(raw, spath)
        label = _as_str(_get(sobj, "label", spath), spath + ("label",))
        mult = _as_int(_get(sobj, "mult", spath), spath + ("mult",))
        coords = None
        if sobj.get("coords") is not None:
            clist = _as_list(sobj["coords"], spath + ("coords",))
            if len(clist) != 3:
                _fail(spath + ("coords",), "projective coordinates need three entries")
            coords = tuple(
                decode_rational(c, spath + ("coords", a)) for a, c in enumerate(clist)
            )
        if mult < 2:
            _fail(spath + ("mult",), f"singular multiplicity must be >= 2, got {mult}")
        sings.append(SingularityData(PointSpec(label, coords), mult))
    poly = None
    if obj.get("poly") is not None:
        poly = decode_trihom(obj["poly"], ("poly",), degree if degree >= 0 else None)
    return degree, tuple(sings), poly


def decode_curve(v: Any) -> PlaneCurveModel:
    degree, sings, poly = decode_curve_parts(v)
    return PlaneCurveModel(degree, sings, poly)


def encode_curve(c: PlaneCurveModel) -> Dict[str, Any]:
    sings = []
    for s in sorted(c.singularities, key=lambda s: s.label):
        coords = None
        if s.point.coords is not None:
            coords = [encode_rational(v) for v in s.point.coords]
        sings.append({"label": s.label, "mult": s.multiplicity, "coords": coords})
    return {
        "degree": c.degree,
        "singularities": sings,
        "poly": encode_trihom(c.defining_poly) if c.defining_poly is not None else None,
    }


def encode_curve_report(r: CurveReport) -> Dict[str, Any]:
    return {
        "passed": r.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in r.checks
        ],
    }


# -- linear systems and chain reports -------------------------------------------


def decode_linsys(v: Any, path: _Path = ()) -> LinSysData:
    obj = _as_obj(v, path)
    degree = _as_int(_get(obj, "degree", path), path + ("degree",))
    mults_obj = _as_obj(_get(obj, "mults", path), path + ("mults",))
    mults = {}
    for label, m in mults_obj.items():
        mv = _as_int(m, path + ("mults", label))
        if mv < 0:
            _fail(path + ("mults", label), f"multiplicity must be >= 0, got {mv}")
        mults[label] = mv
    if degree < 0:
        _fail(path + ("degree",), f"degree must be >= 0, got {degree}")
    return LinSysData.of(degree, mults)


def encode_linsys(L: LinSysData) -> Dict[str, Any]:
    return {"degree": L.degree, "mults": {l: m for l, m in L.mults}}


def encode_removed(r: RemovedComponent) -> Dict[str, Any]:
    return {
        "kind": r.kind,
        "labels": list(r.labels),
        "count": r.count,
        "system": encode_linsys(r.system),
    }


def encode_chain_step(s: ChainStep) -> Dict[str, Any]:
    pencil = None
    if s.pencil_reduction is not None:
        pencil = {
            "content": s.pencil_reduction.content,
            "system": encode_linsys(s.pencil_reduction.pencil),
        }
    return {
        "input": encode_linsys(s.input),
        "raw": encode_linsys(s.raw_adjoint),
        "removed": [encode_removed(r) for r in s.removed_fixed],
        "pencil": pencil,
        "output": encode_linsys(s.output),
        "warnings": list(s.warnings),
    }


def encode_chain_report(r: ChainReport) -> Dict[str, Any]:
    return {
        "steps": [encode_chain_step(s) for s in r.steps],
        "terminal": encode_linsys(r.terminal),
        "class": r.classification.value,
        "warnings": list(r.warnings),
    }


# -- maps ------------------------------------------------------------------------


def decode_map(v: Any, path: _Path = ()) -> CremonaMap:
    obj = _as_obj(v, path)
    degree = _as_int(_get(obj, "deg", path), path + ("deg",))
    comps = _as_list(_get(obj, "components", path), path + ("components",))
    if len(comps) != 3:
        _fail(path + ("components",), "a plane map needs exactly three components")
    if degree < 0:
        _fail(path + ("deg",), f"degree must be >= 0, got {degree}")
    # Checked first: CremonaMap.of would run the content gcd before the cap.
    _check_cap(degree, "map construction")
    polys = [
        decode_trihom(c, path + ("components", i), degree) for i, c in enumerate(comps)
    ]
    return CremonaMap.of(*polys)


def encode_map(F: CremonaMap) -> Dict[str, Any]:
    return {
        "deg": F.degree,
        "components": [encode_trihom(c) for c in F.components],
    }


# -- group elements ----------------------------------------------------------------


def decode_jonq(v: Any, path: _Path = ()) -> JonqElement:
    obj = _as_obj(v, path)
    h = decode_unipoly(_get(obj, "h", path), path + ("h",))
    a1 = decode_ratfunc(_get(obj, "a1", path), path + ("a1",))
    a2 = decode_ratfunc(_get(obj, "a2", path), path + ("a2",))
    return JonqElement(a1, a2, h)


def encode_jonq(u: JonqElement) -> Dict[str, Any]:
    return {
        "h": encode_unipoly(u.h),
        "a1": encode_ratfunc(u.a1),
        "a2": encode_ratfunc(u.a2),
    }


def encode_order_report(r: OrderReport) -> Dict[str, Any]:
    return {
        "order": r.order,
        "lambda": encode_ratfunc(r.lam),
        "lambda_constant": r.lam_constant,
        "conclusion_holds": r.conclusion_holds,
        "note": r.note,
    }


# -- pencil reports -----------------------------------------------------------------


def encode_pencil_check(r: PencilCheckReport) -> Dict[str, Any]:
    return {
        "degree": r.degree,
        "mults": list(r.mults),
        "genus_residual": r.genus_residual,
        "pencil_residual": r.pencil_residual,
        "linear_residual": r.linear_residual,
        "valid": r.valid,
    }


# -- top level -----------------------------------------------------------------------


def dumps(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, for the values the encoders emit: str, int, bool, None,
    PencilType records (as {"degree": n, "mults": [...]}), and lists and
    str-keyed dicts of them.  Anything else (a float, a tuple, a non-str key,
    a subclass of int, str or PencilType) raises TypeError.
    """
    return _write(payload, "\n") + "\n"


# The scalar formatters, keyed by exact type: a list of one scalar type is
# joined in one map, and a dict writes its scalar values inline.  repr of an
# exact int is int.__repr__; a bool indexes the pair as 0 or 1.
_SCALARS = {str: _encode_str, int: repr, type(None): lambda v: "null"}
_SCALARS[bool] = ("false", "true").__getitem__


def _write(v: Any, newline: str) -> str:
    """One value; ``newline`` is a line break plus the indent of its line."""
    kind = type(v)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(v)
    inner = newline + "  "
    if kind is list:
        if not v:
            return "[]"
        kinds = set(map(type, v))
        kind = kinds.pop() if len(kinds) == 1 else None
        scalar = _SCALARS.get(kind)
        if kind is PencilType:
            body = _pencils(v, inner)
        elif kind is list and (terms := _terms(v, inner)) is not None:
            body = terms
        else:
            body = map(scalar, v) if scalar else [_write(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if kind is dict:
        if not v:
            return "{}"
        body = []
        for k in sorted(v):
            x = v[k]
            scalar = _SCALARS.get(type(x))
            # _encode_str raises TypeError for a key that is not a str.
            body.append(_encode_str(k) + ": " + (scalar(x) if scalar else _write(x, inner)))
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if kind is PencilType:
        return _pencils([v], newline)[0]
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _pencils(records: List[PencilType], newline: str) -> List[str]:
    """Each record as {"degree": n, "mults": [...]}, at the indent of ``newline``."""
    inner, sep = newline + "  ", "," + newline + "    "
    full = '{%s"degree": %%r,%s"mults": [%s%%s%s]%s}' % (inner, inner, sep[1:], inner, newline)
    empty = '{%s"degree": %%r,%s"mults": []%s}' % (inner, inner, newline)
    return [
        full % (p.degree, sep.join(map(repr, p.mults))) if p.mults else empty % p.degree
        for p in records
    ]


def _terms(items: List[list], newline: str) -> Optional[List[str]]:
    """Each [[e, ...], "c"] of ``items`` from one template, at the indent of
    ``newline``; None unless every item is such a pair, its exponents exact
    ints of one arity and its coefficient an exact str."""
    if set(map(len, items)) != {2}:
        return None
    exps, coeffs = zip(*items)
    if set(map(type, exps)) != {list} or set(map(type, coeffs)) != {str}:
        return None
    arity = set(map(len, exps))
    if len(arity) != 1:
        return None
    (n,) = arity
    if n and set(map(type, chain.from_iterable(exps))) != {int}:
        return None
    inner, leaf = newline + "  ", newline + "    "
    head = "[" + leaf + ("," + leaf).join(["%r"] * n) + inner + "]" if n else "[]"
    template = "[" + inner + head + "," + inner + "%s" + newline + "]"
    return [template % (*e, c) for e, c in zip(exps, map(_encode_str, coeffs))]

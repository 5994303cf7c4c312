"""JSON encoding and decoding for everything the CLI exchanges.

Conventions:

* rationals are exact strings ("3", "-1/2"): ASCII digits with an optional
  sign and an optional "/q", and nothing around them, each part within
  CPython's limit on ``int()`` of a string (4,300 digits by default); JSON
  integers are accepted, floats are rejected everywhere;
* univariate polynomials are sparse ``[[e], "c"]`` lists in ascending
  exponent order;
* homogeneous trivariate polynomials are sparse ``[[i, j, k], "c"]``
  lists in descending lexicographic order (x > y > z), leading term first;
* emitted JSON always has sorted object keys and two-space indentation,
  so identical inputs produce byte-identical output;
* the encoders return the payload as ``dumps`` takes it, with the
  ``UniPoly``, ``TriHomPoly``, ``PencilType`` and ``LinSysData`` records
  themselves in place of their JSON, which ``dumps`` writes from templates;
  ``json.loads(dumps(x))`` is the plain JSON form.

Decoders raise :class:`~cremona_kit.errors.SchemaError` carrying the path
of the offending field.  Both polynomial decoders read terms with one
reader, given the arity.  An exponent of a univariate polynomial or a curve
``poly`` degree above the degree cap is refused before anything is built.
"""

from __future__ import annotations

import math
import re
from json.encoder import encode_basestring_ascii as _encode_str

from .curve_model import (
    CurveReport,
    PlaneCurveModel,
    PointSpec,
    SingularityData,
)
from .cremona_maps import CremonaMap, _check_cap, max_degree_cap
from .errors import SchemaError
from .exact_algebra import RatFunc, TriHomPoly, UniPoly
from .jonquieres import JonqElement, OrderReport
from .linear_systems import ChainReport, ChainStep, LinSysData, RemovedComponent
from .rational_pencils import PencilCheckReport, PencilType

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Any, NoReturn

_Path = tuple[str | int, ...]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _pstr(path: _Path) -> str:
    out = "$"
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else f".{p}"
    return out


def _fail(path: _Path, message: str) -> NoReturn:
    raise SchemaError(_pstr(path), message)


_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _as(v: Any, kind: type, path: _Path) -> Any:
    """v, of ``kind`` (exact type first; a bool is not an integer), or a SchemaError."""
    if type(v) is kind or isinstance(v, kind) and not (kind is int and isinstance(v, bool)):
        return v
    _fail(path, f"expected {_KINDS[kind]}, got {type(v).__name__}")


def _get(obj: dict[str, Any], key: str, path: _Path, kind: type | None = None) -> Any:
    if key not in obj:
        _fail(path + (key,), "missing required field")
    return obj[key] if kind is None else _as(obj[key], kind, path + (key,))


# -- rationals ----------------------------------------------------------------


def _read_rational(v: Any, path: _Path) -> tuple[int, int]:
    """(p, q) with v = p / q and q > 0, not necessarily in lowest terms."""
    if isinstance(v, str):
        if not _RATIONAL_RE.fullmatch(v):
            _fail(path, f"malformed rational {v!r}; expected \"p\" or \"p/q\"")
        # Checked by the pattern, so int() reads each part as Fraction(v) would.
        num, _, den = v.partition("/")
        try:
            q = int(den or 1)
            if q:
                return int(num), q
        except ValueError:  # CPython's limit on int(str), sys.set_int_max_str_digits
            digits = max(len(num.lstrip("+-")), len(den))
            _fail(path, f"rational has a part of {digits} digits, above the limit of "
                  "integer string conversion")
        _fail(path, f"rational {v!r} has a zero denominator")
    if isinstance(v, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, float):
        _fail(path, "floats are not accepted; use exact strings like \"1/3\"")
    _fail(path, f"expected a rational, got {type(v).__name__}")


def decode_rational(v: Any, path: _Path) -> Fraction:
    from fractions import Fraction

    return Fraction(*_read_rational(v, path))


def _ratio_str(c: int, den: int) -> str:
    """``str(Fraction(c, den))`` for den > 0, without building the Fraction."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


# -- polynomials ---------------------------------------------------------------


# Per arity n: the shape of a term, the count of its exponents, where below
# the term a negative exponent is named, and the message of a repeated one.
_ARITY = {
    1: ("expected [[exponent], coefficient]", "univariate terms have a single exponent",
        (0, 0), "duplicate exponent %d"),
    3: ("expected [[i, j, k], coefficient]", "trivariate terms need three exponents",
        (0,), "duplicate monomial [%d, %d, %d]"),
}
_INT = {int}


def _read_terms(v: Any, path: _Path, n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """{exponents: (p, q)} of a list of terms [[e1, ..., en], c], n = 1 or 3,
    checked in order, so that the first failure names its field."""
    shape, count, negative, duplicate = _ARITY[n]
    terms: dict[tuple[int, ...], tuple[int, int]] = {}
    for t, item in enumerate(_as(v, list, path)):
        # One test passes the shape and exponents of a well-formed term; the
        # checks that name a field run only for a term that fails it.
        exps = item[0] if type(item) is list and len(item) == 2 else None
        ok = type(exps) is list and len(exps) == n and _INT.issuperset(map(type, exps))
        if not (ok and min(exps) >= 0):
            at = path + (t,)
            pair = _as(item, list, at)
            if len(pair) != 2:
                _fail(at, shape)
            exps = _as(pair[0], list, at + (0,))
            if len(exps) != n:
                _fail(at + (0,), count)
            for a, x in enumerate(exps):
                _as(x, int, at + (0, a))
            if min(exps) < 0:
                _fail(at + negative, "exponents must be >= 0")
        e = tuple(exps)
        if e in terms:
            _fail(path + (t,), duplicate % e)
        terms[e] = _read_rational(item[1], path + (t, 1))
    return terms


def decode_unipoly(v: Any, path: _Path) -> UniPoly:
    terms = {(e, 0): r for (e,), r in _read_terms(v, path, 1).items()}
    # Checked before any body is built, zero terms included; the message only if refused.
    top = max(terms, default=(-1, 0))[0]
    if top > max_degree_cap():
        _check_cap(top, f"the polynomial at {_pstr(path)}")
    return UniPoly._sorted(*UniPoly._integer_form(terms))


def decode_trihom(v: Any, path: _Path, degree: int | None = None) -> TriHomPoly:
    terms = _read_terms(v, path, 3)
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


def decode_ratfunc(v: Any, path: _Path) -> RatFunc:
    obj = _as(v, dict, path)
    num = decode_unipoly(_get(obj, "num", path), path + ("num",))
    den = decode_unipoly(_get(obj, "den", path), path + ("den",))
    if den.is_zero:
        _fail(path + ("den",), "denominator must be nonzero")
    return RatFunc(num, den)


def encode_ratfunc(r: RatFunc) -> dict[str, Any]:
    return {"num": r.num, "den": r.den}


# -- curves ---------------------------------------------------------------------


def decode_curve_parts(
    v: Any,
) -> tuple[int, tuple[SingularityData, ...], TriHomPoly | None]:
    """Decode the curve schema without enforcing model invariants."""
    obj = _as(v, dict, ())
    degree = _get(obj, "degree", (), int)
    sing_list = _get(obj, "singularities", (), list)
    sings: list[SingularityData] = []
    for i, raw in enumerate(sing_list):
        spath = ("singularities", i)
        sobj = _as(raw, dict, spath)
        label = _get(sobj, "label", spath, str)
        mult = _get(sobj, "mult", spath, int)
        coords = None
        if sobj.get("coords") is not None:
            clist = _as(sobj["coords"], list, spath + ("coords",))
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
        # Checked before any model is built: the curve checks on a polynomial
        # grow with its degree, while a model of numbers alone is linear in it.
        _check_cap(poly.degree, "the polynomial at $.poly")
    return degree, tuple(sings), poly


def decode_curve(v: Any) -> PlaneCurveModel:
    degree, sings, poly = decode_curve_parts(v)
    return PlaneCurveModel(degree, sings, poly)


def encode_curve(c: PlaneCurveModel) -> dict[str, Any]:
    """The model as ``dumps`` takes it, its ``poly`` the record."""
    sings = []
    for s in sorted(c.singularities, key=lambda s: s.label):
        coords = None
        if s.point.coords is not None:
            coords = [str(v) for v in s.point.coords]
        sings.append({"label": s.label, "mult": s.multiplicity, "coords": coords})
    return {"degree": c.degree, "singularities": sings, "poly": c.defining_poly}


def encode_curve_report(r: CurveReport) -> dict[str, Any]:
    return {
        "passed": r.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in r.checks
        ],
    }


# -- linear systems and chain reports -------------------------------------------


def decode_linsys(v: Any, path: _Path = ()) -> LinSysData:
    obj = _as(v, dict, path)
    degree = _get(obj, "degree", path, int)
    mults_obj = _get(obj, "mults", path, dict)
    mults = {}
    for label, m in mults_obj.items():
        mv = _as(m, int, path + ("mults", label))
        if mv < 0:
            _fail(path + ("mults", label), f"multiplicity must be >= 0, got {mv}")
        mults[label] = mv
    if degree < 0:
        _fail(path + ("degree",), f"degree must be >= 0, got {degree}")
    return LinSysData.of(degree, mults)


def encode_removed(r: RemovedComponent) -> dict[str, Any]:
    return {"kind": r.kind, "labels": list(r.labels), "count": r.count, "system": r.system}


def encode_chain_step(s: ChainStep) -> dict[str, Any]:
    pencil = None
    if s.pencil_reduction is not None:
        pencil = {"content": s.pencil_reduction.content, "system": s.pencil_reduction.pencil}
    return {
        "input": s.input,
        "raw": s.raw_adjoint,
        "removed": [encode_removed(r) for r in s.removed_fixed],
        "pencil": pencil,
        "output": s.output,
        "warnings": list(s.warnings),
    }


def encode_chain_report(r: ChainReport) -> dict[str, Any]:
    """The report as ``dumps`` takes it: each system is its ``LinSysData``
    record, which a chain shares between steps and ``dumps`` writes once."""
    return {
        "steps": [encode_chain_step(s) for s in r.steps],
        "terminal": r.terminal,
        "class": r.classification.value,
        "warnings": list(r.warnings),
    }


# -- maps ------------------------------------------------------------------------


def decode_map(v: Any, path: _Path = ()) -> CremonaMap:
    obj = _as(v, dict, path)
    degree = _get(obj, "deg", path, int)
    comps = _get(obj, "components", path, list)
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


def encode_map(F: CremonaMap) -> dict[str, Any]:
    """The map as ``dumps`` takes it, its components the records."""
    return {"deg": F.degree, "components": list(F.components)}


# -- group elements ----------------------------------------------------------------


def decode_jonq(v: Any, path: _Path = ()) -> JonqElement:
    obj = _as(v, dict, path)
    h = decode_unipoly(_get(obj, "h", path), path + ("h",))
    a1 = decode_ratfunc(_get(obj, "a1", path), path + ("a1",))
    a2 = decode_ratfunc(_get(obj, "a2", path), path + ("a2",))
    return JonqElement(a1, a2, h)


def encode_jonq(u: JonqElement) -> dict[str, Any]:
    """The element as ``dumps`` takes it, each polynomial the record."""
    return {"h": u.h, "a1": encode_ratfunc(u.a1), "a2": encode_ratfunc(u.a2)}


def encode_order_report(r: OrderReport) -> dict[str, Any]:
    return {
        "order": r.order,
        "lambda": encode_ratfunc(r.lam),
        "lambda_constant": r.lam_constant,
        "conclusion_holds": r.conclusion_holds,
        "note": r.note,
    }


# -- pencil reports -----------------------------------------------------------------


def encode_pencil_check(r: PencilCheckReport) -> dict[str, Any]:
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

    The bytes are those of ``json.dumps(plain, indent=2, sort_keys=True)``
    plus a newline, where ``plain`` is the payload with each record in its
    JSON form, for the values the encoders emit: str, int, bool, None, the
    records ``UniPoly`` (as [[[e], "c"], ...], ascending), ``TriHomPoly`` (as
    [[[i, j, k], "c"], ...], leading term first), ``PencilType`` (as
    {"degree": n, "mults": [...]}) and ``LinSysData`` (as {"degree": n,
    "mults": {label: m, ...}}), and lists and str-keyed dicts of them.
    Anything else (a float, a tuple, a non-str key or label, a subclass of
    int, str or of a record) raises TypeError.
    """
    return _write(payload, "\n", {}) + "\n"


# The scalar formatters, keyed by exact type: a list of one scalar type is
# joined in one map, and a dict writes its scalar values inline.  repr of an
# exact int is int.__repr__; a bool indexes the pair as 0 or 1.
_SCALARS = {str: _encode_str, int: repr, type(None): lambda v: "null"}
_SCALARS[bool] = ("false", "true").__getitem__


def _write(v: Any, newline: str, memo: dict[tuple[Any, str], str]) -> str:
    """One value; ``newline`` is a line break plus the indent of its line.

    ``memo`` holds what the record writers keep for the call: the text of
    each LinSysData record already written, keyed by its id and indent (the
    payload keeps every record alive meanwhile), and the term template of
    each polynomial class, keyed by the class and indent.
    """
    kind = type(v)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(v)
    record = _RECORDS.get(kind)
    if record is not None:
        return record(v, newline, memo)
    inner = newline + "  "
    if kind is list:
        if not v:
            return "[]"
        kinds = set(map(type, v))
        kind = kinds.pop() if len(kinds) == 1 else None
        scalar = _SCALARS.get(kind)
        if kind is PencilType:
            body = _pencils(v, inner)
        else:
            body = map(scalar, v) if scalar else [_write(x, inner, memo) for x in v]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if kind is dict:
        if not v:
            return "{}"
        body = []
        for k in sorted(v):
            x = v[k]
            scalar = _SCALARS.get(type(x))
            # _encode_str raises TypeError for a key that is not a str.
            body.append(
                _encode_str(k) + ": " + (scalar(x) if scalar else _write(x, inner, memo))
            )
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _linsys(L: LinSysData, newline: str, memo: dict[tuple[Any, str], str]) -> str:
    """L as {"degree": n, "mults": {label: m, ...}}, at the indent of ``newline``,
    once per record and indent.  The record's labels are distinct and sorted,
    its numbers exact ints."""
    key = (id(L), newline)
    text = memo.get(key)
    if text is not None:
        return text
    inner = newline + "  "
    mults = "{}"
    if L.mults:
        leaf = inner + "  "
        # _encode_str raises TypeError for a label that is not a str.
        pairs = ("," + leaf).join([_encode_str(l) + ": %d" % m for l, m in L.mults])
        mults = "{" + leaf + pairs + inner + "}"
    text = '{%s"degree": %d,%s"mults": %s%s}' % (inner, L.degree, inner, mults, newline)
    memo[key] = text
    return text


def _poly(f: UniPoly | TriHomPoly, newline: str, memo: dict[tuple[Any, str], str]) -> str:
    """f as its list of [[e, ...], "c"] terms, at the indent of ``newline``,
    each term from one template per class and indent: a UniPoly's exponents
    ascending, a TriHomPoly's terms leading first, in its stored order."""
    if not f._body:
        return "[]"
    kind, inner = type(f), newline + "  "
    template = memo.get((kind, newline))
    if template is None:
        leaf, exp = inner + "  ", inner + "    "
        exps = ("," + exp).join(["%d"] * (3 if kind is TriHomPoly else 1))
        # A coefficient from _ratio_str is ASCII digits, "-" and "/": no escape.
        template = memo[kind, newline] = (
            "[" + leaf + "[" + exp + exps + leaf + "]," + leaf + '"%s"' + inner + "]")
    den = f._den
    if kind is TriHomPoly:
        d = f.degree
        terms = [template % (i, j, d - i - j, _ratio_str(c, den)) for (i, j), c in f._body.items()]
    else:
        terms = [template % (e, _ratio_str(c, den)) for (e, _), c in reversed(f._body.items())]
    return "[" + inner + ("," + inner).join(terms) + newline + "]"


def _pencils(records: list[PencilType], newline: str) -> list[str]:
    """Each record as {"degree": n, "mults": [...]}, at the indent of ``newline``,
    from one ``%d`` template per degree and count of multiplicities."""
    inner, sep = newline + "  ", "," + newline + "    "
    templates = {}
    for n, k in {(p.degree, len(p.mults)) for p in records}:
        mults = "[" + sep[1:] + sep.join(["%d"] * k) + inner + "]" if k else "[]"
        templates[n, k] = '{%s"degree": %d,%s"mults": ' % (inner, n, inner) + mults + newline + "}"
    return [templates[p.degree, len(p.mults)] % p.mults for p in records]


# The record writers, keyed by exact type: a subclass of a record is not
# written.  A list of PencilType records alone is written in one batch.
_RECORDS = {
    LinSysData: _linsys,
    TriHomPoly: _poly,
    UniPoly: _poly,
    PencilType: lambda p, newline, memo: _pencils([p], newline)[0],
}

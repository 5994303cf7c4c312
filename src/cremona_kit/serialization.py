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
  ``UniPoly``, ``TriHomPoly``, ``LinSysData``, ``ChainStep`` and
  ``RemovedComponent`` records themselves in place of their JSON, which
  ``dumps`` writes from templates;
  ``json.loads(dumps(x))`` is the plain JSON form;
* ``encode_pencil_types`` returns the list of pencil types as JSON text,
  which the partition walk writes itself, with no per-part formatting.

Decoders raise :class:`~cremona_kit.errors.SchemaError` carrying the path
of the offending field.  ``decode_curve_numbers`` reads a curve of numbers
alone straight into its ``LinSysData``, in one pass, and hands any other
curve, or one a model would refuse, to ``decode_curve``.  Both polynomial
decoders read terms with one reader, given the arity, in one pass: a
well-formed term passes one test of its shape and exponents and one of its
coefficient, and its numerator goes straight into the body, with the set of
total degrees; a path is built, and the field named, only for a term that
fails.  The terms are put over one
denominator once the decoder has checked their degrees: an exponent of a
univariate polynomial or a curve ``poly`` degree above the degree cap, or
terms of two degrees, are refused before anything is built.  The writer
prints an integer or a coefficient of any size, past CPython's limit on
``str`` of an int as well.
"""

from __future__ import annotations

import math
import operator
import re
from json.encoder import encode_basestring_ascii as _encode_str

from .curve_model import (
    CurveReport,
    PlaneCurveModel,
    PointSpec,
    SingularityData,
)
from ._record import Record
from .cremona_maps import CremonaMap, _check_cap, max_degree_cap
from .errors import SchemaError
from .exact_algebra import RatFunc, TriHomPoly, UniPoly
from .jonquieres import JonqElement, OrderReport
from .linear_systems import ChainReport, ChainStep, LinSysData, PencilReduction, RemovedComponent
from .rational_pencils import PencilCheckReport, _degrees, _partitions

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Any, NoReturn

_Path = tuple[str | int, ...]

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
    """``str(Fraction(c, den))`` for den > 0, without building the Fraction,
    and for a part above CPython's limit on ``str`` of an int as well."""
    g = math.gcd(c, den)
    try:
        return str(c // g) if g == den else f"{c // g}/{den // g}"
    except ValueError:  # sys.set_int_max_str_digits
        return _int_str(c // g) if g == den else f"{_int_str(c // g)}/{_int_str(den // g)}"


def _int_str(n: int) -> str:
    """``str(n)`` for an int of any size, with no ``str`` call on 640 digits
    or more, the least limit CPython allows, and no process-global changed.

    Divide and conquer (R. Brent and P. Zimmermann, Modern Computer
    Arithmetic, CUP 2010, section 1.7): n is split at the powers
    10^(512 * 2^k), and every low half is padded with zeros to its width.
    """
    if n < 0:
        return "-" + _int_str(-n)
    powers = [10**512]
    while (square := powers[-1] * powers[-1]) <= n:
        powers.append(square)

    def digits(n: int, k: int, pad: bool) -> str:
        # n < powers[k]^2, or n < powers[0] for k = -1; with ``pad``, written
        # in all 2 * 512 * 2^k (for k = -1, 512) places.
        if k < 0:
            return str(n).zfill(512) if pad else str(n)
        high, low = divmod(n, powers[k])
        if not (high or pad):
            return digits(low, k - 1, False)
        return digits(high, k - 1, pad) + digits(low, k - 1, True)

    return digits(n, len(powers) - 1, False)


# -- polynomials ---------------------------------------------------------------


# Per arity n: the shape of a term, the count of its exponents, where below
# the term a negative exponent is named, and the message of a repeated one.
_ARITY = {
    1: ("expected [[exponent], coefficient]", "univariate terms have a single exponent",
        (0, 0), "duplicate exponent %d"),
    3: ("expected [[i, j, k], coefficient]", "trivariate terms need three exponents",
        (0,), "duplicate monomial [%d, %d, %d]"),
}
# A rational string this short is below any limit CPython sets on int() of a
# string (640 digits at least), so the term reader converts it without a guard.
_SHORT = 640


_Terms = dict[tuple[int, int], int]


def _read_terms(v: Any, path: _Path, n: int) -> tuple[_Terms, _Terms, set[int]]:
    """(nums, dens, degrees) of a list of terms [[e1, ..., en], c], n = 1 or 3,
    checked in order, so that the first failure names its field: the term
    p / q is keyed (e, 0) for [[e], c] and (i, j) for [[i, j, k], c], ``nums``
    holds p at each key in decreasing lex order with no zero, ``dens`` holds
    q at the keys where q is not 1, and ``degrees`` is the set of total
    degrees of the terms, zero coefficients included.  ``_over_lcm`` puts
    the terms over one denominator.  On terms of two total degrees, which
    the decoders refuse first, nums and dens are not the terms."""
    items = _as(v, list, path)
    nums: _Terms = {}
    dens: _Terms = {}
    degrees: set[int] = set()
    seen = None
    last, rises = (-1, -1), 0
    for t, item in enumerate(items):
        # One test passes the shape and exponents of a well-formed term, and
        # one its coefficient: an int, or a short rational string with a
        # nonzero denominator.  The checks that name a field run only for a
        # term that fails them.  A univariate [[e], c] is read as [[e, 0, 0], c].
        exps = item[0] if type(item) is list and len(item) == 2 else None
        if type(exps) is list and len(exps) == n:
            i, j, k = exps if n == 3 else (*exps, 0, 0)
        else:
            i = None
        if not (type(i) is int and type(j) is int and type(k) is int and i >= 0 and j >= 0
                and k >= 0):
            at = path + (t,)
            shape, count, negative, _ = _ARITY[n]
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
            i, j, k = exps if n == 3 else (*exps, 0, 0)
        key = i, j
        degrees.add(i + j + k)
        # A key repeats in a repeated term, or in terms of two degrees, which
        # the decoders refuse once every term is read.  From the first repeat
        # on, ``seen`` holds the exponents of the terms read, to tell them apart.
        if key in nums or seen is not None:
            if seen is None:
                seen = {tuple(x[0]) for x in items[:t]}
            e = tuple(exps)
            if e in seen:
                _fail(path + (t,), _ARITY[n][3] % e)
            seen.add(e)
        c = item[1]
        if type(c) is str and len(c) <= _SHORT and (m := _RATIONAL_RE.fullmatch(c)) and (
                q := int(m[2] or 1)):
            p = int(m[1])
        elif type(c) is int:
            p, q = c, 1
        else:
            p, q = _read_rational(c, path + (t, 1))
        nums[key] = p
        if q != 1 and p:
            dens[key] = q
        if key > last:
            rises += 1
        last = key
    # Terms come leading first (rises == 1), as a TriHomPoly is written, or
    # trailing first, as a UniPoly is; sorted() takes either in one pass.
    if rises > 1:
        nums = dict(sorted(nums.items(), reverse=True))
    if 0 in nums.values():
        nums = {e: p for e, p in nums.items() if p}
    return nums, dens, degrees


def _over_lcm(nums: _Terms, dens: _Terms) -> tuple[_Terms, int]:
    """(body, den) of the terms ``_read_terms`` read: den the lcm of their
    denominators, and body / den their sum."""
    if not dens:
        return nums, 1
    den = math.lcm(*dens.values())
    return {e: p * (den // dens.get(e, 1)) for e, p in nums.items()}, den


def decode_unipoly(v: Any, path: _Path) -> UniPoly:
    nums, dens, exponents = _read_terms(v, path, 1)
    # Checked before the polynomial is built, zero terms included; the message only if refused.
    top = max(exponents, default=-1)
    if top > max_degree_cap():
        _check_cap(top, f"the polynomial at {_pstr(path)}")
    return UniPoly._sorted(*_over_lcm(nums, dens))


def decode_trihom(v: Any, path: _Path, degree: int | None = None) -> TriHomPoly:
    nums, dens, degrees = _read_terms(v, path, 3)
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
    return TriHomPoly._sorted(degree, *_over_lcm(nums, dens))


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


def decode_curve_numbers(v: Any) -> LinSysData | PlaneCurveModel:
    """The curve as ``adjoint_chain`` reads it.  A curve of numbers alone
    (``poly`` null, no ``coords``) that a model accepts is read in one pass
    into its ``LinSysData``, with no point records; any other input goes to
    ``decode_curve``, which builds the model or raises its error."""
    if type(v) is dict and v.get("poly") is None:
        degree, sings = v.get("degree"), v.get("singularities")
        if type(degree) is int and degree >= 1 and type(sings) is list:
            mults: dict[str, int] = {}
            for s in sings:
                if type(s) is not dict:
                    break
                label, m = s.get("label"), s.get("mult")
                if not (type(label) is str and label and type(m) is int and m >= 2
                        and s.get("coords") is None):
                    break
                mults[label] = m
            else:
                ms = list(mults.values())
                total, squares = sum(ms), sum(map(operator.mul, ms, ms))
                # Labels distinct, and genus (d-1)(d-2)/2 - sum m(m-1)/2 >= 0,
                # which no multiplicity above the degree leaves.
                if len(ms) == len(sings) and (degree - 1) * (degree - 2) >= squares - total:
                    return LinSysData._sorted(degree, tuple(sorted(mults.items())), (total, squares))
    return decode_curve(v)


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


def encode_chain_report(r: ChainReport) -> dict[str, Any]:
    """The report as ``dumps`` takes it: each step is its ``ChainStep``
    record, which ``dumps`` writes with its ``RemovedComponent`` and
    ``LinSysData`` records."""
    return {
        "steps": list(r.steps),
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


class _JSONText(Record):
    """JSON text that ``dumps`` writes as it stands, laid out for a value on
    the line that ``newline`` (a line break plus its indent) starts."""

    __slots__ = ("text", "newline")


# The text of a pencil type of degree n up to its first part, and of one
# part, comma first, as the list of a field of the top-level object holds them.
_PENCIL = '{\n      "degree": %d,\n      "mults": ['
_PART = ",\n        %d"


class _Opening(str):
    """The text of a pencil type up to its first part, where the walk starts
    each head: the text of the first part follows it without its comma."""

    __slots__ = ()

    def __add__(self, parts: str) -> str:
        return str.__add__(self, parts[1:])


def encode_pencil_types(n_max: int, limit: int) -> tuple[int, _JSONText]:
    """(count, types): the number of pencil types of degree <= n_max, and
    their list as ``dumps`` writes it for a field of the top-level object,
    each type {"degree": n, "mults": [...]} in the order of
    ``enumerate_pencil_types``; past ``limit``, EnumerationBoundExceeded.

    The walk writes each type's text whole: its head, the text of its degree
    and of its first parts, is shared by the types that start alike, and
    its rest is runs of the texts of 3, 2 and 1.  Each part's text is
    formatted once, the table growing with the degree.
    """
    unit = ["", *(_PART % p for p in (1, 2, 3))]
    texts: list[str] = []
    for n in _degrees(n_max, limit):
        if n > 3:
            unit.append(_PART % n)
        unit[0] = _Opening(_PENCIL % n)
        texts += _partitions(3 * n - 2, n * n, n, unit)
    count = len(texts)
    if count:
        texts[0] = "[\n    " + texts[0]
        texts[-1] += "\n      ]\n    }\n  ]"
    return count, _JSONText("\n      ]\n    },\n    ".join(texts) or "[]", "\n  ")


# -- top level -----------------------------------------------------------------------


def dumps(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end.

    The bytes are those of ``json.dumps(plain, indent=2, sort_keys=True)``
    plus a newline, where ``plain`` is the payload with each record in its
    JSON form, for the values the encoders emit: str, int, bool, None, the
    records ``UniPoly`` (as [[[e], "c"], ...], ascending), ``TriHomPoly`` (as
    [[[i, j, k], "c"], ...], leading term first), ``LinSysData`` (as
    {"degree": n, "mults": {label: m, ...}}), ``ChainStep`` (as {"input",
    "output", "pencil", "raw", "removed", "warnings"}, the pencil null or
    {"content": c, "system": P}) and ``RemovedComponent`` (as {"count",
    "kind", "labels", "system"}), JSON text from ``encode_pencil_types``
    where it was laid out for, and lists and str-keyed dicts of them.
    Anything else (a float, a tuple, a non-str key or label, a subclass of
    int, str or of a record) raises TypeError.
    """
    memo: dict[Any, str] = {}
    if type(payload) is dict and payload:
        # The final newline is joined with the object's parts: the text of a
        # long report is built once, not once more to add it.
        return "".join(_members(payload, "\n", memo) + ["\n"])
    return _write(payload, "\n", memo) + "\n"


def _int_text(n: int) -> str:
    """repr(n), or past CPython's limit on ``str`` of an int, the converter's."""
    try:
        return repr(n)
    except ValueError:  # sys.set_int_max_str_digits
        return _int_str(n)


# The scalar formatters, keyed by exact type: a list of one scalar type is
# joined in one map, and a dict writes its scalar values inline.  A bool
# indexes the pair as 0 or 1.
_SCALARS = {str: _encode_str, int: _int_text, type(None): lambda v: "null"}
_SCALARS[bool] = ("false", "true").__getitem__


def _write(v: Any, newline: str, memo: dict[Any, str]) -> str:
    """One value; ``newline`` is a line break plus the indent of its line.

    ``memo`` holds what the record writers keep for the call: the text of
    each LinSysData record already written, keyed by its id and indent (the
    payload keeps every record alive meanwhile), the template of each tuple
    of labels, keyed by the tuple and indent, and the template of each other
    record class, keyed by the class and indent.
    """
    kind = type(v)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(v)
    record = _RECORDS.get(kind)
    if record is not None:
        return record(v, newline, memo)
    if kind is list:
        if not v:
            return "[]"
        kinds = set(map(type, v))
        kind = kinds.pop() if len(kinds) == 1 else None
        scalar = _SCALARS.get(kind)
        inner = newline + "  "
        body = map(scalar, v) if scalar else [_write(x, inner, memo) for x in v]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if kind is dict:
        return "".join(_members(v, newline, memo)) if v else "{}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _members(v: dict[str, Any], newline: str, memo: dict[Any, str]) -> list[str]:
    """The texts that make up the nonempty object ``v``, to be joined once:
    a long value's text is copied once."""
    inner = newline + "  "
    sep = "," + inner
    parts: list[str] = []
    for k in sorted(v):
        x = v[k]
        scalar = _SCALARS.get(type(x))
        # _encode_str raises TypeError for a key that is not a str.
        parts += sep, _encode_str(k), ": ", scalar(x) if scalar else _write(x, inner, memo)
    parts[0] = "{" + inner
    parts.append(newline + "}")
    return parts


def _linsys(L: LinSysData, newline: str, memo: dict[Any, str]) -> str:
    """L as {"degree": n, "mults": {label: m, ...}}, at the indent of ``newline``,
    once per record and indent, from one template per tuple of labels and
    indent.  The record's labels are distinct and sorted, its numbers exact
    ints."""
    key = (id(L), newline)
    text = memo.get(key)
    if text is not None:
        return text
    if not L.mults:
        inner = newline + "  "
        text = '{%s"degree": %d,%s"mults": {}%s}' % (inner, L.degree, inner, newline)
    else:
        labels, mults = zip(*L.mults)
        template = memo.get((labels, newline))
        if template is None:
            inner = newline + "  "
            leaf = inner + "  "
            # _encode_str raises TypeError for a label that is not a str; a "%" of
            # a label is doubled, to stand for itself in the template.
            pairs = ("," + leaf).join([_encode_str(l).replace("%", "%%") + ": %d" for l in labels])
            template = memo[labels, newline] = (
                "{" + inner + '"degree": %d,' + inner + '"mults": {' + leaf + pairs + inner + "}" + newline + "}")
        text = template % (L.degree, *mults)
    memo[key] = text
    return text


def _array(texts: list[str], newline: str) -> str:
    """The JSON array of the values written as ``texts``, at the indent of ``newline``."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _object(kind: type, keys: tuple[str, ...], newline: str, memo: dict[Any, str]) -> str:
    """The template of an object of ``kind`` with the sorted ``keys``, each
    value a %s, at the indent of ``newline``: built once per kind and indent."""
    template = memo.get((kind, newline))
    if template is None:
        inner = newline + "  "
        members = ("," + inner).join(['"%s": %%s' % key for key in keys])
        template = memo[kind, newline] = "{" + inner + members + newline + "}"
    return template


_STEP_KEYS = ("input", "output", "pencil", "raw", "removed", "warnings")
_PENCIL_KEYS = ("content", "system")
_REMOVED_KEYS = ("count", "kind", "labels", "system")


def _chain_step(s: ChainStep, newline: str, memo: dict[Any, str]) -> str:
    """s as {"input", "output", "pencil", "raw", "removed", "warnings"}, at the
    indent of ``newline``: each system a ``LinSysData`` record, the pencil
    null or {"content": c, "system": P}, each removed component a
    ``RemovedComponent`` record."""
    inner = newline + "  "
    leaf = inner + "  "
    pr = s.pencil_reduction
    pencil = "null" if pr is None else _object(PencilReduction, _PENCIL_KEYS, inner, memo) % (
        "%d" % pr.content, _linsys(pr.pencil, leaf, memo))
    return _object(ChainStep, _STEP_KEYS, newline, memo) % (
        _linsys(s.input, inner, memo),
        _linsys(s.output, inner, memo),
        pencil,
        _linsys(s.raw_adjoint, inner, memo),
        _array([_removed(r, leaf, memo) for r in s.removed_fixed], inner),
        _array(list(map(_encode_str, s.warnings)), inner),
    )


def _removed(r: RemovedComponent, newline: str, memo: dict[Any, str]) -> str:
    """r as {"count", "kind", "labels", "system"}, at the indent of ``newline``."""
    inner = newline + "  "
    labels = _array(list(map(_encode_str, r.labels)), inner)
    return _object(RemovedComponent, _REMOVED_KEYS, newline, memo) % (
        "%d" % r.count, _encode_str(r.kind), labels, _linsys(r.system, inner, memo))


def _poly(f: UniPoly | TriHomPoly, newline: str, memo: dict[Any, str]) -> str:
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


def _text(v: _JSONText, newline: str, memo: dict[Any, str]) -> str:
    if newline != v.newline:
        raise TypeError("JSON text written at an indent other than its own")
    return v.text


# The record writers, keyed by exact type: a subclass of a record is not
# written.
_RECORDS = {
    LinSysData: _linsys,
    ChainStep: _chain_step,
    RemovedComponent: _removed,
    TriHomPoly: _poly,
    UniPoly: _poly,
    _JSONText: _text,
}

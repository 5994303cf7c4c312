"""Exact arithmetic tower used by every other module.

Three layers over the rationals, all immutable and exact:

* ``UniPoly``    -- univariate polynomials.
* ``RatFunc``    -- reduced fractions of univariate polynomials with a
  monic denominator.
* ``TriHomPoly`` -- homogeneous polynomials in x, y, z.

A coefficient is given as an int, a string "p/q" or a
:class:`fractions.Fraction`.  Both polynomial classes store one integer
form (``_Poly``), built from rationals by ``_Poly._integer_form`` alone: a
body over Z and a positive denominator prime to its content.  A
``TriHomPoly`` body is F(x, y), for F / den homogenised with z; a
``UniPoly`` body is keyed (e, 0), as the GCD reads it.  Arithmetic, the
substitution kernel and the GCD run on the bodies; ``coeffs`` and ``terms``
are views of them, computed on each read.  Nothing in the package reads
those views.  A Fraction is built only when a caller reads ``coeffs``,
``terms`` or ``coeff()``, hashes a polynomial, calls ``tri_divrem`` (the
Fraction lex division kept as a public name), builds a ``TriHomPoly`` by
its constructor, ``of`` or ``monomial``, which read every coefficient as a
Fraction, or gives ``UniPoly`` a coefficient that is not an int.  Only
those functions import ``fractions``, so a process that builds no Fraction
never loads it.  No division, text form or evaluation is left: ``str()`` prints the ``repr``.

The substitution kernel, ``_substitute``, evaluates one to three
polynomials of one degree at one image triple by a Kronecker substitution on
packed integers: each image is packed, and its powers and monomial products
are built, once for all of them.  ``compose`` runs it once on a map's three
components, and ``TriHomPoly.substitute`` on one polynomial.

The trivariate layer carries the GCD and exact-divisibility machinery the
birational-map code depends on.  A GCD strips the common power of z and
works on the bodies in Z[x, y].  A certificate from integer gcds
(``_coprime``) proves most pairs coprime; most content GCDs end there.  Then
the candidate read from the integer gcd of the packed bodies
(``_packed_parts``) is tried, and Brown's modular algorithm (images modulo
2^61 - 1 and the primes below it, interpolation in y, Chinese remaindering)
only when that fails.  A candidate is accepted only after exact division of
both inputs (``_exact_quotient``, which ``tri_divides`` and the fixation
certificate of ``cremona_maps`` use too).  The content of three polynomials
costs one GCD, of the first and a combination of the other two
(``_common``).  Results are normalised so the lexicographically leading term
(x > y > z) has coefficient one.  ``uni_gcd`` runs the same code on Z[t]
taken as Z[x].  One front end, ``_primitive_parts``, returns the GCD with the
quotients of the accepting division, for map contents, ``RatFunc`` and the
common denominator, so only this module divides by a GCD, and only once.

No floating point is used anywhere; floats are rejected on sight.
"""

from __future__ import annotations

import itertools
import math
import struct
from bisect import insort
from collections.abc import Iterator, Mapping, Sequence
from operator import sub

from ._record import Record

# Names for annotations alone, which every module leaves unevaluated; type
# checkers take TYPE_CHECKING as true.  A function that builds a Fraction
# imports fractions itself, so a process that builds none never loads it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    RationalLike = int | str | Fraction

Exponents = tuple[int, int, int]


def _frac(value: RationalLike) -> Fraction:
    """Coerce to Fraction, refusing floats (exactness is the whole point)."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of ``_frac(value)``; an int builds no Fraction."""
    if type(value) is int:
        return value, 1
    q = _frac(value)
    return q.numerator, q.denominator


# ---------------------------------------------------------------------------
# the integer form shared by UniPoly and TriHomPoly
# ---------------------------------------------------------------------------


class _Poly:
    """The stored form of a polynomial, body / den: ``_body`` is {(i, j): c}
    over Z in decreasing lex order with no zero coefficient, and ``_den`` a
    positive integer prime to its content, so den is the lcm of the reduced
    denominators and the form is unique.  Zero is the empty body over 1.  A
    subclass says what the keys stand for, and sets ``_ONE``."""

    __slots__ = ("_den", "_body")
    # Whether the class stores its degree (TriHomPoly) or its body states it (UniPoly).
    _STORES_DEGREE = False

    @classmethod
    def _make(cls, degree: int | None, body: _BiPoly, den: int) -> "_Poly":
        """Trusted constructor of an arithmetic result of ``degree``: body in
        decreasing lex order with no zero coefficient, den a nonzero integer.
        This default drops the degree, which a UniPoly body states, and
        calls the class's ``_sorted``; TriHomPoly stores it and overrides."""
        return cls._sorted(body, den)

    @staticmethod
    def _integer_form(terms: Mapping[tuple[int, int], tuple[int, int]]) -> tuple[_BiPoly, int]:
        """(body, den) with body / den the sum of p / q at each key e of {e: (p, q)},
        q > 0: den is the lcm of the q of nonzero p, and the body is in decreasing
        lex order with no zero coefficient.  ``_store`` divides out their gcd."""
        den = math.lcm(*(q for p, q in terms.values() if p))
        return {e: p * (den // q) for e, (p, q) in sorted(terms.items(), reverse=True) if p}, den

    def _store(self, body: _BiPoly, den: int) -> "_Poly":
        """Set the form of body / den, dividing out gcd(den, content body),
        and return self."""
        g = math.gcd(den, *body.values())
        if den < 0:
            g = -g
        if g != 1:
            body, den = {e: c // g for e, c in body.items()}, den // g
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_body", body)
        return self

    @property
    def is_zero(self) -> bool:
        return not self._body

    def __bool__(self) -> bool:
        return bool(self._body)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self._den, self._body) == (other.degree, other._den, other._body)

    __hash__ = Record.__hash__  # defining __eq__ clears it; the hash of the fields stays

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self._body:
            return other
        if not other._body:
            return self
        den = math.lcm(self._den, other._den)
        total = _axpy(_over(self, den), den // other._den, other._body)
        return self._make(self.degree, _lex(total), den)

    def __neg__(self):
        return self._make(self.degree, {e: -c for e, c in self._body.items()}, self._den)

    def __sub__(self, other):
        return self + (-other) if other.__class__ is self.__class__ else NotImplemented

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            a, b = self._body, other._body
            if len(a) == 1:
                a, b = b, a
            if len(b) == 1 and a:
                # A one-term factor shifts the keys, which keeps their order.
                ((di, dj), m), = b.items()
                product = {(i + di, j + dj): c * m for (i, j), c in a.items()}
            else:
                product = _lex(_bimul(a, b))
            degree = self.degree + other.degree if self._STORES_DEGREE else None
            return self._make(degree, product, self._den * other._den)
        p, q = _ratio(other)
        body = {e: c * p for e, c in self._body.items()} if p else {}
        return self._make(self.degree if self._STORES_DEGREE else None, body, self._den * q)

    def __rmul__(self, other: RationalLike):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def _lex(F: _BiPoly) -> _BiPoly:
    """F keyed in decreasing lex order, without its zero coefficients."""
    return {e: F[e] for e in sorted(F, reverse=True) if F[e]}


def _over(f: _Poly, den: int) -> _BiPoly:
    """The body B with f = B / den, for ``den`` a multiple of ``f._den``."""
    s = den // f._den
    return f._body if s == 1 else {e: c * s for e, c in f._body.items()}


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly(_Poly, Record):
    """Univariate polynomial over Q; ``coeffs[e]`` multiplies ``t**e``.

    Stored in the integer form of ``_Poly``, the body keyed (e, 0) for t^e:
    the form ``_gcd_parts`` reads.  The field ``coeffs`` is a view, computed
    on each read: the Fractions with trailing zeros stripped, so the zero
    polynomial is the empty tuple and ``degree`` of zero is -1.
    """

    __slots__ = ()
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...] = ()) -> None:
        self._store(*self._integer_form({(e, 0): _ratio(c) for e, c in enumerate(coeffs)}))

    @classmethod
    def _sorted(cls, body: _BiPoly, den: int = 1) -> "UniPoly":
        """Trusted constructor of body / den: body keyed (e, 0) in decreasing
        order of e with no zero coefficient, den a nonzero integer."""
        return object.__new__(cls)._store(body, den)

    @classmethod
    def of(cls, *coeffs: RationalLike) -> "UniPoly":
        return cls(coeffs)

    @classmethod
    def constant(cls, value: RationalLike) -> "UniPoly":
        return cls._ONE * value

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls._sorted({(1, 0): 1})

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        body, den = self._body, self._den
        return tuple(Fraction(body.get((e, 0), 0), den) for e in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return next(iter(self._body))[0] if self._body else -1

    def coeff(self, e: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self._body.get((e, 0), 0), self._den)

    def derivative(self) -> "UniPoly":
        # Lowering every exponent by one keeps the decreasing order.
        body = {(e - 1, 0): c * e for (e, _), c in self._body.items() if e}
        return UniPoly._sorted(body, self._den)


UniPoly._ONE = UniPoly._sorted({(0, 0): 1})


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor; ``uni_gcd(0, 0)`` is zero."""
    return _primitive_parts((p, q))[0] if p or q else q


def is_squarefree(h: UniPoly) -> bool:
    """True iff gcd(h, h') is constant.  The zero polynomial is rejected."""
    if h.is_zero:
        raise ValueError("squarefree test on the zero polynomial")
    return uni_gcd(h, h.derivative()).degree <= 0


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc(Record):
    """Reduced fraction of univariate polynomials; denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly = UniPoly(), den: UniPoly = UniPoly.constant(1)) -> None:
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if den != UniPoly._ONE:
            # den first: the part scaled to lead with one is the denominator.
            _, (den, num) = _primitive_parts((den, num), normalise=True)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, value: RatFunc | UniPoly | RationalLike) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, UniPoly):
            return cls(value)
        return cls(UniPoly.constant(value))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __add__(self, other: "RatFunc") -> "RatFunc":
        other = RatFunc.of(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-RatFunc.of(other))

    def __mul__(self, other: RatFunc | UniPoly | RationalLike) -> "RatFunc":
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)


# ---------------------------------------------------------------------------
# homogeneous trivariate polynomials
# ---------------------------------------------------------------------------


class TriHomPoly(_Poly, Record):
    """Homogeneous polynomial in x, y, z over Q.

    Stored as ``degree`` and the integer form of ``_Poly``: the body F in
    Z[x, y] stands for F / den homogenised with z to ``degree`` (the key
    (i, j) for x^i y^j z^(degree - i - j)).  The zero polynomial keeps its
    nominal degree so graded arithmetic stays well typed.

    The field ``terms`` is a view, computed on each read: exponent triples
    (i, j, k), in decreasing lex order, paired with nonzero Fractions.
    """

    __slots__ = ("degree",)
    _fields = ("degree", "terms")
    _STORES_DEGREE = True

    def __init__(self, degree: int, terms: tuple[tuple[Exponents, Fraction], ...] = ()) -> None:
        # bool and float refused: the JSON writer would print them as such.
        if type(degree) is not int:
            raise TypeError(f"homogeneous degree must be an int, got {degree!r}")
        if degree < 0:
            raise ValueError("homogeneous degree must be >= 0")
        acc: dict[tuple[int, int], Fraction] = {}
        for exps, coeff in terms:
            i, j, k = exps
            if not type(i) is type(j) is type(k) is int:
                raise TypeError(f"monomial {exps} has an exponent that is not an int")
            if min(i, j, k) < 0 or i + j + k != degree:
                raise ValueError(f"monomial {exps} is not homogeneous of degree {degree}")
            c = _frac(coeff)
            acc[i, j] = acc[i, j] + c if (i, j) in acc else c
        object.__setattr__(self, "degree", degree)
        self._store(*self._integer_form({e: (c.numerator, c.denominator) for e, c in acc.items()}))

    @classmethod
    def _sorted(cls, degree: int, body: _BiPoly, den: int = 1) -> "TriHomPoly":
        """Trusted constructor of body / den homogenised to ``degree``: body
        in Z[x, y] keyed in decreasing lex order with no zero coefficient,
        den a nonzero integer."""
        f = object.__new__(cls)
        object.__setattr__(f, "degree", degree)
        return f._store(body, den)

    _make = _sorted

    @classmethod
    def of(
        cls,
        terms: Mapping[Exponents, RationalLike],
        degree: int | None = None,
    ) -> "TriHomPoly":
        items = [(tuple(e), _frac(c)) for e, c in terms.items()]
        if degree is None:
            nonzero = [e for e, c in items if c != 0]
            if not nonzero:
                raise ValueError("degree required for the zero polynomial")
            degree = sum(nonzero[0])
        return cls(degree, tuple(items))  # type: ignore[arg-type]

    @classmethod
    def zero(cls, degree: int) -> "TriHomPoly":
        return cls(degree, ())

    @classmethod
    def monomial(cls, exps: Exponents, coeff: RationalLike = 1) -> "TriHomPoly":
        return cls(sum(exps), ((tuple(exps), _frac(coeff)),))  # type: ignore[arg-type]

    @property
    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        from fractions import Fraction

        d, den = self.degree, self._den
        return tuple(((i, j, d - i - j), Fraction(c, den)) for (i, j), c in self._body.items())

    def coeff(self, exps: Exponents) -> Fraction:
        from fractions import Fraction

        i, j, k = exps
        return Fraction(self._body.get((i, j), 0) if i + j + k == self.degree else 0, self._den)

    def __add__(self, other: "TriHomPoly") -> "TriHomPoly":
        if other.__class__ is TriHomPoly and self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        return _Poly.__add__(self, other)

    def partial(self, axis: int) -> "TriHomPoly":
        """Formal partial derivative with respect to x, y or z (axis 0/1/2).
        Lowering one exponent keeps the decreasing lex order of the body."""
        d = self.degree
        di, dj = ((1, 0), (0, 1), (0, 0))[axis]
        body: _BiPoly = {}
        for (i, j), c in self._body.items():
            n = (i, j, d - i - j)[axis]
            if n:
                body[i - di, j - dj] = c * n
        return TriHomPoly._sorted(max(d - 1, 0), body, self._den)

    def substitute(self, images: Sequence["TriHomPoly"]) -> "TriHomPoly":
        """Evaluate at three homogeneous polynomials of one common degree:
        the substitution kernel (``_substitute``) on this polynomial alone."""
        return _substitute((self,), images)[0]


def _substitute(polys: Sequence[TriHomPoly], images: Sequence[TriHomPoly]) -> list[TriHomPoly]:
    """Each of one to three polynomials of one degree d evaluated at three
    homogeneous images of one common degree.

    Exact, on integers: one common ``den`` scales the images (a scale per
    image would not scale the results uniformly), and each result is the sum
    over the body of its polynomial, divided by ``f._den * den**d`` once.
    The sum is a Kronecker substitution on the packed images (``_pack``), a
    ring map, so the polynomials share it: each image is packed, and its
    powers built, once, and each product G1^j G2^k of the union of their
    monomials is formed once, a polynomial's terms grouped by their power of
    x then multiplied by G0^i.  Only the results must fit the slots, whose
    one width holds the largest bound sum |c| * M^d, M the largest l1 norm
    of an image.
    """
    g0, g1, g2 = images
    if not (g0.degree == g1.degree == g2.degree):
        raise ValueError("substitution images must share one degree")
    d, out_deg = polys[0].degree, polys[0].degree * g0.degree
    den = math.lcm(g0._den, g1._den, g2._den)
    bases = [_over(g, den) for g in images]
    M = max(sum(map(abs, B.values())) for B in bases)
    bound = max(sum(map(abs, f._body.values())) for f in polys)
    k, W = _width(bound * M**d), out_deg + 1
    exps = [(i, j, d - i - j) for i, j in set().union(*(f._body for f in polys))]
    p0, p1, p2 = powers = [[1] for _ in images]
    for axis, B in enumerate(bases):
        base = _pack(B, k, W)
        for _ in range(max((e[axis] for e in exps), default=0)):
            powers[axis].append(powers[axis][-1] * base)
    yz = {(i, j): p1[j] * p2[m] for i, j, m in exps}
    out = []
    for f in polys:
        acc = 0
        for i, group in itertools.groupby(f._body.items(), key=lambda t: t[0][0]):
            acc += p0[i] * sum(c * yz[e] for e, c in group)
        out.append(TriHomPoly._sorted(out_deg, _unpack(acc, k, W, out_deg * W + 1), f._den * den**d))
    return out


TriHomPoly._ONE = TriHomPoly._sorted(0, {(0, 0): 1})
TRI_X = TriHomPoly._sorted(1, {(1, 0): 1})
TRI_Y = TriHomPoly._sorted(1, {(0, 1): 1})
TRI_Z = TriHomPoly._sorted(1, {(0, 0): 1})


def homogenize_uni(p: UniPoly, axis: int, degree: int) -> TriHomPoly:
    """sum(c_e t^e) as sum(c_e v^e z^(degree - e)), v = x (axis 0) or y (1):
    the body keyed (e, 0) or (0, e), in decreasing e, so in decreasing lex order."""
    if p.is_zero:
        return TriHomPoly.zero(degree)
    if degree < p.degree:
        raise ValueError("target degree below the degree of the polynomial")
    body = {(0, e): c for (e, _), c in p._body.items()} if axis else p._body
    return TriHomPoly._sorted(degree, body, p._den)


# -- lex division and divisibility ------------------------------------------


def tri_divrem(f: TriHomPoly, c: TriHomPoly) -> tuple[TriHomPoly, TriHomPoly]:
    """Single-divisor division in lex order: f = q*c + r, no term of r
    divisible by the leading monomial of c."""
    if c.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    qdeg = max(f.degree - c.degree, 0)
    if f.is_zero or f.degree < c.degree:
        return TriHomPoly.zero(qdeg), f
    (ce, cc) = c.terms[0]
    cdict = dict(c.terms)
    p = dict(f.terms)
    q: dict[Exponents, Fraction] = {}
    r: dict[Exponents, Fraction] = {}
    # p holds no zeros, and the popped e strictly decreases, so each m is new.
    while p:
        e = max(p)
        coeff = p.pop(e)
        if e[0] >= ce[0] and e[1] >= ce[1] and e[2] >= ce[2]:
            m = (e[0] - ce[0], e[1] - ce[1], e[2] - ce[2])
            s = coeff / cc
            q[m] = s
            for de, dc in cdict.items():
                if de == ce:
                    continue
                t = (m[0] + de[0], m[1] + de[1], m[2] + de[2])
                v = p.pop(t) - s * dc if t in p else -s * dc
                if v:
                    p[t] = v
        else:
            r[e] = coeff
    return (
        TriHomPoly(qdeg, tuple(q.items())),
        TriHomPoly(f.degree, tuple(r.items())),
    )


def tri_divides(c: TriHomPoly, f: TriHomPoly) -> bool:
    """True iff f = c*q for some homogeneous q.  Requires c != 0."""
    if c.is_zero:
        raise ZeroDivisionError("divisibility by the zero polynomial")
    return _divides(c, f.degree, f._body)


# -- gcd: a certificate, a packed candidate, then Brown's algorithm --------
#
# A homogeneous f is z^a * F with z not dividing F, and F corresponds
# bijectively and multiplicatively to F(x, y, 1), so gcd(f, g) = z^min(a, b)
# * gcd(F, G).  F and G are the stored bodies, in Z[x, y]; the denominators
# do not matter because the answer is lex-normalised.  Let H = gcd(F, G) be
# primitive.  By Gauss's lemma F = H * F1 with F1 in Z[x, y], so evaluating,
# packing and reducing mod p are ring maps that keep H | F.  _gcd_parts
# proves every answer, by the first of three routes that succeeds:
#
# 1. The certificate, on integer gcds (_coprime).  The lemma of GCDHEU (Char,
#    Geddes and Gonnet, J. Symbolic Comput. 7, 1989): for f, g in Z[x] with
#    N = min(|f|_inf, |g|_inf), xi >= 2N + 2 and gamma = gcd(f(xi), g(xi)),
#    0 < gamma < xi / 2 proves that f and g share no factor of positive
#    degree.  A zero f or g gives N = 0, xi = 2 and no such gamma; otherwise
#    a common factor c has roots below 1 + N (Cauchy), so c(xi), which
#    divides gamma, exceeds xi - 1 - N >= xi / 2.  The lemma runs on the
#    lines F(x, t), G(x, t) and F(t, y), G(t, y) at t = _POINT, once
#    lc_x(F)(t) != 0: then a common factor c keeps its x-degree in c(x, t),
#    as lc_x(c) divides lc_x(F), or is c(y).  Most content gcds end here, at
#    the cost of the lines: the powers of _POINT are kept in _POWERS, both
#    degrees of a body are read in one pass, a line with one nonzero
#    coefficient is a constant once reduced and takes no gcd, and _reduced
#    returns a line with no content, power of x or trailing zero uncopied.
# 2. The packed candidate (_packed_parts): C, the primitive part of the
#    integer gcd of F and G packed at (2^(kW), 2^k), read back and moved to
#    the monomial factor of H (the packings share powers of 2), is kept when
#    it divides F and G and the quotients pass the certificate: they are then
#    coprime, so C = H.  It is skipped past _PACKED_BITS, since CPython's
#    integer gcd is quadratic.
# 3. Brown's algorithm (W. S. Brown, JACM 18, 1971) runs over the primes from
#    _P0 = 2^61 - 1 down, skipping any that divides a lex-leading coefficient
#    (x > y) of F or G, so that H mod p keeps its leading monomial and divides
#    the gcd mod p.  Mod p, the contents in Z_p[y] are removed and the
#    primitive parts evaluated at y = _POINT, _POINT + 1, ..., each prime
#    going on where the last stopped.  Where gamma(y), the gcd of the
#    x-leading coefficients, does not vanish, the image of H keeps its
#    x-degree and divides both images, so a gcd of degree 0 and coprime
#    contents prove H = 1.  Else the monic images, scaled by gamma, are
#    interpolated in y (Newton) through deg gamma + min(deg_y) + 1 points of
#    the lowest x-degree seen (a lower lex-leading monomial restarts), times
#    the gcd of the lex-leading coefficients, and combined by CRT.  Once a
#    new prime leaves them unchanged, the primitive candidate C must divide F
#    and G exactly (_exact_quotient, which returns the quotients).  Then
#    C | H, and the leading monomial of C, that of an image mod p, is at least
#    that of H: so C is H up to a scalar.


_P0 = 2**61 - 1
_POINT = 1_000_003


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES: list[int] = []


def _primes() -> Iterator[int]:
    """The primes up to _P0 = 2^61 - 1, in decreasing order; the ones found
    are kept in _PRIMES for later calls."""
    for i in itertools.count():
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2 if _PRIMES else _P0
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]


# Dense univariate polynomials mod p: lists of residues, constant term first,
# no trailing zeros.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _udivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    inv = pow(b[-1], -1, p)
    for s in range(len(r) - 1 - db, -1, -1):
        c = r[s + db] * inv % p
        q[s] = c
        if c:
            for i in range(db):
                r[s + i] = (r[s + i] - c * b[i]) % p
    return q, _trim(r[:db])


def _ugcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p; the gcd of two zero polynomials is zero."""
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _umul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return [c % p for c in out]


def _ueval(a: list[int], t: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * t + c) % p
    return acc


# Bivariate polynomials: over Z as {(i, j): coefficient of x^i y^j}; mod p
# as rows, row i the univariate polynomial in y multiplying x^i.

_BiPoly = dict[tuple[int, int], int]


def _bimul(a: _BiPoly, b: _BiPoly) -> _BiPoly:
    """a * b over Z, keyed in no order."""
    out: _BiPoly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _width(bound: int) -> int:
    """Slot bits for coefficients up to ``bound``: its bits, a sign bit, whole bytes."""
    return (bound.bit_length() + 8) & ~7


def _pack(F: _BiPoly, k: int, W: int) -> int:
    """F(2^(kW), 2^k): x^i y^j, for j < W, in slot i * W + j of k bits.  A
    slot in [-2^(k-1), 2^(k-1)) is read back by _unpack as a signed digit:
    it adds 2^(k-1) to every slot, which carries nowhere, and splits bytes."""
    return sum(c << k * (i * W + j) for (i, j), c in F.items())


def _unpack(N: int, k: int, W: int, n: int) -> _BiPoly:
    """The body read from the packed N, whose nonzero slots are among its
    first n, keyed in decreasing lex order with the zeros dropped.  All n
    slots are split, read and shifted back at once, top slot first; only
    the nonzero ones get a key, (s // W, s % W) for slot s."""
    kb, half = k >> 3, 1 << (k - 1)
    raw = (N + int.from_bytes((b"\x80" + bytes(kb - 1)) * n, "big")).to_bytes(kb * n, "big")
    slots = struct.unpack("%ds" % kb * n, raw)
    digits = list(map(sub, map(int.from_bytes, slots, itertools.repeat("big")), itertools.repeat(half)))
    keys = map(divmod, itertools.compress(range(n - 1, -1, -1), digits), itertools.repeat(W))
    return dict(zip(keys, filter(None, digits)))


def _content_free(F: _BiPoly) -> _BiPoly:
    """F divided by the gcd of its coefficients."""
    g = math.gcd(*F.values())
    return F if g == 1 else {e: c // g for e, c in F.items()}


def _exact_quotient(F: _BiPoly, C: _BiPoly) -> _BiPoly | None:
    """F / C for a primitive C, or None when C does not divide F.

    Lex division on integers.  By Gauss's lemma a quotient of an integral F
    by a primitive C is integral, and every leading term met while dividing
    is a term of the quotient times the leading term of C: so the first
    leading monomial or coefficient that C's does not divide proves the
    division inexact.  A one-term C divides term by term.  Otherwise each
    leading monomial is popped off the end of the ascending list of keys
    that entered the dividend, skipping those whose terms cancelled; a
    canonical F, in decreasing lex order, sorts in one linear pass.  The
    quotient's keys come out in decreasing lex order.
    """
    lead = max(C)
    (ci, cj), cc = lead, C[lead]
    if len(C) == 1:
        if any(i < ci or j < cj or c % cc for (i, j), c in F.items()):
            return None
        return {(i - ci, j - cj): c // cc for (i, j), c in sorted(F.items(), reverse=True)}
    tail = [(e, c) for e, c in C.items() if e != lead]
    p, q = dict(F), {}
    keys = sorted(p)
    # p holds no zeros, and its leading monomial strictly decreases.
    while keys:
        e = keys.pop()
        if e not in p:
            continue
        i, j = e[0] - ci, e[1] - cj
        if i < 0 or j < 0:
            return None
        s, r = divmod(p.pop(e), cc)
        if r:
            return None
        q[i, j] = s
        for (di, dj), dc in tail:
            t = (i + di, j + dj)
            if t not in p:
                insort(keys, t)
            v = p.get(t, 0) - s * dc
            if v:
                p[t] = v
            else:
                del p[t]
    return q


def _divides(c: TriHomPoly, degree: int, F: _BiPoly) -> bool:
    """True iff the nonzero c divides the homogeneous polynomial of
    ``degree`` that F in Z[x, y] dehomogenises (F = 0 included)."""
    if not F:
        return True
    C = c._body
    # The power of z dividing each: its degree less the top degree of its body.
    if degree - max(i + j for i, j in F) < c.degree - max(i + j for i, j in C):
        return False
    return _exact_quotient(F, _content_free(C)) is not None


def _rows(F: _BiPoly, p: int) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(max(i for i, _ in F) + 1)]
    for (i, j), c in F.items():
        row = rows[i]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c % p
    return [_trim(r) for r in rows]


def _primitive(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """(content, primitive part) in Z_p[y][x]."""
    content: list[int] = []
    for r in rows:
        content = _ugcd(content, r, p)
        if len(content) == 1:
            return content, rows
    return content, [_udivmod(r, content, p)[0] for r in rows]


def _gcd_mod(
    A: list[list[int]], B: list[list[int]], p: int, points: Iterator[int]
) -> list[list[int]]:
    """gcd of A and B in Z_p[x, y] with lex-leading coefficient one, or a
    multiple of it if every point taken from ``points`` is unlucky.  Both
    x-leading rows are nonzero."""
    ca, A = _primitive(A, p)
    cb, B = _primitive(B, p)
    content = _ugcd(ca, cb, p)
    gamma = _ugcd(A[-1], B[-1], p)
    bound = len(gamma) - 1 + min(max(map(len, A)), max(map(len, B))) - 1
    used, degree = 0, None
    while used <= bound:
        alpha = next(points)
        scale = _ueval(gamma, alpha, p)
        if not scale:
            continue
        u = _ugcd(
            _trim([_ueval(r, alpha, p) for r in A]), _trim([_ueval(r, alpha, p) for r in B]), p
        )
        if degree is None or len(u) < degree:
            if len(u) == 1:
                return [content]
            degree, used, interp, modulus = len(u), 0, [[] for _ in u], [1]
        elif len(u) > degree:
            continue
        inv = pow(_ueval(modulus, alpha, p), -1, p)
        for row, v in zip(interp, u):
            t = (v * scale - _ueval(row, alpha, p)) * inv % p
            if t:
                row.extend([0] * (len(modulus) - len(row)))
                for k, m in enumerate(modulus):
                    row[k] = (row[k] + t * m) % p
        modulus = _umul(modulus, [-alpha % p, 1], p)
        used += 1
    rows = [_umul(content, r, p) for r in _primitive(interp, p)[1]]
    inv = pow(rows[-1][-1], -1, p)
    return [[c * inv % p for c in r] for r in rows]


# The powers of _POINT, _POINT ** e at index e, kept for later calls as _PRIMES
# is: _lines extends the list to the degrees it meets.
_POWERS = [1]


def _lines(F: _BiPoly) -> tuple[list[int], list[int]]:
    """The coefficients of F(x, _POINT) and of F(_POINT, y), constant term first."""
    di, dj = map(max, zip(*F))
    powers = _POWERS
    while len(powers) <= max(di, dj):
        powers.append(powers[-1] * _POINT)
    fx, fy = [0] * (di + 1), [0] * (dj + 1)
    for (i, j), c in F.items():
        fx[i] += c * powers[j]
        fy[j] += c * powers[i]
    return fx, fy


def _reduced(h: list[int]) -> list[int]:
    """h in Z[x] without its content, power of x and trailing zeros; [] for 0.
    h itself, not a copy, when it has none of them."""
    g = math.gcd(*h)
    if g == 1 and h[0] and h[-1]:
        return h
    h = _trim([c // g for c in h]) if g else []
    return h[next((e for e, c in enumerate(h) if c), 0) :]


def _coprime_lines(f: list[int], g: list[int]) -> bool:
    """True only if f and g in Z[x], by their coefficients, share no factor
    of positive degree: not both vanish at 0, and one has a single nonzero
    coefficient (so its _reduced form is a nonzero constant), or both are
    nonzero and their _reduced forms pass the lemma at xi = 2^s >= 2N + 2 and
    >= 2^64, since a larger xi makes an accidental common factor rarer."""
    if not (f[0] or g[0]):
        return False
    if len(f) - f.count(0) == 1 or len(g) - g.count(0) == 1:
        return True
    f, g = _reduced(f), _reduced(g)
    if not (f and g):
        return False
    N = min(max(max(f), -min(f)), max(max(g), -min(g)))
    s = max((2 * N + 1).bit_length(), 64)
    gamma = math.gcd(_at_power_of_two(f, s), _at_power_of_two(g, s))
    return 0 < gamma < 1 << (s - 1)


def _at_power_of_two(h: list[int], s: int) -> int:
    """h(2^s), by Horner's rule on shifts."""
    v = 0
    for c in reversed(h):
        v = (v << s) + c
    return v


def _coprime(F: _BiPoly, G: _BiPoly) -> bool:
    """True only if gcd(F, G) is constant: route 1, with lines at t = _POINT."""
    fx, fy = _lines(F)
    if not fx[-1]:
        return False
    gx, gy = _lines(G)
    return _coprime_lines(fx, gx) and _coprime_lines(fy, gy)


_PACKED_BITS = 250_000  # the largest packed operand; crossover in CHANGES.md


def _packed_parts(F: _BiPoly, G: _BiPoly) -> tuple[_BiPoly, _BiPoly, _BiPoly] | None:
    """(C, F / C, G / C) from the packed gcd, or None.  The slots fit the lesser
    top coefficient of F and G, and 8 bits more for an integer cofactor: so
    N >= 1, and C, read at every slot up to N's top digit, is nonzero."""
    W = max(j for _, j in itertools.chain(F, G)) + 1
    k = _width(min(max(map(abs, H.values())) for H in (F, G)) << 8)
    if k * (max(i for i, _ in itertools.chain(F, G)) + 1) * W > _PACKED_BITS:
        return None
    N = math.gcd(_pack(F, k, W), _pack(G, k, W))
    C = _unpack(N, k, W, N.bit_length() // k + 2)
    di = min(i for i, _ in itertools.chain(F, G)) - min(i for i, _ in C)
    dj = min(j for _, j in itertools.chain(F, G)) - min(j for _, j in C)
    s = 1 if next(iter(C.values())) > 0 else -1
    C = _content_free({(i + di, j + dj): s * c for (i, j), c in C.items()})
    a = _exact_quotient(F, C)
    b = _exact_quotient(G, C) if a is not None else None
    return (C, a, b) if b is not None and _coprime(a, b) else None


def _candidates(F: _BiPoly, G: _BiPoly) -> Iterator[_BiPoly]:
    """Integer multiples of gcd(F, G) rebuilt by CRT, each one unchanged by
    the last prime; a constant is yielded only when proven by Brown's."""
    lf, lg = F[max(F)], G[max(G)]
    scale = math.gcd(lf, lg)
    lead: tuple[int, int] | None = None
    # Each prime takes fresh points, so a point unlucky over Z is used once.
    points = itertools.count(_POINT)
    for p in _primes():
        if lf % p == 0 or lg % p == 0:
            continue
        rows = _gcd_mod(_rows(F, p), _rows(G, p), p, points)
        top = (len(rows) - 1, len(rows[-1]) - 1)
        if top == (0, 0):
            yield {(0, 0): 1}
            return
        if lead is None or top < lead:
            lead, acc, modulus, last = top, {}, 1, None
        elif top > lead:
            continue
        image = {(i, j): c * scale % p for i, r in enumerate(rows) for j, c in enumerate(r) if c}
        inv = pow(modulus, -1, p)
        for key in acc.keys() | image.keys():
            r = acc.get(key, 0)
            acc[key] = r + modulus * ((image.get(key, 0) - r) * inv % p)
        modulus *= p
        lifted = {k: v - modulus if 2 * v > modulus else v for k, v in acc.items() if v}
        if lifted == last:
            yield lifted
        last = lifted


def _gcd_parts(F: _BiPoly, G: _BiPoly) -> tuple[_BiPoly, _BiPoly, _BiPoly] | None:
    """(C, F / C, G / C) for nonzero F and G, C their gcd, primitive and keyed
    in decreasing lex order; None when the gcd is proven constant: by a
    constant F or G, or routes 1-3.  The test reads no key order, as _common
    passes an _axpy sum, whose first key need not lead."""
    if len(F) == 1 and (0, 0) in F or len(G) == 1 and (0, 0) in G or _coprime(F, G):
        return None
    if (parts := _packed_parts(F, G)) is not None:
        return parts
    for candidate in _candidates(F, G):
        if max(candidate) == (0, 0):
            return None
        C = _lex(_content_free(candidate))
        a = _exact_quotient(F, C)
        b = _exact_quotient(G, C) if a is not None else None
        if b is not None:
            return C, a, b
    raise AssertionError("unreachable: there is always another prime")


def _axpy(F: _BiPoly, s: int, G: _BiPoly) -> _BiPoly:
    """F + s * G, with no zero coefficient."""
    out = dict(F)
    for e, c in G.items():
        v = out.get(e, 0) + s * c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


# The multiplier of the one-gcd content of three polynomials (_common).
_LAMBDA = 3


def _common(Fs: list[_BiPoly]) -> tuple[_BiPoly | None, list[_BiPoly]]:
    """(C, [F / C for F in Fs]) for one to three nonzero Fs, C their gcd,
    primitive and keyed in decreasing lex order; (None, Fs) when it is 1.

    Three cost one gcd: g = gcd(F0, F1 + lambda F2) is accepted when it also
    divides F2.  Then it divides F1, so gcd(F0, F1, F2), which divides F0 and
    F1 + lambda F2 and so g, is g; and F1 / g = (F1 + lambda F2) / g -
    lambda F2 / g.  Otherwise the gcd is gcd(g, F2), one gcd more.
    """
    if len(Fs) == 1:
        (F,) = Fs
        if max(F) == (0, 0):
            return None, Fs
        C = _content_free(F)
        e = next(iter(F))
        return C, [{(0, 0): F[e] // C[e]}]
    if len(Fs) == 2:
        parts = _gcd_parts(*Fs)
        return (None, Fs) if parts is None else (parts[0], list(parts[1:]))
    F0, F1, F2 = Fs
    g, S = F0, _axpy(F1, _LAMBDA, F2)
    if S:
        parts = _gcd_parts(F0, S)
        if parts is None:
            return None, Fs
        g, Q0, QS = parts
        Q2 = _exact_quotient(F2, g)
        if Q2 is not None:
            Q1 = _lex(_axpy(QS, -_LAMBDA, Q2))
            return g, [Q0, Q1, Q2]
    parts = _gcd_parts(g, F2)
    if parts is None:
        return None, Fs
    C = parts[0]
    return C, [_exact_quotient(F, C) for F in Fs]


def _primitive_parts(
    polys: Sequence[_Poly], normalise: bool = False
) -> tuple[_Poly, tuple[_Poly, ...]]:
    """(content, parts) of UniPolys or of TriHomPolys, the front end of every
    gcd with cofactors: the lex-normalised (for UniPolys, monic) gcd of the
    nonzero polys (all zero is refused) and each poly divided by it, zero for
    a zero poly.  With ``normalise``, the parts are scaled so that the first
    nonzero one leads with one.  The gcd is z^m times that of the bodies
    (_common); the parts are built from its quotients, or are the polys
    themselves when the gcd is 1 (and, with ``normalise``, that coefficient
    is already one)."""
    live = [p for p in polys if p._body]
    if not live:
        raise ValueError("gcd of three zero polynomials")
    C, quotients = _common([p._body for p in live])
    first = live[0]
    lead = next(iter(first._body))
    # z^m divides every poly; m = 0 when the first leads free of z, as a UniPoly does.
    m = 0 if sum(lead) == first.degree else min(p.degree - max(map(sum, p._body)) for p in live)
    if C is None and not m and not (normalise and first._body[lead] != first._den):
        return first._ONE, tuple(polys)
    # f = z^a F / den and the gcd is z^m C / lc, so f / gcd = lc / den * z^(a-m) * F / C,
    # and the part of the first nonzero poly leads with lc / den_0 * lead(F_0 / C).
    C = C or {(0, 0): 1}
    lc, degree = next(iter(C.values())), m + max(map(sum, C))
    num, scale = (first._den, next(iter(quotients[0].values()))) if normalise else (lc, 1)
    rest, parts = iter(quotients), []
    for p in polys:
        if p:
            Q = next(rest)
            body = Q if num == 1 else {e: c * num for e, c in Q.items()}
            parts.append(first._make(p.degree - degree, body, p._den * scale))
        else:
            parts.append(first._make(max(p.degree - degree, 0), {}, 1))
    return first._make(degree, C, lc), tuple(parts)


def tri_content_gcd(f: TriHomPoly, g: TriHomPoly, k: TriHomPoly) -> TriHomPoly:
    """GCD of three homogeneous polynomials, lex-normalised; rejects (0,0,0)."""
    return _primitive_parts((f, g, k))[0]

"""The abelian matrix group [[a1, h a2], [a2, a1]] over Q(x).

For a squarefree h of even degree 2g + 2 >= 4, these matrices with
(a1, a2) != (0, 0) form a commutative group under matrix product: the
multiplicative group of the field Q(x)[y] / (y^2 - h).  Their determinant
a1^2 - h a2^2 is the norm of a1 + a2 y and is never zero: a1^2 = h a2^2
with a2 != 0 would make h = (a1 / a2)^2 a square in Q(x), and a squarefree
h of positive degree is not one.  So no element checks it, and it is
computed only on request (``JonqElement.det``).  Each element induces the
plane map

    (x, y) -> (x, (a1 y + h a2) / (a2 y + a1)),

which preserves every vertical line x = const and fixes the hyperelliptic
curve y^2 = h(x) pointwise, certified by the exact minor-divisibility
test on the homogenised curve.  (The identity (a1 y + h a2)^2 -
h (a2 y + a1)^2 = det (y^2 - h) holds for every (a1, a2), so it is not
checked.)  ``RatFunc`` reduces by the modular GCD of ``exact_algebra``.

Orders in the projective group are classified by lambda = trace^2 / det:
finite order forces lambda to be a constant among {4, 0, 1, 2, 3}
(orders 1, 2, 3, 4, 6); anything else, including every non-constant
lambda, has infinite order.  For elements of this group with a1 and a2
both nonzero, lambda = 4 a1^2 / (a1^2 - h a2^2) constant would force h
times a square to be constant, impossible for squarefree nonconstant h,
so only orders 1 (a2 = 0), 2 (a1 = 0) and infinity occur.  With
a1 = p1 / q1 and a2 = p2 / q2 reduced, lambda is read in closed form,

    lambda = 4 (p1 q2)^2 / ((p1 q2)^2 - h (p2 q1)^2),

from polynomial products and one normalisation of the fraction; it is 4
when a2 = 0 and 0 when a1 = 0.
"""

from __future__ import annotations

from ._record import Record
from .cremona_maps import CremonaMap, _jonquieres_map
from .errors import GroupMismatch, InvalidElement
from .exact_algebra import (
    RatFunc,
    TRI_Y,
    TRI_Z,
    TriHomPoly,
    UniPoly,
    homogenize_uni,
    is_squarefree,
)

PGL_INFINITE = "infinite"

PglOrder = int | str


def _check_h(h: UniPoly) -> None:
    if h.is_zero:
        raise InvalidElement("h must be nonzero")
    if h.degree < 4 or h.degree % 2 != 0:
        raise InvalidElement(
            f"h must have even degree 2g + 2 with g >= 1, got degree {h.degree}"
        )
    if not is_squarefree(h):
        raise InvalidElement("h must be squarefree")


class JonqElement(Record):
    """Group element (a1, a2) over a fixed squarefree even-degree h."""

    __slots__ = ("a1", "a2", "h")

    def __init__(self, a1: RatFunc, a2: RatFunc, h: UniPoly) -> None:
        _check_h(h)
        self._init(a1, a2, h)
        self._check_entries()

    def _check_entries(self) -> None:
        if self.a1.is_zero and self.a2.is_zero:
            raise InvalidElement("a1 and a2 cannot both vanish")

    @classmethod
    def of(cls, h: UniPoly, a1, a2) -> "JonqElement":
        return cls(RatFunc.of(a1), RatFunc.of(a2), h)

    def det(self) -> RatFunc:
        """a1^2 - h a2^2, computed on each call; only ``invert`` needs it.
        It is never zero, so nothing checks it: for a2 != 0 it would make
        the squarefree h the square (a1 / a2)^2, and for a2 = 0 it is a1^2
        with a1 != 0."""
        return self.a1 * self.a1 - RatFunc.of(self.h) * (self.a2 * self.a2)


def _over(u: JonqElement, a1: RatFunc, a2: RatFunc) -> JonqElement:
    """(a1, a2) over u.h, set unchecked: u's constructor has checked h, and
    (a1, a2) is a product or an inverse of elements of the group, so it is
    not (0, 0) and its determinant, never zero, needs no test either."""
    w = object.__new__(JonqElement)
    w._init(a1, a2, u.h)
    return w


def mul(u: JonqElement, v: JonqElement) -> JonqElement:
    """Matrix product inside the group: stays of the same shape."""
    if u.h != v.h:
        raise GroupMismatch("elements built over different polynomials h")
    hr = RatFunc.of(u.h)
    a1, a2 = u.a1 * v.a1 + hr * (u.a2 * v.a2), u.a1 * v.a2 + u.a2 * v.a1
    return _over(u, a1, a2)


def invert(u: JonqElement) -> JonqElement:
    """Inverse (a1 / det, -a2 / det); mul(u, invert(u)) is scalar."""
    e = u.det().inverse()
    return _over(u, u.a1 * e, -u.a2 * e)


def _order(lam: RatFunc, scalar: bool) -> PglOrder:
    """Order in the projective group over Q(x) of a matrix with
    lambda = trace^2 / det, scalar or not.

    Non-constant lambda means infinite order; constant lambda 4 is the
    identity (if scalar) or a unipotent of infinite order; constants 0, 1,
    2, 3 give orders 2, 3, 4, 6; every other constant is infinite order.
    """
    if not lam.is_constant:
        return PGL_INFINITE
    # The constant is body / den in lowest terms: an integer only when den is 1.
    num = lam.num
    value = num._body.get((0, 0), 0) if num._den == 1 else None
    if value == 4:
        return 1 if scalar else PGL_INFINITE
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(value, PGL_INFINITE)


# (lambda, note) of the two special elements.
_INVOLUTION = (RatFunc.of(0), "a1 = 0: the element is the hyperelliptic involution, order 2")
_SCALAR = (RatFunc.of(4), "a2 = 0: the element is scalar, projectively the identity")


class OrderReport(Record):
    """Outcome of the finite-order check for a group element;
    ``conclusion_holds`` says whether the order landed in {1, 2, infinite}."""

    __slots__ = ("order", "lam", "lam_constant", "conclusion_holds", "note")


def leminv_check(u: JonqElement) -> OrderReport:
    """Classify the order of u and check it lands in {1, 2, infinite}.

    Orders 3, 4 and 6 would need lambda = trace^2/det to be a nonzero
    constant, which forces h (a2/a1)^2 constant, impossible when h is
    squarefree of positive degree; the report records lambda and the
    verdict.
    """
    # [[a1, h a2], [a2, a1]] has lambda = 4 a1^2 / (a1^2 - h a2^2), and is
    # scalar iff a2 = 0.
    a1, a2 = u.a1, u.a2
    if a1.is_zero:
        lam, note = _INVOLUTION
    elif a2.is_zero:
        lam, note = _SCALAR
    else:
        s, t = a1.num * a2.den, a2.num * a1.den
        s = s * s
        lam = RatFunc(s * 4, s - u.h * (t * t))
        note = (
            "a1, a2 both nonzero: lambda = 4 a1^2 / (a1^2 - h a2^2) cannot be "
            "constant for squarefree nonconstant h, so the order is infinite"
        )
    order = _order(lam, a2.is_zero)
    return OrderReport(order, lam, lam.is_constant, order in (1, 2, PGL_INFINITE), note)


def hyperelliptic_curve_poly(h: UniPoly) -> TriHomPoly:
    """Plane model of y^2 = h(x): the degree-(2g+2) form y^2 z^(2g) - H(x, z)."""
    _check_h(h)
    return _curve_poly(h)


def _curve_poly(h: UniPoly) -> TriHomPoly:
    d = h.degree
    h_hom = homogenize_uni(h, 0, d)
    return TRI_Y * TRI_Y * TRI_Z ** (d - 2) - h_hom


def to_cremona(u: JonqElement) -> CremonaMap:
    """The plane map (x, y) -> (x, (a1 y + h a2) / (a2 y + a1)) induced by u;
    preserves the pencil of lines x = const."""
    return _jonquieres_map((u.a1, RatFunc.of(u.h) * u.a2, u.a2, u.a1), 1)

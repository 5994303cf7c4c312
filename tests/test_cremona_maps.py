import hashlib
import json
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cremona_kit import jonquieres as jq
from cremona_kit import serialization as ser
from cremona_kit.cli import main
from cremona_kit.cremona_maps import (
    CremonaMap,
    _jonquieres_map,
    compose,
    fixes_curve_pointwise,
    is_identity,
    make_H_element,
    make_linear_G,
    make_phi,
    max_degree_cap,
)
from cremona_kit.errors import DegreeCapExceeded
from cremona_kit.exact_algebra import (
    RatFunc,
    TRI_X,
    TRI_Y,
    TRI_Z,
    TriHomPoly,
    UniPoly,
    _substitute,
    tri_content_gcd,
)
from cremona_kit.linear_systems import LinSysData, free_intersection

from _util import (
    H4,
    assert_route_one_as_before,
    encode_trihom_oracle,
    fixes_curve_pointwise_oracle,
    fractions_built,
    json_of,
    monomials,
    rand_frac,
    rand_jonq,
    rand_ratfunc,
    tri_to_sympy,
    trihoms,
)

LINE_X = TriHomPoly.monomial((1, 0, 0))
IDENTITY = CremonaMap.of(TRI_X, TRI_Y, TRI_Z)
T = UniPoly.variable()


def rand_phi(rng):
    while True:
        mu, nu = rand_frac(rng), rand_frac(rng)
        if (mu, nu) != (0, 0):
            return make_phi(mu, nu)


_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_NONZERO_RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def rand_G(rng):
    a = Fraction(0)
    while a == 0:
        a = rand_frac(rng)
    return make_linear_G(a, rand_frac(rng), rand_frac(rng))


def rand_H(rng):
    alpha = RatFunc(UniPoly(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))))
    beta = RatFunc.of(0)
    while beta.is_zero:
        beta = RatFunc(UniPoly(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))))
    return make_H_element(alpha, beta)


class TestConstructors:
    def test_identity_forms(self):
        assert is_identity(make_linear_G(1, 0, 0))
        assert is_identity(make_H_element(RatFunc.of(0), RatFunc.of(1)))
        assert is_identity(
            CremonaMap.of(TRI_X * 2, TRI_Y * 2, TRI_Z * 2)
        )

    def test_linear_G_rejects_zero_a(self):
        with pytest.raises(ValueError):
            make_linear_G(0, 1, 1)

    def test_H_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            make_H_element(RatFunc.of(1), RatFunc.of(0))

    def test_phi_rejects_zero_parameters(self):
        with pytest.raises(ValueError):
            make_phi(0, 0)

    def test_phi_is_quadratic(self):
        assert make_phi(1, 1).degree == 2

    def test_phi_nu_only_fixes_line(self):
        phi = make_phi(0, 1)
        assert fixes_curve_pointwise(phi, LINE_X)
        assert is_identity(compose(phi, phi))

    def test_H_quadratic_example(self):
        # alpha = beta = 1 clears to (x z : y (x + z) : z (x + z))
        F = make_H_element(RatFunc.of(1), RatFunc.of(1))
        expected = CremonaMap.of(
            TRI_X * TRI_Z, TRI_Y * (TRI_X + TRI_Z), TRI_Z * (TRI_X + TRI_Z)
        )
        assert F == expected

    def test_content_removed_on_construction(self):
        common = TRI_X + TRI_Y
        F = CremonaMap.of(common * TRI_X, common * TRI_Y, common * TRI_Z)
        assert is_identity(F)


class TestComposition:
    def test_identity_neutral(self):
        rng = random.Random(11)
        for _ in range(5):
            F = rand_phi(rng)
            assert compose(F, IDENTITY) == F
            assert compose(IDENTITY, F) == F

    def test_phi_involution(self):
        rng = random.Random(22)
        for _ in range(10):
            phi = rand_phi(rng)
            assert is_identity(compose(phi, phi))

    def test_G_inverse_pair(self):
        assert is_identity(compose(make_linear_G(1, 1, 1), make_linear_G(1, -1, -1)))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(_NONZERO_RATIONALS, _RATIONALS, _RATIONALS, _NONZERO_RATIONALS, _RATIONALS, _RATIONALS)
    def test_G_family_closed(self, a1, b1, c1, a2, b2, c2):
        composite = compose(make_linear_G(a1, b1, c1), make_linear_G(a2, b2, c2))
        # substituting the inner map scales the affine part by a2
        assert composite == make_linear_G(a1 * a2, b2 + a2 * b1, c2 + a2 * c1)

    def test_phi_cross_composition_degree(self):
        # content of degree 1 drops the raw degree 4 to 3
        F = compose(make_phi(1, 0), make_phi(0, 1))
        assert F.degree == 3

    def test_content_factor_of_phi_squared(self):
        phi = make_phi(1, 0)
        raw = [f.substitute(phi.components) for f in phi.components]
        content = tri_content_gcd(*raw)
        # expanding by hand: the three components share exactly y^2 (x + y)
        assert content == TRI_Y * TRI_Y * (TRI_X + TRI_Y)
        # removing it leaves a linear triple proportional to the identity
        assert is_identity(CremonaMap.of(*raw))

    def test_composition_matches_sympy(self):
        rng = random.Random(44)
        import sympy

        from _util import SX, SY, SZ

        for _ in range(5):
            F, G = rand_phi(rng), rand_phi(rng)
            ours = compose(F, G)
            subs = {
                SX: tri_to_sympy(G.f0),
                SY: tri_to_sympy(G.f1),
                SZ: tri_to_sympy(G.f2),
            }
            raw = [sympy.expand(tri_to_sympy(f).subs(subs, simultaneous=True)) for f in F.components]
            g = sympy.gcd(sympy.gcd(raw[0], raw[1]), raw[2])
            reduced = [sympy.cancel(r / g) for r in raw]
            ratio = sympy.cancel(reduced[0] / tri_to_sympy(ours.f0))
            for mine, theirs in zip(ours.components, reduced):
                assert sympy.expand(theirs - ratio * tri_to_sympy(mine)) == 0

    def test_associativity(self):
        rng = random.Random(55)
        for _ in range(5):
            F, G, H = rand_G(rng), rand_phi(rng), rand_H(rng)
            assert compose(compose(F, G), H) == compose(F, compose(G, H))

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "3")
        assert max_degree_cap() == 3
        phi = make_phi(1, 1)
        with pytest.raises(DegreeCapExceeded):
            compose(phi, phi)

    def test_invalid_cap_value(self, monkeypatch):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "many")
        with pytest.raises(DegreeCapExceeded):
            max_degree_cap()


ZERO_1 = TriHomPoly.of({}, degree=1)
# Canonical maps that are not birational: onto a conic, onto the line y = 0
# and onto the line z = 0.
NON_BIRATIONAL = (
    CremonaMap(TRI_X * TRI_X, TRI_X * TRI_Y, TRI_Y * TRI_Y),
    CremonaMap(TRI_X, ZERO_1, TRI_Z),
    CremonaMap(TRI_X, TRI_Y, ZERO_1),
)


# Per degree d, the coefficients of three forms of degree d, zero in half.
_MAP_COEFFS = {
    d: st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=n, max_size=n)
    for d, n in ((1, 9), (2, 18))
}


@st.composite
def canonical_maps(draw):
    """A canonical map of degree 1 or 2, birational or not: one of
    NON_BIRATIONAL, or drawn components, often sparse or zero, with the
    content removed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(NON_BIRATIONAL))
    degree = draw(st.integers(1, 2))
    coeffs = draw(_MAP_COEFFS[degree])
    terms = monomials(degree)
    components = [TriHomPoly.of(dict(zip(terms, coeffs[i::3])), degree=degree) for i in (0, 1, 2)]
    try:
        return CremonaMap(*components)
    except ValueError:  # all zero, or a content of the full degree
        assume(False)


class TestComposeNeverZero:
    """``compose`` has no branch for the zero triple.  G's components are
    coprime of degree >= 1, so G's image is not a point, and F's coprime
    components have finitely many common zeros: some F_i(G) is nonzero."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(canonical_maps(), canonical_maps())
    @example(NON_BIRATIONAL[0], NON_BIRATIONAL[1])
    @example(NON_BIRATIONAL[1], NON_BIRATIONAL[2])
    @example(NON_BIRATIONAL[2], NON_BIRATIONAL[0])
    def test_substituted_triple_is_nonzero(self, F, G):
        assert not all(f.substitute(G.components).is_zero for f in F.components)
        # A composite of maps that are not birational may still be a point.
        try:
            compose(F, G)
        except ValueError as exc:
            assert str(exc) == "map degenerates to a constant triple"

    def test_zero_triple_is_refused(self):
        zero = TriHomPoly.of({}, degree=2)
        with pytest.raises(ValueError) as info:
            CremonaMap.of(zero, zero, zero)
        assert str(info.value) == "map components are all zero"


class TestIsIdentity:
    def test_cases(self):
        assert is_identity(IDENTITY)
        assert is_identity(CremonaMap.of(TRI_X * 2, TRI_Y * 2, TRI_Z * 2))
        assert not is_identity(CremonaMap.of(TRI_X, TRI_Y, TRI_X + TRI_Z))
        # The constructor itself removes a constant or polynomial content.
        for F in (
            CremonaMap(TRI_X * 2, TRI_Y * 2, TRI_Z * 2),
            CremonaMap(TRI_X * TRI_Y, TRI_Y * TRI_Y, TRI_Z * TRI_Y),
        ):
            assert F.degree == 1 and is_identity(F)

    def test_builds_no_map(self, monkeypatch):
        """The verdict reads the stored components: under a degree cap of 0,
        which refuses every map, maps built before it are still judged."""
        maps = [IDENTITY, make_phi(1, 1), make_linear_G(2, 1, 3)]
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "0")
        assert [is_identity(F) for F in maps] == [True, False, False]


class TestFixesCurvePointwise:
    def test_linear_family_fixes_line(self):
        rng = random.Random(66)
        for _ in range(10):
            assert fixes_curve_pointwise(rand_G(rng), LINE_X)

    def test_phi_fixes_line(self):
        rng = random.Random(77)
        for _ in range(10):
            assert fixes_curve_pointwise(rand_phi(rng), LINE_X)

    def test_H_fixes_line(self):
        rng = random.Random(88)
        for _ in range(5):
            assert fixes_curve_pointwise(rand_H(rng), LINE_X)

    def test_negative_case(self):
        # a generic projectivity moves the line x = 0
        F = CremonaMap(TRI_Y, TRI_Z, TRI_X)
        assert not fixes_curve_pointwise(F, LINE_X)

    def test_fixing_maps_form_a_group(self):
        rng = random.Random(99)
        makers = [rand_G, rand_phi, rand_H]
        for _ in range(8):
            F = rng.choice(makers)(rng)
            G = rng.choice(makers)(rng)
            assert fixes_curve_pointwise(F, LINE_X)
            assert fixes_curve_pointwise(G, LINE_X)
            assert fixes_curve_pointwise(compose(F, G), LINE_X)

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError):
            fixes_curve_pointwise(IDENTITY, TriHomPoly.zero(1))

    def test_constant_curve_rejected(self):
        with pytest.raises(ValueError):
            fixes_curve_pointwise(IDENTITY, TriHomPoly.monomial((0, 0, 0), 3))


def _fixation_maps():
    """The identity, constructor maps with rational parameters, compositions
    of them, two group elements over H4 and a projectivity moving x = 0."""
    rng = random.Random(2)
    singles = [make(rng) for make in (rand_G, rand_phi, rand_H) for _ in range(3)]
    pairs = [compose(rng.choice(singles), rng.choice(singles)) for _ in range(5)]
    elements = [jq.to_cremona(rand_jonq(rng, H4, max_deg=1)) for _ in range(2)]
    moving = CremonaMap(TRI_Y, TRI_Z, TRI_X)
    return [IDENTITY, *singles, *pairs, *elements, moving]


FIXATION_MAPS = _fixation_maps()
CURVE_H4 = jq.hyperelliptic_curve_poly(H4)


@st.composite
def fixation_curves(draw):
    """A rational multiple, mostly not primitive, of x times a power of z,
    of x times a polynomial, of the curve y^2 = h(x) for H4, or of any
    polynomial of positive degree."""
    scale = draw(st.sampled_from([Fraction(1), Fraction(-6, 5), Fraction(4), Fraction(2, 9)]))
    kind = draw(st.sampled_from(["line", "line times", "hyperelliptic", "any"]))
    if kind == "line":
        base = LINE_X * TriHomPoly.monomial((0, 0, draw(st.integers(0, 2))))
    elif kind == "line times":
        base = LINE_X * draw(trihoms(max_degree=2))
    elif kind == "hyperelliptic":
        base = CURVE_H4
    else:
        base = draw(trihoms(max_degree=3).filter(lambda f: f.degree > 0))
    return base * scale


class TestFixationOracle:
    """The integer certificate against the Fraction minors it replaced."""

    @given(st.sampled_from(FIXATION_MAPS), fixation_curves())
    @example(IDENTITY, TRI_Y * TRI_Y * Fraction(-6, 5) + TRI_Z * TRI_X * 4)
    @example(FIXATION_MAPS[-2], CURVE_H4 * Fraction(2, 9))
    @example(FIXATION_MAPS[-3], CURVE_H4 * Fraction(4))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_agrees_with_fraction_oracle(self, F, c):
        assert fixes_curve_pointwise(F, c) == fixes_curve_pointwise_oracle(F, c)

    def test_pool_has_both_verdicts(self):
        verdicts = {fixes_curve_pointwise(F, c) for F in FIXATION_MAPS for c in (LINE_X, CURVE_H4)}
        assert verdicts == {True, False}
        assert all(fixes_curve_pointwise(F, CURVE_H4) for F in FIXATION_MAPS[-3:-1])


class TestNonCommutativity:
    def test_witness(self):
        g = make_linear_G(2, 1, 3)
        ginv = make_linear_G(Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))
        assert is_identity(compose(g, ginv))
        h = make_H_element(RatFunc(T), RatFunc.of(1))
        hinv = make_H_element(RatFunc(-T), RatFunc.of(1))
        assert is_identity(compose(h, hinv))
        assert compose(g, h) != compose(h, g)
        commutator = compose(compose(g, h), compose(ginv, hinv))
        assert not is_identity(commutator)


class TestFreeIntersection:
    def test_disjoint_systems(self):
        for n in (1, 2, 5):
            lam = LinSysData.of(n, {"a": 1})
            phi = LinSysData.of(2, {"b": 1, "c": 1})
            assert free_intersection(lam, phi) == 2 * n

    def test_pencil_of_lines_selfmeets_nowhere(self):
        L = LinSysData.of(1, {"p": 1})
        assert free_intersection(L, L) == 0

    def test_net_against_sextic(self):
        cubics = LinSysData.of(3, {f"p{i}": 1 for i in range(7)})
        sextic = LinSysData.of(6, {f"p{i}": 2 for i in range(7)})
        assert free_intersection(cubics, sextic) == 4


# The baseline workloads of the ROADMAP, built from h1, h2, phi, g and g2.
H1 = make_H_element(RatFunc(T * T + UniPoly.constant(1)), RatFunc(T * 2 + UniPoly.constant(1)))
H2 = make_H_element(RatFunc(T * T + UniPoly.constant(3)), RatFunc(UniPoly.constant(2) - T))
PHI, G1, G2 = make_phi(2, 3), make_linear_G(2, 1, 3), make_linear_G(1, -2, 5)
A = reduce(compose, (G1, PHI, G2, PHI))
B = compose(G2, H1)
D = reduce(compose, (G1, H1, PHI))
F3 = reduce(compose, (G1, compose(H1, H2), PHI))
# sha256 of serialization.dumps(encode_map(compose(F3, B))), recorded with the
# earlier Fraction remainder-sequence GCD: the modular GCD must reproduce it.
F3B_SHA256 = "6a3fbbfe617e4f1ce116b15256c5222a07df4e61e99d56e69a069b0f74decc11"
# The same for compose(F3, F3), recorded with the earlier Fraction substitute:
# the integer substitute must reproduce it.
F3F3_SHA256 = "8e0e77fe69966ee8f4e5033ee8fb78f4bd9a0c1356815bd867196ce021135b94"


def word_and_inverse(gens):
    """W = gens[0] o gens[1] o ... and its inverse, from (map, inverse) pairs."""
    return reduce(compose, [g for g, _ in gens]), reduce(compose, [h for _, h in reversed(gens)])


def G_pair(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return make_linear_G(a, b, c), make_linear_G(1 / a, -b / a, -c / a)


def phi_pair(mu, nu):
    return make_phi(mu, nu), make_phi(mu, nu)


def H_pair(alpha, beta):
    alpha, beta = RatFunc.of(alpha), RatFunc.of(beta)
    return make_H_element(alpha, beta), make_H_element(-alpha * beta.inverse(), beta.inverse())


WORDS = {
    "GP": [G_pair(2, 1, 3), phi_pair(2, 3)],
    "PGP": [phi_pair(1, -2), G_pair(2, 1, -1), phi_pair(2, 3)],
    "GH": [G_pair(1, -2, 5), H_pair(RatFunc(UniPoly.of(1, 0, 1)), RatFunc(UniPoly.of(1, 2)))],
    "PH": [phi_pair(1, 1), H_pair(RatFunc(T + UniPoly.constant(1)), 2)],
    "HPG": [H_pair(RatFunc(T), -1), phi_pair(2, -1), G_pair(-1, 2, 1)],
}
# H o G o phi, of degree 8: W o W^-1 needs the cap raised to 64.
WORD_8 = [H_pair(RatFunc(UniPoly.of(1, 0, 1)), -1), G_pair(1, 1, 0), phi_pair(1, 1)]

# sha256 of the exit codes and stdout of the CLI requests of word_cli_digest,
# per word, recorded with the Fraction minors and the tri_divrem acceptance
# of GCD candidates: the integer certificate and acceptance must reproduce them.
WORD_CLI_SHA256 = {
    "GP": "5984b3f78983919b12e27a9db2b3db977185b629f937901ad25dce2f4e9447f8",
    "PGP": "71aafee6e9fe5093cec0c4274c49258a1d1506f73f2c184b73ca9f56e5d4793c",
    "GH": "847d3310f548a7e55ca6459fce02a50ad711f0dbc6063870de24aae2ae8695b0",
    "PH": "45aaec774b765d263560632509c08c42e186b5c1b2c9bf4660504f2b2072a1f0",
    "HPG": "1fa5aa0d43064e23902eb457bc2929be43cf56b812e384b6b322c26e88d67cd1",
    "HGP8": "f9cb0237515d4b3e7ff41f1bd16cf086b3985226443af90401d5a49959ddb3bf",
}


def word_cli_digest(gens, run):
    """map-compose of W o W^-1, W^-1 o W and gens[0] o (the rest of W), then
    map-fixcheck of W on x = 0, of W^-1 on 2/3 x z and of W on
    -6/5 x (x - 5/2 y); ``run(argv)`` returns (exit code, stdout)."""
    W, W_inv = word_and_inverse(gens)
    rest = reduce(compose, [g for g, _ in gens[1:]])
    enc, curve = (lambda F: json_of(ser.encode_map(F))), encode_trihom_oracle
    xz = LINE_X * TRI_Z * Fraction(2, 3)
    other = LINE_X * (TRI_X - TRI_Y * Fraction(5, 2)) * Fraction(-6, 5)
    requests = [
        ("map-compose", {"outer": enc(W), "inner": enc(W_inv)}),
        ("map-compose", {"outer": enc(W_inv), "inner": enc(W)}),
        ("map-compose", {"outer": enc(gens[0][0]), "inner": enc(rest)}),
        ("map-fixcheck", {"map": enc(W), "curve": curve(LINE_X)}),
        ("map-fixcheck", {"map": enc(W_inv), "curve": curve(xz)}),
        ("map-fixcheck", {"map": enc(W), "curve": curve(other)}),
    ]
    digest = hashlib.sha256()
    for command, payload in requests:
        code, out = run([command, "--inline", json.dumps(payload)])
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


class TestRouteOne:
    """The content GCD's certificate of coprimality gives its earlier answers
    on the components of maps and on the triples that compose hands to
    CremonaMap.of."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(canonical_maps(), canonical_maps())
    def test_composite_triples_answer_as_before(self, F, G):
        for triple in (F.components, G.components, _substitute(F.components, G.components)):
            assert_route_one_as_before(triple)


# Maps from the constructors, and each word of WORDS with its inverse.
_CANONICAL_MAPS = [
    IDENTITY,
    *(make(random.Random(3)) for make in (rand_G, rand_phi, rand_H)),
    H1,
    PHI,
    *(W for gens in WORDS.values() for W in word_and_inverse(gens)),
]


class TestCanonicalConstructor:
    """``CremonaMap(...)`` removes any content, rational or polynomial."""

    @given(
        st.sampled_from(_CANONICAL_MAPS),
        st.one_of(_NONZERO_RATIONALS, trihoms(max_degree=2)),
    )
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_scaled_triple_gives_the_map(self, F, g):
        scaled = [g * f for f in F.components]
        G = CremonaMap(*scaled)
        assert G == F and CremonaMap.of(*scaled) == F
        assert ser.dumps(ser.encode_map(G)) == ser.dumps(ser.encode_map(F))


class TestRoadmapBaselines:
    def test_map_pipeline_builds_no_fraction(self, capsys):
        """Composition, content removal and the fixation certificate run on
        the stored integer forms, and so do the decoder, the encoder with the
        writer and a whole map-compose call."""
        F, built = fractions_built(compose, D, B)
        assert built == 0
        fixed, built = fractions_built(fixes_curve_pointwise, F, TRI_X)
        assert fixed and built == 0
        payload = json.loads(ser.dumps(ser.encode_map(F)))
        decoded, built = fractions_built(ser.decode_map, payload)
        assert decoded == F and built == 0
        fresh = ser.decode_map(payload)
        encoded, built = fractions_built(lambda m: json_of(ser.encode_map(m)), fresh)
        assert encoded == payload and built == 0
        maps = {"outer": json_of(ser.encode_map(D)), "inner": json_of(ser.encode_map(B))}
        code, built = fractions_built(main, ["map-compose", "--inline", json.dumps(maps)])
        assert code == 0 and built == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_degrees(self):
        assert (A.degree, B.degree, D.degree, F3.degree) == (3, 4, 5, 6)

    def test_raw_BA_triple_is_coprime(self):
        raw = [f.substitute(A.components) for f in B.components]
        assert raw[0].degree == 12
        assert tri_content_gcd(*raw) == TriHomPoly.monomial((0, 0, 0))

    def test_DB_has_degree_18(self):
        assert compose(D, B).degree == 18

    def test_F3B_has_degree_22_and_recorded_output(self):
        F = compose(F3, B)
        assert F.degree == 22
        digest = hashlib.sha256(ser.dumps(ser.encode_map(F)).encode()).hexdigest()
        assert digest == F3B_SHA256

    def test_F3F3_has_degree_33_and_recorded_output(self, monkeypatch):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "36")
        F = compose(F3, F3)
        assert F.degree == 33
        digest = hashlib.sha256(ser.dumps(ser.encode_map(F)).encode()).hexdigest()
        assert digest == F3F3_SHA256

    @pytest.mark.parametrize("gens", list(WORDS.values()), ids=list(WORDS))
    def test_word_times_inverse_is_identity(self, gens):
        # The raw composite has degree deg(W)^2 and a content of degree
        # deg(W)^2 - 1 that is not a power of z.
        W, W_inv = word_and_inverse(gens)
        assert is_identity(compose(W, W_inv))
        assert is_identity(compose(W_inv, W))

    def test_degree_8_word_times_inverse_is_identity(self, monkeypatch):
        # H o G o phi: the raw composites have degree 64 and a content of
        # degree 63.
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "64")
        W, W_inv = word_and_inverse(WORD_8)
        assert (W.degree, W_inv.degree) == (8, 8)
        assert is_identity(compose(W, W_inv))
        assert is_identity(compose(W_inv, W))

    @pytest.mark.parametrize("name", [*WORDS, "HGP8"])
    def test_cli_outputs_are_recorded(self, name, capsys, monkeypatch):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "64")
        run = lambda argv: (main(argv), capsys.readouterr().out)
        assert word_cli_digest(WORDS.get(name, WORD_8), run) == WORD_CLI_SHA256[name]


# -- the de Jonquieres map constructors on a grid, pinned by digest ----------


def _map_outcome(build, *args):
    """The map's JSON, or the type and message of the error it raises."""
    try:
        return ser.dumps(ser.encode_map(build(*args)))
    except Exception as e:
        return f"{type(e).__name__}: {e}\n"


def _phi_cases():
    return [(mu, nu) for mu in range(-4, 5) for nu in (-3, -1, 0, Fraction(1, 2), 2)]


def _H_cases():
    rng = random.Random(71)
    cases = []
    for i in range(60):
        alpha = RatFunc.of(0) if i % 7 == 0 else rand_ratfunc(rng, 3)
        beta = RatFunc.of(0) if i % 10 == 0 else rand_ratfunc(rng, 3, nonzero=True)
        cases.append((alpha, beta))
    return cases


def _matrix_cases():
    """Entries of random matrices; every fifth has proportional rows."""
    rng = random.Random(73)
    cases = []
    for i in range(60):
        a11, a12, a21, a22 = (rand_ratfunc(rng, 2) for _ in range(4))
        if i % 5 == 0:
            k = rand_ratfunc(rng, 1, nonzero=True)
            a21, a22 = a11 * k, a12 * k
        cases.append((a11, a12, a21, a22))
    return cases


# family -> (constructor, cases, degree caps, None for the default).
MAP_GRID = {
    "phi": (make_phi, _phi_cases, (None, "4", "3", "2")),
    "H": (make_H_element, _H_cases, (None, "4", "3", "2")),
    # The entries as they are, singular ones included: the builder checks no
    # determinant.
    "trusted matrix": (lambda *e: _jonquieres_map(e, 1), _matrix_cases, (None, "4", "3", "2")),
}

# sha256 of the outcomes, cap after cap.
MAP_GRID_SHA256 = {
    "H": "9d0db8e05a1e64715a16c4e73de6d0d299c3dbb8b411c8168e04da47154f8bbb",
    "phi": "0affa043a38d38392528863b3152e514211fac13dfdb9af51b8bfb17ede6bc22",
    "trusted matrix": "b15f272f71b0620cba3a610bbc8d93d2d13720ce36158ccabd4b8d6e2983a847",
}


class TestMapGrid:
    @pytest.mark.parametrize("family", sorted(MAP_GRID))
    def test_outcomes_are_recorded(self, family, monkeypatch):
        build, cases, caps = MAP_GRID[family]
        digest = hashlib.sha256()
        for cap in caps:
            if cap is None:
                monkeypatch.delenv("CREMONA_KIT_MAX_DEGREE", raising=False)
            else:
                monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", cap)
            for args in cases():
                digest.update(_map_outcome(build, *args).encode())
        assert digest.hexdigest() == MAP_GRID_SHA256[family]

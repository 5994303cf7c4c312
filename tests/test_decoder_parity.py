"""Map, curve and group-element JSON decode exactly as the earlier decoders did.

``decode_trihom`` validates each term in one pass and names the failing
field only when a check fails; ``CremonaMap.of`` keeps a canonical triple
as it is and rebuilds any other from integer quotients.  The sha256 of the
exit code and stdout of every case below was recorded with the earlier
decoder (a term-by-term check with a path built for every field, then
``TriHomPoly.__post_init__``) and the earlier content removal (a fold of
pairwise gcds, then a 1/lead scaling): the bytes must not change.
"""

import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_kit import serialization as ser
from cremona_kit.cli import main
from cremona_kit.cremona_maps import CremonaMap, make_phi
from cremona_kit.errors import DegreeCapExceeded, InvalidCurveData, SchemaError
from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z
from cremona_kit.linear_systems import LinSysData, _numerical_data

from _util import (
    OldTriHomPoly, assert_canonical, decode_trihom_oracle, decode_unipoly_oracle, json_of,
    read_form_oracle,
)

PHI = json_of(ser.encode_map(make_phi(2, 3)))
IDENTITY = json_of(ser.encode_map(CremonaMap.of(TRI_X, TRI_Y, TRI_Z)))
LINE = [[[1, 0, 0], "1"]]

# Replacements for the first term of a component or of the curve.
BAD_TERMS = {
    "term-str": "x",
    "term-int": 5,
    "term-object": {"a": 1, "b": 2},
    "pair-short": [[1, 0, 0]],
    "pair-long": [[1, 0, 0], "1", "2"],
    "exps-not-list": [5, "1"],
    "exps-2": [[1, 0], "1"],
    "exps-4": [[1, 0, 0, 0], "1"],
    "exp-bool": [[True, 0, 0], "1"],
    "exp-float": [[1.0, 0, 0], "1"],
    "exp-str": [["1", 0, 0], "1"],
    "exp-null": [[None, 0, 0], "1"],
    "exp-negative": [[-1, 2, 0], "1"],
    "exp-negative-then-str": [[-1, "a", 0], "1"],
    "coeff-float": [[1, 0, 0], 1.5],
    "coeff-bool": [[1, 0, 0], True],
    "coeff-null": [[1, 0, 0], None],
    "coeff-list": [[1, 0, 0], [1]],
    "coeff-word": [[1, 0, 0], "abc"],
    "coeff-two-slashes": [[1, 0, 0], "1/2/3"],
    "coeff-zero-den": [[1, 0, 0], "1/0"],
    "coeff-zero-over-zero": [[1, 0, 0], "0/0"],
    "coeff-space": [[1, 0, 0], " 1"],
}

# Whole polynomials of degree 1 (as the first map component or the curve).
POLYS = {
    "duplicate": [[[1, 0, 0], "1"], [[1, 0, 0], "2"]],
    "duplicate-then-bad-coeff": [[[1, 0, 0], "1"], [[1, 0, 0], 1.5]],
    "bad-coeff-then-duplicate": [[[1, 0, 0], 1.5], [[1, 0, 0], "1"]],
    "mixed-degrees": [[[1, 0, 0], "1"], [[2, 0, 0], "1"]],
    "degree-2": [[[2, 0, 0], "1"]],
    "explicit-zero": [[[1, 0, 0], "0"], [[0, 1, 0], "1"]],
    "only-zero": [[[1, 0, 0], "0"]],
    "zero-other-degree": [[[2, 0, 0], "0"]],
    "zero-over-five": [[[0, 1, 0], "0/5"], [[1, 0, 0], "-0"]],
    "unreduced": [[[0, 0, 1], "6/4"], [[1, 0, 0], "+3"], [[0, 1, 0], "007"]],
    "int-coeffs": [[[0, 1, 0], 2], [[1, 0, 0], -1]],
    "unsorted": [[[0, 0, 1], "1/2"], [[1, 0, 0], "-2/3"], [[0, 1, 0], "5"]],
    "not-a-list": {"x": 1},
    "empty": [],
}

# Valid maps that are not in canonical form.
NONCANONICAL = {
    "scaled": {
        "deg": 1,
        "components": [[[[1, 0, 0], "2"]], [[[0, 1, 0], "2"]], [[[0, 0, 1], "2"]]],
    },
    "rational": {
        "deg": 1,
        "components": [[[[0, 1, 0], "1/3"]], [[[1, 0, 0], "-1/2"]], [[[0, 0, 1], "5/7"]]],
    },
    "z-content": {
        "deg": 2,
        "components": [[[[1, 0, 1], "3"]], [[[0, 1, 1], "1"]], [[[0, 0, 2], "1"]]],
    },
    "linear-content": {
        "deg": 2,
        "components": [
            [[[2, 0, 0], "1"], [[1, 1, 0], "1"]],
            [[[1, 1, 0], "2"], [[0, 2, 0], "2"]],
            [[[1, 0, 1], "-1/3"], [[0, 1, 1], "-1/3"]],
        ],
    },
    "zero-component": {"deg": 1, "components": [[], [[[0, 1, 0], "-4"]], [[[0, 0, 1], "2"]]]},
    "all-zero": {"deg": 1, "components": [[], [[[0, 1, 0], "0"]], []]},
    "constant-after-content": {
        "deg": 1,
        "components": [[[[1, 0, 0], "1"]], [[[1, 0, 0], "2"]], [[[1, 0, 0], "3"]]],
    },
}


def _map_with(first):
    return {"deg": 1, "components": [first, [[[0, 1, 0], "1"]], [[[0, 0, 1], "1"]]]}


def _cases():
    maps = {f"term-{k}": _map_with([v, [[0, 1, 0], "1"]]) for k, v in BAD_TERMS.items()}
    maps.update({f"poly-{k}": _map_with(v) for k, v in POLYS.items()})
    maps.update(NONCANONICAL)
    maps.update(
        {
            "deg-str": {"deg": "1", "components": PHI["components"]},
            "deg-bool": {"deg": True, "components": PHI["components"]},
            "deg-mismatch": {"deg": 3, "components": PHI["components"]},
            "deg-above-cap": {"deg": 25, "components": [[], [], []]},
            "components-2": {"deg": 2, "components": PHI["components"][:2]},
            "components-missing": {"deg": 2},
            "components-object": {"deg": 2, "components": {}},
        }
    )
    curves = {f"term-{k}": [v, [[0, 1, 0], "1"]] for k, v in BAD_TERMS.items()}
    curves.update({f"poly-{k}": v for k, v in POLYS.items()})
    curves["constant"] = [[[0, 0, 0], "3"]]
    cases = {}
    for k, m in maps.items():
        cases[f"compose-outer-{k}"] = ("map-compose", {"outer": m, "inner": IDENTITY})
        cases[f"compose-inner-{k}"] = ("map-compose", {"outer": PHI, "inner": m})
        cases[f"fixcheck-map-{k}"] = ("map-fixcheck", {"map": m, "curve": LINE})
    for k, c in curves.items():
        cases[f"fixcheck-curve-{k}"] = ("map-fixcheck", {"map": PHI, "curve": c})
    return cases


CASES = _cases()


def digest(command, payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--inline", json.dumps(payload)])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_outputs_are_recorded():
    got = {k: digest(*v) for k, v in CASES.items()}
    assert sorted(got) == sorted(RECORDED)
    assert {k: v for k, v in got.items() if RECORDED[k] != v} == {}


@pytest.mark.parametrize(
    "value",
    [PHI, IDENTITY]
    + [v for k, v in NONCANONICAL.items() if k not in ("all-zero", "constant-after-content")],
)
def test_decode_map_is_of_the_decoded_components(value):
    comps = [ser.decode_trihom(c, (), value["deg"]) for c in value["components"]]
    m = ser.decode_map(value)
    assert m == CremonaMap.of(*comps)
    canonical = ser.decode_map(json_of(ser.encode_map(m)))
    assert canonical == m and canonical.components == m.components
    assert all(c.terms[0][1] == 1 for c in m.components[:1] if c)


@pytest.mark.parametrize("key", ["explicit-zero", "unreduced", "int-coeffs", "unsorted"])
def test_decoded_polynomial_carries_its_form(key):
    f = ser.decode_trihom(POLYS[key], ())
    assert_canonical(f, OldTriHomPoly(1, tuple((tuple(e), c) for e, c in POLYS[key])))


def test_decoded_coefficients_are_those_of_fraction():
    f = ser.decode_trihom(POLYS["unreduced"], ())
    assert dict(f.terms) == {(0, 0, 1): Fraction(3, 2), (1, 0, 0): 3, (0, 1, 0): 7}
    assert [e for e, _ in f.terms] == sorted(dict(f.terms), reverse=True)


RECORDED = {
    "compose-inner-all-zero": "e2e7fba5cc63a231f7b5c70f674d6d25ebe10756fbe69ec115dd66482e371024",
    "compose-inner-components-2": "49bbbfa44f59c609a42259e3b9f995740369a98aa16a72f894934085e169a042",
    "compose-inner-components-missing": "2f14fef68c6b9bc0afa24b7368eacef0009406406d29d56ae49b6a9cb2f32272",
    "compose-inner-components-object": "d08fac9ff9e9aa2f64a9228832880d718f9c72f4813ff1844761437de1936dbb",
    "compose-inner-constant-after-content": "1f0752f4b4b5098fc929985ac2fc668fcd9b2e501dbd7b54295bdaf3e20430f6",
    "compose-inner-deg-above-cap": "39da9a447b4202bfdfffea5d18c391fb36daaf857de75e5fff43ba0ddc9349c9",
    "compose-inner-deg-bool": "a0387216c2fbd64c8a90977d85dd927bbe5f06ee8d3d77f9c12a6d5fa5c8a354",
    "compose-inner-deg-mismatch": "3a15a67e5d9241e8baab4331b2cbab55985e7ac3f8acea622722740de1020d48",
    "compose-inner-deg-str": "399a0e1ca2ac818206effb59682339d36147e049961e283692eefa8147c40c63",
    "compose-inner-linear-content": "9e87566bd214c0b4f2b8004f75fef504f6911df48682813f3f2db6ed3c20143e",
    "compose-inner-poly-bad-coeff-then-duplicate": "969ef53fee9c74a11a19c0fa068192811c441ca680c63798d3f8d7ce3a1e175a",
    "compose-inner-poly-degree-2": "4667d151ccbab069788db701ac93dec40f79d78a82d4a7c108d07ed036ee4db7",
    "compose-inner-poly-duplicate": "bf9556ed01d074d05b40b5a4f9963fd158394a9b6d728aba620664f7741e01fc",
    "compose-inner-poly-duplicate-then-bad-coeff": "bf9556ed01d074d05b40b5a4f9963fd158394a9b6d728aba620664f7741e01fc",
    "compose-inner-poly-empty": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-inner-poly-explicit-zero": "a84a0eeadaeac68b0e0b63b6f2671f7754915b891333ff48e9380fa4842f403b",
    "compose-inner-poly-int-coeffs": "a15dc32c9ac096a0b450b5aa044508a19f87f09a621f66edf8c2817f8161898f",
    "compose-inner-poly-mixed-degrees": "c63694119eb1f450d3e098f70cc4bae30e0ff73f50c0415d61b971caf6cfe8ee",
    "compose-inner-poly-not-a-list": "dbf84926e34117d7730a52d2341e8152129db1666d4a2a58bbf1bfde28c230d2",
    "compose-inner-poly-only-zero": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-inner-poly-unreduced": "a64be261b5b6a84e6d57fd76da05c4f8ae217e30593cec6005962e08bf752509",
    "compose-inner-poly-unsorted": "0c4d511bac10e02d8ba36ded0066924256d26f01b96cf0a47c039ef163905aa2",
    "compose-inner-poly-zero-other-degree": "4667d151ccbab069788db701ac93dec40f79d78a82d4a7c108d07ed036ee4db7",
    "compose-inner-poly-zero-over-five": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-inner-rational": "f36dd7e7cb5be37ee7729bf48f5b744637ade0a28b2f90450509ff2af949691d",
    "compose-inner-scaled": "12597cc4f87ae55963490a7eac1d38f71afbef5c0aee0beb872bb17d37602c3a",
    "compose-inner-term-coeff-bool": "2c4d555245aff236f9403b33c4e1328d9cbe5207b4c95f42f694ee95bba35017",
    "compose-inner-term-coeff-float": "969ef53fee9c74a11a19c0fa068192811c441ca680c63798d3f8d7ce3a1e175a",
    "compose-inner-term-coeff-list": "ddb4f6b3f1ea6ad085db18b649f7a4e13860aa5c096453ca124b0305ed46ecd9",
    "compose-inner-term-coeff-null": "ee29c4774902941535e1d759d021519a204fb65a288f795be022f277831d2a88",
    "compose-inner-term-coeff-space": "9c1e9ed0455cf6213637d2dad99060638ede8ea45052a50fb0a3f02735cf90bc",
    "compose-inner-term-coeff-two-slashes": "2db627f1d558e26280802c11ad4ebaf1ff61c04d0aaad30ef32821dbffd7527f",
    "compose-inner-term-coeff-word": "f1fa8d9065f12302dbc74d98cb843bbad4a2484fd9fc5e0e8b9b955677fdf8eb",
    "compose-inner-term-coeff-zero-den": "9513433e613baf5e84086732fb870bff72cf2951834824d541ce1abbefdd282a",
    "compose-inner-term-coeff-zero-over-zero": "186fbfcc3fec2ccff0c52af3dd617c7b62008e47e7c4b77c3f41064dc14d599e",
    "compose-inner-term-exp-bool": "aa3ee59769c007ca0fbbdb8e7006121f154fac96d73981100834885e4b73a22c",
    "compose-inner-term-exp-float": "d4a7413a87b70d45ce49b50373afaec9c31e8d0889282d27b798b7313d36fb24",
    "compose-inner-term-exp-negative": "facd3903aa432c5ba2fa745d76b866436166cb520d67e5527e9b8f16edc4b79c",
    "compose-inner-term-exp-negative-then-str": "5860ba622c425c93b56a60854b39892fdae6c31d1a47d6b09859b83361121f40",
    "compose-inner-term-exp-null": "e93c149d20d9f4aca25c385dc446f8b22726e78704e94f2f5548cc5b7a332634",
    "compose-inner-term-exp-str": "217734b85ace0dc4472e46a8ec699af1e9ef238fa6f81ba0179e4fb1b900254c",
    "compose-inner-term-exps-2": "2e4a5b82b81801aa2dc1b956e340404b7bc2bb9ff7c971e4c98ac21600346c7e",
    "compose-inner-term-exps-4": "2e4a5b82b81801aa2dc1b956e340404b7bc2bb9ff7c971e4c98ac21600346c7e",
    "compose-inner-term-exps-not-list": "87e9037a26e9b748656ac4c6bbf254fa8dc105063125562db66b670c7e651002",
    "compose-inner-term-pair-long": "1b699987598075a0d457b512a6fd31962ffbe6446e75a3be6e9708b4050ee08b",
    "compose-inner-term-pair-short": "1b699987598075a0d457b512a6fd31962ffbe6446e75a3be6e9708b4050ee08b",
    "compose-inner-term-term-int": "bfcf7cbb4d5144125eb8e1c7a6d390306174ca7df5234eabc7b7420a2e680f83",
    "compose-inner-term-term-object": "a46a0f6464bb786a36021edbad00abc261d7209ab9ce9b2df70701bd323a3d47",
    "compose-inner-term-term-str": "52b782188d4d46fa65d30a4cdbb7884f3b4a52c8407b4681d7d80902960f7338",
    "compose-inner-z-content": "880a5b22235ca666d40ada1f2b96b2b8ec5d4baefe6f0d13f8a7e4bda5d277e3",
    "compose-inner-zero-component": "76cdcb296901fc83f737dac3f8aa7372ba9ae279b4e7e348dcfc89d22826b37a",
    "compose-outer-all-zero": "e2e7fba5cc63a231f7b5c70f674d6d25ebe10756fbe69ec115dd66482e371024",
    "compose-outer-components-2": "7381421f89a17e5de4391c76334a97a215089c5f82d28926d6a7cae1ad62604b",
    "compose-outer-components-missing": "110698be87bf731707961007f41cd41c1f817e4b23cad6338ee25c97e3bbcdf8",
    "compose-outer-components-object": "20143e93a622cfcf4278c9d3d49c96ca0eb42425ee70da8492883fee3772f760",
    "compose-outer-constant-after-content": "1f0752f4b4b5098fc929985ac2fc668fcd9b2e501dbd7b54295bdaf3e20430f6",
    "compose-outer-deg-above-cap": "39da9a447b4202bfdfffea5d18c391fb36daaf857de75e5fff43ba0ddc9349c9",
    "compose-outer-deg-bool": "75a590ce6798b13097baf6fc130fa77c267c86aa82b1ecef5802ad383c5bfba8",
    "compose-outer-deg-mismatch": "154e03c1d37b5080774e8a62f347c6cd8fdf0e13934d6373da977ad476525aab",
    "compose-outer-deg-str": "ac8857e146083f896b74db5a34d7a7b83de622b33f201cf5b86bacf5bd47bd71",
    "compose-outer-linear-content": "565b546dceaf864a16b9904ebdcd7e1e157fca7db69fe1c7a392e2e5c12f8463",
    "compose-outer-poly-bad-coeff-then-duplicate": "5ed613fda93e51d431da1d81abd4f2bf1895d36dde7f92ad6c4db3b390276942",
    "compose-outer-poly-degree-2": "4d4a28b625edf26f2baf0dc90a488be02097c802cc3632366e90474167defe6e",
    "compose-outer-poly-duplicate": "ca270d9faabae3040f242225daa1c8dd3ecefa2ed0ac03cd7ee32b581b00614c",
    "compose-outer-poly-duplicate-then-bad-coeff": "ca270d9faabae3040f242225daa1c8dd3ecefa2ed0ac03cd7ee32b581b00614c",
    "compose-outer-poly-empty": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-outer-poly-explicit-zero": "1250fd1b65efc36cc22dbdf3b3f967869103827d21be7cdf0d32c7ab8cba54ca",
    "compose-outer-poly-int-coeffs": "4747b1c6c63ea54e967afcd50956b7876f3527322440de7466acc4f1dbe13029",
    "compose-outer-poly-mixed-degrees": "1b303ffdfb29b54aac42e3a441943a64a4882f1b09efe3587384bfb5dd7950ec",
    "compose-outer-poly-not-a-list": "5cbee47d5fe8265fc2b342e1dfe62467b3df201cb5c0c097b45ae784f825d61e",
    "compose-outer-poly-only-zero": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-outer-poly-unreduced": "c2e1738481050b6e3041307dcaf20c6540554afdba1e3d4df808d30902f3be86",
    "compose-outer-poly-unsorted": "0d93eda6735545f50d6ab2035a241b1701b9d2d1ce743f4180c99bbb7931a263",
    "compose-outer-poly-zero-other-degree": "4d4a28b625edf26f2baf0dc90a488be02097c802cc3632366e90474167defe6e",
    "compose-outer-poly-zero-over-five": "2d66bb2b7397e2109dce3271528bec83004dee78cbdabdcef2ac1e0545c77d5f",
    "compose-outer-rational": "496a95f6457557f2e38c3ef4f2dad83d204c8a70ebe355dd25b14e3a7ee2b7cd",
    "compose-outer-scaled": "fb61975198dd44657a115efeee06aa66f37f6492296369a3b15bcc99a8521d11",
    "compose-outer-term-coeff-bool": "e5b3da0d2bf46ffb34ee853cb926607e6a5ca97695388b1780e25f320d89d73b",
    "compose-outer-term-coeff-float": "5ed613fda93e51d431da1d81abd4f2bf1895d36dde7f92ad6c4db3b390276942",
    "compose-outer-term-coeff-list": "0af68bee501280f2c2e24148d7d3c514abe6c0a52b94aef67ba2b1f5c8052fac",
    "compose-outer-term-coeff-null": "d57a60f3924a6dd43c87cdc71b26492105e25a94f8f20964aecff3f71484dda3",
    "compose-outer-term-coeff-space": "487f86eaabe38fc4eba6e525cf773976a947abb405dc9afce62b007ef4320c8b",
    "compose-outer-term-coeff-two-slashes": "c27894611aa0421cfb1e1cd4fec663c81d8599e088c42832d20b8b7cb38ae34e",
    "compose-outer-term-coeff-word": "eca21152779b51889ba2c77c4b92a12aeee6d9b4e2fbd12d04dbef2ad5a9bb37",
    "compose-outer-term-coeff-zero-den": "d54ada8803f0ceea25cad30a1ff67f4621440949413bdff9052ed07c407ae8ee",
    "compose-outer-term-coeff-zero-over-zero": "2681fff1c920b3049e202e1d390f8caa355991b6c815e22dd2a205fab10f8401",
    "compose-outer-term-exp-bool": "6c9a1ea5901b011ecc9201e645a9f97bd34e9c092e2c63872a63808cb58e63bd",
    "compose-outer-term-exp-float": "f6eeaf8792f7b23fa8a60eef645e9784a925a772e1228a2744a5b666b5d78c03",
    "compose-outer-term-exp-negative": "d2da42d45494a3f4d1562c948c1fd8c6e2b9fd00559043455add3c1e685c4a3a",
    "compose-outer-term-exp-negative-then-str": "f0b3305725b816ce4984ed6131f3f153d78bc2e55b4f121732a2643821c22a4d",
    "compose-outer-term-exp-null": "de22846fdb74653c626180f1c74367cca2adcb46be7b516703190ceb15e23709",
    "compose-outer-term-exp-str": "3624c70d05a108950ca5e9a573d1b9285060b6c46167dc6aa601d13a2664a1b9",
    "compose-outer-term-exps-2": "f46d291af9d6e94aa67f656ee4201d2d6ea38f1b682ccbf58bdad9f22a75879f",
    "compose-outer-term-exps-4": "f46d291af9d6e94aa67f656ee4201d2d6ea38f1b682ccbf58bdad9f22a75879f",
    "compose-outer-term-exps-not-list": "d2a6535e69e6f53d80cc34dba5b4d6726367f245401a42c35d31ffa9347a7e1d",
    "compose-outer-term-pair-long": "2f6b3205f00cb914f6e1200bae4cc653e33e595b8cf9c38fded3bef56c9cc7fe",
    "compose-outer-term-pair-short": "2f6b3205f00cb914f6e1200bae4cc653e33e595b8cf9c38fded3bef56c9cc7fe",
    "compose-outer-term-term-int": "e96b8f6a090f02853d47cdce5239a48020142bfa81ff7297f3fce0a7595607f8",
    "compose-outer-term-term-object": "08b3d17d1cef6493864eb8e43fb913f5c84e3fa0ea9408814fc28f696b427755",
    "compose-outer-term-term-str": "0e190c9e15bb7b3f9b3fbc94a4b8a56709e5689bbfa850f9bb843622399edbb2",
    "compose-outer-z-content": "67cc0f7765b12dc155953ed3a83723bece58dd3810e151022c8bbe09cdc9d966",
    "compose-outer-zero-component": "76cdcb296901fc83f737dac3f8aa7372ba9ae279b4e7e348dcfc89d22826b37a",
    "fixcheck-curve-constant": "5e9c249aa3995df55af13f583a9012daeef400f54e0e5426eabc06e77dbdbb98",
    "fixcheck-curve-poly-bad-coeff-then-duplicate": "9b096707caa5f7b434064a4983d1417f44642948c0934ccdd3f3d22d0389f181",
    "fixcheck-curve-poly-degree-2": "4228b2158371ed8b7a71e7d13c94575ea0b204b0432eefb8434686c897496dd1",
    "fixcheck-curve-poly-duplicate": "c5d377a8c07179889f963eeaed5922fdf064d22541e83dbeac85ba348234c6e4",
    "fixcheck-curve-poly-duplicate-then-bad-coeff": "c5d377a8c07179889f963eeaed5922fdf064d22541e83dbeac85ba348234c6e4",
    "fixcheck-curve-poly-empty": "4ad487224d521d0e557a65a334c49a5dbf20e652fc38448e9b77110808e54602",
    "fixcheck-curve-poly-explicit-zero": "0c15a2f40bd2f7e8f54c672f0bfb5dff501cfc9150c3cadc0f885572459cd3a4",
    "fixcheck-curve-poly-int-coeffs": "0c15a2f40bd2f7e8f54c672f0bfb5dff501cfc9150c3cadc0f885572459cd3a4",
    "fixcheck-curve-poly-mixed-degrees": "e3a09f8af13ef66a0d0f055dea9cabb3b6357882b32452eabe4d31e9356138f7",
    "fixcheck-curve-poly-not-a-list": "1bf7e9cf131072e027d772b526a8c53706b78e99b05b5824c456b3ebb78dea66",
    "fixcheck-curve-poly-only-zero": "f963a568a003ea3bbf744d5f0a389f26ab7a74c20888308850d051953e5188ad",
    "fixcheck-curve-poly-unreduced": "0c15a2f40bd2f7e8f54c672f0bfb5dff501cfc9150c3cadc0f885572459cd3a4",
    "fixcheck-curve-poly-unsorted": "0c15a2f40bd2f7e8f54c672f0bfb5dff501cfc9150c3cadc0f885572459cd3a4",
    "fixcheck-curve-poly-zero-other-degree": "f963a568a003ea3bbf744d5f0a389f26ab7a74c20888308850d051953e5188ad",
    "fixcheck-curve-poly-zero-over-five": "f963a568a003ea3bbf744d5f0a389f26ab7a74c20888308850d051953e5188ad",
    "fixcheck-curve-term-coeff-bool": "24c07f42e15b296b80d546c6580d339720deecc7d3993d7d4217463167dafb7d",
    "fixcheck-curve-term-coeff-float": "9b096707caa5f7b434064a4983d1417f44642948c0934ccdd3f3d22d0389f181",
    "fixcheck-curve-term-coeff-list": "bffda0c55eeb4ed6991ac88a4230f1feb3c009bb1ad58ad073f83dc95240d26f",
    "fixcheck-curve-term-coeff-null": "84f321d95c8452efac795e5f894d9b27a4b1804ac0293b69981c422207640beb",
    "fixcheck-curve-term-coeff-space": "67574e348ca1dadac8cb85ee430d0bd1925711cfc3f1dae98439b1fd1009d74e",
    "fixcheck-curve-term-coeff-two-slashes": "af2af7f991ad61196eb12e1b3e482ff8fc5f35e19721d1c117f4f1aff2611b88",
    "fixcheck-curve-term-coeff-word": "23a6ce28aa2aff7c1634ff7aaeac368d2ebb7538916607293376d6188729365c",
    "fixcheck-curve-term-coeff-zero-den": "dffa150ca3f362be94b251ce6bdec9655fc877ca4c097b8423ab885ed26d5fc5",
    "fixcheck-curve-term-coeff-zero-over-zero": "1415ec634f067e74a7b64121fd4d95657337ab3bb7aeb8e36574c4140f8fa6a8",
    "fixcheck-curve-term-exp-bool": "9af58dfdb6a8ad4cd0df6f706e9c850d93d52ea0e0accd1f28b36004df0a3d46",
    "fixcheck-curve-term-exp-float": "d4374fc635857e10c9fb6a3c36d65eeba5170856fed1968a875b28ef591ddc66",
    "fixcheck-curve-term-exp-negative": "804fd634510a2ac9a4dc24ad9a6cd46e761927721b2565c0465b65dd3d218f6a",
    "fixcheck-curve-term-exp-negative-then-str": "52dfe430a0d600d5d1fcf1e91c3e16486e8cc864a6ff5974a713728f7dde4bd6",
    "fixcheck-curve-term-exp-null": "068459e278cbb6ff694ad0d0e7a3c812f24bd5d5e95dbb0dc27b3718e67035d9",
    "fixcheck-curve-term-exp-str": "190b2346ba1fd88780a0091f2fe86c552c52caaf00c2acf5527c6b2ccc141369",
    "fixcheck-curve-term-exps-2": "9119db4396475ebb761094b98194bdb31439f39dbb744229d654ad21c2f22aaf",
    "fixcheck-curve-term-exps-4": "9119db4396475ebb761094b98194bdb31439f39dbb744229d654ad21c2f22aaf",
    "fixcheck-curve-term-exps-not-list": "bc5666ee9c78527d15942b2cccf50548619b6d97b92d35194df64e31fbb21d8a",
    "fixcheck-curve-term-pair-long": "28bd0443d12aa6654690708587e790f24a9836088afa37338d1448153e376080",
    "fixcheck-curve-term-pair-short": "28bd0443d12aa6654690708587e790f24a9836088afa37338d1448153e376080",
    "fixcheck-curve-term-term-int": "9ab29f8959f62a4329a55aa2dba72870cc8ac8fbba808f120c749bc332859011",
    "fixcheck-curve-term-term-object": "e24808b712b2f467a3e1efae501f9d8086bd9fb43f85add54ddb73b266d50dbf",
    "fixcheck-curve-term-term-str": "77721651056c833b42da3bb5c87fc955467b221a3a31fade21e42eafc219caef",
    "fixcheck-map-all-zero": "e2e7fba5cc63a231f7b5c70f674d6d25ebe10756fbe69ec115dd66482e371024",
    "fixcheck-map-components-2": "df299fb8e84a34a65212a2ff2337e4b4791e9f19b853bea3b7c140ce889400e1",
    "fixcheck-map-components-missing": "bd3f1c086b62379ce9c19a31137c587d90f05544f74b6886500fac36f8fefe5c",
    "fixcheck-map-components-object": "a7898535b5689d46977df651f90a4006931ae14e704694c21e1db30bf511049c",
    "fixcheck-map-constant-after-content": "1f0752f4b4b5098fc929985ac2fc668fcd9b2e501dbd7b54295bdaf3e20430f6",
    "fixcheck-map-deg-above-cap": "39da9a447b4202bfdfffea5d18c391fb36daaf857de75e5fff43ba0ddc9349c9",
    "fixcheck-map-deg-bool": "d902550faed3a321ccb3516ee0b0b381d2c00c4a3af672e177145b659868fa60",
    "fixcheck-map-deg-mismatch": "1e2251219fed6eb9160fd356be93f877008f84993d05f7c4d874c107f8d1fd39",
    "fixcheck-map-deg-str": "728e78f09d460d200dac37846987d1e42ddf0a5bbece71168492bf4121b39b80",
    "fixcheck-map-linear-content": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-poly-bad-coeff-then-duplicate": "64ec9ff7243bb78e3d5582dbb60ec17cfb2e1687bbc41e53e807c7d609c62715",
    "fixcheck-map-poly-degree-2": "668b173a99f3d5ca230ec8e648cf2be9c20086f5d573906e7871bab1d2688112",
    "fixcheck-map-poly-duplicate": "3e0255dbfc7a23ed441d01d5a17898a69ea6d1f1db3ec7cd1b00b199cc25d7ff",
    "fixcheck-map-poly-duplicate-then-bad-coeff": "3e0255dbfc7a23ed441d01d5a17898a69ea6d1f1db3ec7cd1b00b199cc25d7ff",
    "fixcheck-map-poly-empty": "15037de9a838616b0f316226eab9b798faa02a210b7bfee4d7799fa708ba1cb6",
    "fixcheck-map-poly-explicit-zero": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-poly-int-coeffs": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-poly-mixed-degrees": "03366fd3b6794519ebf7e71a5bb842aae6fc3cb2071ac249fcd526eacb71dea1",
    "fixcheck-map-poly-not-a-list": "dceb51b56fe2f426af147966b0c16c0e7a3e708b495d618439c2ca3c06e61f6c",
    "fixcheck-map-poly-only-zero": "15037de9a838616b0f316226eab9b798faa02a210b7bfee4d7799fa708ba1cb6",
    "fixcheck-map-poly-unreduced": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-poly-unsorted": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-poly-zero-other-degree": "668b173a99f3d5ca230ec8e648cf2be9c20086f5d573906e7871bab1d2688112",
    "fixcheck-map-poly-zero-over-five": "15037de9a838616b0f316226eab9b798faa02a210b7bfee4d7799fa708ba1cb6",
    "fixcheck-map-rational": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
    "fixcheck-map-scaled": "15037de9a838616b0f316226eab9b798faa02a210b7bfee4d7799fa708ba1cb6",
    "fixcheck-map-term-coeff-bool": "52558a50b2b89816e24cf0311eb84f495420ef2a61b242e8c1833204beaf2d37",
    "fixcheck-map-term-coeff-float": "64ec9ff7243bb78e3d5582dbb60ec17cfb2e1687bbc41e53e807c7d609c62715",
    "fixcheck-map-term-coeff-list": "096dcbbcad26413afdf53195967b2bf477064e28fa1da52a11bbfd0fb3e86c9b",
    "fixcheck-map-term-coeff-null": "163d1f689f746af5be4c2f050f708b2fa0627f79e855c787028f1242247faa3a",
    "fixcheck-map-term-coeff-space": "2645aa15181549480164491ed82717df4f32ddf8cd95998b9a8cfa52dbc5077a",
    "fixcheck-map-term-coeff-two-slashes": "d24acda18bd804819c02b6d8886a1550e87b552aa4d2964d98e4912421848f87",
    "fixcheck-map-term-coeff-word": "e900c0e6f9c51b31d9429446992b78b44d6eb163de91733261e131d6409ecaf6",
    "fixcheck-map-term-coeff-zero-den": "5177c1d703abb67f01571b97ac455bc830422ff576abefe5f23ccfafc2322ca6",
    "fixcheck-map-term-coeff-zero-over-zero": "5c2d57593571f8963a7f4c9f180e3ba8fa4373faaeddb4196b4a9c769733a777",
    "fixcheck-map-term-exp-bool": "ba3a41e6bc80476fee493c416df431a28c29e4f71595b85e8485ed3965d06967",
    "fixcheck-map-term-exp-float": "df3148c5bc719dff2d7cffa96d1ad244a9746aee24b0e4173b6b10dcecda48eb",
    "fixcheck-map-term-exp-negative": "a5c76e75681e0a86e4884c7e03ee95aa1220529d8b4f5e781a6986174f9cf593",
    "fixcheck-map-term-exp-negative-then-str": "ff7e23fe455c2ad7162fd10d3208319ceb786367fd1ccedaa5d91b87bf70bbc6",
    "fixcheck-map-term-exp-null": "72f8a17b0995c93bd3b9836720f4454169c482403ca2d8aa3e912089d1cba8eb",
    "fixcheck-map-term-exp-str": "92fa9b9446c4be1eba5a8883f409890daff0989cf9fd09b2e3d2b40a1e21955a",
    "fixcheck-map-term-exps-2": "79ad69557273ddcf25efb50c56dc7476356b9d03ddb328538faccb1cf68393eb",
    "fixcheck-map-term-exps-4": "79ad69557273ddcf25efb50c56dc7476356b9d03ddb328538faccb1cf68393eb",
    "fixcheck-map-term-exps-not-list": "8ca3ef9bedf8def724b722a49733eef75f67a064e17cd49ef5e372942c82c09a",
    "fixcheck-map-term-pair-long": "c2545fd18d72c3bf054a745b1ae02ed0ecdcf3114c7bfd1fd8786be7c1f9abec",
    "fixcheck-map-term-pair-short": "c2545fd18d72c3bf054a745b1ae02ed0ecdcf3114c7bfd1fd8786be7c1f9abec",
    "fixcheck-map-term-term-int": "b915321a2bc93339e66af999470cbe270e7f29eed7e06957fe787fd67c198912",
    "fixcheck-map-term-term-object": "02b1265744bbbe2beeb85e9f4a7330fbb490f471a9e87458ae9eac9da63937c2",
    "fixcheck-map-term-term-str": "76c7f8b1aae0901c4408d01446fcc0a9b1889d5802739c760b8bde7977619bf1",
    "fixcheck-map-z-content": "15037de9a838616b0f316226eab9b798faa02a210b7bfee4d7799fa708ba1cb6",
    "fixcheck-map-zero-component": "1cc2bb482c33819de95aff8ec4f8d41930f0950a6a729b84b731ed65bd939c4b",
}


# -- group elements ------------------------------------------------------------
#
# jonq-order, jonq-mul and jonq-fix-check on elements whose univariate
# polynomials are malformed or unusual.  The sha256 of the exit code and
# stdout of every case was recorded with the earlier univariate decoder (a
# dense tuple of Fractions, trailing zeros stripped by ``UniPoly``) and the
# earlier Fraction arithmetic of ``UniPoly`` and ``RatFunc``.

# u = (1 + 2t, 3) over h = t^6 + t + 1, as JSON.
H6 = [[[0], "1"], [[1], "1"], [[6], "1"]]
U = {
    "h": H6,
    "a1": {"num": [[[0], "1"], [[1], "2"]], "den": [[[0], "1"]]},
    "a2": {"num": [[[0], "3"]], "den": [[[0], "1"]]},
}

# Replacements for the first term of a univariate polynomial.
BAD_UNI_TERMS = {
    "term-str": "t",
    "term-int": 5,
    "term-object": {"e": 1},
    "pair-short": [[0]],
    "pair-long": [[0], "1", "2"],
    "exps-not-list": [0, "1"],
    "exps-empty": [[], "1"],
    "exps-2": [[0, 0], "1"],
    "exp-bool": [[False], "1"],
    "exp-float": [[0.0], "1"],
    "exp-str": [["0"], "1"],
    "exp-null": [[None], "1"],
    "exp-negative": [[-1], "1"],
    "exp-above-cap": [[25], "1"],
    "coeff-float": [[0], 1.0],
    "coeff-bool": [[0], True],
    "coeff-null": [[0], None],
    "coeff-list": [[0], [1]],
    "coeff-word": [[0], "one"],
    "coeff-two-slashes": [[0], "1/2/3"],
    "coeff-zero-den": [[0], "1/0"],
    "coeff-zero-over-zero": [[0], "0/0"],
    "coeff-space": [[0], "1 "],
    "coeff-unreduced": [[0], "6/4"],
    "coeff-signed": [[0], "+007"],
    "coeff-int": [[0], -3],
    "coeff-zero": [[0], "-0/5"],
    # Each unpacks into an exponent list and a coefficient, as a term does.
    "term-str-two-chars": "t1",
    "term-object-two-keys": {"e": [0], "c": "1"},
    "exps-one-char-str": ["0", "1"],
}

# Whole univariate polynomials, put in one place of the element.
UNI_POLYS = {
    "duplicate": [[[1], "1"], [[1], "2"]],
    "duplicate-then-bad-coeff": [[[1], "1"], [[1], 1.5]],
    "bad-coeff-then-duplicate": [[[1], 1.5], [[1], "1"]],
    "explicit-zeros": [[[3], "0"], [[0], "2"], [[1], "0/7"]],
    "only-zero": [[[2], "0"]],
    "zero-above-cap": [[[30], "0"], [[0], "1"]],
    "above-cap": [[[0], "1"], [[25], "1/2"]],
    "at-cap": [[[24], "1"], [[0], "-1"]],
    "unreduced": [[[2], "6/4"], [[0], "-10/15"], [[1], "+4/2"]],
    "shared-factor": [[[0], "-2/6"], [[1], "-4/6"], [[2], "-8/6"]],
    "unsorted": [[[2], "1"], [[0], "-1/3"], [[1], 5]],
    "empty": [],
    "not-a-list": {"t": 1},
}


def _jonq_with(path, value):
    """U with the polynomial at ``path`` replaced by ``value``."""
    u = json.loads(json.dumps(U))
    target = u
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return u


def _first_term(path, term):
    """U with the first term of the polynomial at ``path`` replaced by ``term``."""
    poly = U
    for key in path:
        poly = poly[key]
    return _jonq_with(path, [term] + poly[1:])


PLACES = {
    "h": ("h",),
    "a1-num": ("a1", "num"),
    "a1-den": ("a1", "den"),
    "a2-num": ("a2", "num"),
    "a2-den": ("a2", "den"),
}


def _jonq_cases():
    cases = {}
    # A bad term in h for jonq-order, in a1.num of v for jonq-mul and in
    # a2.den for jonq-fix-check.
    for k, v in BAD_UNI_TERMS.items():
        cases[f"order-h-term-{k}"] = ("jonq-order", _first_term(PLACES["h"], v))
        cases[f"mul-a1-num-term-{k}"] = ("jonq-mul", {"u": U, "v": _first_term(PLACES["a1-num"], v)})
        cases[f"fix-check-a2-den-term-{k}"] = ("jonq-fix-check", _first_term(PLACES["a2-den"], v))
    elements = {
        f"{where}-poly-{k}": _jonq_with(path, v)
        for where, path in PLACES.items()
        for k, v in UNI_POLYS.items()
    }
    elements["h-scaled"] = _jonq_with(("h",), [[[6], "2/3"], [[1], "2/3"], [[0], "2/3"]])
    elements["a1-zero"] = _jonq_with(("a1",), {"num": [], "den": [[[0], "5"]]})
    elements["a2-zero"] = _jonq_with(("a2",), {"num": [[[4], "0"]], "den": [[[1], "-2"], [[0], "4/3"]]})
    elements["ratfunc-not-object"] = _jonq_with(("a1",), [[[0], "1"]])
    elements["ratfunc-missing-den"] = _jonq_with(("a1",), {"num": [[[0], "1"]]})
    for k, u in elements.items():
        cases[f"order-{k}"] = ("jonq-order", u)
        if not k.startswith(("h-poly", "a1-den", "a2-num")):
            cases[f"fix-check-{k}"] = ("jonq-fix-check", u)
            cases[f"mul-{k}"] = ("jonq-mul", {"u": U, "v": u})
    h = [[[0], "1"], [[6], "1"], [[2], "1"]]
    cases["mul-different-h"] = ("jonq-mul", {"u": U, "v": _jonq_with(("h",), h)})
    return cases


JONQ_CASES = _jonq_cases()


def test_group_element_outputs_are_recorded():
    got = {k: digest(*v) for k, v in JONQ_CASES.items()}
    assert sorted(got) == sorted(JONQ_RECORDED)
    assert {k: v for k, v in got.items() if JONQ_RECORDED[k] != v} == {}


JONQ_RECORDED = {
    "fix-check-a1-num-poly-above-cap": "47060650a98cfd7214731cc317fba80f3de07a3639f64c763b7ab5632b0025ce",
    "fix-check-a1-num-poly-at-cap": "ce174a853a9af7689f5ba16262acc5fa52a6404ef51e8fbd435cac736a1bf928",
    "fix-check-a1-num-poly-bad-coeff-then-duplicate": "2743c8385fe20fe6bdf6309dbc9ebd11bd8ef7b4f95e2e0ba83cbbfd1dc4f999",
    "fix-check-a1-num-poly-duplicate": "3dc058740e862f9b429f7568af3e535034f87925870bdb789a53a48ce3e2fb58",
    "fix-check-a1-num-poly-duplicate-then-bad-coeff": "3dc058740e862f9b429f7568af3e535034f87925870bdb789a53a48ce3e2fb58",
    "fix-check-a1-num-poly-empty": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-explicit-zeros": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-not-a-list": "80c4cb9b1e9cb09df8b2b01a5d61e18baac0c2351c20813046a7d10115338b65",
    "fix-check-a1-num-poly-only-zero": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-shared-factor": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-unreduced": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-unsorted": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a1-num-poly-zero-above-cap": "770463d66d0db54eea878d5f65d488aa40b64a859de368f7c8d6e9a14244abcd",
    "fix-check-a1-zero": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-poly-above-cap": "891a53a17593a1db12b07c4de46cf2a8ab6f7f14c1e5c0aefabe2bff5f376aaf",
    "fix-check-a2-den-poly-at-cap": "66220ebbe008674e20388bbc90d2894a7a60f0329eba38c45ed200ccc3136c85",
    "fix-check-a2-den-poly-bad-coeff-then-duplicate": "93677dbb9d3494f3f94c83237e7b17e5ede13428f9fbf700655cd8e1020f9382",
    "fix-check-a2-den-poly-duplicate": "b71751ffd36a3135fd6f2d850d6dccb19be628208aa75bdaa0aa11403263e3f0",
    "fix-check-a2-den-poly-duplicate-then-bad-coeff": "b71751ffd36a3135fd6f2d850d6dccb19be628208aa75bdaa0aa11403263e3f0",
    "fix-check-a2-den-poly-empty": "a5d680f03780d55e8e3a95f34345b202b6765ebf1529615d3e560a2a9ec27c68",
    "fix-check-a2-den-poly-explicit-zeros": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-poly-not-a-list": "0a3a355cc5e22ae0e6ebe56e50b3b1da187678d868b93cda67b741af9fbc75c9",
    "fix-check-a2-den-poly-only-zero": "a5d680f03780d55e8e3a95f34345b202b6765ebf1529615d3e560a2a9ec27c68",
    "fix-check-a2-den-poly-shared-factor": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-poly-unreduced": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-poly-unsorted": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-poly-zero-above-cap": "213f135ad0bae1c10d11d3dbb7328e1e7d1bce903628de15444d799790956748",
    "fix-check-a2-den-term-coeff-bool": "6f85314984d9645533cebb0641dab50090b49e254b2a1cb61b4f05ef0ee9a6db",
    "fix-check-a2-den-term-coeff-float": "93677dbb9d3494f3f94c83237e7b17e5ede13428f9fbf700655cd8e1020f9382",
    "fix-check-a2-den-term-coeff-int": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-term-coeff-list": "78ffdd8c00d18f9287eb8757907de0566ee2e4d7c62ca04010414596e3778b75",
    "fix-check-a2-den-term-coeff-null": "939e94eb01c6e06fbe6465de74b836cc0529476e189c12a42156b577d0352dca",
    "fix-check-a2-den-term-coeff-signed": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-term-coeff-space": "bb3d69606fb4e7a3283135aa3294337e72ffbd6437c0ce29e704d864910ca766",
    "fix-check-a2-den-term-coeff-two-slashes": "ca6afcbdd60dcf21ac3dee539ba94a12a267fc417dea0b06173a842e05468257",
    "fix-check-a2-den-term-coeff-unreduced": "0475825a74ac1e0086cde2f5dc6d1ea6d66b9552f75a8785979e135c86da24db",
    "fix-check-a2-den-term-coeff-word": "b6f344096354a401f1deea3f37377ea8c2e5f1282ba699798f965ef9b00bc6ad",
    "fix-check-a2-den-term-coeff-zero": "a5d680f03780d55e8e3a95f34345b202b6765ebf1529615d3e560a2a9ec27c68",
    "fix-check-a2-den-term-coeff-zero-den": "830c2d63d1913e931478084f365a7d354afaaecec8ec6ef54a33a63e302e90ae",
    "fix-check-a2-den-term-coeff-zero-over-zero": "6f21ecf31c6ee2199d50326ccbea6dfa231eeebe21c5a803a480fd7334aa127a",
    "fix-check-a2-den-term-exp-above-cap": "891a53a17593a1db12b07c4de46cf2a8ab6f7f14c1e5c0aefabe2bff5f376aaf",
    "fix-check-a2-den-term-exp-bool": "59c09e2d051d39316dcdffeb5d55d34c766b2bdff1a3c491faf3d9ce36b798d0",
    "fix-check-a2-den-term-exp-float": "d5a40d99f067ee8bf7c4da4f0398a48692a0b94f7b53dfffeb3c64db35ff5e83",
    "fix-check-a2-den-term-exp-negative": "3f369041c33d6757904c8b293b66b3f8fd71dd1aface0bb9ee8d402f0b56a698",
    "fix-check-a2-den-term-exp-null": "8a27f61ebe0aa8294dd4cd2c10887a17d498a88cd1557684b3e53bb64f673717",
    "fix-check-a2-den-term-exp-str": "543c8230edd1f28ff664bd67ce758110950b3b1db92ea4f8ef9e852d4dbc68b8",
    "fix-check-a2-den-term-exps-2": "3e66205d77d816eb52937e4181939678a99fb0c8015124d9f5f807571a9a33cc",
    "fix-check-a2-den-term-exps-empty": "3e66205d77d816eb52937e4181939678a99fb0c8015124d9f5f807571a9a33cc",
    "fix-check-a2-den-term-exps-not-list": "7509c01d50c55c2213316581e1227002da31285e6d3014934b7c895aca32534c",
    "fix-check-a2-den-term-exps-one-char-str": "ae2f7b85bc69460da4f5cbc3bde56b97c181fa01155ea6dfd4178cb4287ab332",
    "fix-check-a2-den-term-pair-long": "15ce8fac3e465e57c39306e8e3674d3b9048da86021f49cc25c8951ecc445986",
    "fix-check-a2-den-term-pair-short": "15ce8fac3e465e57c39306e8e3674d3b9048da86021f49cc25c8951ecc445986",
    "fix-check-a2-den-term-term-int": "508d8f3271817e519f60924b098a7b8c4fbeeb6b778473f4ee918208649805a5",
    "fix-check-a2-den-term-term-object": "5f45fb1f9b8a73dc1b6be92009d40681476d341fdff628b791c33ef5c1f272f8",
    "fix-check-a2-den-term-term-object-two-keys": "5f45fb1f9b8a73dc1b6be92009d40681476d341fdff628b791c33ef5c1f272f8",
    "fix-check-a2-den-term-term-str": "99ab2e5fcbd7574f2d57faeed0c3758a339b108e6a88011bfbc7ce517faeb6e0",
    "fix-check-a2-den-term-term-str-two-chars": "99ab2e5fcbd7574f2d57faeed0c3758a339b108e6a88011bfbc7ce517faeb6e0",
    "fix-check-a2-zero": "51953b061c1b18154651b65c80d64bb1e638f53bdb3a7867bbb690540c52c5d8",
    "fix-check-h-scaled": "15ffd15026b266c452a9363ced0f8d00163e5d04d1597eb3a3a6da79f88bc1dd",
    "fix-check-ratfunc-missing-den": "1079d7effc7da73ef218c5fc74107bb195f7ef55213a9ee9f747048fb30b83df",
    "fix-check-ratfunc-not-object": "c462aae903920fdecf7944a8d72dd268f943596f38ced213efeb40cad0d16a9f",
    "mul-a1-num-poly-above-cap": "824634f7df1c04c2666664edf3e129e17b348269bc5aec5e23048b7af68ecc9c",
    "mul-a1-num-poly-at-cap": "12baa4be4b5671a16e6dd78e35a457a48849996c82a48d128d5ea87642ee6e25",
    "mul-a1-num-poly-bad-coeff-then-duplicate": "dd7a511d9e9eb0e3ebb9cc0325aa423b38ffd24cb619870bd069fac4aaf8c8bf",
    "mul-a1-num-poly-duplicate": "cf8829aa66c839a55be0e7e4933f85ddea1738396a8db9823406f616513dad1a",
    "mul-a1-num-poly-duplicate-then-bad-coeff": "cf8829aa66c839a55be0e7e4933f85ddea1738396a8db9823406f616513dad1a",
    "mul-a1-num-poly-empty": "264ffff3e4f6804712570c54ab1ba84249d23f80c591a170691cf5f82aabd0ca",
    "mul-a1-num-poly-explicit-zeros": "9369d19f392f8e8c1a84f2fe2598280a2673dc90edc589b749f21f31aaa3dca2",
    "mul-a1-num-poly-not-a-list": "0c21c35289a5020a49ed22cdbcc5a368f326a87327ca026a563eceae9eb7ca11",
    "mul-a1-num-poly-only-zero": "264ffff3e4f6804712570c54ab1ba84249d23f80c591a170691cf5f82aabd0ca",
    "mul-a1-num-poly-shared-factor": "2a1625488b26e8eee5369c52f38540458dfa941ce8c96e7f358b7ed8ffdf6284",
    "mul-a1-num-poly-unreduced": "76ce39e5f4098828f1e4afb728c93a5d67f497a51ff6e0389f554cff399ac24a",
    "mul-a1-num-poly-unsorted": "19ee45566632a8947710c0cecf6f05241379b3befc4a373848f1d07c59b05c21",
    "mul-a1-num-poly-zero-above-cap": "de5aba99895c402f3341264d0ffa4635e912b3cbbda1507fefed978ef12b04d8",
    "mul-a1-num-term-coeff-bool": "6a21da2dabb130fe6efab0537d51650910964cf8275f3729c92e7b587dc9c76b",
    "mul-a1-num-term-coeff-float": "dd7a511d9e9eb0e3ebb9cc0325aa423b38ffd24cb619870bd069fac4aaf8c8bf",
    "mul-a1-num-term-coeff-int": "18a7c09c74eea2f6312ca45c71400eba9769fd2060dcd3d74a91c31a814154b5",
    "mul-a1-num-term-coeff-list": "18c88b8ec8ca1d79f4368bfb300a214eceff36090e963f08b2fc357d6ef2e90c",
    "mul-a1-num-term-coeff-null": "88ab7ed4cb81b1b77fbc9d657ec617e1f534601bc492183836f8bb1deacd1d37",
    "mul-a1-num-term-coeff-signed": "826d7fe8e43b37a9ea0718ce46919a3f89795b97052095e7a488800b186da837",
    "mul-a1-num-term-coeff-space": "5ae061b0fe8beb5a0ecfd3708f095adc3981308ee109fad690591d5dd21aaff7",
    "mul-a1-num-term-coeff-two-slashes": "217fa6c6186dc463b6c04e2809aad7f7cec05fcaae2c69f73360267ead705e84",
    "mul-a1-num-term-coeff-unreduced": "19d36a7c5184ea681544c0bc885ec0345dec86a828fbb547435795f6ec5a3133",
    "mul-a1-num-term-coeff-word": "0051a21a60ab97bba191950a960d331d1ef32fd5f0765e6da6eaf247c0e3063d",
    "mul-a1-num-term-coeff-zero": "2ba86c13e641312eec7ad54eb432c5d197e65d1ef736a452e3ba2532a854cf63",
    "mul-a1-num-term-coeff-zero-den": "0108b6c14c65227dbce5cf270a60b49563d9954f2120c3d98a76c79ce88e4c48",
    "mul-a1-num-term-coeff-zero-over-zero": "d17a41f36531c349ad65f638add905cf22143401a461034b433bdd652a34a501",
    "mul-a1-num-term-exp-above-cap": "824634f7df1c04c2666664edf3e129e17b348269bc5aec5e23048b7af68ecc9c",
    "mul-a1-num-term-exp-bool": "deaee19f57947a0f2a73c6e3c94097d037aa5310eff8abfa4a5754e6f4ed942d",
    "mul-a1-num-term-exp-float": "262e3ee1d1902292d4680ddf58cd48a0eeff27a63a0cadd6a9ef8f2a95efb8aa",
    "mul-a1-num-term-exp-negative": "98ff9ad3d5a5a9e87687f53d43548442eb0d22955a397deb985514d4f4d7a793",
    "mul-a1-num-term-exp-null": "81ffcdcd87e49e06a39cb5ffcc1201c75e2c1b7b9c4b93549c2448fbdc7fbb4c",
    "mul-a1-num-term-exp-str": "6d6f849f5ce4e6f03cc1208e656483ae59357c0f8ac34f905026607b11ba44d8",
    "mul-a1-num-term-exps-2": "d205e6640dfea365edb60a1ba9ce72ea792b710223370b15893aea5b23b6a48c",
    "mul-a1-num-term-exps-empty": "d205e6640dfea365edb60a1ba9ce72ea792b710223370b15893aea5b23b6a48c",
    "mul-a1-num-term-exps-not-list": "9b29a3c50e11c33e9aec1289de539c327f3d9b560f90c8b4330ab79794bc31de",
    "mul-a1-num-term-exps-one-char-str": "c481700fc3ede7568f6704da82b0e8296dc602d84b1daf4f4d6d848529cc10b5",
    "mul-a1-num-term-pair-long": "9bd4ffa3d34759781aca0d7f7f026ab20386a7126332bf5e4d55d27db30c81ab",
    "mul-a1-num-term-pair-short": "9bd4ffa3d34759781aca0d7f7f026ab20386a7126332bf5e4d55d27db30c81ab",
    "mul-a1-num-term-term-int": "fa33520b7eb8acefb0c8e2b4f312113c0269acf4d89b8dad5582f425d32f05af",
    "mul-a1-num-term-term-object": "e99fee9391f1aa39565c769ee314494aa80e588b1ff5e16fa2f32022a5630af3",
    "mul-a1-num-term-term-object-two-keys": "e99fee9391f1aa39565c769ee314494aa80e588b1ff5e16fa2f32022a5630af3",
    "mul-a1-num-term-term-str": "22d821dfd845c177225486737ee8848ad1ba87d2eb5516d9fee2cc97846647f2",
    "mul-a1-num-term-term-str-two-chars": "22d821dfd845c177225486737ee8848ad1ba87d2eb5516d9fee2cc97846647f2",
    "mul-a1-zero": "264ffff3e4f6804712570c54ab1ba84249d23f80c591a170691cf5f82aabd0ca",
    "mul-a2-den-poly-above-cap": "7700e9a815631026775bf53a6e8dfc79e9e0d8d54938f48248b0736c65abcf99",
    "mul-a2-den-poly-at-cap": "dfdfd93185481e106cf2f632f42d756cbaa049bc6bfd4c0c4bac6a3b9fe32d63",
    "mul-a2-den-poly-bad-coeff-then-duplicate": "5ea2d9003c9cb723de751f5101cf4a0369dba7b6af40aa0355b76fcecbb9a625",
    "mul-a2-den-poly-duplicate": "d0f1e3197eac53ad7bff284f63f0b51ecf5e38e983732f22f51801e610a5923f",
    "mul-a2-den-poly-duplicate-then-bad-coeff": "d0f1e3197eac53ad7bff284f63f0b51ecf5e38e983732f22f51801e610a5923f",
    "mul-a2-den-poly-empty": "242afc0fe711d16b271abe7e392911d2dabf05edc820b660321aaec9e6b20ec6",
    "mul-a2-den-poly-explicit-zeros": "e76edf3628de15241546009242df3d5dc3bc411170b12792a332518290851b6f",
    "mul-a2-den-poly-not-a-list": "4be14754ba624f0b7a532851181c0cacb7f08b2342c5f65697ec6c2915e91fdb",
    "mul-a2-den-poly-only-zero": "242afc0fe711d16b271abe7e392911d2dabf05edc820b660321aaec9e6b20ec6",
    "mul-a2-den-poly-shared-factor": "f2907cfc967ab32b6f397257d2de47c295f3edd6a7dcef9c38a79ec1cd4ec36f",
    "mul-a2-den-poly-unreduced": "9e8a154cd1933b9615169f375f1434e0e0437ec54f8d2b20b81e0695fdc36099",
    "mul-a2-den-poly-unsorted": "4b7a7005e60040b84d2b4a32f19f8f6317c205fd39f0e546acc655149e6a3d96",
    "mul-a2-den-poly-zero-above-cap": "6c9ff66547839f4b6e6db932cab26d32b567ddeff8c27ebc45c7e676b93fcb34",
    "mul-a2-zero": "d3cd55cbcd19e48b698dcc06e31326d585a7a834d3fac4a3f071aeca63fef387",
    "mul-different-h": "260cbc3108b9015e498ec9921212e719c775e84eeecb2f21de919d90c58b03ca",
    "mul-h-scaled": "260cbc3108b9015e498ec9921212e719c775e84eeecb2f21de919d90c58b03ca",
    "mul-ratfunc-missing-den": "b771914fa997543465680833faa6692540cd9dbe3cbbb2ce986565a206dde3b4",
    "mul-ratfunc-not-object": "6f761d1c828168a9411d609ee669e55115133072254709782ae2b313b93a5243",
    "order-a1-den-poly-above-cap": "8ef7f91dde91d08caaf00c70c1c033b60e56f93e2990f98a0b7670ed9b8fe5e9",
    "order-a1-den-poly-at-cap": "a7583b17dab0125d3bcf2042e0b77703baabd6285f91c1bda0a40d7655dd56b3",
    "order-a1-den-poly-bad-coeff-then-duplicate": "6244ce6504162dded29b2b25c6a54bc3c7cc7b9e2809501d3b2d0ec2f0854219",
    "order-a1-den-poly-duplicate": "464848102954b8cb3469f111099328d62c4adec527bf0f44822d90e8bde15430",
    "order-a1-den-poly-duplicate-then-bad-coeff": "464848102954b8cb3469f111099328d62c4adec527bf0f44822d90e8bde15430",
    "order-a1-den-poly-empty": "fc5ada8d6745c7b623f303dc0d6ff0c4f4f6e4a356bc163563eeb733171f5cac",
    "order-a1-den-poly-explicit-zeros": "a9dc5546240d3c962b854b358ce561e65ebfbccc8b7a3f91d36b5fa5774e56ae",
    "order-a1-den-poly-not-a-list": "930dd75b786c7c640ad8a1e65f035985095640652dcd0c76c4824a3711cd4b6d",
    "order-a1-den-poly-only-zero": "fc5ada8d6745c7b623f303dc0d6ff0c4f4f6e4a356bc163563eeb733171f5cac",
    "order-a1-den-poly-shared-factor": "c3743aadc2096e5fc5bbecb5c0242b205d6548dddb518baf13f6b73100a8cfd9",
    "order-a1-den-poly-unreduced": "d672ccbef850f87a9d24cf5f38f754407a93496afc54959f16654622da18775e",
    "order-a1-den-poly-unsorted": "5b42e913fd69bde955edbe3615923a31f9be0436070f6383d16aab5a3884bb6b",
    "order-a1-den-poly-zero-above-cap": "b87257be4cc2effddb3626dfa3c83a225ec687a63c39203c58be68b81648824d",
    "order-a1-num-poly-above-cap": "47060650a98cfd7214731cc317fba80f3de07a3639f64c763b7ab5632b0025ce",
    "order-a1-num-poly-at-cap": "aed109a6c9e368c390d2e21f2d8f2d98e59628453de2043b38758bd07194a089",
    "order-a1-num-poly-bad-coeff-then-duplicate": "2743c8385fe20fe6bdf6309dbc9ebd11bd8ef7b4f95e2e0ba83cbbfd1dc4f999",
    "order-a1-num-poly-duplicate": "3dc058740e862f9b429f7568af3e535034f87925870bdb789a53a48ce3e2fb58",
    "order-a1-num-poly-duplicate-then-bad-coeff": "3dc058740e862f9b429f7568af3e535034f87925870bdb789a53a48ce3e2fb58",
    "order-a1-num-poly-empty": "c0be77f2e4eb8327a5886c920be260bc8c1491efc64377eb5c4d20d5a14e0d55",
    "order-a1-num-poly-explicit-zeros": "a7cb2db18d6e513f5779f64b251d506034218115e3de2de13acb63d1f1f46847",
    "order-a1-num-poly-not-a-list": "80c4cb9b1e9cb09df8b2b01a5d61e18baac0c2351c20813046a7d10115338b65",
    "order-a1-num-poly-only-zero": "c0be77f2e4eb8327a5886c920be260bc8c1491efc64377eb5c4d20d5a14e0d55",
    "order-a1-num-poly-shared-factor": "c43b229159caca2254297d159894ea6b46133721d377b689d732c4ccc72b69e2",
    "order-a1-num-poly-unreduced": "a427344a1ce773e9d2da83da44db0d6a2365a8f1115d8de440d270ec6c1e2db2",
    "order-a1-num-poly-unsorted": "4ceaa49af3a02d08b21866edaa7db254ac2465a6769a8b405257a52c1d9fc4d4",
    "order-a1-num-poly-zero-above-cap": "770463d66d0db54eea878d5f65d488aa40b64a859de368f7c8d6e9a14244abcd",
    "order-a1-zero": "c0be77f2e4eb8327a5886c920be260bc8c1491efc64377eb5c4d20d5a14e0d55",
    "order-a2-den-poly-above-cap": "891a53a17593a1db12b07c4de46cf2a8ab6f7f14c1e5c0aefabe2bff5f376aaf",
    "order-a2-den-poly-at-cap": "f12181ef3f67e875f20f7bbf12572ed61bb2dcdc53a0990aafc14d5d7f0690e4",
    "order-a2-den-poly-bad-coeff-then-duplicate": "93677dbb9d3494f3f94c83237e7b17e5ede13428f9fbf700655cd8e1020f9382",
    "order-a2-den-poly-duplicate": "b71751ffd36a3135fd6f2d850d6dccb19be628208aa75bdaa0aa11403263e3f0",
    "order-a2-den-poly-duplicate-then-bad-coeff": "b71751ffd36a3135fd6f2d850d6dccb19be628208aa75bdaa0aa11403263e3f0",
    "order-a2-den-poly-empty": "a5d680f03780d55e8e3a95f34345b202b6765ebf1529615d3e560a2a9ec27c68",
    "order-a2-den-poly-explicit-zeros": "5ba5432e8c57d5b4efc936b638814b1f0b99086f4ab0fc43184d3da739531725",
    "order-a2-den-poly-not-a-list": "0a3a355cc5e22ae0e6ebe56e50b3b1da187678d868b93cda67b741af9fbc75c9",
    "order-a2-den-poly-only-zero": "a5d680f03780d55e8e3a95f34345b202b6765ebf1529615d3e560a2a9ec27c68",
    "order-a2-den-poly-shared-factor": "7ca897b8a8fa1e510fd7c9569902aa45de3b22e0c50bd350405a2ad232cd1f71",
    "order-a2-den-poly-unreduced": "bd5754d43bea4c350ac9dd1c7567b5ea71b82a2c173098e1e9ad0e8b52a324de",
    "order-a2-den-poly-unsorted": "2b7008be704fab5bb121d45f5d93dc18fecbeab75962da4dac19e5568b2e4666",
    "order-a2-den-poly-zero-above-cap": "213f135ad0bae1c10d11d3dbb7328e1e7d1bce903628de15444d799790956748",
    "order-a2-num-poly-above-cap": "58a1c09ed62eefb154bfcc77f5eb7aafccad07db189deb5cd97690089f6869d2",
    "order-a2-num-poly-at-cap": "74ef9e1cd42eec0d5e8710da167690c4337e9a5ea9265125e2cf51aadf24289a",
    "order-a2-num-poly-bad-coeff-then-duplicate": "ac9002d3541358cbc92d996d2df2d456ac90b964142388c3619440e4254d6fcd",
    "order-a2-num-poly-duplicate": "8efc3c8f0202f7b11382be5c8110a0dd71d0dcef1210e8b7688c578f956d4fcc",
    "order-a2-num-poly-duplicate-then-bad-coeff": "8efc3c8f0202f7b11382be5c8110a0dd71d0dcef1210e8b7688c578f956d4fcc",
    "order-a2-num-poly-empty": "72c12f6b5d54b3d6a6d1ae454cea4f769234b2e31fcc80cb10ee68a302a397b1",
    "order-a2-num-poly-explicit-zeros": "0e725fc81d5aac5a6016e83ea6493e6b3df8defd8feb131447ac5df3246346e7",
    "order-a2-num-poly-not-a-list": "f9195d339112c69cb8cacc963c0c7c2022e5a8723e34aa84bb5ec74d4b66aa59",
    "order-a2-num-poly-only-zero": "72c12f6b5d54b3d6a6d1ae454cea4f769234b2e31fcc80cb10ee68a302a397b1",
    "order-a2-num-poly-shared-factor": "323acb3ea333c8538e359eac39ad8a16647fc398b898b5b477154d5b95214069",
    "order-a2-num-poly-unreduced": "01d2996723f76c51870d1fa05e29c2e0c919ba3699909f3901e4b080629cca1a",
    "order-a2-num-poly-unsorted": "dbb6de3bf4c6f67aef0408d1dc0b073d8cf37fc63b6c998890d2506ce669fda5",
    "order-a2-num-poly-zero-above-cap": "5341319dfad3f9d2ae2026b0f35948684c4031e58f6ad1e4306e636a985a4184",
    "order-a2-zero": "72c12f6b5d54b3d6a6d1ae454cea4f769234b2e31fcc80cb10ee68a302a397b1",
    "order-h-poly-above-cap": "506a5379ca1afb8857a106c91c937193e0bb3fb5458b8d63f578b8f18e412c1f",
    "order-h-poly-at-cap": "89b37d3e8dd662c6fc026b47cb6243ead55984a5c367b1fbfdd5a7f5e1fda0d5",
    "order-h-poly-bad-coeff-then-duplicate": "fbe3fcdd37cf0fe46bc96217fbfe209f737be69d02f56f777c7fe8bd970d190b",
    "order-h-poly-duplicate": "1ebf637fd2c33114a8ffb35a759195b0ca11822fd394f10452b3b2ca8ba873fb",
    "order-h-poly-duplicate-then-bad-coeff": "1ebf637fd2c33114a8ffb35a759195b0ca11822fd394f10452b3b2ca8ba873fb",
    "order-h-poly-empty": "13ad68a641037cb2692ebc5f24159ce0a2323422fab30d0e00397089235cd552",
    "order-h-poly-explicit-zeros": "e6d85e529ba6ab3f1b7fe003571006829f304670fac3f65f3004d8da2db6989c",
    "order-h-poly-not-a-list": "f3cdb0180ca0461fdf4ce958b66e27a01983814efd01ee11190e06d53768305e",
    "order-h-poly-only-zero": "13ad68a641037cb2692ebc5f24159ce0a2323422fab30d0e00397089235cd552",
    "order-h-poly-shared-factor": "10df79ab5818f4f89fa1d7e1bf6448bfb91a5a3ec9de5dd8d58250d9dadcfa78",
    "order-h-poly-unreduced": "10df79ab5818f4f89fa1d7e1bf6448bfb91a5a3ec9de5dd8d58250d9dadcfa78",
    "order-h-poly-unsorted": "10df79ab5818f4f89fa1d7e1bf6448bfb91a5a3ec9de5dd8d58250d9dadcfa78",
    "order-h-poly-zero-above-cap": "3fa842f220226495938f2de861cf7b414179cceb3721ba204ba9173d6f2a1cc3",
    "order-h-scaled": "dacce431d050ce9f4d2fdd1ecc20d7d56863f7133bdb0a0cd30b7a988698e7fb",
    "order-h-term-coeff-bool": "7e64887d1abebf54943629a79d9f54f8bf7e933a5cb28a2fc27296344a94131a",
    "order-h-term-coeff-float": "fbe3fcdd37cf0fe46bc96217fbfe209f737be69d02f56f777c7fe8bd970d190b",
    "order-h-term-coeff-int": "ce276c91704d7336d55845aff7b85a72a4bb4cd37db447f207f3e2311e8889eb",
    "order-h-term-coeff-list": "283d8dabcc13ae3fd6196f497e1126cb61269c4a9eecc8e2a3bc769dbf57114b",
    "order-h-term-coeff-null": "7fb9e59c63eff17a805bc8c1df7ce36c9fc8c9c85e0572e2cb72ba9e08fe6c13",
    "order-h-term-coeff-signed": "14ec9ee7f5e35e4e14504fd0f00f25033ba7e2852dc03f5b11d729c4e60fa478",
    "order-h-term-coeff-space": "c1bd2626595f37a901a29e6c3f88c36fcd42c5a331a5f3bd8b86b2c065727933",
    "order-h-term-coeff-two-slashes": "19610965500de420d1dfd6ea44df1f9c11e8196e12e497b83cc856154c5bf754",
    "order-h-term-coeff-unreduced": "5acd4c24919c85ac636aa0111ae3313b9dae84a9879af56d65a7c15fa1628919",
    "order-h-term-coeff-word": "bf0503fcebcead460e0eb52f2831fdd1b604d061b71b7b3f1ca86410d68160cf",
    "order-h-term-coeff-zero": "a2c3ea8a4e8a4772f336314a6a3026a5ce30dc8c6d419f3e55e704583f723c37",
    "order-h-term-coeff-zero-den": "8f4615158c5f2139c5bcd5146c0115da594f3b0d9e96ff36532cdd0f9400366b",
    "order-h-term-coeff-zero-over-zero": "cc0e604edfc4c5762bbeb73b619c9e9afbef0afae84d1b3a23e97a84c0b34869",
    "order-h-term-exp-above-cap": "506a5379ca1afb8857a106c91c937193e0bb3fb5458b8d63f578b8f18e412c1f",
    "order-h-term-exp-bool": "b9c713bda8a3d69de28e60c04c7e2a5040159f17c09196002a21d822b7071635",
    "order-h-term-exp-float": "ff9fe4fc3a7ca463abb26c377dd701c86d5e40a7ff934d95ebf9da44dd0594e2",
    "order-h-term-exp-negative": "e4e4fed68aeafea6c966590fffadcfbd539a93afd2f1c2f1c57c013114799030",
    "order-h-term-exp-null": "4d9661ca200942c0935351ace2a1505256dd90f1350a6f0dd75158129be0e1a0",
    "order-h-term-exp-str": "e0b444bb650240f39d6d0bdca9b612fcf9f67a386a6c7c13266befcbe719f2a1",
    "order-h-term-exps-2": "38cfedd4340cbf0752dc02ab58cec605738ebe4bcbf01fd11055ca9693613949",
    "order-h-term-exps-empty": "38cfedd4340cbf0752dc02ab58cec605738ebe4bcbf01fd11055ca9693613949",
    "order-h-term-exps-not-list": "8f88051e1b767815958a64bd59241f5f641384b664663ecd64c23a97d224b123",
    "order-h-term-exps-one-char-str": "a783ad16a96b8fddfdffdbdbd2d7ba7e19c3a5beb00352683d6bde880affa537",
    "order-h-term-pair-long": "c8701883c96360bc41c9e5c7309fbda6d03e56319e00e4773e0cdce1792a1e36",
    "order-h-term-pair-short": "c8701883c96360bc41c9e5c7309fbda6d03e56319e00e4773e0cdce1792a1e36",
    "order-h-term-term-int": "2de0c6ad07834d4b22f4c3fee27e532808f5c7cf219ad3979883de85132082c5",
    "order-h-term-term-object": "508a7858deea63b44bae0cae847d91089ce8584c8c027f6da12e15e7c5721396",
    "order-h-term-term-object-two-keys": "508a7858deea63b44bae0cae847d91089ce8584c8c027f6da12e15e7c5721396",
    "order-h-term-term-str": "f4565e218afeacabc0216fe030ea6956636858d35b61d190ef7862b2ea066011",
    "order-h-term-term-str-two-chars": "f4565e218afeacabc0216fe030ea6956636858d35b61d190ef7862b2ea066011",
    "order-ratfunc-missing-den": "1079d7effc7da73ef218c5fc74107bb195f7ef55213a9ee9f747048fb30b83df",
    "order-ratfunc-not-object": "c462aae903920fdecf7944a8d72dd268f943596f38ced213efeb40cad0d16a9f",
}


# -- one term reader -----------------------------------------------------------
#
# decode_unipoly and decode_trihom read their terms through one reader that
# takes the arity.  On term lists built from the catalogues above, from
# well-formed terms and their repeats and from JSON values nested at random,
# each decodes as its earlier copy in tests/_util.py: to the same polynomial
# in the same stored form, or to the same refusal with the same path.

# Values as json.loads builds them, nested at random.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 30)
    | st.floats()
    | st.sampled_from(["", "t", "0", "-2/3", "1/0", " 1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["e", "c"]), inner, max_size=2),
    max_leaves=6,
)
COEFFS = st.sampled_from(["1", "-2/3", "0", "6/4", "+007", "-0/5", 3, -1])
CATALOGUE = [*BAD_TERMS.values(), *BAD_UNI_TERMS.values()]
FRACTIONS = COEFFS | st.sampled_from(["1/3", "-5/6", "7/12", "-9/8", "10/15"])
KINDS = st.sampled_from(["well-formed"] * 6 + ["flawed"] * 3 + ["value"])
FLAWS = st.sampled_from(["mutant", "repeat", "catalogue", "nested", "degree"])


@st.composite
def well_formed_terms(draw, n, min_size=0):
    """Distinct well-formed terms of arity n, of one degree for n = 3, in any
    order, their coefficients integers, fractions, zeros and unreduced."""
    if n == 1:
        keys = draw(st.lists(st.integers(0, 24).map(lambda e: [e]), unique_by=tuple,
                             min_size=min_size, max_size=8))
    else:
        d = draw(st.integers(0, 4))
        monomials = [[i, j, d - i - j] for i in range(d + 1) for j in range(d + 1 - i)]
        keys = draw(st.lists(st.sampled_from(monomials), unique_by=tuple,
                             min_size=min(min_size, len(monomials)), max_size=8))
    return [[e, draw(FRACTIONS)] for e in keys]


@st.composite
def term_lists(draw, n):
    """A list of terms of arity n: about six in ten well formed, three in ten
    with one flaw, and one in ten another JSON value.  A flaw is at a random
    place: a mutant term (one part replaced by a random value, or a value
    appended), a repeated term, a term of the catalogues, another JSON value
    in place of a term, or a term of a degree one above the list's (n = 3)
    or above the degree cap (n = 1)."""
    kind = draw(KINDS)
    if kind == "value":
        return draw(JSON_VALUES)
    terms = draw(well_formed_terms(n, min_size=1))
    if kind == "well-formed":
        return terms
    flaw, at = draw(FLAWS), draw(st.integers(0, len(terms)))
    if flaw == "catalogue":
        terms.insert(at, json.loads(json.dumps(draw(st.sampled_from(CATALOGUE)))))
    elif flaw == "nested":
        terms.insert(at, draw(JSON_VALUES))
    elif flaw == "repeat":
        terms.insert(at, json.loads(json.dumps(draw(st.sampled_from(terms)))))
    elif flaw == "degree" and n == 1:
        terms.insert(at, [[25], draw(COEFFS)])
    elif flaw == "degree":
        d = sum(terms[0][0]) + 1
        i = draw(st.integers(0, d))
        j = draw(st.integers(0, d - i))
        terms.insert(at, [[i, j, d - i - j], draw(COEFFS)])
    else:
        term, value = terms[min(at, len(terms) - 1)], draw(st.integers(-3, -1) | JSON_VALUES)
        slot = draw(st.sampled_from(["term", "exps", "coeff", "exp", "extra-exp"]))
        if slot == "term":
            term.append(value)
        elif slot == "exps":
            term[0] = value
        elif slot == "coeff":
            term[1] = value
        elif slot == "exp":
            term[0][draw(st.integers(0, n - 1))] = value
        else:
            term[0].append(value)
    return terms


def degree_of(v):
    """The total degree of the first term of a list, if its exponents are
    integers, else 0."""
    try:
        d = sum(v[0][0])
    except (TypeError, IndexError, KeyError):
        return 0
    return d if type(d) is int else 0


def outcome(decode, *args):
    """The stored form of the decoded polynomial, or the refusal."""
    try:
        f = decode(*args)
    except SchemaError as exc:
        return "SchemaError", exc.path, exc.message
    except (DegreeCapExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return f.degree, f._den, list(f._body.items())


@settings(max_examples=400, derandomize=True, deadline=None)
@given(term_lists(1))
def test_univariate_terms_read_as_the_earlier_decoder(v):
    assert outcome(ser.decode_unipoly, v, ("h",)) == outcome(decode_unipoly_oracle, v, ("h",))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(term_lists(3).flatmap(lambda v: st.tuples(
    st.just(v), st.sampled_from([degree_of(v)] * 4 + [None, None, 0, 1, 2, 3]))))
def test_trivariate_terms_read_as_the_earlier_decoder(case):
    v, degree = case
    path = ("components", 1)
    assert outcome(ser.decode_trihom, v, path, degree) == outcome(
        decode_trihom_oracle, v, path, degree
    )


# -- the one-pass reader -------------------------------------------------------
#
# _read_terms checks and reads each term in one pass, with no path and no
# _read_rational call for a well-formed one.  With _over_lcm it gives the
# earlier reader's body, denominator and degrees (the earlier reader followed
# by the decoders' later passes), or the same refusal.  Terms of two total degrees, which both
# decoders refuse by their degrees, are compared by their degrees alone.


def one_pass_form(v, path, n):
    """(body, den, degrees) of the one-pass reader and ``_over_lcm``."""
    nums, dens, degrees = ser._read_terms(v, path, n)
    return (*ser._over_lcm(nums, dens), degrees)


def reader_outcome(read, v, n):
    try:
        body, den, degrees = read(v, ("p",), n)
    except SchemaError as exc:
        return "SchemaError", exc.path, exc.message
    if n == 3 and len(degrees) > 1:
        return degrees
    return list(body.items()), den, degrees


LONG = "1" * 641


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([1, 3]).flatmap(
    lambda n: st.tuples(st.just(n), term_lists(n) | well_formed_terms(n))))
@example((3, [[[1, 0, 0], "1/2"], [[0, 1, 0], "-2/3"], [[0, 0, 1], "0/7"]]))
@example((3, [[[1, 0, 0], LONG], [[0, 1, 0], f"1/{LONG}"], [[0, 0, 2], "1"], [[1, 0, 0], "1"]]))
@example((3, [[[1, 0, 0], "1"], [[1, 0, 1], "1"], [[1, 0, 1], "1"]]))
@example((1, [[[2], "3"], [[0], "1/0"]]))
@example((1, [[[0], "2"], [[3], "1/4"], [[1], "-5/6"], [[3], "x"]]))
@example((1, [[[1], "7" * 5000]]))
def test_one_pass_reader_reads_as_the_earlier_reader(case):
    n, v = case
    assert reader_outcome(one_pass_form, v, n) == reader_outcome(read_form_oracle, v, n)



# Input the decoders refuse costs what its terms cost to read: terms that
# share a key (i, j) are told apart with one set of exponents, and no
# denominator is multiplied before the degrees are checked.  The earlier
# reader refused these lists in linear time too; a reader with a quadratic
# step takes minutes on them.

MANY = 20_000


def first_primes(count):
    limit = 250_000  # above the 20,000th prime, 224,737
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for a in range(2, int(limit**0.5) + 1):
        if sieve[a]:
            sieve[a * a::a] = bytes(len(range(a * a, limit, a)))
    return [a for a in range(limit) if sieve[a]][:count]


def timed_outcome(decode, *args):
    t0 = time.perf_counter()
    got = outcome(decode, *args)
    assert time.perf_counter() - t0 < 1
    return got


@pytest.mark.parametrize("repeat", [False, True])
def test_terms_of_one_key_and_many_degrees_are_refused_quickly(repeat):
    v = [[[0, 0, k], "1"] for k in range(MANY)] + [[[0, 0, 5], "1"]] * repeat
    got = timed_outcome(ser.decode_trihom, v, ("p",))
    assert got == outcome(decode_trihom_oracle, v, ("p",))
    assert got[2] == ("duplicate monomial [0, 0, 5]" if repeat else
                      f"terms are not homogeneous: total degrees {list(range(MANY))}")


def test_many_prime_denominators_are_refused_before_any_lcm():
    primes = first_primes(MANY)
    uni = [[[e], f"1/{p}"] for e, p in enumerate(primes)]
    tri = [[[e, 0, 0], f"1/{p}"] for e, p in enumerate(primes)]
    got = timed_outcome(ser.decode_unipoly, uni, ("h",))
    assert got == outcome(decode_unipoly_oracle, uni, ("h",))
    assert got[0] == "DegreeCapExceeded"
    got = timed_outcome(ser.decode_trihom, tri, ("p",))
    assert got == outcome(decode_trihom_oracle, tri, ("p",))
    assert got[2].startswith("terms are not homogeneous")
    # Accepted, the terms go over the lcm of their denominators as before.
    d = 19
    tri = [[[i, j, d - i - j], f"{i - j}/{p}"]
           for (i, j), p in zip([(i, j) for i in range(d + 1) for j in range(d + 1 - i)], primes)]
    assert outcome(ser.decode_trihom, tri, ("p",)) == outcome(decode_trihom_oracle, tri, ("p",))


# Curves of numbers alone, as the chain commands read them, with zero to
# two fields replaced: the degree, a label or a multiplicity by a value of
# another type or out of range, a repeated label, coordinates, a ``poly``,
# an entry or the list itself by something else, a field dropped.
_ODD = st.sampled_from([None, True, False, 0, 1, -1, 2.0, "", "2", [], {}, 10**6])


@st.composite
def chain_curves(draw):
    degree = draw(st.integers(1, 12))
    sings = [
        {"label": draw(st.sampled_from(["p", "q", "r", "%", "é", "s\"t"])) + str(i),
         "mult": draw(st.integers(2, max(2, degree // 2)))}
        for i in range(draw(st.integers(0, 6)))
    ]
    for s in sings:
        if draw(st.booleans()):
            s["coords"] = None
    curve = {"degree": degree, "singularities": sings}
    if draw(st.booleans()):
        curve["poly"] = None
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["degree", "list", "entry", "label", "mult", "coords",
                                      "poly", "repeat", "drop"]))
        if where == "degree":
            curve["degree"] = draw(st.one_of(_ODD, st.integers(-2, 40)))
        elif where == "list":
            curve["singularities"] = draw(_ODD)
        elif where == "poly":
            curve["poly"] = draw(st.sampled_from([[[[1, 0, 0], "1"]], [], "x"]))
        elif where == "drop":
            del curve[draw(st.sampled_from(sorted(curve)))]
        elif sings:
            i = draw(st.integers(0, len(sings) - 1))
            if where == "entry":
                sings[i] = draw(_ODD)
            elif type(sings[i]) is not dict:
                pass
            elif where == "repeat":
                sings.append(dict(sings[i]))
            elif where == "coords":
                sings[i]["coords"] = draw(st.sampled_from([[1, 0, 0], [0, 0, 0], [1, 2], "x"]))
            else:
                sings[i][where] = draw(st.one_of(_ODD, st.integers(-1, 40)))
    return curve


def chain_outcome(decode, v):
    """The numerical data ``adjoint_chain`` reads from the decoded curve, with
    its sums, or the error."""
    try:
        source = decode(v)
    except SchemaError as exc:
        return "schema", exc.path, exc.message
    except (InvalidCurveData, ValueError) as exc:
        return type(exc).__name__, str(exc)
    L = source if isinstance(source, LinSysData) else _numerical_data(source)
    return L, (L.degree, sum(m for _, m in L.mults), sum(m * m for _, m in L.mults))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(chain_curves())
@example({"degree": 6, "poly": None, "singularities": [
    {"label": "b", "mult": 2, "coords": None}, {"label": "a", "mult": 3, "coords": None}]})
@example({"degree": 6, "singularities": [{"label": "a", "mult": 2}, {"label": "a", "mult": 2}]})
@example({"degree": 2, "singularities": [{"label": "", "mult": 1}, {"label": 5, "mult": 2}]})
def test_chain_curves_read_as_the_model_reads_them(curve):
    """decode_curve_numbers reads a curve of numbers alone in one pass, with
    no point records, and anything else through the model: the data, its
    sums and every refusal are those of decode_curve and the model."""
    expected = chain_outcome(ser.decode_curve, curve)
    assert chain_outcome(ser.decode_curve_numbers, curve) == expected
    numbers_only = curve.get("poly") is None and type(curve.get("singularities")) is list and all(
        type(s) is dict and s.get("coords") is None for s in curve["singularities"])
    if numbers_only and isinstance(expected[0], LinSysData):
        L = ser.decode_curve_numbers(curve)
        assert type(L) is LinSysData and L._sums == expected[1][1:]

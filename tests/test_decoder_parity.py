"""Map and curve JSON decode exactly as the earlier decoder did.

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
from fractions import Fraction

import pytest

from cremona_kit import serialization as ser
from cremona_kit.cli import main
from cremona_kit.cremona_maps import CremonaMap, identity_map, make_phi

from _util import OldTriHomPoly, assert_canonical

PHI = ser.encode_map(make_phi(2, 3))
IDENTITY = ser.encode_map(identity_map())
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
    canonical = ser.decode_map(ser.encode_map(m))
    assert canonical == m and canonical.components == m.components
    assert all(c.terms[0][1] == 1 for c in m.components[:1] if c)


@pytest.mark.parametrize("key", ["explicit-zero", "unreduced", "int-coeffs", "unsorted"])
def test_decoded_polynomial_carries_its_form(key):
    f = ser.decode_trihom(POLYS[key], ())
    assert_canonical(f, OldTriHomPoly(1, tuple((tuple(e), c) for e, c in POLYS[key])))


def test_decoded_coefficients_are_those_of_fraction():
    f = ser.decode_trihom(POLYS["unreduced"], ())
    assert f.as_dict() == {(0, 0, 1): Fraction(3, 2), (1, 0, 0): 3, (0, 1, 0): 7}
    assert [e for e, _ in f.terms] == sorted(f.as_dict(), reverse=True)


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

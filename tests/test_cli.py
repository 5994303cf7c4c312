import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cremona_kit import serialization as ser
from cremona_kit.cli import _render_text, main
from cremona_kit.cremona_maps import CremonaMap, identity_map, make_phi
from cremona_kit.exact_algebra import TRI_X, TRI_Y, TRI_Z, TriHomPoly, UniPoly
from cremona_kit.jonquieres import JonqElement

from _util import H4, render_text_oracle

GEISER_CURVE = json.dumps(
    {
        "degree": 6,
        "singularities": [
            {"label": f"p{i}", "mult": 2, "coords": None} for i in range(7)
        ],
        "poly": None,
    }
)

BERTINI_CURVE = json.dumps(
    {
        "degree": 9,
        "singularities": [
            {"label": f"p{i}", "mult": 3, "coords": None} for i in range(8)
        ],
        "poly": None,
    }
)


# sha256 of the stdout of `pencil-enum --max 16 --bound 16` and of two
# `adjoint-chain` reports, recorded with json.dumps(indent=2, sort_keys=True)
# and the recursive partition generator: the writer and the walk that
# replaced them must reproduce these bytes.  The first is kept in a file
# that the examples job of the CI workflow also checks.  The `classify`
# digests of the same two curves were recorded before the adjoint chain
# derived its systems by the trusted LinSysData._sorted.
PENCIL_ENUM_16_SHA256 = (Path(__file__).parent / "pencil_enum_16.sha256").read_text().strip()
# Recorded before the walk wrote rests of parts <= 3 in closed form and the
# writer formatted scalars through one exact-type table.
PENCIL_ENUM_20_SHA256 = "f95950e01f41309da0d4c54827b4cd83fc3901282583bc800e6444ad674ce596"
# `pencil-enum --max 6 --format text`, kept in a file that the examples job of
# the CI workflow also checks.
PENCIL_ENUM_6_TEXT_SHA256 = (
    (Path(__file__).parent / "pencil_enum_6_text.sha256").read_text().strip()
)
# 13 steps, fixed lines removed, ends in a rational pencil.
CHAIN_65 = (65, [4, 10, 9, 14, 6, 12, 11, 8, 39, 26, 17, 8, 16, 6, 8, 13])
CHAIN_65_SHA256 = "aa2d5918a694cdfe2548b4bdd4699ce074b3c8074c40eb8a51e8e07b85412824"
CLASSIFY_65_SHA256 = "40f62162754c5c651c6806d9bc24b1b6ca1933ccdcc5e50cf02cb75420b7321d"
# 9 steps, ends exhausted with two warnings.
CHAIN_55 = (55, [22, 22, 4, 22, 3, 7, 22, 9, 11, 22, 10, 13, 5, 4])
CHAIN_55_SHA256 = "5c7a0eb7ac4b277a8db730bda6fcbde638acfc740265ad5d2bea0fed233d669a"
CLASSIFY_55_SHA256 = "e73be0b7b60a4fbef3f86b6f58bc5ca8f2e77697ef9ebec9cd4377ff5d186e44"
# sha256 of the stdout of `cremona-kit examples`, kept in a file that the
# examples job of the CI workflow also checks.
EXAMPLES_SHA256 = (Path(__file__).parent / "examples.sha256").read_text().strip()


def _curve(degree, poly, points):
    sings = [{"label": label, "mult": m, "coords": list(coords)} for label, m, coords in points]
    return json.dumps({"degree": degree, "poly": ser.encode_trihom(poly), "singularities": sings})


# Curves for `validate`: an m-fold point at infinity and a tacnode at
# (0:1:0), a cusp given by rational coordinates, a declared multiplicity
# off by one and a perfect power.
VALIDATE_CURVES = [
    _curve(
        4,
        TRI_Z * (TRI_X - TRI_Y) * (TRI_X - TRI_Y - TRI_Z) * (TRI_X + TRI_Y),
        [("inf", 3, ["1", "1", "0"])],
    ),
    _curve(4, TRI_Y**2 * TRI_Z**2 - TRI_X**4 + TRI_Z**4, [("inf", 2, ["0", "1", "0"])]),
    _curve(
        3,
        (TRI_Y * 3 - TRI_Z) ** 2 * TRI_Z * 2 - (TRI_X * 2 - TRI_Z) ** 3 * Fraction(9, 4),
        [("cusp", 2, ["3/2", "1", "3"])],
    ),
    _curve(
        6,
        TriHomPoly.of({(3, 3, 0): 1, (3, 1, 2): -1, (1, 3, 2): -1, (1, 1, 4): 1, (0, 0, 6): 1}),
        [("p0", 3, ["1", "0", "0"]), ("p1", 2, ["0", "1", "0"])],
    ),
    _curve(4, (TRI_X**2 + TRI_Y * TRI_Z) ** 2, [("o", 2, ["0", "0", "1"])]),
]


def workload_requests(workload, blocks):
    """The requests of the first ``blocks`` blocks of the benchmark's
    ``workload`` on seeds 1 to 5, in order."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [r for seed in range(1, 6) for r in workloads.generate(workload, seed, blocks)]


def field_payloads(kind):
    """The payloads of command ``kind`` in the first two blocks of the
    benchmark's function_field workload on seeds 1 to 5.  Those of
    `validate` are curves of degree 4, 6 and 8 with a (deg - 2)-fold point
    at (0:1:0); those of the group commands are elements over h of degree
    4, 6 and 8 with entries over den = 1."""
    return [r.payload for r in workload_requests("function_field", 2) if r.kind == kind]


# sha256 of the exit code and stdout of `validate` on each input in turn,
# first recorded when multiplicities were read off the partials at the point,
# and re-recorded when passing checks stopped printing failure text: the
# passing degree-positive, genus-nonnegative and poly-degree-matches checks
# now read "detail": "", and no other byte changed.
VALIDATE_FIELD_SHA256 = "cddd441f281befbd6f65d3deb48a2a11cb7aefb5df3205c26ae4edacfcdfec48"
VALIDATE_CURVES_SHA256 = "91b4bcfcfd4c48dc6f4f795f3f130d5e1aa397943d2f41387db059f72be9110f"
# A degree-8 hyperelliptic curve with a 6-fold point at (0:1:0), and the
# sha256 of its `validate` stdout, which the examples job of the CI
# workflow also checks.
HYPERELLIPTIC_8 = Path(__file__).parent / "hyperelliptic_8.json"
HYPERELLIPTIC_8_SHA256 = (Path(__file__).parent / "hyperelliptic_8.sha256").read_text().strip()
# sha256 of the exit code and stdout of each group command on its
# function_field payloads in turn, recorded while every element computed its
# determinant at construction and lambda = trace^2 / det.
JONQ_FIELD_SHA256 = {
    "jonq-order": "0a911c0572fcbb501b50dd178ea69bad82e6ff033e3ea5d0faa44dae78a52615",
    "jonq-mul": "f34e14b47264aaf2b2af6781d7231cccb03f14b2048f99dadbe8a7fef9b44d12",
    "jonq-fix-check": "3a10ffc08cd36812760089ebe39ac57eafff013e450dfed2fb10acc64e2db44f",
}
# An element over h of degree 6 whose entries have denominators of degree 1
# and 3 sharing a factor, and numerators sharing a factor, so that lambda is
# reduced by a gcd of degree 6; the sha256 of its `jonq-order` stdout, which
# the examples job of the CI workflow also checks, was recorded with
# lambda = trace^2 / det.
JONQ_ORDER = Path(__file__).parent / "jonq_order.json"
JONQ_ORDER_SHA256 = (Path(__file__).parent / "jonq_order.sha256").read_text().strip()
# That element times one whose a1 has a non-monic constant denominator and
# whose a2 has a denominator sharing a factor with its numerator; the sha256
# of its `jonq-mul` stdout, which the examples job of the CI workflow also
# checks, was recorded while RatFunc reduced by its own gcd front end.
JONQ_MUL = Path(__file__).parent / "jonq_mul.json"
JONQ_MUL_SHA256 = (Path(__file__).parent / "jonq_mul.sha256").read_text().strip()
# sha256 of the exit code and stdout of each request of the first block of the
# benchmark's compose_words workload on seeds 1 to 5 in turn (map-compose,
# then map-fixcheck on its piped stdout), recorded before the polynomial
# constructors and decoders shared one builder.
COMPOSE_WORDS_SHA256 = "a55bb3fcf16e82d20bacd40965c562079afec04002e1224427d15fc703ae08b7"
# F3 o B of tests/test_cremona_maps.py, of degree 24, the default cap, and
# the sha256 of its `map-compose` stdout, which the examples job of the CI
# workflow also checks, recorded at the same time.
MAP_COMPOSE_24 = Path(__file__).parent / "map_compose_24.json"
MAP_COMPOSE_24_SHA256 = (Path(__file__).parent / "map_compose_24.sha256").read_text().strip()
# An H element with rational alpha and beta after a phi o G with large rational
# parameters: the substitution packs into slots of 224 bits, wider than 8
# bytes, and the composite of degree 5 has fractional coefficients.  The
# sha256 of its `map-compose` stdout, which the examples job of the CI
# workflow also checks, was recorded before the three components shared one
# substitution.
MAP_COMPOSE_WIDE = Path(__file__).parent / "map_compose_wide.json"
MAP_COMPOSE_WIDE_SHA256 = (Path(__file__).parent / "map_compose_wide.sha256").read_text().strip()

# The exit code and the sha256 of the `--format text` stdout of every other
# subcommand, and of one error report, on inputs used above; recorded while
# text mode rendered the payload itself rather than the JSON report.
TEXT_OUTPUTS = {
    "genus": (0, "2e65747a6c8897e56a87d8314c6c5650c21121d4047b3998db8a1ad44262004b"),
    "validate": (0, "2b1d0e7f034e2092d3c0e4b3092b3ded9ecb41839d1aa518ad115f45373aa331"),
    "adjoint-chain": (0, "b7be2be9d363ec24b991917042e20fd38f528a84725a3704a39dcc007d5ab552"),
    "classify": (0, "df8abc42c450cc7349b34589f96ba2e5c4bcd4784445b5a515ba83f7ea475207"),
    "map-compose": (0, "f06a984013ba42fe967ae9c077c409c9624362b4c215ffd7de061a0f818e3f95"),
    "map-fixcheck": (0, "1f01167ef3b348b2f8e14bc3856e677c34f2334a35365f62745334af44957a14"),
    "jonq-order": (0, "a2163ad6e766dc28586b62d8f28097b93eb52e68beb8017b556e829ff38f554a"),
    "jonq-mul": (0, "c5a8dc42d16a094cf2b9e1abcd2bb40ef79ae68c983e37848a60df6d8fee015d"),
    "jonq-fix-check": (0, "816128b033b719ce118f8aa18987e04bd11d3ab66e1f32a02a5aec96ab7d977e"),
    "pencil-check": (0, "f7a807e5836ef495d086b831f74194df1e6c434ba32fb4b48fce6b556db7d374"),
    "examples": (0, "e0df2a3a8a6baf2a96c747715a09654b860ac099ca9351f17e7362399ed15556"),
    "malformed-json": (1, "0ed4160353bfdc885c601d125adad47e96aaf101f5e0660ebf86ebc73d2663d6"),
}


def text_argv(name):
    """The arguments of the `--format text` run named ``name`` in TEXT_OUTPUTS."""
    curve = TestGoldenOutputs.curve
    line = ser.encode_trihom(TriHomPoly.monomial((1, 0, 0)))
    fixcheck = json.dumps({"map": ser.encode_map(make_phi(2, 3)), "curve": line})
    element = json.loads(JONQ_ORDER.read_text())
    return {
        "genus": ["genus", "--inline", GEISER_CURVE],
        "validate": ["validate", str(HYPERELLIPTIC_8)],
        "adjoint-chain": ["adjoint-chain", "--inline", curve(*CHAIN_65)],
        "classify": ["classify", "--inline", curve(*CHAIN_55)],
        "map-compose": ["map-compose", str(MAP_COMPOSE_24)],
        "map-fixcheck": ["map-fixcheck", "--inline", fixcheck],
        "jonq-order": ["jonq-order", str(JONQ_ORDER)],
        "jonq-mul": ["jonq-mul", "--inline", json.dumps({"u": element, "v": element})],
        "jonq-fix-check": ["jonq-fix-check", str(JONQ_ORDER)],
        "pencil-check": ["pencil-check", "--n", "2", "--mults", "1,1,1,1"],
        "examples": ["examples"],
        "malformed-json": ["genus", "--inline", "{not json"],
    }[name]


# t^2 (t^2 + 1): even degree 4, not squarefree.
T2_T2_PLUS_1 = UniPoly.of(0, 0, 1, 0, 1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestGenus:
    def test_geiser(self, capsys):
        code, payload = run_json(capsys, "genus", "--inline", GEISER_CURVE)
        assert code == 0
        assert payload == {"degree": 6, "genus": 3}

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(GEISER_CURVE)
        code, payload = run_json(capsys, "genus", str(path))
        assert code == 0 and payload["genus"] == 3

    def test_missing_file(self, capsys):
        code, payload = run_json(capsys, "genus", "no-such-file.json")
        assert code == 1
        assert payload["error"] == "schema"

    def test_unreadable_source_is_reported(self, capsys, tmp_path):
        # A missing file, a directory and a file that is not UTF-8.
        bad_bytes = tmp_path / "bad-bytes.json"
        bad_bytes.write_bytes(b"\xff" + GEISER_CURVE.encode())
        for source in (str(tmp_path / "missing.json"), str(tmp_path), str(bad_bytes)):
            code, payload = run_json(capsys, "genus", source)
            assert code == 1 and payload["error"] == "schema"
            assert payload["message"].startswith(f"cannot read {source!r}: ")

    def test_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        """A UTF-8 file with labels outside ASCII gives the same exit code
        and stdout in the C locale without UTF-8 mode as in UTF-8 mode."""
        path = tmp_path / "curve.json"
        path.write_bytes(GEISER_CURVE.replace('"label": "p', '"label": "\u00e9').encode())
        assert b"\xc3\xa9" in path.read_bytes()
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = [
            subprocess.run(
                [sys.executable, "-X", f"utf8={mode}", "-m", "cremona_kit.cli",
                 "adjoint-chain", str(path)],
                capture_output=True, env=dict(os.environ, PYTHONPATH=src, LC_ALL="C"), timeout=60,
            )
            for mode in (0, 1)
        ]
        assert [(r.returncode, r.stdout) for r in runs] == [(0, runs[1].stdout)] * 2
        assert b'"\\u00e90"' in runs[0].stdout

    def test_two_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(GEISER_CURVE)
        code, payload = run_json(capsys, "genus", str(path), "--inline", GEISER_CURVE)
        assert code == 1

    def test_empty_inline_is_malformed_json(self, capsys):
        code, payload = run_json(capsys, "genus", "--inline", "")
        assert code == 1
        assert payload["error"] == "malformed-json"
        assert payload["line"] == 1 and payload["column"] == 1

    def test_file_and_empty_inline_are_two_sources(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(GEISER_CURVE)
        code, payload = run_json(capsys, "genus", str(path), "--inline", "")
        assert code == 1
        assert payload["error"] == "schema" and payload["path"] == "$"
        assert "exactly one input source" in payload["message"]


class TestErrorry:
    def test_malformed_json(self, capsys):
        code, payload = run_json(capsys, "genus", "--inline", "{not json")
        assert code == 1
        assert payload["error"] == "malformed-json"
        assert payload["line"] == 1 and payload["column"] >= 1

    def test_deep_nesting_is_malformed_json(self, capsys):
        deep = "[" * 200_000
        for command in ("genus", "map-compose"):
            code, payload = run_json(capsys, command, "--inline", deep)
            assert code == 1
            assert payload["error"] == "malformed-json"
            assert payload["line"] == 1 and payload["column"] == 1

    def test_schema_violation_path(self, capsys):
        bad = json.dumps({"degree": 6, "singularities": [{"label": "p"}]})
        code, payload = run_json(capsys, "genus", "--inline", bad)
        assert code == 1
        assert payload["error"] == "schema"
        assert payload["path"] == "$.singularities[0].mult"

    def test_inconsistent_curve_is_validation_failure(self, capsys):
        bad = json.dumps(
            {
                "degree": 4,
                "singularities": [{"label": "p", "mult": 3, "coords": None},
                                   {"label": "q", "mult": 3, "coords": None}],
                "poly": None,
            }
        )
        code, payload = run_json(capsys, "genus", "--inline", bad)
        assert code == 2
        assert payload["error"] == "InvalidCurveData"


class TestValidate:
    def test_pass(self, capsys):
        code, payload = run_json(capsys, "validate", "--inline", GEISER_CURVE)
        assert code == 0 and payload["passed"] is True

    def test_fail_exits_two(self, capsys):
        bad = json.dumps(
            {
                "degree": 4,
                "singularities": [{"label": "p", "mult": 5, "coords": None}],
                "poly": None,
            }
        )
        code, payload = run_json(capsys, "validate", "--inline", bad)
        assert code == 2
        assert payload["passed"] is False
        assert any(not c["passed"] for c in payload["checks"])


class TestChains:
    def test_bertini_chain(self, capsys):
        code, payload = run_json(capsys, "adjoint-chain", "--inline", BERTINI_CURVE)
        assert code == 0
        assert payload["class"] == "EllipticPencil"
        assert len(payload["steps"]) == 2
        assert payload["terminal"]["degree"] == 3

    def test_classify(self, capsys):
        code, payload = run_json(capsys, "classify", "--inline", GEISER_CURVE)
        assert code == 0
        assert payload["class"] == "EllipticNet"
        assert payload["steps"] == 1

    def test_low_genus_exits_two(self, capsys):
        smooth_cubic = json.dumps({"degree": 3, "singularities": [], "poly": None})
        code, payload = run_json(capsys, "adjoint-chain", "--inline", smooth_cubic)
        assert code == 2
        assert payload["error"] == "AdjointDoesNotExist"

    def test_determinism(self, capsys):
        _, first = run(capsys, "adjoint-chain", "--inline", BERTINI_CURVE)
        _, second = run(capsys, "adjoint-chain", "--inline", BERTINI_CURVE)
        assert first == second


def fermat(d):
    """x^d + y^d, as a curve polynomial with no declared singular point."""
    return {"degree": d, "singularities": [], "poly": [[[d, 0, 0], "1"], [[0, d, 0], "1"]]}


CURVE_COMMANDS = ["genus", "validate", "adjoint-chain", "classify"]


class TestCurveDegreeCap:
    """A curve polynomial above the degree cap is refused before any check
    runs on it: the coprimality test of ``validate`` on x^d + y^d took 2.1 s
    at d = 3,200 and 54.5 s at d = 12,800 before the decode-time check."""

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    @pytest.mark.parametrize("d", [25, 12800])
    def test_poly_above_the_cap_is_refused(self, capsys, command, d):
        t0 = time.perf_counter()
        code, payload = run_json(capsys, command, "--inline", json.dumps(fermat(d)))
        assert time.perf_counter() - t0 < 1
        assert (code, payload) == (2, {
            "error": "DegreeCapExceeded",
            "message": f"the polynomial at $.poly needs degree {d}, above the cap 24 "
            "(raise CREMONA_KIT_MAX_DEGREE to allow it)",
        })

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    def test_poly_at_a_raised_cap_runs(self, capsys, monkeypatch, command):
        monkeypatch.setenv("CREMONA_KIT_MAX_DEGREE", "25")
        code, payload = run_json(capsys, command, "--inline", json.dumps(fermat(25)))
        assert code == 0 and "error" not in payload

    def test_a_model_of_numbers_alone_is_not_capped(self, capsys):
        curve = json.dumps({"degree": 100, "singularities": [], "poly": None})
        code, payload = run_json(capsys, "classify", "--inline", curve)
        assert (code, payload["terminal"]["degree"]) == (0, 1)

    def test_the_fixcheck_curve_is_not_capped(self, capsys):
        payload_in = json.dumps(
            {"map": ser.encode_map(identity_map()), "curve": fermat(12800)["poly"]}
        )
        code, payload = run_json(capsys, "map-fixcheck", "--inline", payload_in)
        assert (code, payload) == (
            0, {"curve_degree": 12800, "fixes_pointwise": True, "map_degree": 1}
        )


class TestGoldenOutputs:
    def digest(self, capsys, *argv):
        code, out = run(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_pencil_enum_16(self, capsys):
        assert self.digest(capsys, "pencil-enum", "--max", "16", "--bound", "16") == (
            PENCIL_ENUM_16_SHA256
        )

    def test_pencil_enum_20(self, capsys):
        assert self.digest(capsys, "pencil-enum", "--max", "20", "--bound", "20") == (
            PENCIL_ENUM_20_SHA256
        )

    def test_pencil_enum_6_text(self, capsys):
        assert self.digest(capsys, "pencil-enum", "--max", "6", "--format", "text") == (
            PENCIL_ENUM_6_TEXT_SHA256
        )

    @pytest.mark.parametrize(
        "system, want",
        [(CHAIN_65, CHAIN_65_SHA256), (CHAIN_55, CHAIN_55_SHA256)],
        ids=["degree-65", "degree-55"],
    )
    def test_adjoint_chain_reports(self, capsys, system, want):
        assert self.digest(capsys, "adjoint-chain", "--inline", self.curve(*system)) == want

    @pytest.mark.parametrize(
        "system, want",
        [(CHAIN_65, CLASSIFY_65_SHA256), (CHAIN_55, CLASSIFY_55_SHA256)],
        ids=["degree-65", "degree-55"],
    )
    def test_classify_reports(self, capsys, system, want):
        assert self.digest(capsys, "classify", "--inline", self.curve(*system)) == want

    def test_examples(self, capsys):
        assert self.digest(capsys, "examples") == EXAMPLES_SHA256

    @pytest.mark.parametrize("name", TEXT_OUTPUTS)
    def test_text_outputs(self, capsys, name):
        code, out = run(capsys, *text_argv(name), "--format", "text")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == TEXT_OUTPUTS[name]

    @staticmethod
    def runs_digest(capsys, payloads, command="validate"):
        digest = hashlib.sha256()
        for payload in payloads:
            code, out = run(capsys, command, "--inline", payload)
            digest.update(f"{code}\n{out}".encode())
        return digest.hexdigest()

    def test_validate_field_payloads(self, capsys):
        payloads = field_payloads("validate")
        assert len(payloads) == 30
        assert self.runs_digest(capsys, payloads) == VALIDATE_FIELD_SHA256

    @pytest.mark.parametrize(
        "command, count", [("jonq-order", 60), ("jonq-mul", 30), ("jonq-fix-check", 60)]
    )
    def test_group_field_payloads(self, capsys, command, count):
        payloads = field_payloads(command)
        assert len(payloads) == count
        assert self.runs_digest(capsys, payloads, command) == JONQ_FIELD_SHA256[command]

    def test_jonq_order_rational_entries(self, capsys):
        assert self.digest(capsys, "jonq-order", str(JONQ_ORDER)) == JONQ_ORDER_SHA256

    def test_jonq_mul_rational_entries(self, capsys):
        assert self.digest(capsys, "jonq-mul", str(JONQ_MUL)) == JONQ_MUL_SHA256

    def test_validate_hand_made_curves(self, capsys):
        assert self.runs_digest(capsys, VALIDATE_CURVES) == VALIDATE_CURVES_SHA256

    def test_validate_hyperelliptic_8(self, capsys):
        assert self.digest(capsys, "validate", str(HYPERELLIPTIC_8)) == HYPERELLIPTIC_8_SHA256

    def test_compose_words_stream(self, capsys):
        requests = workload_requests("compose_words", 1)
        assert len(requests) == 510
        digest, out = hashlib.sha256(), ""
        for request in requests:
            code, out = run(capsys, *request.command(out))
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == COMPOSE_WORDS_SHA256

    def test_map_compose_24(self, capsys):
        assert self.digest(capsys, "map-compose", str(MAP_COMPOSE_24)) == MAP_COMPOSE_24_SHA256

    def test_map_compose_wide_slots(self, capsys):
        assert self.digest(capsys, "map-compose", str(MAP_COMPOSE_WIDE)) == MAP_COMPOSE_WIDE_SHA256

    @staticmethod
    def curve(degree, mults):
        sings = [{"label": f"p{i:02d}", "mult": m, "coords": None} for i, m in enumerate(mults)]
        return json.dumps({"degree": degree, "poly": None, "singularities": sings})


class TestMaps:
    def test_compose_involution(self, capsys):
        phi = ser.encode_map(make_phi(1, 0))
        payload_in = json.dumps({"outer": phi, "inner": phi})
        code, payload = run_json(capsys, "map-compose", "--inline", payload_in)
        assert code == 0
        assert payload == ser.encode_map(identity_map())

    def test_fixcheck_true(self, capsys):
        phi = ser.encode_map(make_phi(2, 3))
        line = ser.encode_trihom(TriHomPoly.monomial((1, 0, 0)))
        payload_in = json.dumps({"map": phi, "curve": line})
        code, payload = run_json(capsys, "map-fixcheck", "--inline", payload_in)
        assert code == 0 and payload["fixes_pointwise"] is True

    def test_fixcheck_false_exits_two(self, capsys):
        phi = ser.encode_map(make_phi(2, 3))
        line = ser.encode_trihom(TriHomPoly.monomial((0, 1, 0)))
        payload_in = json.dumps({"map": phi, "curve": line})
        code, payload = run_json(capsys, "map-fixcheck", "--inline", payload_in)
        assert code == 2 and payload["fixes_pointwise"] is False

    def test_fixcheck_refuses_constant_curve(self, capsys):
        x, y, z = (TriHomPoly.monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        involution = ser.encode_map(CremonaMap.of(y * z, x * z, x * y))
        constant = ser.encode_trihom(TriHomPoly.monomial((0, 0, 0), 3))
        payload_in = json.dumps({"map": involution, "curve": constant})
        code, payload = run_json(capsys, "map-fixcheck", "--inline", payload_in)
        assert code == 1
        assert payload["error"] == "schema" and payload["path"] == "$.curve"


    def test_map_above_the_cap_is_refused_before_decoding(self, capsys):
        # Components x^E, x^(E-1) y, z^E: before the decode-time check the
        # content gcd ran first (E = 10^6 took ~16 s and ~450 MB).
        E = 10**9
        terms = [[E, 0, 0], [E - 1, 1, 0], [0, 0, E]]
        big = {"deg": E, "components": [[[t, "1"]] for t in terms]}
        payload_in = json.dumps({"outer": big, "inner": ser.encode_map(identity_map())})
        t0 = time.perf_counter()
        code, payload = run_json(capsys, "map-compose", "--inline", payload_in)
        assert time.perf_counter() - t0 < 1
        assert code == 2 and payload["error"] == "DegreeCapExceeded"


    @pytest.mark.parametrize("command, key", [("map-compose", "outer"), ("map-fixcheck", "map")])
    def test_negative_map_degree_is_a_schema_error(self, capsys, command, key):
        other = {
            "map-compose": ("inner", ser.encode_map(identity_map())),
            "map-fixcheck": ("curve", [[[1, 0, 0], "1"]]),
        }[command]
        bad = {"deg": -1, "components": [[], [], []]}
        payload_in = json.dumps({key: bad, other[0]: other[1]})
        code, payload = run_json(capsys, command, "--inline", payload_in)
        assert code == 1
        assert payload == {
            "error": "schema",
            "path": f"$.{key}.deg",
            "message": "degree must be >= 0, got -1",
        }


class TestJonq:
    def element(self, a1_coeffs, a2_coeffs):
        return {
            "h": ser.encode_unipoly(H4),
            "a1": {"num": [[[e], str(c)] for e, c in a1_coeffs], "den": [[[0], "1"]]},
            "a2": {"num": [[[e], str(c)] for e, c in a2_coeffs], "den": [[[0], "1"]]},
        }

    def test_order_involution(self, capsys):
        payload_in = json.dumps(self.element([], [(0, 1)]))
        code, payload = run_json(capsys, "jonq-order", "--inline", payload_in)
        assert code == 0
        assert payload["order"] == 2 and payload["conclusion_holds"] is True

    def test_order_infinite(self, capsys):
        payload_in = json.dumps(self.element([(1, 1)], [(0, 1)]))
        code, payload = run_json(capsys, "jonq-order", "--inline", payload_in)
        assert code == 0
        assert payload["order"] == "infinite"

    def test_mul(self, capsys):
        inv = self.element([], [(0, 1)])
        payload_in = json.dumps({"u": inv, "v": inv})
        code, payload = run_json(capsys, "jonq-mul", "--inline", payload_in)
        assert code == 0
        # the square of the involution is the scalar h
        assert ser.decode_jonq(payload) == JonqElement.of(H4, H4, 0)

    def test_mismatched_h_exits_two(self, capsys):
        u = self.element([], [(0, 1)])
        v = json.loads(json.dumps(u))
        v["h"] = ser.encode_unipoly(UniPoly.of(1, 1, 0, 0, 0, 0, 1))
        code, payload = run_json(capsys, "jonq-mul", "--inline", json.dumps({"u": u, "v": v}))
        assert code == 2
        assert payload["error"] == "GroupMismatch"

    @pytest.mark.parametrize("command", ["jonq-order", "jonq-mul", "jonq-fix-check"])
    def test_bad_h_exits_two(self, capsys, command):
        for h in (UniPoly.of(-1, 0, 1), T2_T2_PLUS_1):
            element = self.element([(1, 1)], [(0, 1)])
            element["h"] = ser.encode_unipoly(h)
            payload_in = {"u": element, "v": element} if command == "jonq-mul" else element
            code, payload = run_json(capsys, command, "--inline", json.dumps(payload_in))
            assert code == 2
            assert payload["error"] == "InvalidElement"

    @pytest.mark.parametrize(
        "command, tests", [("jonq-order", 1), ("jonq-mul", 2), ("jonq-fix-check", 1)]
    )
    def test_h_is_tested_once_per_decoded_element(self, capsys, monkeypatch, command, tests):
        import cremona_kit.jonquieres as jq

        calls = []
        real = jq.is_squarefree
        monkeypatch.setattr(jq, "is_squarefree", lambda h: calls.append(h) or real(h))
        element = self.element([(0, 2), (1, 1)], [(0, 1)])
        payload_in = {"u": element, "v": element} if command == "jonq-mul" else element
        code, _ = run(capsys, command, "--inline", json.dumps(payload_in))
        assert code == 0
        assert len(calls) == tests

    @pytest.mark.parametrize("field", ["h", "a1"])
    def test_exponent_above_the_cap_is_refused_before_decoding(self, capsys, field):
        # h = t^100000 + t + 1 (or a1 = t^100000): the dense coefficient
        # tuple alone took 2.6 s before the decode-time check.
        element = self.element([(0, 1)], [(0, 1)])
        big = [[[100000], "1"], [[1], "1"], [[0], "1"]]
        if field == "h":
            element["h"] = big
        else:
            element["a1"]["num"] = big
        payload_in = json.dumps(element)
        assert len(payload_in) < 200
        t0 = time.perf_counter()
        code, payload = run_json(capsys, "jonq-order", "--inline", payload_in)
        assert time.perf_counter() - t0 < 1
        assert code == 2 and payload["error"] == "DegreeCapExceeded"
        assert f"$.{field}" in payload["message"]

    def test_fix_check(self, capsys):
        payload_in = json.dumps(self.element([(0, 2), (1, 1)], [(0, 1)]))
        code, payload = run_json(capsys, "jonq-fix-check", "--inline", payload_in)
        assert code == 0
        assert sorted(payload) == ["curve", "fixes_pointwise", "map_degree"]
        assert payload["fixes_pointwise"] is True


def schema_error(path, message):
    """The stdout of a refusal with exit code 1."""
    return '{\n  "error": "schema",\n  "message": %s,\n  "path": %s\n}\n' % (
        json.dumps(message),
        json.dumps(path),
    )


class TestSchemaRefusals:
    @pytest.mark.parametrize(
        "command, a, b",
        [("map-compose", "outer", "inner"), ("map-fixcheck", "map", "curve"), ("jonq-mul", "u", "v")],
    )
    def test_an_object_with_two_fields_is_required(self, capsys, command, a, b):
        want = schema_error("$", f"expected an object with fields '{a}' and '{b}'")
        for payload in ([], "x", {}, {a: 1}, {b: 1}):
            assert run(capsys, command, "--inline", json.dumps(payload)) == (1, want)

    @pytest.mark.parametrize(
        "num, den, at",
        [("\u0661", "1", "num"), ("1", "1\n", "den"), ("1/\u0663", "1", "num")],
    )
    def test_rational_of_other_than_ascii_digits(self, capsys, num, den, at):
        element = json.loads(JONQ_ORDER.read_text())
        element["a1"] = {"num": [[[0], num]], "den": [[[0], den]]}
        bad = {"num": num, "den": den}[at]
        want = schema_error(
            f"$.a1.{at}[0][1]", f"malformed rational {bad!r}; expected \"p\" or \"p/q\""
        )
        assert run(capsys, "jonq-order", "--inline", json.dumps(element)) == (1, want)

    def test_curve_coordinate_of_other_than_ascii_digits(self, capsys):
        sing = {"label": "p", "mult": 2, "coords": ["\u0661", "0", "1"]}
        curve = json.dumps({"degree": 4, "singularities": [sing], "poly": None})
        want = schema_error(
            "$.singularities[0].coords[0]", "malformed rational '\u0661'; expected \"p\" or \"p/q\""
        )
        assert run(capsys, "validate", "--inline", curve) == (1, want)

    def test_pencil_check_needs_integer_multiplicities(self, capsys):
        want = schema_error("$.mults", "expected comma-separated integers, got '1,x'")
        assert run(capsys, "pencil-check", "--n", "2", "--mults", "1,x") == (1, want)

    def test_zero_polynomial_fails_validation(self, capsys):
        curve = json.dumps({"degree": 4, "singularities": [], "poly": []})
        code, payload = run_json(capsys, "validate", "--inline", curve)
        assert (code, payload["passed"], payload["checks"][-1]) == (
            2,
            False,
            {"name": "poly-nonzero", "passed": False, "detail": "defining polynomial is zero"},
        )


class TestPencils:
    def test_check_valid(self, capsys):
        code, payload = run_json(capsys, "pencil-check", "--n", "2", "--mults", "1,1,1,1")
        assert code == 0 and payload["valid"] is True

    def test_check_invalid(self, capsys):
        code, payload = run_json(capsys, "pencil-check", "--n", "6", "--mults", "3,3")
        assert code == 2 and payload["valid"] is False

    def test_enum(self, capsys):
        code, payload = run_json(capsys, "pencil-enum", "--max", "4")
        assert code == 0
        assert payload["count"] == 5
        assert payload["types"][0] == {"degree": 1, "mults": [1]}

    def test_enum_bound(self, capsys):
        code, payload = run_json(capsys, "pencil-enum", "--max", "12")
        assert code == 2
        assert payload["error"] == "EnumerationBoundExceeded"
        code, payload = run_json(capsys, "pencil-enum", "--max", "9", "--bound", "9")
        assert code == 0


class TestExamplesAndFormats:
    def test_examples_pass(self, capsys):
        code, payload = run_json(capsys, "examples")
        assert code == 0
        assert payload["passed"] is True
        assert payload["failed"] == 0
        names = {e["name"] for e in payload["entries"]}
        assert "seven-node-sextic" in names
        assert "eight-triple-point-nonic" in names

    def test_text_format(self, capsys):
        code, out = run(capsys, "genus", "--inline", GEISER_CURVE, "--format", "text")
        assert code == 0
        assert "genus: 3" in out

    def test_verbose_notes_on_stderr(self, capsys):
        code = main(["genus", "--inline", GEISER_CURVE, "-v"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degree 6" in captured.err

    def test_closed_stdout_exits_141_without_traceback(self):
        """A reader that takes 1 byte of the 397 KB report and closes the
        pipe sees status 141, as after SIGPIPE, and nothing on stderr.  Run
        with stdout buffered; the next test runs it unbuffered."""
        assert closed_stdout_run(unbuffered=False) == (141, b"")

    def test_closed_stdout_exits_141_when_stdout_is_unbuffered(self):
        """Under PYTHONUNBUFFERED=1 a write that the reader's exit cuts short
        takes part of the bytes, and the text layer would drop the rest and
        exit 0 with the report truncated; the CLI writes the rest itself, so
        the closed pipe raises."""
        assert closed_stdout_run(unbuffered=True) == (141, b"")

    def test_a_text_stream_gets_the_bytes_of_the_binary_layer(self, capsys):
        # In process, stdout may be a text stream with no binary layer.
        argv = ["pencil-enum", "--max", "6", "--format", "text"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert (code, out.getvalue()) == run(capsys, *argv)

    def test_text_rendering_of_nested_reports(self):
        # Reports are objects, and their scalars are written by their parent:
        # the renderer has no branch for a scalar of its own.
        scalars = [None, True, False, 0, -7, "", "a b"]
        nested = [[], {}, [scalars, {"k": scalars}], {"x": [[1], {"y": {}}]}]
        for report in ({}, {"s": scalars}, {"n": nested, "m": dict(zip("abcd", nested))}):
            assert _render_text(report) == render_text_oracle(report)


def closed_stdout_run(unbuffered):
    """(status, stderr) of `pencil-enum --max 16 --bound 16` in a subprocess
    whose reader takes one byte of stdout and closes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cremona_kit.cli", "pencil-enum", "--max", "16", "--bound", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err

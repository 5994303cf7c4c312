"""Every pinned CLI output, checked from one manifest, ``tests/golden.json``.

Each entry of the manifest is ``{"name", "argv", "exit", "sha256"}``: the
arguments of one ``cremona-kit`` call, with file arguments relative to the
repository root, its exit code and the sha256 of its stdout.  Pinning an
output is adding one entry.

``check`` runs an entry and compares the exit code and the digest; unless the
argv asks for ``--format text``, it also checks the writer's contract, that
stdout equals ``json.dumps(json.loads(stdout), indent=2, sort_keys=True)``
plus a newline, with CPython's limit on int-to-str conversion lifted for
that round trip.  ``tests/test_cli.py`` runs every entry in process through
``cli.main``; ``python tests/golden.py`` runs each in a subprocess,
``python -m cremona_kit.cli``, with the package and no test dependency
installed, and exits 1 if any entry fails.

The input files of ``tests/``:

- ``chain_65.json``: a curve of numbers alone whose chain of 13 steps removes
  a fixed line at 10 of them and ends in a rational pencil;
- ``chain_escapes.json``: a curve of numbers alone whose labels hold ``%``,
  ``"``, a backslash and a non-ASCII letter, and whose chain of 4 steps drops
  points, removes two lines and a conic at its last step and ends in a pencil
  reduction;
- ``hyperelliptic_8.json``: a degree-8 curve y^2 = h(x) with a 6-fold point
  at (0:1:0), found by one substitution;
- ``jonq_order.json``: an element over h of degree 6 whose entries have
  rational coefficients and denominators of degree 1 and 3 sharing a factor,
  so that lambda is reduced by a gcd of degree 6;
- ``jonq_mul.json``: that element times one with a non-monic constant
  denominator and a denominator sharing a factor with its numerator;
- ``map_compose_24.json``: F3 o B of ``tests/test_cremona_maps.py``, of
  degree 24, the default cap;
- ``map_compose_wide.json``: an H element after a phi o G with large
  rational parameters, so that the substitution packs 224-bit slots and the
  composite has fractional coefficients;
- ``map_compose_digits.json``: F o F for F = (x^2 + c yz : xy : xz), c of
  2,500 digits, whose composite has coefficients of more than 4,300 digits,
  above CPython's default limit on ``str`` of an int.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"


def load() -> list:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def check(entry: dict, run) -> list:
    """The problems of ``entry``, none when its output matches: ``run(argv)``
    returns the exit code and the stdout bytes of the call, run in ROOT."""
    code, out = run(entry["argv"])
    problems = []
    if code != entry["exit"]:
        problems.append(f"exit {code}, pinned {entry['exit']}")
    digest = hashlib.sha256(out).hexdigest()
    if digest != entry["sha256"]:
        problems.append(f"stdout sha256 {digest}, pinned {entry['sha256']}")
    argv = entry["argv"]
    if ("--format", "text") not in zip(argv, argv[1:]):
        text = out.decode("utf-8", "replace")
        # A bare integer of the output may exceed CPython's limit on int() of a
        # string; the check reads and writes it back with the limit lifted.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(0)
            written = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        except ValueError:
            written = None
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        if text != written:
            problems.append("stdout is not json.dumps(json.loads(stdout), indent=2, "
                            "sort_keys=True) plus a newline")
    return problems


def run_in_subprocess(argv: list) -> tuple:
    # Every entry takes well under a second; a refusal that ran its checks
    # anyway would not finish in 10 s.
    proc = subprocess.run(
        [sys.executable, "-m", "cremona_kit.cli", *argv],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=10,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    entries = load()
    failed = 0
    for entry in entries:
        problems = check(entry, run_in_subprocess)
        failed += bool(problems)
        print(("FAIL  " if problems else "ok    ") + entry["name"])
        for problem in problems:
            print(f"      {problem}")
    print(f"{len(entries) - failed} of {len(entries)} pinned outputs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The CLI parses with one subcommand's parser, and behaves as the full tree.

``build_parser()`` builds every subcommand and stays the reference: for a
table of argument lists, and for token sequences drawn by hypothesis,
``main`` must give the same Namespace, or the same exit code, stdout and
stderr, as parsing with the full tree.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona_kit import cli

SRC = Path(cli.__file__).resolve().parents[1]

PARITY_CASES = [
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["map-compose", "-h"],
    ["map-compose", "--foo"],
    ["map-compose", "--version"],
    ["pencil-check"],
    ["pencil-check", "--n", "x", "--mults", "1"],
    ["pencil-check", "--n=2", "--mults=1,1,1,1", "-v"],
    ["pencil-enum", "--max", "3", "--bo", "5"],
    ["genus", "--inl", "{}"],
    ["genus", "a", "b"],
    ["genus", "--format", "xml"],
    ["examples", "extra"],
    ["examples", "-h"],
    ["classify", "--help"],
    ["--", "genus"],
    ["genus", "--", "nofile.json"],
    ["pencil-check", "--n", "6", "--mults", "3,3", "--format", "text"],
    ["pencil-enum", "--max", "4"],
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, SystemExit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_tree_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PARITY_CASES, ids=lambda argv: " ".join(argv) or "<empty>")
def test_main_matches_full_tree(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(capsys, list(argv))
    monkeypatch.setattr(cli, "_parse_args", full_tree_parse)
    assert got == outcome(capsys, list(argv))


def test_usage_error_names_the_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome(capsys, ["pencil-check", "--n", "x", "--mults", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cremona-kit pencil-check [-h] --n N --mults MULTS")
    assert "cremona-kit pencil-check: error: argument --n: invalid int value: 'x'" in err


def test_leftover_arguments_are_reported_by_the_top_level(capsys):
    code, _, err = outcome(capsys, ["genus", "a", "b"])
    assert code == 2
    assert err.endswith("cremona-kit: error: unrecognized arguments: b\n")


COMMANDS = sorted(cli._COMMANDS)
TOKENS = COMMANDS + [
    "bogus", "a", "b", "--", "-", "", "-h", "--help", "--version", "--ver",
    "--inline", "--inl", "--format", "--fo", "--format=text", "-v", "--verbose",
    "--n", "--n=2", "--mults", "--mults=1,1", "--m", "--max", "--bound", "--bo",
    "2", "-1", "x", "1,1,1,1", "json", "text", "xml", "{}",
]
# Arguments each subcommand accepts, so that many draws parse.
OUTPUT = [["--format", "text"], ["--fo", "json"], ["--format=json"], ["-v"], ["--verbose"]]
INPUT = OUTPUT + [["--inline", "{}"], ["--inl", "[]"], ["in.json"], ["-"]]
ACCEPTED = {name: INPUT for name in COMMANDS}
ACCEPTED["pencil-check"] = OUTPUT + [["--n", "2"], ["--mults", "1,1"], ["--n=4", "--mults=3"]]
ACCEPTED["pencil-enum"] = OUTPUT + [["--max", "3"], ["--bound", "5"], ["--max=2", "--bo", "7"]]
ACCEPTED["examples"] = OUTPUT


@st.composite
def argvs(draw):
    head = draw(st.one_of(st.sampled_from(COMMANDS), st.sampled_from(TOKENS)))
    accepted = st.sampled_from(ACCEPTED.get(head, OUTPUT))
    noise = st.sampled_from(TOKENS).map(lambda token: [token])
    chunks = draw(st.lists(st.one_of(accepted, accepted, accepted, noise), max_size=4))
    return [head] + [token for chunk in chunks for token in chunk]


def parse_outcome(parse, argv):
    """The Namespace ``parse(argv)`` returns, or (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argvs())
def test_parse_matches_full_tree_on_drawn_tokens(argv):
    assert parse_outcome(cli._parse_args, list(argv)) == parse_outcome(full_tree_parse, list(argv))


def test_well_formed_call_does_not_build_the_full_tree(capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = outcome(capsys, ["pencil-check", "--n", "2", "--mults", "1,1,1,1"])
    assert code == 0 and '"valid": true' in out


@pytest.mark.parametrize(
    "argv", [["pencil-check", "--n", "2", "--mults", "1,1,1,1"], ["--version"]]
)
def test_process_entry_point_matches_main(argv, capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "cremona_kit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, _ = outcome(capsys, list(argv))
    assert (proc.returncode, proc.stdout) == (code, out)
    if argv == ["--version"]:
        assert proc.stdout == "cremona-kit 0.1.0\n"

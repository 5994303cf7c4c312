"""A call is parsed by its subcommand's parser alone, built once per process.

Both that parser and the full tree of ``build_parser()`` are built from the
argument table ``cli._ARGS``. Each argv below, at the edges of that grammar,
must give what the full tree gives: the same Namespace, or the same exit
code, stdout and stderr.
"""

import argparse
import contextlib
import gc
import io
import json

import pytest

from cremona_kit import cli
from cremona_kit import serialization as ser
from cremona_kit.cremona_maps import make_phi

from _util import json_of
from test_cli_parser import full_tree_parse, parse_outcome

# Argvs at the edges of the grammar, by kind.
EDGES = {
    "inexact option name": [
        ["genus", "--inl", "{}"],
        ["genus", "--format=text", "in.json"],
        ["pencil-check", "--n=2", "--mults", "1,1,1,1"],
        ["pencil-enum", "--max", "3", "--bo", "5"],
        ["examples", "-vv"],
        ["examples", "--verb"],
    ],
    "repeated option": [
        ["genus", "--inline", "{}", "--inline", "[]"],
        ["examples", "-v", "--verbose"],
        ["examples", "--format", "json", "--format", "text"],
        ["pencil-check", "--n", "2", "--n", "3", "--mults", "1"],
    ],
    "missing value": [
        ["genus", "--inline"],
        ["pencil-check", "--n", "2", "--mults"],
        ["examples", "--format"],
    ],
    "value that starts with '-'": [
        ["pencil-check", "--n", "-3", "--mults", "1"],
        ["genus", "--inline", "-1"],
        ["genus", "--inline", "-"],
        ["genus", "--format", "-v"],
        ["pencil-enum", "--max", "--bound", "4"],
    ],
    "failed int()": [
        ["pencil-enum", "--max", "x"],
        ["pencil-enum", "--max", "3", "--bound", "2.5"],
        ["pencil-check", "--n", "", "--mults", "1"],
    ],
    "--format outside its choices": [
        ["genus", "--format", "xml", "in.json"],
        ["examples", "--format", "JSON"],
    ],
    "missing required option": [
        ["pencil-check", "--n", "2"],
        ["pencil-check", "--mults", "1,1"],
        ["pencil-enum"],
        ["pencil-enum", "--bound", "5"],
    ],
    "second positional": [
        ["genus", "a", "b"],
        ["genus", "-", "-"],
        ["examples", "a"],
        ["pencil-enum", "--max", "3", "x"],
    ],
    "positional that starts with '-'": [
        ["genus", "-x"],
        ["genus", "-1"],
        ["classify", "--inline", "{}", "-q"],
    ],
    "help, version or --": [
        ["genus", "-h"],
        ["pencil-check", "--help"],
        ["examples", "--version"],
        ["genus", "--", "in.json"],
        ["genus", "in.json", "--"],
        ["--version"],
    ],
    "no subcommand": [[], ["bogus"], ["Genus", "in.json"]],
}
EDGE_CASES = [
    pytest.param(argv, id=f"{kind}: {' '.join(argv) or '<empty>'}")
    for kind, cases in EDGES.items()
    for argv in cases
]

# Well-formed calls: every argument shape, in any order.
READ = [
    ["genus", "in.json"],
    ["genus", "-"],
    ["genus", ""],
    ["validate", "--inline", ""],
    ["map-compose", "--inline", "{}", "--format", "text", "-v"],
    ["jonq-mul", "--verbose", "in.json", "--format", "json"],
    ["classify", "--format", "text", "in.json", "--inline", "{}"],
    ["pencil-check", "--mults", "1,1,1,1", "--n", "2"],
    ["pencil-check", "--n", "+7", "--mults", "", "-v"],
    ["pencil-enum", "--max", "3"],
    ["pencil-enum", "--bound", "007", "--max", "3", "--format", "text"],
    ["examples"],
    ["examples", "--format", "text"],
]


@pytest.mark.parametrize("argv", EDGE_CASES)
def test_edge_argv_parses_as_in_the_full_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(cli._parse_args, list(argv)) == parse_outcome(full_tree_parse, list(argv))


@pytest.mark.parametrize("argv", READ, ids=" ".join)
def test_well_formed_argv_reads_as_in_the_full_tree(argv):
    args, want = cli._parse_args(list(argv)), full_tree_parse(list(argv))
    assert args == want and list(vars(args)) == list(vars(want))


def _calls(tmp_path):
    """One well-formed call of each argument shape: --inline, --n and --mults,
    --max, and a path."""
    phi = json_of(ser.encode_map(make_phi(1, 0)))
    curve = tmp_path / "curve.json"
    sings = [{"label": f"p{i}", "mult": 2, "coords": None} for i in range(7)]
    curve.write_text(json.dumps({"degree": 6, "singularities": sings, "poly": None}))
    return [
        ["map-compose", "--inline", json.dumps({"outer": phi, "inner": phi})],
        ["pencil-check", "--n", "2", "--mults", "1,1,1,1"],
        ["pencil-enum", "--max", "3"],
        ["genus", str(curve)],
    ]


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_repeated_calls_build_no_parser(tmp_path, monkeypatch):
    """A subcommand's parser is built on its first call in a process and reused."""
    calls = _calls(tmp_path)
    expected = [_main(argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("ArgumentParser constructed")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert [_main(argv) for argv in calls] == expected
    assert all(code == 0 for code, _ in expected)


def test_well_formed_calls_leave_no_cyclic_garbage(tmp_path):
    """Each call, run once to warm up and again with the collector off,
    leaves nothing for gc.collect() to free (36-39 objects per call while
    each call built its own ArgumentParser)."""
    for argv in _calls(tmp_path):
        assert _main(argv)[0] == 0
        gc.collect()
        gc.disable()
        try:
            _main(argv)
            assert gc.collect() == 0, argv
        finally:
            gc.enable()

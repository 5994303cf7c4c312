"""Command-line front end.

Subcommands consume JSON (from a path, ``-`` for stdin, or ``--inline``)
and emit a JSON report on stdout; ``--format text`` reads that report back
from the JSON text and renders it as an indented key/value listing (lossy,
for reading), so both formats show the same data.  A file and stdin are read
as UTF-8, and the report is written as UTF-8, whatever the locale.

Every argument is described once, in ``_ARGS``. A call is parsed by its subcommand's
parser alone, built from that table once per process; help, ``--version`` and any argv
that parser leaves unconsumed go to the full tree of ``build_parser``.

Exit codes:

* 0 -- success, report on stdout;
* 1 -- malformed input: a source that cannot be read as UTF-8, bad JSON
  (reported with line and column), or a schema violation (the field path);
* 2 -- validation or computation failure: the report explains (failed
  checks, inadmissible data, degree cap exceeded, ...);
* 141 -- stdout was closed before the report was written, the status a
  shell reports for a process ended by SIGPIPE; nothing goes to stderr.

The environment variable CREMONA_KIT_MAX_DEGREE (default 24) caps the
degree of any constructed map, of each univariate polynomial of a group
element and of the curve ``poly`` that ``genus``, ``validate``,
``adjoint-chain`` and ``classify`` read; exact coefficients grow quickly
under composition and the curve checks grow with the degree, so the cap
keeps runtimes bounded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence

from . import __version__
from . import jonquieres as jq
from . import serialization as ser
from .cremona_maps import compose, fixes_curve_pointwise
from .curve_model import genus, validate_curve_data
from .errors import CremonaKitError, SchemaError
from .linear_systems import adjoint_chain
from .rational_pencils import DEFAULT_ENUM_LIMIT, check_rational_pencil

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID = 2
EXIT_BROKEN_PIPE = 141
# Characters of the report encoded and written at a time, so that its bytes
# are never held whole next to its text.
WRITE_SLICE = 1 << 20


def _load_payload(args: argparse.Namespace) -> Any:
    # An empty string is a source too: --inline '' is malformed JSON, not "no input".
    if (args.input is None) == (args.inline is None):
        raise SchemaError("$", "exactly one input source required (path or --inline)")
    if args.inline is not None:
        text = args.inline
        if not text.isascii():  # the argument's bytes read as UTF-8, as a file is read
            try:
                text = os.fsencode(text).decode("utf-8")
            except UnicodeError:  # not UTF-8, or a str the filesystem encoding cannot encode
                pass
    else:
        try:
            if args.input != "-":
                with open(args.input, encoding="utf-8") as source:
                    text = source.read()
            elif hasattr(sys.stdin, "buffer"):  # the bytes, not the locale's reading of them
                text = sys.stdin.buffer.read().decode("utf-8")
            else:  # a text stream, such as io.StringIO
                text = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError("$", f"cannot read {args.input!r}: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError:
        # The decoder recurses once per nesting level; report the input, not the stack.
        raise json.JSONDecodeError("nesting too deep", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() of a JSON integer literal above CPython's limit, sys.set_int_max_str_digits.
        limit = sys.get_int_max_str_digits()
        raise SchemaError("$", f"an integer has more than {limit} digits, the limit of "
                          "integer string conversion") from None


def _load_object(args: argparse.Namespace, a: str, b: str) -> dict[str, Any]:
    """The payload, which must be an object with fields ``a`` and ``b``."""
    obj = _load_payload(args)
    if not isinstance(obj, dict) or a not in obj or b not in obj:
        raise SchemaError("$", f"expected an object with fields {a!r} and {b!r}")
    return obj


def _note(args: argparse.Namespace, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


# -- subcommand handlers -------------------------------------------------------


def _cmd_genus(args) -> tuple[dict[str, Any], int]:
    model = ser.decode_curve(_load_payload(args))
    _note(args, f"curve of degree {model.degree} with {len(model.singularities)} singular points")
    return {"degree": model.degree, "genus": genus(model)}, EXIT_OK


def _cmd_validate(args) -> tuple[dict[str, Any], int]:
    degree, sings, poly = ser.decode_curve_parts(_load_payload(args))
    report = validate_curve_data(degree, sings, poly)
    return ser.encode_curve_report(report), EXIT_OK if report.passed else EXIT_INVALID


def _cmd_adjoint_chain(args) -> tuple[dict[str, Any], int]:
    report = adjoint_chain(ser.decode_curve_numbers(_load_payload(args)))
    return ser.encode_chain_report(report), EXIT_OK


def _cmd_classify(args) -> tuple[dict[str, Any], int]:
    report = adjoint_chain(ser.decode_curve_numbers(_load_payload(args)))
    return {
        "class": report.classification.value,
        "terminal": report.terminal,
        "steps": len(report.steps),
        "warnings": list(report.warnings),
    }, EXIT_OK


def _cmd_map_compose(args) -> tuple[dict[str, Any], int]:
    obj = _load_object(args, "outer", "inner")
    outer = ser.decode_map(obj["outer"], ("outer",))
    inner = ser.decode_map(obj["inner"], ("inner",))
    return ser.encode_map(compose(outer, inner)), EXIT_OK


def _cmd_map_fixcheck(args) -> tuple[dict[str, Any], int]:
    obj = _load_object(args, "map", "curve")
    F = ser.decode_map(obj["map"], ("map",))
    curve = ser.decode_trihom(obj["curve"], ("curve",))
    if curve.is_zero:
        raise SchemaError("$.curve", "curve polynomial must be nonzero")
    if curve.degree == 0:
        raise SchemaError("$.curve", "curve polynomial must have positive degree")
    fixed = fixes_curve_pointwise(F, curve)
    payload = {
        "fixes_pointwise": fixed,
        "map_degree": F.degree,
        "curve_degree": curve.degree,
    }
    return payload, EXIT_OK if fixed else EXIT_INVALID


def _cmd_jonq_order(args) -> tuple[dict[str, Any], int]:
    u = ser.decode_jonq(_load_payload(args))
    return ser.encode_order_report(jq.leminv_check(u)), EXIT_OK


def _cmd_jonq_mul(args) -> tuple[dict[str, Any], int]:
    obj = _load_object(args, "u", "v")
    u = ser.decode_jonq(obj["u"], ("u",))
    v = ser.decode_jonq(obj["v"], ("v",))
    return ser.encode_jonq(jq.mul(u, v)), EXIT_OK


def _cmd_jonq_fix_check(args) -> tuple[dict[str, Any], int]:
    u = ser.decode_jonq(_load_payload(args))
    curve = jq._curve_poly(u.h)  # u's constructor has checked h
    F = jq.to_cremona(u)
    pointwise = fixes_curve_pointwise(F, curve)
    payload = {
        "fixes_pointwise": pointwise,
        "map_degree": F.degree,
        "curve": curve,
    }
    return payload, EXIT_OK if pointwise else EXIT_INVALID


def _cmd_pencil_check(args) -> tuple[dict[str, Any], int]:
    try:
        mults = [int(v) for v in args.mults.split(",") if v.strip() != ""]
    except ValueError:
        raise SchemaError("$.mults", f"expected comma-separated integers, got {args.mults!r}")
    report = check_rational_pencil(args.n, mults)
    return ser.encode_pencil_check(report), EXIT_OK if report.valid else EXIT_INVALID


def _cmd_pencil_enum(args) -> tuple[dict[str, Any], int]:
    count, types = ser.encode_pencil_types(args.max, args.bound)
    return {"max_degree": args.max, "count": count, "types": types}, EXIT_OK


def _cmd_examples(args) -> tuple[dict[str, Any], int]:
    from .corpus import corpus_passed, run_corpus  # only this handler pays for the corpus

    results = run_corpus()
    payload = {
        "passed": corpus_passed(results),
        "total": len(results),
        "failed": sum(1 for r in results if not r.passed),
        "entries": [
            {
                "name": r.name,
                "description": r.description,
                "passed": r.passed,
                "details": list(r.details),
            }
            for r in results
        ],
    }
    return payload, EXIT_OK if payload["passed"] else EXIT_INVALID


# Every argument, once: dest -> (option strings, type, default, required, help). The type
# bool is a flag that takes no value, a tuple the choices of a string; ``input`` is positional.
_ARGS = {
    "input": ((), str, None, False,
              "path of the JSON input ('-' for stdin); alternatively pass --inline"),
    "inline": (("--inline",), str, None, False, "inline JSON input"),
    "format": (("--format",), ("json", "text"), "json", False, "output format (default json)"),
    "verbose": (("-v", "--verbose"), bool, False, False, "notes on stderr"),
    "n": (("--n",), int, None, True, "degree of the pencil members"),
    "mults": (("--mults",), str, None, True, "comma-separated base multiplicities, e.g. 1,1,1,1"),
    "max": (("--max",), int, None, True, "largest degree to search"),
    "bound": (("--bound",), int, DEFAULT_ENUM_LIMIT, False,
              f"enumeration guard (default {DEFAULT_ENUM_LIMIT})"),
}
_OUT = ("format", "verbose")
_IN = ("input", "inline") + _OUT

# Every subcommand, once: name -> (handler, help, the dests of its arguments, in order).
_COMMANDS = {
    "genus": (_cmd_genus, "geometric genus of a curve model", _IN),
    "validate": (_cmd_validate, "check curve data, report per check", _IN),
    "adjoint-chain": (_cmd_adjoint_chain, "full successive-adjoint report", _IN),
    "classify": (_cmd_classify, "terminal classification of the chain", _IN),
    "map-compose": (_cmd_map_compose, "compose two maps {outer, inner}", _IN),
    "map-fixcheck": (_cmd_map_fixcheck, "does a map fix a curve pointwise", _IN),
    "jonq-order": (_cmd_jonq_order, "projective order of a group element", _IN),
    "jonq-mul": (_cmd_jonq_mul, "product of two group elements {u, v}", _IN),
    "jonq-fix-check": (
        _cmd_jonq_fix_check, "certify the hyperelliptic fixation of an element", _IN
    ),
    "pencil-check": (
        _cmd_pencil_check, "rational-pencil equations for (n; mults)", ("n", "mults") + _OUT
    ),
    "pencil-enum": (_cmd_pencil_enum, "enumerate valid pencil types", ("max", "bound") + _OUT),
    "examples": (_cmd_examples, "run the built-in corpus", _OUT),
}


def _add_arguments(parser: argparse.ArgumentParser, dests: Sequence[str]) -> None:
    for dest in dests:
        flags, kind, default, required, help_text = _ARGS[dest]
        kw = {"required": required} if flags else {"nargs": "?"}
        key = "action" if kind is bool else "choices" if isinstance(kind, tuple) else "type"
        kw[key] = "store_true" if kind is bool else kind
        parser.add_argument(*flags or (dest,), default=default, help=help_text, **kw)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand, top-level help and --version."""
    parser = argparse.ArgumentParser(
        prog="cremona-kit",
        description="Exact arithmetic for plane birational maps, adjoint "
        "chains of linear systems, and function-field matrix groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, dests) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), dests)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The named subcommand's parser alone, with its prog in the full tree; built once."""
    parser = argparse.ArgumentParser(prog=f"cremona-kit {name}")
    _add_arguments(parser, _COMMANDS[name][2])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone when it consumes every argument;
    the full parser takes the rest: usage errors, help, --version."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _render_text(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    else:  # a list: the report is an object, and scalars are written by their parent
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    return lines


def _utf8(text: str) -> bytes:
    """UTF-8, as input is read, whatever the locale.  A surrogate that stands for an
    undecodable argument byte is written as that byte, any other as its \\u escape."""
    try:
        return text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return "".join(
            f"\\u{ord(c):04x}" if "\ud800" <= c < "\udc80" or "\udcff" < c <= "\udfff" else c
            for c in text
        ).encode("utf-8", "surrogateescape")


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        payload, code = _COMMANDS[args.command][0](args)
    except json.JSONDecodeError as exc:
        payload, code = {
            "error": "malformed-json",
            "message": exc.msg,
            "line": exc.lineno,
            "column": exc.colno,
        }, EXIT_MALFORMED
    except SchemaError as exc:
        payload = {"error": "schema", "path": exc.path, "message": exc.message}
        code = EXIT_MALFORMED
    except (CremonaKitError, ValueError, ZeroDivisionError) as exc:
        payload, code = {"error": type(exc).__name__, "message": str(exc)}, EXIT_INVALID
    try:
        try:
            text = ser.dumps(payload)
        except ValueError as exc:  # a coefficient above CPython's limit on int-to-str conversion
            payload, code = {"error": type(exc).__name__, "message": str(exc)}, EXIT_INVALID
            text = ser.dumps(payload)
        del payload  # the text alone is kept while it is written
        if getattr(args, "format", "json") == "text":
            text = "\n".join(_render_text(json.loads(text))) + "\n"
        raw = getattr(sys.stdout, "buffer", None)
        if raw is None:  # a text stream, such as io.StringIO
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            # An unbuffered stream takes part of a write that the reader's exit cuts
            # short, and its text layer drops the rest: writing it makes the pipe raise.
            sys.stdout.flush()
            for start in range(0, len(text), WRITE_SLICE):
                data = memoryview(_utf8(text[start : start + WRITE_SLICE]))
                while data:
                    data = data[raw.write(data) :]
            raw.flush()
    except BrokenPipeError:
        # The reader has gone.  With stdout on the null device the flush at exit
        # raises nothing; the status is the one a shell reports after SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line front end.

Every subcommand accepts inputs either as paths to JSON files or as inline
JSON, emits text or JSON (`--format`), and maps failures to exit codes:
0 success, 1 domain or parse error, 2 usage error.

Each subcommand is one row of `COMMANDS`, and its grammar is the row's
`_arg`s alone, so adding a subcommand is adding a row.  A row names its
inputs, then either its engine operation (a package export such as
"compose_graded" or "GradedCorrespondence.transpose") and the text form of
its result, which `run_command` prints or replaces by `to_json`, or its own
handler; only the requested form is built.  Only `errors` and `ring` are
imported up front: every other engine name is read from the package, whose
lazy exports load the name's home layer on first access, so a cold call
loads no layer its subcommand does not use.

The grammar is read in two ways.  `_read_table` builds argparse's namespace
for a plain call (the subcommand, then exact flags and operands in any
order) from the row; anything it cannot decide for certain, such as help,
a usage error, an abbreviated flag, `--` or `--flag=value`, goes unchanged
to the parser of `build_parser`, so `argparse` is imported only for those.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ChowError, InvalidInputError
from .ring import Cycle, Variety, _as_text, _json_object, make_variety

_package = sys.modules[__package__]


def _load_json(text: str):
    """Inline JSON if the argument looks like JSON, else a file path; a
    file that cannot be read is an input error."""
    stripped = text.strip()
    try:
        raw = stripped if stripped.startswith(("{", "[")) else Path(text).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise InvalidInputError(f"no such input file: {exc.filename}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise InvalidInputError(f"cannot read input file {text!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an overlong integer, too deep a nesting
        raise InvalidInputError(f"JSON input rejected: {exc}") from exc


def _parse_variety(text: str) -> Variety:
    data = _load_json(text)
    if isinstance(data, list):
        return make_variety(data)
    return Variety.from_json(data)


def _lookup(path: str):
    """The object at "name" (or "Class.name"), a package export read through
    the package, which loads its home layer on first use."""
    return functools.reduce(getattr, path.split("."), _package)


def _emit(args, text: Callable[[], str], payload: Callable[[], object]) -> int:
    """Print the requested form of a result, built by calling `payload`
    (JSON) or `text`; the other is never built."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    else:
        print(text())
    return 0


def _arg(*flags, **options) -> tuple:
    """One `add_argument` call, as data."""
    return flags, options


# "-3/4" is a value, as argparse reads "-3" and "-0.75"
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
_FORMAT = _arg("--format", choices=["text", "json"], default="text", help="output format (default text)")
_LINE_BUNDLE = (
    _arg("--variety", help="shorthand: variety for a line bundle"),
    _arg("--line-bundle", help="shorthand: degree list of a line bundle"),
)


def _line_bundle(args, alternative: str):
    """The line bundle given by the `--variety` and `--line-bundle` shorthand."""
    if args.variety is None or args.line_bundle is None:
        raise InvalidInputError(f"provide either {alternative} or both --variety and --line-bundle")
    return _package.line_bundle(_parse_variety(args.variety), _load_json(args.line_bundle))


# -- inputs: each is (its `add_argument` calls, the function that reads it) --


def _json(dest: str, cls: str, help: str | None = None) -> tuple:
    """A positional JSON value, inline or a path, read by `from_json` of the
    exported class named `cls`."""
    return (_arg(dest, help=help),), lambda args: _lookup(cls).from_json(_load_json(getattr(args, dest)))


def _variety(help: str | None = None) -> tuple:
    """The required `--variety`: a bracketed factor list or variety JSON."""
    return (_arg("--variety", required=True, help=help),), lambda args: _parse_variety(args.variety)


def _read_bundle(args):
    if args.bundle is not None:
        return _package.BundleClass.from_json(_load_json(args.bundle))
    return _line_bundle(args, "a bundle class")


# a bundle class as JSON, or a line bundle by its shorthand
_BUNDLE = (_arg("bundle", nargs="?", default=None, help="bundle class JSON (inline or path)"),
           *_LINE_BUNDLE), _read_bundle


# -- text forms, one per result type (a motive prints as `str`) --------------


def _cycle_text(cycle: Cycle) -> str:
    return f"{cycle}  on {cycle.variety}"


def _corr_text(corr) -> str:
    return f"{corr.source} -> {corr.target}\n{corr.cycle}"


def _kernel_text(kernel) -> str:
    return f"{kernel.source} -> {kernel.target}\nch = {kernel.ch}"


def _bundle_text(bundle) -> str:
    return f"rank {bundle.rank} bundle on {bundle.variety}\nc = {bundle.total_chern}"


def _orbit_text(morphism) -> str:
    lines = [f"{morphism.source} -> {morphism.target}"]
    lines += [f"  offset {i}: {c.cycle}" for i, c in morphism.components.items()]
    if morphism.corr.is_zero:
        lines.append("  zero")
    return "\n".join(lines)


# -- handlers of the subcommands whose output is not one text form or JSON ---


def _ring(args) -> int:
    op = args.operation
    operands = args.operands
    needs = 1 if op == "degree" else 2
    if len(operands) != needs:
        raise InvalidInputError(f"ring {op} takes {needs} operand(s), got {len(operands)}")
    if op == "degree":
        value = _as_text(Cycle.from_json(_load_json(operands[0])).degree())
        return _emit(args, lambda: value, lambda: {"degree": value})
    if op in ("add", "intersect"):
        a, b = (Cycle.from_json(_load_json(text)) for text in operands)
        result = a + b if op == "add" else a * b
    elif op == "scale":
        result = Cycle.from_json(_load_json(operands[1])).scale(operands[0])
    else:
        try:
            k = int(operands[0])
        except ValueError as exc:
            raise InvalidInputError(f"graded component index must be an integer, got {operands[0]!r}") from exc
        result = Cycle.from_json(_load_json(operands[1])).graded_component(k)
    return _emit(args, lambda: _cycle_text(result), result.to_json)


def _euler(args) -> int:
    if args.kclass is not None:
        data = _json_object("K-class", _load_json(args.kclass), ("variety", "ch"))
        variety = Variety.from_json(data["variety"])
        ch = Cycle.from_json(data["ch"])
        if ch.variety != variety:
            raise InvalidInputError("Chern character lives on the wrong variety")
    else:
        ch = _package.chern_character(_line_bundle(args, "a K-class"))
    value = _as_text(_package.euler_characteristic(ch))
    return _emit(args, lambda: value, lambda: {"euler_characteristic": value})


def _split(args, motive, cycle) -> int:
    corr = _package.GradedCorrespondence(motive.variety, motive.variety, cycle)
    projector = _package.MotiveMorphism(motive, motive, corr)
    image, section, retraction = _package.split_idempotent(motive, projector)
    return _emit(
        args,
        lambda: f"image: {image}\nsection: {section.corr.cycle}\nretraction: {retraction.corr.cycle}",
        lambda: {
            "image": image.to_json(),
            "section": section.corr.to_json(),
            "retraction": retraction.corr.to_json(),
        },
    )


def _orlov(args, e, f) -> int:
    report = _package.orlov_pipeline(e, f)
    inverse, exact = report.verdict != "not-equivalent", report.verdict == "exact-isomorphism"

    def payload():
        out = {"mutually_inverse": inverse, "isomorphic_modulo_twist": inverse, "support_ok": exact,
               "exact_isomorphism": exact, "verdict": report.verdict}
        out["support_floors"] = ["inf" if floor is None else floor for floor in report.support_floors]
        if report.degree_zero_pair is not None:
            f0, g0 = report.degree_zero_pair
            out["degree_zero_forward"] = f0.corr.to_json()
            out["degree_zero_backward"] = g0.corr.to_json()
        return out

    def text():
        return "\n".join([
            f"mutually inverse: {'yes' if inverse else 'no'}",
            f"isomorphic modulo twist: {'yes' if inverse else 'no'}",
            f"support condition: {'yes' if exact else 'no'}",
            f"verdict: {report.verdict}",
        ])

    return _emit(args, text, payload)


def _compat(args, e, f) -> int:
    verdict = _package.compatibility_check(e, f)
    _emit(args, lambda: "true" if verdict else "false", lambda: {"compatible": verdict})
    return 0 if verdict else 1


def _verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.seed, args.samples)

    def table():
        width = max(len(r.name) for r in results)
        lines = [f"{'check'.ljust(width)}  result  detail", f"{'-' * width}  ------  ------"]
        for r in results:
            lines.append(f"{r.name.ljust(width)}  {('PASS' if r.passed else 'FAIL').ljust(6)}  {r.detail}")
        return "\n".join(lines)

    _emit(args, table, lambda: [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results])
    if args.timings:
        for r in results:
            print(f"{r.name}  {r.seconds:.4f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


# -- the table ---------------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its inputs, then either the engine operation at `op`
    with the text form of its result, or its own `handler` and further
    `arguments` (made by `_arg`)."""

    name: str
    help: str
    inputs: tuple = ()
    op: str | None = None
    text: Callable | None = None
    handler: Callable | None = None
    arguments: tuple = ()


_CORR = "GradedCorrespondence"
_KERNEL = "KKernel"
_ORBIT = "OrbitMorphism"

COMMANDS = (
    Command("ring", "cycle arithmetic in the intersection ring", handler=_ring, arguments=(
        _arg("operation", choices=["add", "intersect", "scale", "graded", "degree"]),
        _arg("operands", nargs="+",
             help="cycle JSON (inline or path); scale takes a rational first, graded an integer"),
    )),
    Command("compose", "compose two graded correspondences",
            (_json("first", _CORR), _json("second", _CORR)), "compose_graded", _corr_text),
    Command("transpose", "transpose a graded correspondence",
            (_json("correspondence", _CORR),), f"{_CORR}.transpose", _corr_text),
    Command("diagonal", "the diagonal correspondence of a variety",
            (_variety('e.g. "[1,2]" for P^1 x P^2'),), f"{_CORR}.identity", _corr_text),
    Command("chern-character", "Chern character of a bundle class",
            (_BUNDLE,), "chern_character", _cycle_text),
    Command("todd", "Todd class of a bundle class", (_BUNDLE,), "todd_class", _cycle_text),
    Command("sqrt-todd", "square root of the Todd class of a variety",
            (_variety(),), "sqrt_todd", _cycle_text),
    Command("tangent", "tangent bundle class of a variety",
            (_variety(),), "tangent_class", _bundle_text),
    Command("euler", "Euler characteristic by Riemann-Roch", handler=_euler, arguments=(
        _arg("kclass", nargs="?", default=None, help="K-class JSON with 'variety' and 'ch'"),
        *_LINE_BUNDLE,
    )),
    Command("mu", "graded correspondence attached to a kernel",
            (_json("kernel", _KERNEL),), "chow_image", _corr_text),
    Command("k-compose", "compose two K-theory kernels",
            (_json("first", _KERNEL), _json("second", _KERNEL)), "k_compose", _kernel_text),
    Command("identity-kernel", "kernel of the identity functor",
            (_variety(),), "identity_kernel", _kernel_text),
    Command("motive", "the motive of a variety", (_variety(),), "motive_of", str),
    Command("split", "split an idempotent endomorphism of a motive",
            (_json("motive", "Motive", "motive JSON"),
             _json("projector", "Cycle", "cycle JSON of the projector correspondence")),
            handler=_split),
    Command("orbit-compose", "compose two orbit morphisms",
            (_json("first", _ORBIT), _json("second", _ORBIT)), "orbit_compose", _orbit_text),
    Command("orlov", "run the derived-equivalence pipeline on a kernel pair",
            (_json("first", _KERNEL), _json("second", _KERNEL)), handler=_orlov),
    Command("compat", "check Mukai functoriality on a composable kernel pair",
            (_json("first", _KERNEL), _json("second", _KERNEL)), handler=_compat),
    Command("verify", "run the built-in verification suites", handler=_verify, arguments=(
        _arg("--seed", type=int, default=0),
        _arg("--samples", type=int, default=200),
        _arg("--timings", action="store_true",
             help="print each check's wall time in seconds to stderr"),
    )),
)


def run_command(args) -> int:
    """Run the row of the parsed subcommand: read its inputs, then hand them
    to its handler, or call its operation and print the result."""
    row = args.row
    values = [read(args) for _, read in row.inputs]
    if row.handler is not None:
        return row.handler(args, *values)
    result = _lookup(row.op)(*values)
    return _emit(args, lambda: row.text(result), result.to_json)


def _grammar(row: Command) -> tuple:
    """Every `_arg` of a subcommand: its inputs', its own and `--format`."""
    return (*(a for arguments, _ in row.inputs for a in arguments), *row.arguments, _FORMAT)


class _Undecided(Exception):
    """A call that argparse, not the table, must read."""


_ROWS = {row.name: row for row in COMMANDS}


def _is_value(arg: str) -> bool:
    """Whether argparse reads `arg` as a value, not as an option."""
    return not arg.startswith("-") or _NEGATIVE_NUMBER.match(arg) is not None


def _typed(options: dict, text: str):
    """`text` as argparse stores it for an `_arg` with these options."""
    try:
        value = options.get("type", str)(text)
    except ValueError:
        raise _Undecided from None
    if value not in options.get("choices", (value,)):
        raise _Undecided
    return value


def _read_table(argv: list[str]) -> SimpleNamespace:
    """The namespace argparse builds for a plain call, read from the named
    row's `_arg`s; raises `_Undecided` for any call argparse must read."""
    row = _ROWS.get(argv[0]) if argv else None
    if row is None:
        raise _Undecided
    values = {"command": row.name, "row": row}
    flags, positionals = {}, []
    for names, options in _grammar(row):
        dest = names[0].lstrip("-").replace("-", "_")
        values[dest] = False if options.get("action") == "store_true" else options.get("default")
        if names[0].startswith("-"):
            flags[names[0]] = dest, options
        else:
            positionals.append((dest, options))
    required = {flag for flag, (_, options) in flags.items() if options.get("required")}
    given, seen = [], 0  # each operand with the number of options before it
    rest = iter(argv[1:])
    for arg in rest:
        if _is_value(arg):
            given.append((arg, seen))
            continue
        if arg not in flags:  # -h, --, an abbreviated or unknown flag, --flag=value
            raise _Undecided
        dest, options = flags[arg]
        required.discard(arg)
        seen += 1
        if options.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(rest, None)
        if value is None or not _is_value(value):
            raise _Undecided
        values[dest] = _typed(options, value)
    if required:
        raise _Undecided
    for dest, options in positionals:
        if options.get("nargs") == "+":
            # argparse fills "+" from one run of operands between two options
            if not given or given[0][1] != given[-1][1]:
                raise _Undecided
            values[dest], given = [arg for arg, _ in given], []
        elif given:
            values[dest] = _typed(options, given.pop(0)[0])
        elif options.get("nargs") != "?":
            raise _Undecided
    if given:
        raise _Undecided
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of every row, for help, usage errors and the
    calls `_read_table` leaves undecided."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="chowmot",
        description="Exact intersection calculus, characteristic classes, "
                    "and Chow motives on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command")
    for row in COMMANDS:
        p = sub.add_parser(row.name, help=row.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flags, options in _grammar(row):
            p.add_argument(*flags, **options)
        p.set_defaults(row=row)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_table(argv)
    except _Undecided:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        if not hasattr(args, "row"):
            parser.print_usage(sys.stderr)
            return 2
    try:
        return run_command(args)
    except ChowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; silence the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())

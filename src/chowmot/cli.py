"""Command-line front end.

Every subcommand accepts inputs either as paths to JSON files or as inline
JSON, emits text or JSON (`--format`), and maps failures to exit codes:
0 success, 1 domain or parse error, 2 usage error.

Only `errors` and `ring` are imported here; each handler imports the layers
it uses, so a cold call pays for no layer its subcommand does not need.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ChowError, InvalidInputError
from .ring import Cycle, Variety, _as_text, make_variety


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
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # an overlong integer, too deep a nesting
        raise InvalidInputError(f"JSON input rejected: {exc}") from exc


def _parse_variety(text: str) -> Variety:
    data = _load_json(text)
    if isinstance(data, list):
        return make_variety(data)
    return Variety.from_json(data)


def _parse_degrees(text: str) -> list[int]:
    data = _load_json(text)
    if not isinstance(data, list) or not all(isinstance(d, int) for d in data):
        raise InvalidInputError(f"expected a list of integer degrees, got {data!r}")
    return data


def _emit(args, text_value: str, json_value) -> int:
    if args.format == "json":
        print(json.dumps(json_value, indent=2))
    else:
        print(text_value)
    return 0


def _cycle_text(cycle: Cycle) -> str:
    return f"{cycle}  on {cycle.variety}"


def _corr_text(corr) -> str:
    return f"{corr.source} -> {corr.target}\n{corr.cycle}"


# -- subcommand handlers -----------------------------------------------------


def cmd_ring(args) -> int:
    op = args.operation
    operands = args.operands
    needs = {"add": 2, "intersect": 2, "scale": 2, "graded": 2, "degree": 1}[op]
    if len(operands) != needs:
        raise InvalidInputError(f"ring {op} takes {needs} operand(s), got {len(operands)}")
    if op == "add":
        result = Cycle.from_json(_load_json(operands[0])) + Cycle.from_json(_load_json(operands[1]))
    elif op == "intersect":
        result = Cycle.from_json(_load_json(operands[0])) * Cycle.from_json(_load_json(operands[1]))
    elif op == "scale":
        result = Cycle.from_json(_load_json(operands[1])).scale(operands[0])
    elif op == "graded":
        try:
            k = int(operands[0])
        except ValueError as exc:
            raise InvalidInputError(f"graded component index must be an integer, got {operands[0]!r}") from exc
        result = Cycle.from_json(_load_json(operands[1])).graded_component(k)
    else:
        value = _as_text(Cycle.from_json(_load_json(operands[0])).degree())
        return _emit(args, value, {"degree": value})
    return _emit(args, _cycle_text(result), result.to_json())


def cmd_compose(args) -> int:
    from .corr import GradedCorrespondence, compose_graded

    f = GradedCorrespondence.from_json(_load_json(args.first))
    g = GradedCorrespondence.from_json(_load_json(args.second))
    result = compose_graded(f, g)
    return _emit(args, _corr_text(result), result.to_json())


def cmd_transpose(args) -> int:
    from .corr import GradedCorrespondence

    result = GradedCorrespondence.from_json(_load_json(args.correspondence)).transpose()
    return _emit(args, _corr_text(result), result.to_json())


def cmd_diagonal(args) -> int:
    from .corr import GradedCorrespondence

    variety = _parse_variety(args.variety)
    result = GradedCorrespondence.identity(variety)
    return _emit(args, _corr_text(result), result.to_json())


def _bundle_from_args(args):
    from .chern import BundleClass, line_bundle

    if args.bundle is not None:
        return BundleClass.from_json(_load_json(args.bundle))
    if args.variety is None or args.line_bundle is None:
        raise InvalidInputError(
            "provide either a bundle class or both --variety and --line-bundle"
        )
    return line_bundle(_parse_variety(args.variety), _parse_degrees(args.line_bundle))


def cmd_chern_character(args) -> int:
    from .chern import chern_character

    result = chern_character(_bundle_from_args(args))
    return _emit(args, _cycle_text(result), result.to_json())


def cmd_todd(args) -> int:
    from .chern import todd_class

    result = todd_class(_bundle_from_args(args))
    return _emit(args, _cycle_text(result), result.to_json())


def cmd_sqrt_todd(args) -> int:
    from .chern import sqrt_todd

    result = sqrt_todd(_parse_variety(args.variety))
    return _emit(args, _cycle_text(result), result.to_json())


def cmd_tangent(args) -> int:
    from .chern import tangent_class

    result = tangent_class(_parse_variety(args.variety))
    text = f"rank {result.rank} bundle on {result.variety}\nc = {result.total_chern}"
    return _emit(args, text, result.to_json())


def cmd_euler(args) -> int:
    from .chern import chern_character, line_bundle
    from .kshadow import euler_characteristic

    if args.kclass is not None:
        data = _load_json(args.kclass)
        if not isinstance(data, dict) or not {"variety", "ch"} <= set(data):
            raise InvalidInputError("K-class must be an object with 'variety' and 'ch'")
        variety = Variety.from_json(data["variety"])
        ch = Cycle.from_json(data["ch"])
        if ch.variety != variety:
            raise InvalidInputError("Chern character lives on the wrong variety")
    else:
        if args.variety is None or args.line_bundle is None:
            raise InvalidInputError("provide either a K-class or both --variety and --line-bundle")
        bundle = line_bundle(_parse_variety(args.variety), _parse_degrees(args.line_bundle))
        ch = chern_character(bundle)
    value = _as_text(euler_characteristic(ch))
    return _emit(args, value, {"euler_characteristic": value})


def cmd_mu(args) -> int:
    from .kshadow import KKernel, chow_image

    kernel = KKernel.from_json(_load_json(args.kernel))
    result = chow_image(kernel)
    return _emit(args, _corr_text(result), result.to_json())


def cmd_k_compose(args) -> int:
    from .kshadow import KKernel, k_compose

    e = KKernel.from_json(_load_json(args.first))
    f = KKernel.from_json(_load_json(args.second))
    result = k_compose(e, f)
    text = f"{result.source} -> {result.target}\nch = {result.ch}"
    return _emit(args, text, result.to_json())


def cmd_identity_kernel(args) -> int:
    from .kshadow import identity_kernel

    result = identity_kernel(_parse_variety(args.variety))
    text = f"{result.source} -> {result.target}\nch = {result.ch}"
    return _emit(args, text, result.to_json())


def cmd_motive(args) -> int:
    from .motives import motive_of

    result = motive_of(_parse_variety(args.variety))
    return _emit(args, str(result), result.to_json())


def cmd_split(args) -> int:
    from .corr import GradedCorrespondence
    from .motives import Motive, MotiveMorphism, split_idempotent

    motive = Motive.from_json(_load_json(args.motive))
    cycle = Cycle.from_json(_load_json(args.projector))
    corr = GradedCorrespondence(motive.variety, motive.variety, cycle)
    projector = MotiveMorphism(motive, motive, corr)
    image, section, retraction = split_idempotent(motive, projector)
    payload = {
        "image": image.to_json(),
        "section": section.corr.to_json(),
        "retraction": retraction.corr.to_json(),
    }
    text = f"image: {image}\nsection: {section.corr.cycle}\nretraction: {retraction.corr.cycle}"
    return _emit(args, text, payload)


def cmd_orbit_compose(args) -> int:
    from .motives import OrbitMorphism, orbit_compose

    f = OrbitMorphism.from_json(_load_json(args.first))
    g = OrbitMorphism.from_json(_load_json(args.second))
    result = orbit_compose(f, g)
    text_lines = [f"{result.source} -> {result.target}"]
    for i, c in result.components.items():
        text_lines.append(f"  offset {i}: {c.cycle}")
    if result.corr.is_zero:
        text_lines.append("  zero")
    return _emit(args, "\n".join(text_lines), result.to_json())


def cmd_orlov(args) -> int:
    from .kshadow import KKernel
    from .motives import orlov_pipeline

    e = KKernel.from_json(_load_json(args.first))
    f = KKernel.from_json(_load_json(args.second))
    report = orlov_pipeline(e, f)
    payload = {
        "mutually_inverse": report.mutually_inverse,
        "isomorphic_modulo_twist": report.isomorphic_modulo_twist,
        "support_ok": report.support_ok,
        "exact_isomorphism": report.exact_isomorphism,
        "verdict": report.verdict,
        "support_floors": [
            "inf" if floor == float("inf") else floor for floor in report.support_floors
        ],
    }
    if report.degree_zero_pair is not None:
        f0, g0 = report.degree_zero_pair
        payload["degree_zero_forward"] = f0.corr.to_json()
        payload["degree_zero_backward"] = g0.corr.to_json()
    text_lines = [
        f"mutually inverse: {'yes' if report.mutually_inverse else 'no'}",
        f"isomorphic modulo twist: {'yes' if report.isomorphic_modulo_twist else 'no'}",
        f"support condition: {'yes' if report.support_ok else 'no'}",
        f"verdict: {report.verdict}",
    ]
    return _emit(args, "\n".join(text_lines), payload)


def cmd_compat(args) -> int:
    from .kshadow import KKernel
    from .motives import compatibility_check

    e = KKernel.from_json(_load_json(args.first))
    f = KKernel.from_json(_load_json(args.second))
    verdict = compatibility_check(e, f)
    _emit(args, "true" if verdict else "false", {"compatible": verdict})
    return 0 if verdict else 1


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.seed, args.samples)
    if args.format == "json":
        payload = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(r.name) for r in results)
        print(f"{'check'.ljust(width)}  result  detail")
        print(f"{'-' * width}  ------  ------")
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name.ljust(width)}  {status.ljust(6)}  {r.detail}")
    if args.timings:
        for r in results:
            print(f"{r.name}  {r.seconds:.3f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["text", "json"], default="text",
                     help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowmot",
        description="Exact intersection calculus, characteristic classes, "
                    "and Chow motives on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ring", help="cycle arithmetic in the intersection ring")
    p.add_argument("operation", choices=["add", "intersect", "scale", "graded", "degree"])
    p.add_argument("operands", nargs="+",
                   help="cycle JSON (inline or path); scale takes a rational first, graded an integer")
    _add_format(p)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("compose", help="compose two graded correspondences")
    p.add_argument("first")
    p.add_argument("second")
    _add_format(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("transpose", help="transpose a graded correspondence")
    p.add_argument("correspondence")
    _add_format(p)
    p.set_defaults(func=cmd_transpose)

    p = sub.add_parser("diagonal", help="the diagonal correspondence of a variety")
    p.add_argument("--variety", required=True, help='e.g. "[1,2]" for P^1 x P^2')
    _add_format(p)
    p.set_defaults(func=cmd_diagonal)

    for name, handler, help_text in [
        ("chern-character", cmd_chern_character, "Chern character of a bundle class"),
        ("todd", cmd_todd, "Todd class of a bundle class"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("bundle", nargs="?", default=None,
                       help="bundle class JSON (inline or path)")
        p.add_argument("--variety", help="shorthand: variety for a line bundle")
        p.add_argument("--line-bundle", help="shorthand: degree list of a line bundle")
        _add_format(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("sqrt-todd", help="square root of the Todd class of a variety")
    p.add_argument("--variety", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_sqrt_todd)

    p = sub.add_parser("tangent", help="tangent bundle class of a variety")
    p.add_argument("--variety", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("euler", help="Euler characteristic by Riemann-Roch")
    p.add_argument("kclass", nargs="?", default=None,
                   help="K-class JSON with 'variety' and 'ch'")
    p.add_argument("--variety", help="shorthand: variety for a line bundle")
    p.add_argument("--line-bundle", help="shorthand: degree list of a line bundle")
    _add_format(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("mu", help="graded correspondence attached to a kernel")
    p.add_argument("kernel")
    _add_format(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("k-compose", help="compose two K-theory kernels")
    p.add_argument("first")
    p.add_argument("second")
    _add_format(p)
    p.set_defaults(func=cmd_k_compose)

    p = sub.add_parser("identity-kernel", help="kernel of the identity functor")
    p.add_argument("--variety", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_identity_kernel)

    p = sub.add_parser("motive", help="the motive of a variety")
    p.add_argument("--variety", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_motive)

    p = sub.add_parser("split", help="split an idempotent endomorphism of a motive")
    p.add_argument("motive", help="motive JSON")
    p.add_argument("projector", help="cycle JSON of the projector correspondence")
    _add_format(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("orbit-compose", help="compose two orbit morphisms")
    p.add_argument("first")
    p.add_argument("second")
    _add_format(p)
    p.set_defaults(func=cmd_orbit_compose)

    p = sub.add_parser("orlov", help="run the derived-equivalence pipeline on a kernel pair")
    p.add_argument("first")
    p.add_argument("second")
    _add_format(p)
    p.set_defaults(func=cmd_orlov)

    p = sub.add_parser("compat", help="check Mukai functoriality on a composable kernel pair")
    p.add_argument("first")
    p.add_argument("second")
    _add_format(p)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--timings", action="store_true",
                   help="print each check's wall time in seconds to stderr")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
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

"""Command line front end.

Thin adapter over the library: parse arguments, build the objects, print the
result as text or JSON.  No arithmetic happens here.

Exit codes: 0 on success (and on all-pass for the verifying subcommands),
1 when a verification subcommand finds a failing check, 2 on usage or input
errors (bad flags, malformed files, infeasible requests), 141 (128 + SIGPIPE)
when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from .builders import SideData, gt_slice, polygon_hrep
from .counting import (MultiplicityQuery, _fit_shape, count_dilates, ehrhart_fit,
                       real_fiber_size, verify_duality, verify_ehrhart_identity,
                       weight_multiplicity)
from .exact import _require_int, frac, frac_str
from .polytopes import HPolytope, combinatorial_fingerprint, h_to_v, remove_redundant
from .reference import reference_battery
from .toric import (_fan_json_text, _singularity_json_text, facet_labels, normal_fan,
                    singularity_report)


def _load(path: str, what: str, parse):
    """parse(data) for the JSON data in the file at path.

    A file that cannot be read or decoded (nested too deep included), or
    whose data lacks a field, holds one of the wrong type or a zero
    denominator, raises ValueError, as parse's own input errors do.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} file: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {what} file: {exc!r}") from exc


def _parse_side(args: argparse.Namespace) -> SideData:
    if args.side_file is not None:
        return _load(args.side_file, "side", SideData.from_json_dict)
    if args.m is None or args.r is None:
        raise ValueError("need --m and --r (or --side-file)")
    try:
        r = tuple(frac(part.strip()) for part in args.r.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse --r: {exc}") from exc
    return SideData.from_weights(args.m, r)


def _chart_polytope(args: argparse.Namespace) -> HPolytope:
    """The polytope a geometry subcommand should operate on."""
    if args.polytope_file is not None:
        return _load(args.polytope_file, "polytope", HPolytope.from_json_dict)
    s = _parse_side(args)
    if args.chart == "diag" and s.m == 1:
        return polygon_hrep(s)
    cs = gt_slice(s)
    return cs.diag_chart if args.chart == "diag" else cs.entry_chart


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, without the pure-Python encoder
    that json.dumps falls back to when indenting; indent is obj's depth.

    Containers, str and int are written here, every other scalar by
    json.dumps; each list item and dict value, leaves included, is one
    recursive call.  Dict keys must be str, as in every payload of this
    module.
    A tuple is written as a list, as json.dumps writes it.  The fan and its
    singularity report, whose cones share rays and vertex texts, have their
    own writers (toric._fan_json_text, toric._singularity_json_text).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return repr(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json_text(v, inner) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit(args: argparse.Namespace, payload: Callable[[], object],
          text_lines: Callable[[], list[str]], write: Callable = _json_text) -> int:
    """Print write(payload()), the JSON text, or the lines of text_lines(),
    building only that one; returns 0, a display command's exit code.

    write is _json_text but for fan and singular, whose payload is the Fan
    record and whose writers are toric._fan_json_text and
    toric._singularity_json_text; both read the fan's cached vertex texts."""
    if args.format == "json":
        print(write(payload()))
    else:
        for line in text_lines():
            print(line)
    return 0


def _verdict(args: argparse.Namespace, report, lines: Callable[[], list[str]]) -> int:
    """Emit a checking command's report: its JSON, or lines() then "all pass"
    or "FAILED"; the exit code is 0 or 1 by report.all_pass."""
    _emit(args, report.to_json_dict,
          lambda: lines() + ["all pass" if report.all_pass else "FAILED"])
    return 0 if report.all_pass else 1


def _vec_str(v: tuple) -> str:
    return ",".join(frac_str(c) for c in v)


def _point_str(v: tuple) -> str:
    return "(" + ", ".join(frac_str(c) for c in v) + ")"


def _cmd_polytope(args: argparse.Namespace) -> int:
    P = remove_redundant(_chart_polytope(args))
    return _emit(args, P.to_json_dict, lambda: (
        [f"dim: {P.dim}"]
        + [f"eq: {_vec_str(a)} = {frac_str(b)}" for a, b in P.eqs]
        + [f"ineq: {_vec_str(a)} <= {frac_str(b)}" for a, b in P.ineqs]))


def _cmd_vertices(args: argparse.Namespace) -> int:
    V = h_to_v(_chart_polytope(args))
    return _emit(args, V.to_json_dict, lambda: [_point_str(v) for v in V.vertices])


def _cmd_fan(args: argparse.Namespace) -> int:
    F = normal_fan(_chart_polytope(args))
    return _emit(args, lambda: F, lambda: [f"ambient: {F.ambient_dim}"] + [
        f"vertex {_point_str(vertex)}: rays " + " ".join(_point_str(r) for r in cone.rays)
        for vertex, cone in F.maximal_cones], _fan_json_text)


def _cmd_singular(args: argparse.Namespace) -> int:
    F = normal_fan(_chart_polytope(args))
    report = singularity_report(F)
    return _emit(args, lambda: F, lambda: (
        [f"vertex {_point_str(e.vertex)}: {e.label}" for e in report.entries]
        + ["smooth: " + ("yes" if report.is_smooth else "no")]), _singularity_json_text)


def _cmd_facets(args: argparse.Namespace) -> int:
    s = _parse_side(args)
    P = remove_redundant(polygon_hrep(s))
    labels = facet_labels(s, P)
    return _emit(args, lambda: {"facets": [
        {"tags": list(l.tags), "normal": [frac_str(c) for c in l.normal],
         "rhs": frac_str(l.rhs)} for l in labels]},
        lambda: [f"{','.join(l.tags)}: {_vec_str(l.normal)} <= {frac_str(l.rhs)}"
                 for l in labels])


def _cmd_ehrhart(args: argparse.Namespace) -> int:
    P = _chart_polytope(args)
    # Fail before the first scan when the fit would lack samples, once
    # count_dilates' own t_max check has passed.
    _require_int(args.t_max, "t_max")
    _fit_shape(P, args.t_max)
    counts = count_dilates(P, args.t_max)
    fit = ehrhart_fit(counts)
    return _emit(args, lambda: {"counts": list(counts.counts), **fit.to_json_dict()}, lambda: (
        ["counts: " + ",".join(str(c) for c in counts.counts),
         f"mode: {fit.mode}", f"period: {fit.period}", f"degree: {fit.degree}"]
        + [f"class {cls}: " + ",".join(frac_str(c) for c in coeffs)
           for cls, coeffs in enumerate(fit.coeffs_by_class)]))


def _cmd_mult(args: argparse.Namespace) -> int:
    q = MultiplicityQuery.from_side(_parse_side(args), args.dilate)
    value = weight_multiplicity(q)
    return _emit(args, lambda: {"multiplicity": value}, lambda: [str(value)])


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    report = verify_ehrhart_identity(_parse_side(args), args.t_max)
    return _verdict(args, report, lambda: [
        f"t={c.dilate}: count={c.lattice_count} mult={c.multiplicity} "
        + ("PASS" if c.passed else "FAIL") for c in report.checks])


def _cmd_dual(args: argparse.Namespace) -> int:
    report = verify_duality(_parse_side(args), args.t_max)
    dual = report.dual_side
    return _verdict(args, report, lambda: (
        [f"dual m: {dual.m}", f"dual r: {_vec_str(dual.r)}"]
        + [f"{inv.name}: {inv.primal} vs {inv.dual} "
           + ("PASS" if inv.passed else "FAIL") for inv in report.invariants]))


def _cmd_fibers(args: argparse.Namespace) -> int:
    m, limit = args.m, sys.get_int_max_str_digits()
    exponent = m * args.n - 2 * m - m * m
    # 2**e has at most L digits iff 2**e < 10**L iff e < (10**L).bit_length();
    # for m < 1 real_fiber_size reports the bad m instead (a limit of 0 is none).
    if limit and m >= 1 and exponent >= (10 ** limit).bit_length():
        raise ValueError(f"fiber size 2^{exponent} has more than {limit} decimal digits")
    value = real_fiber_size(args.m, args.n)
    return _emit(args, lambda: {"fiber_size": value}, lambda: [str(value)])


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    fp = combinatorial_fingerprint(_chart_polytope(args))
    return _emit(args, lambda: {"fingerprint": fp}, lambda: [fp])


def _cmd_paper_examples(args: argparse.Namespace) -> int:
    report = reference_battery()
    return _verdict(args, report, lambda: [
        f"{c.claim_id}: PASS" if c.passed
        else f"{c.claim_id}: FAIL (expected {c.expected}, computed {c.computed})"
        for c in report.claims])


# The options of the subcommands, one (flag, add_argument keywords) each.
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text",
                        "help": "output format (default: text)"})
_SIDE = (("--m", {"type": int, "help": "projective space dimension"}),
         ("--r", {"help": "comma separated side lengths, e.g. 3,3,3,3,3 or 5/2,5/2,3,3,3"}),
         ("--side-file", {"help": "JSON file with {\"m\": ..., \"r\": [...]}"}))
_POLYTOPE_FILE = ("--polytope-file",
                  {"help": "JSON file with an inequality description; overrides --m/--r"})


def _chart(default: str) -> tuple:
    return "--chart", {"choices": ("diag", "entry"), "default": default,
                       "help": f"coordinate chart to work in (default: {default})"}


def _t_max(default: int) -> tuple:
    return "--t-max", {"type": int, "default": default,
                       "help": f"largest dilation factor (default: {default})"}


_GEOMETRY = (*_SIDE, _POLYTOPE_FILE, _chart("diag"))

# The one table of subcommands: name -> (help, handler, options after --format).
# build_parser and _plain_parse both read it.
_COMMANDS = {
    "polytope": ("print the inequality description of a chart", _cmd_polytope, _GEOMETRY),
    "vertices": ("print the vertex list of a chart", _cmd_vertices, _GEOMETRY),
    "fan": ("print the normal fan (one cone per vertex)", _cmd_fan, _GEOMETRY),
    "singular": ("classify each vertex of the associated toric variety",
                 _cmd_singular, _GEOMETRY),
    "facets": ("label each polygon facet by its catalogue tag", _cmd_facets, _SIDE),
    "ehrhart": ("count lattice points in dilates and fit the counting function",
                _cmd_ehrhart, (*_SIDE, _POLYTOPE_FILE, _chart("entry"), _t_max(6))),
    "mult": ("weight multiplicity via the determinant formula", _cmd_mult,
             (*_SIDE, ("--dilate", {"type": int, "default": 1,
                                    "help": "dilation factor (default: 1)"}))),
    "verify-identity": ("check lattice counts against multiplicities",
                        _cmd_verify_identity, (*_SIDE, _t_max(3))),
    "dual": ("build the complementary side data and compare invariants",
             _cmd_dual, (*_SIDE, _t_max(3))),
    "fibers": ("generic real torus fiber size", _cmd_fibers,
               (("--m", {"type": int, "required": True}),
                ("--n", {"type": int, "required": True}))),
    "fingerprint": ("canonical combinatorial fingerprint of a chart",
                    _cmd_fingerprint, _GEOMETRY),
    "paper-examples": ("run the built-in battery of frozen worked examples",
                       _cmd_paper_examples, ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weightpoly",
        description="Exact geometry of spatial polygon moduli: polytopes, "
                    "toric data, and lattice point counts.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (_FORMAT, *options):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return top


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) read straight from the table when argv
    is plain, else None.

    Plain: a subcommand name, then distinct options of it, each spelled in
    full and followed by a value that does not start with "-", converted by
    the option's type and among its choices, with every required option
    given.  argparse leaves such argv no choice to make, so the namespace is
    the command name, the given values, every other option's default and
    the handler; no parser is built and no message looked up.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    table = dict((_FORMAT, *options))
    given = dict(zip(argv[1::2], argv[2::2]))
    if (2 * len(given) + 1 != len(argv) or not table.keys() >= given.keys()
            or any(text.startswith("-") for text in given.values())):
        return None
    values = {"command": argv[0], "func": func}
    for flag, kwargs in table.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if kwargs.get("required"):
                return None
            values[dest] = kwargs.get("default")
            continue
        try:
            values[dest] = kwargs.get("type", str)(given[flag])
        except ValueError:
            return None
        if "choices" in kwargs and values[dest] not in kwargs["choices"]:
            return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv): read from the table when argv is
    plain (_plain_parse), else by the full parser, the one source of help,
    usage and error text."""
    return _plain_parse(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so the
        # interpreter's final flush does not raise again at shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry: rule files, integration, moments, trim fitting.

Exit status is 0 on success, 1 for validation problems (bad flags, bad
files, non-closed geometry, orders too large for memory) and, silently,
for a stdout whose reader has gone, 2 for numeric failures (ill
conditioning, domain errors in the integrand).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .errors import (
    ConditioningError,
    EvalError,
    ParseError,
    QuadratureError,
    ValidationError,
)
from .expr import evaluate, parse, polynomial_degree, to_callable
from .io import (
    _create_text,
    _net_to_json,
    _rule_csv_blocks,
    load_model,
    load_region,
    load_rule,
    load_solid,
    load_trim_points,
    moment_csv_lines,
)
from .moments import geometric_moments
from .planar import PlanarRegion, apply, spectral_pe_rule, spectral_rule
from .surface import boundary_rule
from .trimfit import fit_trim_curves
from .volume import volume_rule


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for numeric
    # failures here, so remap to the validation status.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    # built once per process: main only parses with it
    p = _Parser(prog="bezquad", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    r2 = sub.add_parser("rule2d", help="quadrature rule for a planar region")
    r2.add_argument("--region", required=True, help="region JSON file")
    r2.add_argument("--mode", required=True, choices=("spectral", "pe"))
    r2.add_argument("--order", type=int, help="boundary/layer order (spectral mode)")
    r2.add_argument("--degree", type=int, help="exactness degree k (pe mode)")
    r2.add_argument("--out", help="write CSV here instead of stdout")

    rs = sub.add_parser("rule-surface", help="rule over all patches of a solid")
    rs.add_argument("--solid", required=True, help="solid JSON file")
    rs.add_argument("--orders", required=True, metavar="MQ,NQ")
    rs.add_argument("--out")

    rv = sub.add_parser("rule-volume", help="volume rule for a closed solid")
    rv.add_argument("--solid", required=True, help="solid JSON file")
    rv.add_argument("--orders", required=True, metavar="MQ,NQ,NP")
    rv.add_argument("--out")

    it = sub.add_parser("integrate", help="integrate an expression")
    src = it.add_mutually_exclusive_group(required=True)
    src.add_argument("--rule", help="rule CSV produced by a rule command")
    src.add_argument("--model", help="region or solid JSON file")
    it.add_argument("--expr", required=True, help="integrand in x, y, z")
    it.add_argument(
        "--pe",
        action="store_true",
        help="use the polynomial-exact rule sized to the integrand degree",
    )
    it.add_argument(
        "--orders",
        metavar="Q[,P]|MQ,NQ,NP",
        help="quadrature orders (default 20,20 planar / 16,16,16 solid)",
    )

    mo = sub.add_parser("moments", help="geometric moments of a model")
    mo.add_argument("--model", required=True, help="region or solid JSON file")
    mo.add_argument("--max-degree", required=True, type=int)
    mo.add_argument("--out")

    ft = sub.add_parser("fit-trim", help="fit trim curves through sampled points")
    ft.add_argument("--points", required=True, help="u,v CSV, blank-line blocks")
    ft.add_argument("--segments", required=True, type=int)
    ft.add_argument("--degree", type=int, default=3)
    ft.add_argument("--out")

    cv = sub.add_parser("convergence", help="error-vs-order refinement table")
    cv.add_argument("--model", required=True, help="region or solid JSON file")
    cv.add_argument("--expr", required=True)
    cv.add_argument("--orders", required=True, metavar="LO:HI:STEP")
    cv.add_argument("--out")
    return p


class _StdoutClosed(Exception):
    """The reader of stdout went away; nothing is left to report to."""


def _emit(blocks, out):
    """Write the LF-terminated texts ``blocks`` to the file ``out``, or to
    stdout if it is None."""
    if out:
        with _create_text(out) as fh:
            fh.writelines(blocks)
        return
    try:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
    except BrokenPipeError:
        # `bezquad ... | head`: send the rest, and the flush at exit, to
        # devnull so shutdown prints no "Exception ignored" line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _StdoutClosed from None


def _lines(lines):
    """``lines`` as one LF-terminated text block for ``_emit``."""
    return ["".join(f"{line}\n" for line in lines)]


def _parse_ints(text, flag, counts):
    parts = text.split(",")
    if len(parts) not in counts:
        want = " or ".join(str(c) for c in sorted(counts))
        raise ValidationError(f"{flag} takes {want} comma-separated integers")
    try:
        vals = [int(v) for v in parts]
    except ValueError:
        raise ValidationError(f"{flag}: {text!r} is not a list of integers") from None
    if any(v < 1 for v in vals):
        raise ValidationError(f"{flag}: orders must be at least 1")
    return vals


def _weighted(node, rule):
    """Sum w_i f(p_i) with domain failures reported at the bad point."""
    try:
        return apply(rule, to_callable(node))
    except QuadratureError as exc:
        pt = list(exc.point) + [0.0] * (3 - len(exc.point))
        evaluate(node, pt)  # raises EvalError naming the subexpression
        raise EvalError(
            f"integrand is not finite at ({', '.join(f'{v:.17g}' for v in pt)})"
        ) from None


def _cmd_rule2d(args):
    region = load_region(args.region)
    if args.mode == "spectral":
        if args.order is None:
            raise ValidationError("--mode spectral needs --order")
        if args.degree is not None:
            raise ValidationError("--degree applies to --mode pe only")
        rule = spectral_rule(region, args.order, args.order)
    else:
        if args.degree is None:
            raise ValidationError("--mode pe needs --degree")
        if args.order is not None:
            raise ValidationError("--order applies to --mode spectral only")
        rule = spectral_pe_rule(region, args.degree)
    _emit(_rule_csv_blocks(rule), args.out)


def _cmd_rule_surface(args):
    solid = load_solid(args.solid)
    m_q, n_q = _parse_ints(args.orders, "--orders", {2})
    _emit(_rule_csv_blocks(boundary_rule(solid.patches, m_q, n_q, "full-normal")), args.out)


def _cmd_rule_volume(args):
    solid = load_solid(args.solid)
    m_q, n_q, n_p = _parse_ints(args.orders, "--orders", {3})
    _emit(_rule_csv_blocks(volume_rule(solid, m_q, n_q, n_p)), args.out)


def _cmd_integrate(args):
    node = parse(args.expr)
    if args.rule is not None:
        if args.pe:
            raise ValidationError("--pe needs --model; a stored rule is fixed")
        if args.orders:
            raise ValidationError("--orders needs --model; a stored rule is fixed")
        value = _weighted(node, load_rule(args.rule))
    else:
        model = load_model(args.model)
        if isinstance(model, PlanarRegion):
            if args.pe:
                if args.orders:
                    raise ValidationError("--pe sizes the rule itself; drop --orders")
                k = polynomial_degree(node)
                if k is None:
                    raise ValidationError(
                        "--pe needs a polynomial integrand (no /x, sqrt, exp, "
                        "sin, cos, log over variables); drop --pe to integrate "
                        f"{args.expr!r} with the spectral rule"
                    )
                rule = spectral_pe_rule(model, k)
            else:
                orders = (
                    _parse_ints(args.orders, "--orders", {1, 2})
                    if args.orders
                    else [20, 20]
                )
                q = orders[0]
                p = orders[1] if len(orders) == 2 else q
                rule = spectral_rule(model, q, p)
        else:
            if args.pe:
                raise ValidationError("--pe applies to planar regions only")
            m_q, n_q, n_p = (
                _parse_ints(args.orders, "--orders", {3})
                if args.orders
                else (16, 16, 16)
            )
            rule = volume_rule(model, m_q, n_q, n_p)
        value = _weighted(node, rule)
    _emit([f"{value:.17g}\n"], None)


def _cmd_moments(args):
    if args.max_degree < 0:
        raise ValidationError("--max-degree must be nonnegative")
    mv = geometric_moments(load_model(args.model), args.max_degree)
    _emit(_lines(moment_csv_lines(mv)), args.out)


def _cmd_fit_trim(args):
    blocks = load_trim_points(args.points)
    loops = [
        [_net_to_json(c) for c in fit_trim_curves(pts, args.segments, args.degree)]
        for pts in blocks
    ]
    _emit([json.dumps(loops, indent=2, sort_keys=True) + "\n"], args.out)


def _cmd_convergence(args):
    node = parse(args.expr)
    fields = args.orders.split(":")
    if len(fields) != 3:
        raise ValidationError("--orders takes LO:HI:STEP")
    try:
        lo, hi, step = (int(v) for v in fields)
    except ValueError:
        raise ValidationError(f"--orders: {args.orders!r} is not LO:HI:STEP") from None
    if lo < 1 or step < 1 or hi < lo:
        raise ValidationError("--orders needs 1 <= LO <= HI and STEP >= 1")
    model = load_model(args.model)
    orders = list(range(lo, hi + 1, step))
    rows = []
    for n in orders:
        if isinstance(model, PlanarRegion):
            rule = spectral_rule(model, n, n)
        else:
            rule = volume_rule(model, n, n, n)
        rows.append((n, len(rule), _weighted(node, rule)))
    reference = rows[-1][2]
    lines = ["order,n_points,value,error"]
    for n, count, value in rows:
        lines.append(f"{n},{count},{value:.17g},{abs(value - reference):.17g}")
    _emit(_lines(lines), args.out)


_DISPATCH = {
    "rule2d": _cmd_rule2d,
    "rule-surface": _cmd_rule_surface,
    "rule-volume": _cmd_rule_volume,
    "integrate": _cmd_integrate,
    "moments": _cmd_moments,
    "fit-trim": _cmd_fit_trim,
    "convergence": _cmd_convergence,
}


def _run(args):
    """Exit status of one command and the error that set it, if any."""
    try:
        _DISPATCH[args.command](args)
    except _StdoutClosed:
        return 1, None
    except (ValidationError, ParseError, OSError) as exc:
        return 1, exc
    except MemoryError as exc:
        return 1, str(exc) or "out of memory"
    except (QuadratureError, ConditioningError, EvalError) as exc:
        return 2, exc
    return 0, None


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, error = _run(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write(f"bezquad: warning: {message}\n")
    if error is not None:
        sys.stderr.write(f"bezquad: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

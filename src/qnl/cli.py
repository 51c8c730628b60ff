"""Command-line interface.

Exit codes: 0 ok, 1 table cells deviate from their references, 2 bad
input, a solver error, an unwritable output path or memory exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bell import cglmp_value, critical_lr, optimize_settings
from .channels import ChannelSpec, channel_output
from .criteria import (critical_analytic, critical_bisection,
                       default_metric, is_entangled, scan_surface)
from .errors import QnlError
from .fidelity import critical_fidelity, werner_gap
from .gellmann import gellmann_basis
from .reports import CSV_DECIMALS, DEFAULT_CELL_TOL, surface_csv, write_tables
from .states import SchmidtState, max_entangled, qutrit_family, rank_k_state, schmidt_state
from .tensor import (Metric, colored_metric, correlation_tensor,
                     damping_metric, identity_metric)


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise QnlError(f"malformed number {text!r}") from None


def parse_state(d: int, text: str) -> SchmidtState:
    """Parse mes | qutrit:A,B | rank:K:C1,.. | coeffs:C0,.. specifiers."""
    if text == "mes":
        return max_entangled(d)
    name, sep, rest = text.partition(":")
    if not sep:
        raise QnlError(f"unknown state specifier {text!r}")
    if name == "qutrit":
        if d != 3:
            raise QnlError("qutrit states require --d 3")
        parts = [_number(x) for x in rest.split(",")]
        if len(parts) != 2:
            raise QnlError("qutrit specifier needs two angles: qutrit:ALPHA,BETA")
        return qutrit_family(parts[0], parts[1])
    if name == "rank":
        k_text, sep2, coeff_text = rest.partition(":")
        if not sep2:
            raise QnlError("rank specifier needs rank:K:C1,C2,...")
        coeffs = np.array([_number(x) for x in coeff_text.split(",")])
        return rank_k_state(d, _number(k_text, int), coeffs)
    if name == "coeffs":
        coeffs = np.array([_number(x) for x in rest.split(",")])
        if len(coeffs) != d:
            raise QnlError(f"coeffs specifier needs {d} values for --d {d}")
        return schmidt_state(d, coeffs)
    raise QnlError(f"unknown state specifier {text!r}")


def parse_metric(name: str, d: int, spec: ChannelSpec) -> Metric:
    """One of the --metric choices: default, identity, colored or ad."""
    if name == "default":
        return default_metric(spec.kind, d, spec.noise_free_fraction)
    if name == "identity":
        return identity_metric(d)
    if name == "colored":
        return colored_metric(d, spec.noise_free_fraction)
    return damping_metric(d)


def _emit(text: str, out: str) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_matrix(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.{CSV_DECIMALS}f}" for x in row))
    return "\n".join(lines) + "\n"


def cmd_basis(args) -> int:
    basis = gellmann_basis(args.d)
    if args.fmt == "csv":
        lines = ["index,group,j,k,row,col,re,im"]
        for idx in range(basis.size):
            j, k = basis.pair_of[idx]
            m = basis.matrices[idx]
            for r in range(args.d):
                for c in range(args.d):
                    if abs(m[r, c]) < 1e-15:
                        continue
                    lines.append(f"{idx},{basis.group_of[idx]},{j},{k},"
                                 f"{r},{c},{m[r, c].real:.{CSV_DECIMALS}f},"
                                 f"{m[r, c].imag:.{CSV_DECIMALS}f}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "d": args.d,
        "count": basis.size,
        "matrices": [{
            "index": idx,
            "group": basis.group_of[idx],
            "pair": list(basis.pair_of[idx]),
            "re": basis.matrices[idx].real.tolist(),
            "im": basis.matrices[idx].imag.tolist(),
        } for idx in range(basis.size)],
    }
    _emit(_json(payload), args.out)
    return 0


def _state_and_output(args):
    spec = ChannelSpec.parse(args.channel)
    psi = parse_state(args.d, args.state)
    rho = channel_output(psi, spec)
    return spec, psi, rho


def cmd_tensor(args) -> int:
    spec, psi, rho = _state_and_output(args)
    t = correlation_tensor(rho)
    g = parse_metric(args.metric, args.d, spec)
    verdict = is_entangled(t, g)
    if args.fmt == "csv":
        n = t.t.shape[0]
        _emit(_csv_matrix([f"c{j}" for j in range(n)], t.t), args.out)
        return 0
    payload = {
        "d": args.d,
        "state": args.state,
        "channel": args.channel,
        "metric": args.metric,
        **asdict(verdict),
        "tensor": t.t.tolist(),
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_crit(args) -> int:
    spec = ChannelSpec.parse(args.channel)
    psi = parse_state(args.d, args.state)
    g = None if args.metric == "default" else \
        parse_metric(args.metric, args.d, spec)
    if args.method == "analytic":
        # the closed forms hold for the max-entangled input under the
        # channel's own metric only
        if not psi.is_max_entangled():
            raise QnlError("--method analytic needs the max-entangled state")
        default = default_metric(spec.kind, args.d, spec.noise_free_fraction)
        if g is not None and not np.array_equal(g.g, default.g):
            raise QnlError("--method analytic needs the channel's default "
                           "metric")
        res = critical_analytic(args.d, spec.kind)
    else:
        res = critical_bisection(psi, spec.kind, g)
    _emit(_json(asdict(res)), args.out)
    return 0


def cmd_scan(args) -> int:
    spec = ChannelSpec.parse(args.channel if ":" in args.channel
                             else args.channel + ":0")
    if args.grid < 2:
        raise QnlError("--grid needs at least 2 points per axis")
    alphas = np.linspace(0.0, np.pi / 2.0, args.grid)
    betas = np.linspace(0.0, np.pi / 2.0, args.grid)
    scan = scan_surface(spec.kind, alphas, betas, quantity=args.quantity)
    if args.fmt == "json":
        minimum = scan.minimum()
        if minimum is not None:
            alpha, beta, value = minimum
            minimum = {"value": value, "alpha": alpha, "beta": beta}
        payload = {
            "channel": spec.kind.value,
            "quantity": scan.quantity,
            "grid": args.grid,
            "minimum": minimum,
            "alphas": scan.alphas.tolist(),
            "betas": scan.betas.tolist(),
            "values": scan.values.tolist(),
            "never_detected": scan.flags.tolist(),
        }
        _emit(_json(payload), args.out)
        return 0
    _emit(surface_csv(scan), args.out)
    return 0


def cmd_cglmp(args) -> int:
    if args.restarts < 0:
        raise QnlError("--restarts must be at least 0")
    if args.seed < 0:
        raise QnlError("--seed must be at least 0")
    _, _, rho = _state_and_output(args)
    if args.optimize:
        bv = optimize_settings(rho, restarts=args.restarts, seed=args.seed)
    else:
        bv = cglmp_value(rho)
    payload = {
        "d": args.d,
        "state": args.state,
        "channel": args.channel,
        "optimized": bool(args.optimize),
        "i_d": bv.i_d,
        "violated": bv.violated,
        "probabilities": bv.probabilities.tolist(),
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_cglmp_crit(args) -> int:
    spec = ChannelSpec.parse(args.channel)
    psi = parse_state(args.d, args.state)
    res = critical_lr(psi, spec.kind)
    _emit(_json(asdict(res)), args.out)
    return 0


def cmd_fidelity(args) -> int:
    spec = ChannelSpec.parse(args.channel)
    _emit(_json(asdict(critical_fidelity(args.d, spec.kind))), args.out)
    return 0


def cmd_werner_gap(args) -> int:
    spec = ChannelSpec.parse(args.channel)
    _emit(_json(asdict(werner_gap(args.d, spec.kind))), args.out)
    return 0


def cmd_tables(args) -> int:
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise QnlError("--tolerance must be a finite number of at least 0")
    out_dir = args.out or "qnl_tables"
    report = write_tables(out_dir, tol=args.tolerance)
    for entry in report["entries"]:
        status = "ok" if entry["ok"] else "FAIL"
        if entry["flags"]:
            status += f" [{','.join(entry['flags'])}]"
        sys.stdout.write(
            f"{entry['table']:9s} {entry['noise']:5s} d={entry['d']:3s} "
            f"{entry['state']:14s} computed={_opt(entry['computed'])} "
            f"expected={_opt(entry['expected'])} {status}\n")
    sys.stdout.write(f"{report['cells']} cells, {report['failures']} failures, "
                     f"{report['flagged']} flagged; written to {out_dir}\n")
    return 1 if report["failures"] else 0


def _opt(x: float | None) -> str:
    return "   n/a" if x is None else f"{x:.{CSV_DECIMALS}f}"


def _add_output_options(p: argparse.ArgumentParser,
                        fmt: str | None = None) -> None:
    """--format (only where a subcommand can write CSV) and --out."""
    if fmt:
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default=fmt)
    p.add_argument("--out", default="",
                   help="output path (tables: output directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnl",
        description="Entanglement detection and Bell analysis for noisy "
                    "two-qudit states.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("basis",
                       help="dump the traceless Hermitian operator basis")
    _add_output_options(p, "json")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_basis)

    for name, func in (("tensor", cmd_tensor), ("crit", cmd_crit),
                       ("cglmp", cmd_cglmp), ("cglmp-crit", cmd_cglmp_crit)):
        p = sub.add_parser(name)
        _add_output_options(p, "json" if name == "tensor" else None)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--state", default="mes")
        p.add_argument("--channel", default="white:1")
        if name in ("tensor", "crit"):
            # default picks the channel's own metric
            p.add_argument("--metric", default="default",
                           choices=("default", "identity", "colored", "ad"))
        if name == "crit":
            p.add_argument("--method", default="bisection",
                           choices=("bisection", "analytic"))
        if name == "cglmp":
            p.add_argument("--optimize", action="store_true")
            p.add_argument("--restarts", type=int, default=6)
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("scan",
                       help="critical-value surface over the qutrit family")
    _add_output_options(p, "csv")
    p.add_argument("--channel", required=True,
                   help="channel kind, strength part ignored (white, product, "
                        "depol, ad)")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--quantity", default="crit",
                   choices=("crit", "xi"))
    p.set_defaults(func=cmd_scan)

    for name, func in (("fidelity", cmd_fidelity),
                       ("werner-gap", cmd_werner_gap)):
        p = sub.add_parser(name)
        _add_output_options(p)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--channel", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("tables",
                       help="recompute the five summary tables and diff them")
    _add_output_options(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_CELL_TOL)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QnlError, MemoryError, OSError) as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

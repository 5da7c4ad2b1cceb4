"""Batch command-line interface.

Verbs: ``verify <suite>``, ``sweep <check>``, ``geodesic shoot|log|expand``,
``immersion report``, ``measure``, ``action``.  Exit codes: 0 pass, 1 check
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import GeodexpError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _apply_overrides(config, args):
    data = config.data
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "grid", None) is not None:
        data.setdefault("grid", {})["points"] = args.grid
    if getattr(args, "tol", None) is not None:
        data.setdefault("tolerances", {})["shoot_tol"] = args.tol
    return config


def _load(args):
    from .config import load_config

    return _apply_overrides(load_config(getattr(args, "config", None)), args)


def cmd_verify(args):
    from .suites import run_suite

    config = _load(args)
    report = run_suite(config, args.suite)
    sys.stdout.write(report.to_text())
    if args.out:
        _write_csv(args.out, report.to_csv_rows())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_sweep(args):
    from .suites import sweep

    config = _load(args)
    scales = [float(s) for s in args.scales.split(",")] if args.scales else None
    rows, fit = sweep(config, args.check, scales=scales)
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")
    if args.out:
        _write_csv(args.out, rows)
    return EXIT_PASS


def _point_flag(args, flag, dim):
    """The comma-separated point given by ``--flag``, which the verb requires,
    with ``dim`` coordinates."""
    text = getattr(args, flag)
    if text is None:
        raise ValueError(f"geodesic {args.verb} requires --{flag}")
    point = np.array([float(p) for p in text.split(",")])
    if point.size != dim:
        raise ValueError(f"--{flag} has {point.size} coordinates, the manifold "
                         f"has dimension {dim}")
    return point


def cmd_geodesic(args):
    from . import geodesics as gd

    config = _load(args)
    M = config.manifold()
    tol = config.shoot_tol()
    x0 = _point_flag(args, "x0", M.dim)
    if args.verb == "shoot":
        row = gd.shoot(M, x0, _point_flag(args, "v", M.dim), args.t, tol=tol)
        note = ""
    elif args.verb == "log":
        row = gd.log_map(M, x0, _point_flag(args, "x1", M.dim), tol=max(tol, 1e-11))
        note = ""
    else:
        row, trusted = gd.expand3(M, x0, _point_flag(args, "v", M.dim),
                                  order=args.order)
        note = "" if trusted else " (outside trust radius)"
    sys.stdout.write(" ".join(f"{c:.12f}" for c in row) + note + "\n")
    if args.out:
        with open(args.out, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(f"{c:.12e}" for c in row) + "\n")
    return EXIT_PASS


def cmd_immersion(args):
    from . import immersions as im
    from . import measures as ms

    config = _load(args)
    imm = config.immersion()
    frame = im.build_frame(imm)
    ext = im.extrinsic_data(imm, frame)
    res = im.structure_residuals(imm, frame, ext)
    fres = im.frame_invariant_residuals(imm, frame)
    fj = ms.frame_jacobian_check(imm, frame)
    rows = [("quantity", "value")]
    rows.append(("name", imm.name))
    rows.append(("grid", "x".join(str(s) for s in imm.grid.shape)))
    rows.append(("volume", f"{imm.volume():.12e}"))
    rows.append(("mean_curvature_max", f"{np.abs(ext.mean_curvature).max():.12e}"))
    rows.append(("connection_max", f"{np.abs(ext.connection).max():.12e}"))
    rows.append(("normal_curvature_max", f"{np.abs(ext.normal_curvature).max():.12e}"))
    rows.append(("weingarten_residual", f"{ext.weingarten_residual:.12e}"))
    for key, val in res["norms"].items():
        rows.append((f"residual_{key}", f"{val:.12e}"))
    for key, val in fres.items():
        rows.append((f"frame_{key}", f"{val:.12e}"))
    rows.append(("frame_jacobian_residual", f"{fj['residual']:.12e}"))
    for name, value in rows[1:]:
        sys.stdout.write(f"{name}: {value}\n")
    if args.out:
        _write_csv(args.out, rows)
    return EXIT_PASS


def cmd_measure(args):
    from . import deviations as dv
    from . import measures as ms

    config = _load(args)
    imm = config.immersion()
    bg = dv.Background(imm)
    dev_spec = config.field_spec("deviation", imm.grid.periods, imm.D)
    dev = dv.DeviationField(bg, dev_spec.sample(imm.grid)[..., :imm.D])
    xi = dv.decompose(dev)
    eta_spec = config.field_spec("generator", imm.grid.periods, imm.d)
    eta = dv.GeneratorField(bg, eta_spec.sample(imm.grid)[..., :imm.d])

    rows = [("term", "value")]
    for label, weight in (("right_measure", ms.functional_right_measure_log(dev)),
                          ("eta_measure", ms.eta_measure_log(eta)),
                          ("fp_determinant", ms.fp_log_determinant(xi))):
        for term, value in weight.terms.items():
            rows.append((f"{label}.{term}", f"{value:.12e}"))
        rows.append((f"{label}.log_density", f"{weight.log_density:.12e}"))
    xin = dv.XiDecomposition(bg, np.zeros(imm.grid.shape + (imm.d,)), xi.normal)
    rep = ms.pipeline_identity_report(xin)
    for term, value in rep.items():
        rows.append((f"pipeline.{term}", f"{value:.12e}"))
    for name, value in rows[1:]:
        sys.stdout.write(f"{name}: {value}\n")
    if args.out:
        _write_csv(args.out, rows)
    return EXIT_PASS


def cmd_action(args):
    from . import deviations as dv
    from . import measures as ms

    config = _load(args)
    imm = config.immersion()
    bg = dv.Background(imm)
    spec = config.field_spec("xi_normal", imm.grid.periods, imm.D - imm.d)
    xin = spec.sample(imm.grid)[..., :imm.D - imm.d]
    xi = dv.XiDecomposition(bg, np.zeros(imm.grid.shape + (imm.d,)), xin)
    exact = ms.nambu_goto_action(dv.immersion_from_deviation(dv.recompose(xi)))
    rows = [("term", "value"),
            ("background_action", f"{ms.nambu_goto_action(imm):.12e}"),
            ("expanded_action", f"{ms.action_expansion(xi):.12e}"),
            ("exact_perturbed_action", f"{exact:.12e}")]
    for name, value in rows[1:]:
        sys.stdout.write(f"{name}: {value}\n")
    if args.out:
        _write_csv(args.out, rows)
    return EXIT_PASS


def build_parser():
    from .suites import SUITES, SWEEPS

    parser = argparse.ArgumentParser(
        prog="geodexp",
        description="Geodesic-expansion calculus: verification suites, "
                    "convergence sweeps and geometry reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config path")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None,
                       help="lattice points per axis")
        p.add_argument("--tol", type=float, default=None,
                       help="ODE oracle tolerance")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(SUITES))
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="scale sweep for a named check")
    p.add_argument("check", choices=list(SWEEPS))
    p.add_argument("--scales", default=None, help="comma-separated scales")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("geodesic", help="shoot / log-map / expansion at points")
    p.add_argument("verb", choices=["shoot", "log", "expand"])
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    p.add_argument("--x1", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("immersion", help="geometry report for an immersion")
    p.add_argument("verb", choices=["report"])
    common(p)
    p.set_defaults(fn=cmd_immersion)

    p = sub.add_parser("measure", help="functional-measure term table")
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("action", help="area action and its expansion")
    common(p)
    p.set_defaults(fn=cmd_action)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except GeodexpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: run, verify, convergence, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import MksError, UsageError, ValidationError


def _add_common(p):
    p.add_argument("--config", type=Path, required=True, help="experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.add_argument("--paths", type=int, default=None, help="override path count")


def build_parser():
    ap = argparse.ArgumentParser(prog="mks",
                                 description="stochastic Maxwell-Kerr simulator")
    sub = ap.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute a Monte-Carlo experiment")
    _add_common(run_p)
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: MKS_WORKERS or 1)")
    run_p.add_argument("--out", type=Path, default=None,
                       help="override output directory")

    ver_p = sub.add_parser("verify", help="run the invariant suites")
    ver_p.add_argument("--level", choices=("fast", "full"), default="fast")
    ver_p.add_argument("--out", type=Path, default=None,
                       help="write the machine-readable report here (JSON)")

    conv_p = sub.add_parser("convergence", help="step-size or cutoff sweeps")
    _add_common(conv_p)
    conv_p.add_argument("--mode", choices=("dt", "galerkin"), default="dt")
    conv_p.add_argument("--dts", type=str, default="1/16 1/32 1/64",
                        help="space-separated dyadic step sizes (fractions ok)")
    conv_p.add_argument("--levels", type=str, default=None,
                        help="space-separated cutoff levels for galerkin mode "
                             "(default: 1 up to the finest level the grid "
                             "resolves)")

    rep_p = sub.add_parser("report", help="re-aggregate series.csv into a summary")
    rep_p.add_argument("--out", type=Path, required=True,
                       help="experiment output directory")
    return ap


def _load_config(args, out_dir):
    """The config file with the command-line overrides (and ``out_dir``,
    unless None) applied, validated again after them."""
    from .config import parse_config, validate_config

    try:
        text = args.config.read_text()
    except OSError as exc:
        raise UsageError(f"[config] cannot read {args.config}: "
                         f"{exc.strerror}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.paths is not None:
        cfg.paths = args.paths
    if out_dir is not None:
        cfg.out_dir = str(out_dir)
    violations = validate_config(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def _limits(check) -> str:
    lower, bound = check.get("lower"), check["bound"]
    if lower is None:
        return f"bound {bound:.3e}"
    if bound is None:
        return f"at least {lower:.3e}"
    return f"between {lower:.3e} and {bound:.3e}"


def _values(flag: str, text: str, parse) -> list:
    try:
        return [parse(x) for x in text.split()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: cannot read {text!r}") from exc


def _fraction(text: str) -> float:
    num, slash, den = text.partition("/")
    return float(num) / float(den) if slash else float(num)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except MksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.verb == "run":
        from .harness import run_experiment

        cfg = _load_config(args, args.out)
        report, status = run_experiment(cfg, workers=args.workers)
        print(f"paths: {len(report.paths)}")
        print(f"E sup ||y||^2      = {report.sup_l2_squared.mean:.6g} "
              f"(+/- {report.sup_l2_squared.ci_half_width:.3g})")
        print(f"E int ||y||^{{q+2}} = {report.integral_power.mean:.6g} "
              f"(+/- {report.integral_power.ci_half_width:.3g})")
        print(f"E sup ||Lambda||^2 = {report.sup_lambda_squared.mean:.6g} "
              f"(+/- {report.sup_lambda_squared.ci_half_width:.3g})")
        print(f"events: {len(report.events)}")
        return status

    if args.verb == "verify":
        from .harness import verify_suite

        def unwritable(exc):
            return UsageError(f"[verify] cannot write {args.out}: "
                              f"{exc.strerror}")

        # the report's directory is made before the suite runs, so a path
        # that cannot hold it fails at once
        if args.out is not None:
            try:
                args.out.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise unwritable(exc) from exc
        checks = verify_suite(args.level)
        failed = 0
        for c in checks:
            tag = "pass" if c["passed"] else "FAIL"
            print(f"[{tag}] {c['name']}: measured {c['measured']:.3e} "
                  f"({_limits(c)})")
            failed += 0 if c["passed"] else 1
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        if args.out is not None:
            try:
                args.out.write_text(json.dumps(checks, indent=2))
            except OSError as exc:
                raise unwritable(exc) from exc
        return 0 if failed == 0 else 1

    if args.verb == "convergence":
        from .config import build_runtime
        from .diagnostics import galerkin_convergence, strong_convergence_order
        from .multipliers import MAX_LEVEL

        cfg = _load_config(args, None)
        model = build_runtime(cfg)
        seeds = [cfg.base_seed + p for p in range(cfg.paths)]
        if args.mode == "dt":
            dts = _values("--dts", args.dts, _fraction)
            result = strong_convergence_order(model.spec, model.scheme,
                                              model.kernel, seeds, dts,
                                              horizon=model.horizon)
            for dt, err in result["table"]:
                print(f"dt={dt:.6g}  strong_error={err:.6e}")
            if result.get("exact"):
                print("errors identically zero (exact)")
            else:
                print(f"fitted slope: {result['slope']:.3f}")
        else:
            if args.levels is None:
                # every level whose scale 2^n the grid's Nyquist wavenumber
                # resolves (CutoffLevel caps n at MAX_LEVEL)
                levels = [n for n in range(1, MAX_LEVEL + 1)
                          if 2.0 ** n <= model.spec.grid.nyquist]
            else:
                levels = _values("--levels", args.levels, int)
            result = galerkin_convergence(model.spec, model.scheme,
                                          model.kernel, levels, seeds,
                                          horizon=model.horizon)
            for row in result["rows"]:
                lo, hi = row["levels"]
                print(f"levels {lo}->{hi}: mean sup gap {row['mean_gap']:.6e}")
            print(f"decreasing: {result['decreasing']}")
        return 0

    if args.verb == "report":
        from .harness import reaggregate

        for key, val in reaggregate(args.out):
            print(f"{key} = {val}")
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    raise SystemExit(main())

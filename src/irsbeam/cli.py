"""Command line entry points: theory tables, single runs, sweeps, plans."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .codebook import CONSTANT_MODULUS, build_scan_plan, plan_to_json
from .config import parse_config
from .harness import aggregate, rows_to_csv, run_trials, sweep
from .theory import PlanProbe, p_lower_los, p_lower_nlos, p_nm_round, sample_complexity


def _cmd_theory(args) -> int:
    probe = PlanProbe(m=args.m, n_t=args.nt, q=args.q, r=args.r, l=args.l, k=args.k)
    print(f"p_lower_los   = {p_lower_los(probe):.6f}")
    print(f"p_nm_round    = {p_nm_round(probe):.6f}  (K={probe.k})")
    print(f"p_lower_nlos  = {p_lower_nlos(probe):.6f}  (K={probe.k})")
    print(f"budget at L={probe.l}: T = U*V*L = {probe.u * probe.v * probe.l}"
          f"  (exhaustive: {probe.m * probe.n_t})")
    print("sample complexity (target p0 -> T, L):")
    for p0 in (0.90, 0.95, 0.99):
        t, l = sample_complexity(probe, p0)
        print(f"  p0={p0:.2f}: T={t}, L={l}")
    return 0


def _load_cfg(args):
    cfg = parse_config(args.config)
    # a flag given overrides its config key; plan has no --trials
    flags = {key: getattr(args, key, None) for key in ("seed", "trials")}
    overrides = {key: value for key, value in flags.items() if value is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    records = run_trials(cfg)
    label = "T" if cfg.snr_db is None else "snr"
    value = cfg.budget if cfg.snr_db is None else cfg.snr_db
    row = aggregate(records, label, value, cfg.seed)
    _emit(rows_to_csv([row]), args.out or cfg.output)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    rows = sweep(cfg, args.axis)
    _emit(rows_to_csv(rows), args.out or cfg.output)
    return 0


def _cmd_plan(args) -> int:
    cfg = _load_cfg(args)
    plan = build_scan_plan(cfg.array, cfg.q, cfg.l, cfg.mode, cfg.seed)
    if plan.mode == CONSTANT_MODULUS:
        total, iters = plan.cm_iters.size, plan.cm_iters
        print(f"{total - plan.cm_converged.sum()} of {total} constant-modulus beams "
              "stopped at max_iters", file=sys.stderr)
        print(f"solver iterations per beam: mean {iters.mean():.1f}, max {iters.max()}",
              file=sys.stderr)
    _emit(plan_to_json(plan) + "\n", args.out or cfg.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsbeam",
        description="IRS-assisted beam alignment: theory tables and Monte Carlo runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser("theory", help="closed-form success probabilities")
    theory.add_argument("--m", type=int, required=True, help="IRS element count M")
    theory.add_argument("--nt", type=int, required=True, help="BS antenna count N_t")
    theory.add_argument("--q", type=int, required=True, help="IRS bin size Q")
    theory.add_argument("--r", type=int, required=True, help="RF chains R")
    theory.add_argument("--l", type=int, required=True, help="scanning rounds L")
    theory.add_argument("--k", type=int, default=1, help="nonzero beamspace entries K")
    theory.set_defaults(func=_cmd_theory)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", required=True)
    io.add_argument("--out")
    io.add_argument("--seed", type=int)
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--trials", type=int)

    run = sub.add_parser("run", parents=[io, mc], help="single Monte Carlo point, CSV row")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", parents=[io, mc], help="full curve along one axis")
    swp.add_argument("--axis", choices=["T", "snr", "M"], required=True)
    swp.set_defaults(func=_cmd_sweep)

    plan = sub.add_parser("plan", parents=[io], help="serialize a scanning plan")
    plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

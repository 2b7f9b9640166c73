"""Command-line surface: dataset generation/ingestion, plain and private
fits, held-out evaluation, inference counting reports, and attack sweeps.

All reports are machine-readable JSON/CSV with floats at 17 significant
digits.  Option precedence: command-line flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adversary import SweepConfig, attack_sweep, counting_report, write_sweep_csv
from .dataio import DataFormatError, dump_json, format_float, parse_dataset, write_dataset
from .estimator import EstimationError, bcd_fit
from .model import aggregate_state, build_design, evaluate_metrics, predict_aggregate, split_dataset
from .protocol import ProtocolConfig, ProtocolError, run_protocol
from .synthetic import generate_synthetic

__all__ = ["RunConfig", "cmd_dispatch", "main"]


@dataclass
class RunConfig:
    """Run options with the reference experimental defaults."""

    order: int = 2
    lam: float = 100.0
    t_occ: int = 48
    tol: float = 1e-6
    train_fraction: float = 0.75
    seed: int = 0
    mode: str = "plain"


def load_config_file(path) -> dict:
    """Parse `key = value` lines; the keys are RunConfig's field names, with
    ``lambda`` for ``lam``, and each value is read as its field's default's type."""
    by_key = {"lambda" if f.name == "lam" else f.name: f for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in by_key:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        f = by_key[key]
        try:
            values[f.name] = type(f.default)(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def resolve_config(args) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
        elif f.name in file_values:
            setattr(cfg, f.name, file_values[f.name])
    if cfg.mode not in ("plain", "private"):
        raise ValueError(f"mode must be plain or private, got {cfg.mode!r}")
    return cfg


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--order", type=int, dest="order", help="model order M")
    p.add_argument("--lambda", type=float, dest="lam", help="ridge penalty on the weights")
    p.add_argument("--t-occ", type=int, dest="t_occ", help="occupancy period length")
    p.add_argument("--tol", type=float, dest="tol", help="iteration gap tolerance")
    p.add_argument("--seed", type=int, dest="seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="aggtherm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic cluster dataset CSV")
    _add_common(g)
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--zones", type=int, default=7)
    g.add_argument("--periods", type=int, default=1440)
    g.add_argument("--noise", type=float, default=0.2, help="measurement noise std dev")
    g.add_argument("--truth-out", help="write the generating parameters as JSON")

    f = sub.add_parser("fit", help="fit the cluster model (plain or private)")
    _add_common(f)
    f.add_argument("--data", required=True)
    f.add_argument("--mode", choices=["plain", "private"], dest="mode")
    f.add_argument("--out-dir", default=".", help="where to write fit_result.json etc.")

    e = sub.add_parser("evaluate", help="fit on a chronological split, score the test part")
    _add_common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--mode", choices=["plain", "private"], dest="mode")
    e.add_argument("--train-fraction", type=float, dest="train_fraction")
    e.add_argument("--out-dir", default=".")

    c = sub.add_parser("counting", help="equation/unknown counting report")
    c.add_argument("--K", type=int, required=True)
    c.add_argument("--L", type=int, required=True)
    c.add_argument("--T", type=int, required=True)
    c.add_argument("--order", type=int, default=2)
    c.add_argument("--out", help="JSON output path (default stdout)")

    a = sub.add_parser("attack", help="inference attack sweep over horizon sizes")
    a.add_argument("--K", type=int, default=6)
    a.add_argument("--L", type=int, default=3)
    a.add_argument("--order", type=int, default=2)
    a.add_argument("--T-list", default="1,2,3,4,6,12,24,48")
    a.add_argument("--scenarios", type=int, default=20)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--max-iter", type=int, default=500)
    a.add_argument("--method", choices=["lbfgs", "trf"], default="lbfgs")
    a.add_argument("--w-like-tau", action="store_true",
                   help="draw encryption entries from the temperature distribution")
    a.add_argument("--out", required=True, help="per-scenario CSV path")
    a.add_argument("--summary-out", help="per-case summary JSON path")

    m = sub.add_parser("compare", help="plain vs private fit, per-parameter errors")
    _add_common(m)
    m.add_argument("--data", required=True)
    m.add_argument("--out", help="JSON output path (default stdout)")
    return ap


def _fit_dataset(dataset, cfg: RunConfig, transcript_path=None):
    design = build_design(dataset, cfg.t_occ)
    if cfg.mode == "private":
        pcfg = ProtocolConfig(lam=cfg.lam, tol=cfg.tol, T_occ=cfg.t_occ, seed=cfg.seed)
        fit, transcript = run_protocol(dataset, pcfg)
        if transcript_path is not None:
            transcript.write_jsonl(transcript_path)
        return fit, design
    return bcd_fit(design, lam=cfg.lam, tol=cfg.tol), design


def _predictions(dataset, design, params):
    real = aggregate_state(params.xi, design.c0)
    init_history = dataset.tau_in[: dataset.M] @ params.xi
    pred = predict_aggregate(params, design, init_history)
    return real, pred


def _write_predictions(path, real, pred):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("period,real,predicted\n")
        for t, (r, p) in enumerate(zip(real, pred), start=1):
            fh.write(f"{t},{format_float(r)},{format_float(p)}\n")


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    dataset, truth = generate_synthetic(
        K=args.zones, T=args.periods, M=cfg.order, T_occ=cfg.t_occ,
        noise_sigma=args.noise, seed=cfg.seed,
    )
    write_dataset(args.out, dataset)
    print(f"wrote {args.out}: K={dataset.K}, T={dataset.T}, M={dataset.M}")
    if args.truth_out:
        dump_json(truth, args.truth_out)
        print(f"wrote {args.truth_out}")
    return 0


def cmd_fit(args) -> int:
    cfg = resolve_config(args)
    dataset = parse_dataset(args.data, M=cfg.order)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    transcript_path = out / "transcript.jsonl" if cfg.mode == "private" else None
    fit, design = _fit_dataset(dataset, cfg, transcript_path)
    real, pred = _predictions(dataset, design, fit.params)
    metrics = evaluate_metrics(pred, real)
    dump_json({"config": cfg, **vars(fit)}, out / "fit_result.json")
    _write_predictions(out / "predictions.csv", real, pred)
    dump_json(metrics, out / "metrics.json")
    print(
        f"{cfg.mode} fit: {fit.iterations} iterations, objective "
        f"{format_float(fit.objective)}, rmse {format_float(metrics.rmse)}"
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    dataset = parse_dataset(args.data, M=cfg.order)
    train, test = split_dataset(dataset, cfg.train_fraction)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    transcript_path = out / "transcript.jsonl" if cfg.mode == "private" else None
    fit, _ = _fit_dataset(train, cfg, transcript_path)
    test_design = build_design(test, cfg.t_occ)
    real, pred = _predictions(test, test_design, fit.params)
    metrics = evaluate_metrics(pred, real)
    dump_json(
        {
            "config": cfg,
            "train_periods": train.T,
            "test_periods": test.T,
            "metrics": metrics,
        },
        out / "evaluation.json",
    )
    _write_predictions(out / "predictions.csv", real, pred)
    dump_json({"config": cfg, **vars(fit)}, out / "fit_result.json")
    print(
        f"test metrics ({cfg.mode}): rmse {format_float(metrics.rmse)} C, "
        f"mape {format_float(metrics.mape)} %, r2 {format_float(metrics.r2)}"
    )
    return 0


def cmd_counting(args) -> int:
    report = counting_report(K=args.K, L=args.L, T=args.T, M=args.order).as_dict()
    if args.out:
        dump_json(report, args.out)
        print(f"wrote {args.out}")
    else:
        from .dataio import dumps_json

        print(dumps_json(report), end="")
    return 0


def cmd_attack(args) -> int:
    try:
        t_list = tuple(int(v) for v in args.T_list.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"--T-list must be comma-separated integers, got {args.T_list!r}") from None
    cfg = SweepConfig(
        K=args.K, L=args.L, M=args.order, T_list=t_list, scenarios=args.scenarios,
        seed=args.seed, max_iter=args.max_iter, method=args.method,
        w_like_tau=args.w_like_tau,
    )
    rows, summary = attack_sweep(cfg)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} scenarios)")
    if args.summary_out:
        dump_json({str(k): v for k, v in summary.items()}, args.summary_out)
        print(f"wrote {args.summary_out}")
    for T, s in summary.items():
        print(
            f"T={T}: median error {format_float(s['median_error'])}, "
            f"median time {format_float(s['median_time'])} s"
        )
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    dataset = parse_dataset(args.data, M=cfg.order)
    plain, _ = _fit_dataset(dataset, replace(cfg, mode="plain"))
    private, _ = _fit_dataset(dataset, replace(cfg, mode="private"))
    report = {"config": cfg, "parameters": {}}
    worst = 0.0
    for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
        a = getattr(plain.params, name)
        b = getattr(private.params, name)
        rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-300)
        worst = max(worst, float(rel.max()))
        report["parameters"][name] = {
            "plain": a.tolist(),
            "private": b.tolist(),
            "relative_error": rel.tolist(),
        }
    report["max_relative_error"] = worst
    report["plain_objective"] = plain.objective
    report["private_objective"] = private.objective
    report["plain_warnings"] = plain.warnings
    report["private_warnings"] = private.warnings
    if args.out:
        dump_json(report, args.out)
        print(f"wrote {args.out}")
    print(f"max per-parameter relative error: {format_float(worst)}")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "counting": cmd_counting,
    "attack": cmd_attack,
    "compare": cmd_compare,
}


def cmd_dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (DataFormatError, EstimationError, ProtocolError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

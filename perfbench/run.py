"""aggtherm benchmark: closed-loop workloads, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audited-7 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn in this one process.  With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` the run measures the
same operations untraced and then traced, and the metrics are the per-layer
metrics.  The lines before it hold the full report, which is also written
to ``perfbench/out/``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# One BLAS thread: a single client on the machine's two cores, and no
# run-to-run noise from BLAS threads contending with the interpreter.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# (name, unit) of the metrics BENCHMARK.json gates; every workload reports them.
# solve_s is the median time a user waits for the workload's gated solve (its
# ``gated_stage``): the private fit on the fit workloads, and L-BFGS on
# attack-48, which always runs its 500 iterations, so its work per scenario
# does not depend on the seed.  TRF is reported, not gated: it takes 10 to 220
# evaluations depending on the start, so its time per scenario follows the
# seed more than the code.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
)

ATTACK_STAGES = ("attack_lbfgs", "attack_trf")
_ATTACK = ("adversary.mqs.jacobian.calls", "adversary.mqs.jacobian.busy_s",
           "adversary.mqs.jacobian_per_iteration", "adversary.mqs.residual.calls",
           "adversary.mqs.residual.busy_s", "adversary.mqs.solve_mqs.iterations",
           "adversary.mqs.solve_mqs.self_s")
PER_LAYER = (
    "synthetic.generate_synthetic.busy_s",
    "model.build_design.busy_s",
    "estimator.bcd_fit.iterations",
    "estimator.solve_sp1.calls",
    "estimator.solve_sp1.busy_s",
    "estimator.solve_sp2_plain.busy_s",
    "estimator.solve_constrained_quadratic.calls",
    "estimator.solve_constrained_quadratic.busy_s",
    "estimator.kkt_solves_per_qp",
    "estimator.solve_sp1_from_parts.busy_s",
    "protocol.te.compute_te_uploads.busy_s",
    "protocol.te.solve_sp2_masked.busy_s",
    "protocol.runner.iterations",
    "protocol.runner.self_s",
    "protocol.runner.messages_per_fit",
    "protocol.sap.sap_mask.calls",
    "protocol.sap.sap_mask.busy_s",
    "protocol.sap.mask.calls",
    "protocol.sap.mask.floats",
    "protocol.sap.sap_aggregate.busy_s",
    "protocol.messages.encode_message.calls",
    "protocol.messages.encode_message.busy_s",
    "protocol.messages.decode_message.busy_s",
    "protocol.messages.bytes_encoded",
    "protocol.messages.encode_per_send",
    "protocol.transcript.log.busy_s",
    "protocol.transcript.scan_payloads.busy_s",
    "protocol.transcript.scan_columns_checked",
    *_ATTACK,
    *(f"{m}.{stage}" for stage in ATTACK_STAGES for m in _ATTACK),
    "stage.plain_fit.busy_s",
    "stage.private_fit.busy_s",
    "stage.attack_lbfgs.busy_s",
    "stage.attack_trf.busy_s",
    "trace.overhead_s",
    "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    if "_s." in name or name.endswith("_s"):
        return "s"
    if name.endswith("bytes_encoded"):
        return "bytes"
    if name.endswith("messages_per_fit"):
        return "count"
    if "_per_" in name or name.endswith("_frac"):
        return "ratio"
    return "count"


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {
        "percentile": round(100.0 * (n - 10) / n, 1),
        "samples": n,
        "value": sorted(values)[n - 11],
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- running ------------------------------------------------------------------


def guarded(fn, *args):
    """Run one operation; an exception becomes a failed operation, never a crash."""
    from workloads import OpResult

    try:
        return fn(*args)
    except Exception as exc:  # operation boundary: record, count, continue
        traceback.print_exc(file=sys.stderr)
        return OpResult(errors=[f"{type(exc).__name__}: {exc}"])


def run_passes(workload, inputs, budget_s):
    """Closed loop over whole passes of the seeded inputs.

    Stops before a pass that would end past ``budget_s``, judged by the
    last pass's duration; at least one pass runs, so every median covers
    each input equally often.
    """
    results, n = [], 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        results += [guarded(workload.run_op, inp) for inp in inputs]
        n += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > budget_s:
            return results, now - t_start, n


def run_traced(workload, inputs, budget_s, tracer):
    """Each input in turn, once untraced and once traced, alternating which
    goes first, until ``budget_s`` has passed.  Pairing the two runs of an
    operation keeps slow spells of the host out of the tracing overhead."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    while not untraced or time.perf_counter() - t_start < budget_s:
        i = len(untraced)
        inp = inputs[i % len(inputs)]
        for run_traced_op in (i % 2 == 1, i % 2 == 0):
            if run_traced_op:
                tracer.op = f"op{i}"
                with tracer:
                    traced.append(guarded(workload.run_op, inp, tracer))
            else:
                untraced.append(guarded(workload.run_op, inp))
    return untraced, traced, time.perf_counter() - t_start


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, ok, wall_s, setup_s) -> tuple[dict, dict]:
    """Every end-to-end metric of the workload, and the tail records."""
    metrics, tails = {"setup_s": (setup_s, "s")}, {}
    for stage in workload.stages:
        secs = [r.stages[stage] for r in ok]
        metrics[f"{stage}_s"] = (median(secs), "s")
        tails[f"{stage}_tail_s"] = tail(secs)
        if tails[f"{stage}_tail_s"] is not None:
            metrics[f"{stage}_tail_s"] = (tails[f"{stage}_tail_s"]["value"], "s")
    metrics["solve_s"] = metrics[f"{workload.gated_stage}_s"]
    metrics["ops_per_s"] = (len(ok) / wall_s, "1/s")
    if "wire_bytes_per_fit" in ok[0].counts:
        metrics["wire_mb_per_fit"] = (median([r.counts["wire_bytes_per_fit"] / 1e6 for r in ok]), "MB")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return metrics, tails


def outcomes(ok) -> dict:
    out = {}
    for key in sorted({k for r in ok for k in r.outcome}):
        values = [r.outcome[key] for r in ok if key in r.outcome]
        out[key] = {"median": median(values), "max": max(values)}
    for key in sorted({k for r in ok for k in r.counts if k.endswith("iterations")}):
        out[f"{key}_median"] = median([r.counts[key] for r in ok])
    return out


def per_layer(results, summaries: dict, setup: dict, untraced_op_s: float) -> dict:
    """Per-layer metrics: per operation, the median over traced operations."""
    ops = [s for op, s in summaries.items() if op != "setup"]
    counts = [r.counts for r in results]

    def med(key):
        return median([s.get(key, 0.0) for s in ops])

    def total(key):
        return sum(s.get(key, 0.0) for s in ops)

    def med_count(*keys):
        return median([sum(c.get(k, 0) for k in keys) for c in counts])

    traced_op_s = median([r.op_s for r in results if not r.errors])
    out = {}
    for name in PER_LAYER:
        if name == "synthetic.generate_synthetic.busy_s":
            v = ratio(setup.get(f"{name}", 0.0), setup.get("synthetic.generate_synthetic.calls", 0))
        elif name == "estimator.bcd_fit.iterations":
            v = med_count("plain_fit_iterations")
        elif name == "estimator.kkt_solves_per_qp":
            v = ratio(total("estimator.solve_constrained_quadratic.calls"),
                      total("estimator.solve_weights_qp.calls"))
        elif name == "protocol.runner.iterations":
            v = med_count("private_fit_iterations")
        elif name == "protocol.runner.self_s":
            v = med("protocol.runner.run.self_s")
        elif name == "protocol.runner.messages_per_fit":
            v = med("protocol.runner.send.calls")
        elif name == "protocol.messages.encode_per_send":
            v = ratio(total("protocol.messages.encode_message.calls"),
                      total("protocol.runner.send.calls"))
        elif name == "protocol.transcript.scan_columns_checked":
            v = med_count("scan_columns_checked")
        elif name.startswith(("adversary.mqs.jacobian_per_iteration", "adversary.mqs.solve_mqs.iterations")):
            base, _, stage = name.partition(".attack_")
            its = [f"attack_{stage}_iterations"] if stage else [f"{s}_iterations" for s in ATTACK_STAGES]
            if base.endswith("jacobian_per_iteration"):
                v = ratio(total(f"adversary.mqs.jacobian.calls{name[len(base):]}"),
                          sum(c.get(k, 0) for c in counts for k in its))
            else:
                v = med_count(*its)
        elif name == "trace.overhead_s":
            v = traced_op_s - untraced_op_s
        elif name == "trace.overhead_frac":
            v = ratio(traced_op_s - untraced_op_s, untraced_op_s)
        else:
            v = med(name)
        out[name] = (float(v), layer_unit(name))
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from tracer import Tracer

    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.make_inputs(seed)
        gen_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    warm = guarded(workload.warm_up, inputs)
    warm_s = time.perf_counter() - t
    setup_s = import_s + median(gen_s) + warm_s

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup": {"import_s": import_s, "generate_inputs_s": gen_s, "warm_up_s": warm_s},
    }
    if trace:
        tracer = Tracer()
        tracer.op = "setup"
        with tracer:
            workload.make_inputs(seed)
        results, traced, wall_s = run_traced(workload, inputs, seconds, tracer)
        summaries = tracer.op_summaries()
        report["timed"] = {"operation_pairs": len(results), "wall_s": wall_s}
    else:
        results, wall_s, passes = run_passes(workload, inputs, seconds)
        traced = []
        report["timed"] = {"passes": passes, "inputs_per_pass": len(inputs),
                           "operations": len(results), "wall_s": wall_s}
    checked = [warm] + results + traced

    failures = [f"op {i}: {e}" for i, r in enumerate(checked) for e in r.errors]
    ok = [r for r in results if not r.errors]
    attempted, failed = len(checked), sum(1 for r in checked if r.errors)
    report["failures"] = failures
    report["flagged"] = [f"op {i}: {f}" for i, r in enumerate(checked) for f in r.flags]
    if not ok:
        raise RuntimeError(f"{workload.name}: every operation failed: {failures[:3]}")

    e2e, tails = end_to_end(workload, ok, wall_s, setup_s)
    e2e["failed_frac"] = (failed / attempted, "ratio")
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["tails"] = tails
    report["outcomes"] = outcomes(ok)
    report["counts"] = {
        k: [r.counts.get(k) for r in results[: len(inputs)]]
        for k in sorted({k for r in ok for k in r.counts})
    }
    if trace:
        untraced_op_s = median([r.op_s for r in ok])
        gated = per_layer(traced, summaries, summaries.get("setup", {}), untraced_op_s)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    else:
        gated = {name: e2e[name] for name, _unit in END_TO_END}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }
    return report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_workloads():
    """Import the program from this checkout's src/ with the BLAS thread count
    fixed first.  Returns (WORKLOADS, import seconds)."""
    src = ROOT / "src"
    if not (src / "aggtherm" / "__init__.py").is_file():
        raise SystemExit(f"error: no aggtherm sources under {src}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import aggtherm
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t
    if Path(aggtherm.__file__).resolve().parent != src / "aggtherm":
        raise SystemExit(f"error: imported aggtherm from {aggtherm.__file__}, not {src}")
    return WORKLOADS, import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, import_s = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(workloads)} or 'all'",
              file=sys.stderr)
        return 2
    for name in names:
        report = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace), import_s)
        result = report.pop("result")
        print(json.dumps(report, indent=1))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

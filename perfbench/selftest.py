"""Self-test of the benchmark's exact counts and declared metrics.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, runs its first operation twice, traced, from inputs
generated twice from the same seed, and checks that every count repeats
exactly: calls into each layer, mask floats drawn, bytes encoded, messages
and wire bytes per fit, scan columns checked, and fit and solver iterations.
It also checks that the tracer puts back every function it patched, and
that BENCHMARK.json declares exactly the metrics run.py reports.  Exits 1 on
the first mismatch.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7


def exact_counts(workload, seed: int) -> dict:
    from tracer import Tracer

    inputs = workload.make_inputs(seed)
    with Tracer() as tracer:
        tracer.op = "op"
        res = workload.run_op(inputs[0], tracer)
    if res.errors:
        raise AssertionError(f"{workload.name}: operation failed its checks: {res.errors}")
    counts = {
        k: v for k, v in tracer.op_summaries()["op"].items()
        if ".busy_s" not in k and ".self_s" not in k
    }
    counts.update(res.counts)
    return counts


def check_restored():
    from tracer import Tracer, patch_points

    before = [vars(owner)[attr] for owner, attr, _name, _count in patch_points()]
    with Tracer():
        pass
    after = [vars(owner)[attr] for owner, attr, _name, _count in patch_points()]
    if any(a is not b for a, b in zip(before, after)):
        raise AssertionError("tracer left a patched function in place")


def check_declared(workloads: dict):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(run.END_TO_END):
        raise AssertionError(f"end_to_end in BENCHMARK.json {declared} != run.py {run.END_TO_END}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = [(name, run.layer_unit(name)) for name in run.PER_LAYER]
    if declared != reported:
        missing = sorted(set(reported) ^ set(declared))
        raise AssertionError(f"per_layer in BENCHMARK.json differs from run.py: {missing}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads):
        raise AssertionError(f"workloads in BENCHMARK.json {names} != run.py {list(workloads)}")


def main() -> int:
    workloads, _import_s = run.load_workloads()
    try:
        check_declared(workloads)
        check_restored()
        for name in workloads:
            first = exact_counts(workloads[name], SEED)
            second = exact_counts(workloads[name], SEED)
            if first != second:
                diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k)}
                raise AssertionError(f"{name}: counts differ between runs: {diff}")
            print(f"{name}: {len(first)} counts repeat exactly")
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

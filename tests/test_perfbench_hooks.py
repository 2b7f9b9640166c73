"""The benchmark's tracer patches aggtherm functions by name, where their
callers look them up; these checks keep those names and call paths alive."""

import importlib.util
from pathlib import Path

from _common import synthetic_instance

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _current(points):
    return [vars(owner)[attr] for owner, attr, *_ in points]


def test_every_patch_point_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.patch_points()
        if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_patches_and_restores_every_point():
    points = tracer.patch_points()
    before = _current(points)
    with tracer.Tracer():
        during = _current(points)
    after = _current(points)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_fits_reach_every_fit_layer_hook():
    """A traced plain and private fit records a span for every named fit-layer
    patch point, so a caller that stopped resolving a name there would show."""
    from aggtherm import estimator, model
    from aggtherm.protocol import runner

    dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=7)
    with tracer.Tracer() as t:
        estimator.bcd_fit(model.build_design(dataset, 4), lam=1.0)
        runner.run_protocol(dataset, runner.ProtocolConfig(lam=1.0, T_occ=4, seed=7))
    expected = {
        name
        for _, _, name, _ in tracer.patch_points()
        if name and not name.startswith(("adversary.", "synthetic."))
    }
    assert expected - {span[0] for span in t.spans} == set()


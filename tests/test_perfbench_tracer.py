"""The benchmark's tracer wraps package functions by name and reads their results; keep both."""

import importlib.util
from pathlib import Path

import numpy as np

import reebkit.integrate
import reebkit.section

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracer = _load_tracer()
    entries = tracer.SPANS + tracer.KERNELS
    originals = {}
    for name, module, attr in entries:
        assert callable(getattr(module, attr, None)), f"{name} does not resolve"
        originals[name] = getattr(module, attr)
    form_integral = reebkit.section._page_form_integral
    eigh = np.linalg.eigh

    t = tracer.Tracer()
    t.install()
    try:
        for name, module, attr in entries:
            assert getattr(module, attr) is not originals[name], f"{name} was not wrapped"
    finally:
        t.remove()

    for name, module, attr in entries:
        assert getattr(module, attr) is originals[name], f"{name} was not restored"
    assert reebkit.section._page_form_integral is form_integral
    assert np.linalg.eigh is eigh


def test_tracer_counts_the_steps_of_a_real_dopri45_result():
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        res = reebkit.integrate.dopri45(lambda _t, y: -y, 0.0, [1.0, 2.0], 3.0)
    finally:
        t.remove()
    assert res.n_steps > 0 and res.n_fev >= 7 * res.n_steps
    assert t.counts["dopri45.steps"] == res.n_steps
    assert t.counts["dopri45.fev"] == res.n_fev
    assert t.calls["integrate.dopri45"] == 1

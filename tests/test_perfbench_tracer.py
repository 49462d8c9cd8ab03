"""The benchmark's tracer wraps package functions by name; keep those names bound."""

import importlib.util
from pathlib import Path

import numpy as np

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

"""The benchmark's tracer still finds the package layers it wraps, and puts them back."""

import importlib.util
from pathlib import Path

import numpy as np

import hetmix
from hetmix.topology import Topology

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_one_solve_and_uninstalls():
    tracer = _load_tracer().Tracer()
    ce_gme, support_mask = hetmix.gme.ce_gme, Topology.support_mask
    try:
        # install looks up every __all__ entry and every wrapped method
        tracer.install()
        g = np.random.default_rng(0).standard_normal((5, 6))
        hetmix.ce_gme(g, hetmix.build_ring(6), hetmix.SketchConfig(8, 0))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"gme.ce_gme", "topology.Topology.support_mask", "mixing.MixingMatrix"} <= names
    assert hetmix.gme.ce_gme is ce_gme and hetmix.ce_gme is ce_gme
    assert Topology.support_mask is support_mask

"""The benchmark's tracer replaces package names by attribute; they must exist.

``benchmarks/tracing.py`` wraps module attributes (``bvp.sample_derivatives``,
``geometry.builtin_profile`` ...) and rebuilds each built-in's
``MetricProfile`` with ``dataclasses.replace`` on the traced fields. A
refactor that removes one of those names fails here, not only in the
traced benchmark run.
"""

import importlib.util
from pathlib import Path

from warped_disk import geometry

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patch_point_and_uninstalls():
    tracing = _load_tracing()
    original = geometry.builtin_profile
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        surface = geometry.builtin_profile("euclidean")
        surface.metric.log_phi(2.0)
    finally:
        tracing.uninstall(saved)
    assert geometry.builtin_profile is original
    assert tracer.counters[tracing.PROFILE_EVAL + ".calls"] == 1
    assert [span[0] for span in tracer.spans] == ["geometry.builtin_profile"]

"""The names the benchmark in isacbench/ looks up in the package.

The traced benchmark run wraps each trace point by replacing
``vars(owner)[attr]``, and its correctness checks call ``sensing.echo_mean``
and record ``kernels.get_backend()``.  A refactor that moves or renames one
of them breaks ``isacbench/run.py --trace 1`` or the episode check; these
tests catch that without running the benchmark.
"""
import importlib.util
from pathlib import Path

from isacbf import sensing
from isacbf.nn import kernels

LAYERS = Path(__file__).resolve().parents[1] / "isacbench" / "layers.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("isacbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.trace_points()


def test_trace_points_resolve():
    points = _trace_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in points if attr not in vars(owner)]
    assert not missing, f"trace points not defined on their owner: {missing}"
    for owner, attr, *_ in points:
        assert callable(vars(owner)[attr])


def test_benchmark_entry_points():
    assert callable(sensing.echo_mean)
    assert isinstance(kernels.get_backend(), str)

"""Every function the benchmark's tracer wraps still exists.

Tracer.install (benchmarks/tracing.py) skips a target it cannot find, so a
rename or a deletion in the package would quietly read zero calls for that
layer. This test resolves each target the way install does. It only reads
benchmarks/tracing.py.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("weakch_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracing_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = []
    for name, module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, looked up on its own class as install does
            cls_name, meth = attr.split(".")
            found = getattr(module, cls_name, None)
            found = None if found is None else found.__dict__.get(meth)
        else:
            found = getattr(module, attr, None)
        if not callable(found):
            missing.append(name)
    assert missing == []

"""The benchmark's tracer still finds every name it binds in the package.

`perfbench/tracer.py` rebinds names such as `eisenstein.factor_int` and
`descent.is_cube` by attribute lookup, so removing or renaming one of them
breaks the benchmark; this test notices that from the package's own suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_attaches_and_detaches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.BINDINGS]
    trace = tracer.Tracer()
    trace.attach()
    trace.detach()  # raises if a name does not come back
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.BINDINGS] == originals

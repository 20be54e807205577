"""The module bindings the benchmark's tracer wraps exist in the package.

``perfbench/tracer.py`` wraps each function it names wherever the package
binds it. Loading it here, by path, makes a source change that drops such a
binding fail the module tests, not only the slower benchmark tests.
"""

import importlib
import importlib.util
from pathlib import Path

from sas_transim import adm, mmadm, netmodel, ra, rk4

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_module():
    tracer = _tracer()
    for mod_name, names in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


def test_traced_functions_are_bound_where_the_tracer_looks():
    assert ra.kron_reduce is netmodel.kron_reduce
    for module in (ra, adm, rk4):
        assert module.initialized_case is netmodel.initialized_case, module.__name__
    assert mmadm.eval_window is adm.eval_window

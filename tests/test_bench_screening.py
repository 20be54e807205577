"""The benchmark's screening check holds on the seed-1 inertia variants.

``perfbench/workloads.py`` counts a screening study as failed when one of its
minimum inertias does not bracket the target window: the target must be
reached at H_min and missed just below it (``_hmin_brackets``). Loading the
module here, by path, makes a change that would fail that check fail the
module tests too, within about a second.
"""

import importlib.util
import sys
from pathlib import Path

from sas_transim import netmodel

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_seed_1_screening_study_brackets_its_hmin():
    wl = _workloads()
    inputs = wl.make_inputs("screening", 1)
    base = netmodel.parse_case(inputs.text)
    assert len(inputs.variants) == wl.SCREENING_VARIANTS
    for inertias in inputs.variants:
        res = wl.screening_study(wl.with_inertias(base, inertias))
        assert len(res.hmins) == len(res.fleet) > 0
        for (bus, inp, _), hmin in zip(res.fleet, res.hmins):
            assert wl._hmin_brackets(inp, hmin), (bus, hmin)

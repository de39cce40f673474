"""Pinned memory-model counters for four smoke-scale ``normal`` cells.

The golden and property tests compare the batched memory path with the
per-line reference, but both read and write the same cache tables, so a
bug in that shared code would pass them.  These literal values were
recorded with the dict-per-set cache model of version 2.0.0; any change
to them is a change to the model, not an optimisation.  Counters are
summed over every CPU in the cell.
"""

import pytest

from repro.runner.harness import Cell, cell_config
from repro.runner.spec import DEFAULT_SCALES, make_spec

#: Extra factor on each app's default scale (the ``--quick`` bench scale).
SCALE = 0.25

FIELDS = ("l1d.accesses", "l1d.misses", "l1d.evictions", "l1d.writebacks",
          "l2.accesses", "l2.misses", "l2.evictions", "l2.writebacks",
          "rdram.page_hits", "rdram.page_misses", "dtlb.misses")

PINNED = {
    "sort": (29047736247, 416136, 410548, 406452, 200740,
             410548, 102724, 86340, 43020, 96020, 6704, 3244),
    "select": (32847938000, 17408, 16768, 16764, 0,
               16768, 16704, 16696, 0, 15613, 1091, 512),
    "hashjoin": (39739728500, 53266, 52374, 52370, 6107,
                 52374, 49845, 49837, 5951, 33775, 16070, 601),
    "tar": (22147625000, 66560, 65696, 64672, 31747,
            65696, 16425, 12329, 6148, 15360, 1065, 512),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_normal_cell_counters_are_pinned(name):
    spec = make_spec(name, scale=DEFAULT_SCALES.get(name, 1.0) * SCALE)
    app = spec.build()
    sink = {}
    result = app.run_case(
        cell_config(Cell(spec=spec, case="normal", seed=None), app),
        metrics_sink=sink)
    totals = {field: 0 for field in FIELDS}
    for key, value in sink.items():
        field = ".".join(key.split(".")[-2:])
        if key.startswith("mem.") and field in totals:
            totals[field] += int(value)
    exec_ps, *counters = PINNED[name]
    assert result.exec_ps == exec_ps
    assert totals == dict(zip(FIELDS, counters))

"""The simulator has one exact execution mode.

Earlier releases had an opt-in approximate mode switched on by the
``REPRO_SIM_FLUID`` environment variable.  It is gone; a stale value
left in a user's environment must not change any result or stamp it.
"""

import repro
from repro.sim.burst import sim_mode_tag


def _cases(app, scale, monkeypatch, fluid):
    if fluid:
        monkeypatch.setenv("REPRO_SIM_FLUID", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
    return repro.run(app, scale=scale).cases


def test_stale_fluid_env_changes_nothing(monkeypatch):
    for app, scale in (("grep", 0.05), ("select", 1 / 128)):
        exact = _cases(app, scale, monkeypatch, fluid=False)
        stale = _cases(app, scale, monkeypatch, fluid=True)
        assert stale == exact, app
        for case in stale.values():
            assert "fluid_mode" not in case.extra
    assert sim_mode_tag() == "exact"

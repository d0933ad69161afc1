"""The paper-style detectability table rendered from a campaign."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

from repro.bench.tables import (
    NOT_APPLICABLE,
    format_detectability_table,
    metric_cell,
)
from repro.sim import campaign_config, run_campaign


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(campaign_config(
        num_agents=24,
        num_hosts=6,
        hops_per_journey=2,
        attack_fraction=0.5,
        seed=3,
    ))


class TestDetectabilityTable:
    def test_every_mounted_scenario_gets_a_row(self, campaign):
        table = format_detectability_table(campaign)
        for name in campaign.per_scenario():
            assert name in table

    def test_rows_carry_class_and_counts(self, campaign):
        table = format_detectability_table(campaign)
        stats = campaign.per_scenario()
        for name, row in stats.items():
            line = next(
                ln for ln in table.splitlines() if ln.startswith(name)
            )
            assert row.detectability.value in line
            assert "%d/%d" % (row.detected, row.injected) in line

    def test_rollup_and_false_positive_footer(self, campaign):
        table = format_detectability_table(campaign)
        assert "state-difference" in table
        assert "false-positive rate" in table
        assert "benign journeys: %d" % len(campaign.benign_journeys) in table

    def test_undefined_cells_render_as_em_dash_not_none(self, campaign):
        # Scenarios the paper concedes (read attacks, input lying) never
        # alarm, so their precision and hops-to-detection are undefined:
        # those cells must read as "—", never as a stringified None.
        stats = campaign.per_scenario()
        assert any(row.precision is None for row in stats.values())
        table = format_detectability_table(campaign)
        assert "None" not in table
        undetected = next(
            name for name, row in stats.items() if row.precision is None
        )
        line = next(ln for ln in table.splitlines() if ln.startswith(undetected))
        assert NOT_APPLICABLE in line


class TestMetricCell:
    def test_value_uses_format(self):
        assert metric_cell(0.5) == "0.50"
        assert metric_cell(2.0, "%.1f") == "2.0"

    def test_none_renders_as_em_dash(self):
        assert metric_cell(None) == NOT_APPLICABLE
        assert metric_cell(None, "%.1f") == NOT_APPLICABLE



def test_module_cli_runs_without_a_runpy_warning():
    # ``repro.bench`` must not import ``tables`` itself, or runpy warns
    # that the module it is about to run is already in sys.modules.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.bench.tables", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr

"""Pinned detection and blame: the protocol's observable oracle.

A change to how the reference-state protocol signs, transports or
verifies its statements may change wire sizes (and with them the
virtual timeline, trace bytes and deterministic signatures), but never
*which* journeys are detected or *whom* they blame.  The tables below
were computed with the protocol's previous version (five signatures per
hop); every later version must reproduce them exactly.

Two shapes are pinned:

* the ``fleet-campaign`` benchmark shape -- ``FleetConfig(num_agents=20,
  attack_fraction=0.3)`` over the default resident scenarios, a mixed
  population of malicious hosts and journey-resident attacks -- at
  seeds 1 and 29: each journey's (resident scenarios, campaign
  scenario, detected, blamed hosts) and the campaign precision/recall;
* an all-honest population where every journey carries one attack
  drawn from the whole catalogue (protocol stripping, initial-state
  tampering and the conceded undetectable attacks included).
"""

from __future__ import annotations

import pytest

from repro.sim import FleetConfig, analyze_campaign, campaign_config, run_fleet

#: seed -> (precision, recall, per-journey
#: (scenarios, attack_scenario, detected, blamed_hosts) in journey order).
FLEET_CAMPAIGN_PINS = {
    1: (1.0, 1.0, [
        (('tamper-result-variable',), None, True, ('host-012',)),
        ((), None, False, ()),
        (('tamper-result-variable',), None, True, ('host-001',)),
        (('tamper-result-variable',), None, True, ('host-012',)),
        (('incorrect-execution', 'incorrect-execution',
          'drop-input-records'), None, True,
         ('host-007', 'host-009', 'host-022')),
        (('tamper-result-variable',), None, True, ('host-001',)),
        ((), 'drop-input-records', True, ('host-008',)),
        ((), 'incorrect-execution', True, ('host-013',)),
        (('tamper-result-variable',), None, True, ('host-001',)),
        ((), None, False, ()),
        ((), None, False, ()),
        (('incorrect-execution',), None, True, ('host-022',)),
        (('tamper-result-variable',), None, True, ('host-001',)),
        (('drop-input-records',), None, True, ('host-009',)),
        (('incorrect-execution',), None, True, ('host-022',)),
        (('tamper-result-variable',), None, True, ('host-012',)),
        (('incorrect-execution',), None, True, ('host-022',)),
        (('tamper-result-variable',), None, True, ('host-001',)),
        (('incorrect-execution',), None, True, ('host-022',)),
        ((), None, False, ()),
    ]),
    29: (1.0, 1.0, [
        (('drop-input-records',), None, True, ('host-017',)),
        ((), None, False, ()),
        ((), None, False, ()),
        ((), None, False, ()),
        ((), None, False, ()),
        ((), None, False, ()),
        ((), None, False, ()),
        (('incorrect-execution',), 'drop-input-records', True,
         ('host-023', 'host-024')),
        ((), None, False, ()),
        (('tamper-result-variable',), None, True, ('host-002',)),
        ((), 'drop-input-records', True, ('host-023',)),
        (('drop-input-records', 'incorrect-execution'), None, True,
         ('host-009', 'host-017')),
        (('tamper-result-variable',), None, True, ('host-021',)),
        ((), None, False, ()),
        (('tamper-result-variable',), None, True, ('host-002',)),
        (('incorrect-execution',), None, True, ('host-009',)),
        (('tamper-result-variable',), None, True, ('host-002',)),
        (('drop-input-records',), None, True, ('host-017',)),
        ((), 'tamper-result-variable', True, ('host-007',)),
        (('incorrect-execution',), None, True, ('host-024',)),
    ]),
}

#: Per journey, in journey-id order: (attack_scenario, detected,
#: blamed_hosts) of ``campaign_config(num_agents=40,
#: attack_fraction=1.0, seed=3)`` over the whole catalogue.
CATALOGUE_PINS = [
    ('tamper-initial-state', True, ('host-003',)),
    ('drop-input-records', True, ('host-017',)),
    ('tamper-initial-state', True, ('host-006',)),
    ('lie-about-input', False, ()),
    ('tamper-result-variable', True, ('host-003',)),
    ('drop-input-records', True, ('host-007',)),
    ('incorrect-execution', True, ('host-008',)),
    ('mutate-state-field', True, ('host-005',)),
    ('lie-about-input', False, ()),
    ('tamper-result-variable', True, ('host-025',)),
    ('drop-input-records', True, ('host-014',)),
    ('drop-input-records', True, ('host-009',)),
    ('lie-about-input', False, ()),
    ('wrong-system-call', False, ()),
    ('drop-input-records', True, ('host-014',)),
    ('read-agent-data', False, ()),
    ('strip-protocol-data', True, ('host-006',)),
    ('wrong-system-call', False, ()),
    ('drop-input-records', True, ('host-018',)),
    ('strip-protocol-data', True, ('host-007',)),
    ('wrong-system-call', False, ()),
    ('forge-execution-log', False, ()),
    ('read-agent-data', False, ()),
    ('wrong-system-call', False, ()),
    ('drop-input-records', True, ('host-001',)),
    ('forge-execution-log', False, ()),
    ('tamper-result-variable', True, ('host-003',)),
    ('drop-input-records', True, ('host-001',)),
    ('drop-input-records', True, ('host-001',)),
    ('tamper-initial-state', True, ('host-014',)),
    ('read-agent-data', False, ()),
    ('tamper-result-variable', True, ('host-010',)),
    ('tamper-result-variable', True, ('host-009',)),
    ('lie-about-input', False, ()),
    ('incorrect-execution', True, ('host-022',)),
    ('wrong-system-call', False, ()),
    ('strip-protocol-data', True, ('host-010',)),
    ('drop-input-records', True, ('host-022',)),
    ('mutate-state-field', True, ('host-017',)),
    ('strip-protocol-data', True, ('host-010',)),
]


def _journeys(result):
    return sorted(result.outcomes, key=lambda outcome: outcome.journey_id)


@pytest.mark.parametrize("seed", sorted(FLEET_CAMPAIGN_PINS))
def test_fleet_campaign_detection_and_blame_are_pinned(seed):
    config = FleetConfig(
        num_agents=20, attack_fraction=0.3, seed=seed,
        journey_scenarios=FleetConfig().attack_scenarios,
    )
    result = run_fleet(config, workers=1)
    precision, recall, journeys = FLEET_CAMPAIGN_PINS[seed]
    observed = [
        (o.scenarios, o.attack_scenario, o.detected, o.blamed_hosts)
        for o in _journeys(result)
    ]
    assert observed == journeys
    campaign = analyze_campaign(result)
    assert (campaign.precision, campaign.recall) == (precision, recall)


def test_catalogue_campaign_detection_and_blame_are_pinned():
    result = run_fleet(
        campaign_config(num_agents=40, attack_fraction=1.0, seed=3),
        workers=1,
    )
    observed = [
        (o.attack_scenario, o.detected, o.blamed_hosts)
        for o in _journeys(result)
    ]
    assert observed == CATALOGUE_PINS
    campaign = analyze_campaign(result)
    assert (campaign.precision, campaign.recall) == (1.0, 1.0)

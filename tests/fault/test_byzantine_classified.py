"""Every Byzantine case ends classified, under any detector policy.

Lying agents and edge churn may make an honest agent's run fail, but the
failure must be a classified outcome of the row, never an exception out
of ``evaluate`` that would crash the campaign harness.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fault.byzantine_campaign import (
    BYZ_OUTCOMES,
    SCENARIOS,
    ByzantineCampaignSpec,
    ByzantineConfig,
)
from repro.fault.campaign import standard_battery

INSTANCES = standard_battery(quick=True)


@settings(
    max_examples=1200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    instance=st.integers(min_value=0, max_value=len(INSTANCES) - 1),
    scenario=st.integers(min_value=0, max_value=len(SCENARIOS) - 1),
    power=st.integers(min_value=1, max_value=3),
    strictness=st.integers(min_value=1, max_value=3),
    abort=st.booleans(),
    check_every=st.sampled_from((1, 25)),
)
def test_every_byzantine_case_ends_classified(
    seed, instance, scenario, power, strictness, abort, check_every
):
    config = ByzantineConfig(
        seed=seed, strictness=strictness, abort=abort, check_every=check_every
    )
    spec = ByzantineCampaignSpec(
        instances=INSTANCES,
        cases=len(INSTANCES) * len(SCENARIOS),
        powers=(power,),
        config=config,
    )
    # Instance-major, then power, then scenario (one power here).
    index = instance + len(INSTANCES) * scenario
    row = spec.evaluate(spec.task(index))
    assert row.outcome in BYZ_OUTCOMES, row
    assert row.power == power
    assert row.scenario == SCENARIOS[scenario][0]

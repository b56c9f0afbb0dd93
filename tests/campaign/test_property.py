"""Property test: the streamed counters agree with the rows themselves,
for any worker count and shard split.

The engine keeps no rows; the JSONL spill (:func:`read_spill`) carries
every one.  For random grid specs, the run result's checkpointed
counters — outcome counts, distinct schedules, audit failures, restart
and stall totals — and its failing indices must equal what the spill
implies, and the spilled rows must be the serial evaluation of
``spec.task(i)``.  Sharded runs must *partition* the whole grid's
totals: per-shard counters sum to the whole.  That the closed-form grids
themselves have not moved is pinned by committed ledger digests
(``test_digest_goldens.py``, ``test_frontend_digest_goldens.py``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.fuzz import (
    FuzzCampaignSpec,
    FuzzConfig,
    _evaluate_case,
    run_fuzz,
)
from repro.campaign import CampaignEngine, Shard, read_spill
from repro.fault.campaign import (
    CampaignConfig,
    FaultCampaignSpec,
    _evaluate_pair,
    run_campaign,
)

SWEEP_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _counts(records):
    counts: dict = {}
    for record in records:
        counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
    return counts


def _nonzero(counts):
    return {name: n for name, n in counts.items() if n}


@given(
    runs=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_every=st.sampled_from([0, 2, 3]),
    workers=st.sampled_from([1, 2]),
)
@SWEEP_SETTINGS
def test_streamed_fuzz_counters_match_the_spill(
    runs, seed, fault_every, workers, tmp_path_factory
):
    cfg = FuzzConfig(seed=seed, fault_every=fault_every)
    spill = str(tmp_path_factory.mktemp("fuzz") / "spill.jsonl")
    result = run_fuzz(
        runs=runs, config=cfg, quick=True, workers=workers, spill=spill
    )
    records = read_spill(spill)
    assert [r["case_index"] for r in records] == list(range(runs))

    assert _nonzero(result.counts) == _counts(records)
    signatures = [r["signature"] for r in records]
    assert result.extras["distinct_schedules"] == len(set(signatures))
    assert sum(r["distinct"] for r in records) == len(set(signatures))
    assert result.extras["duplicate_schedules"] == runs - len(set(signatures))
    assert [r.index for r in result.failures] == [
        r["index"]
        for r in records
        if r["outcome"] in ("schedule-failure", "silent-wrong-answer")
    ]

    spec = FuzzCampaignSpec(runs=runs, config=cfg, quick=True)
    serial = [_evaluate_case(spec.task(i)) for i in range(runs)]
    assert [(r["outcome"], r["signature"]) for r in records] == [
        (row.outcome, row.signature) for row in serial
    ]


@given(
    runs=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.sampled_from([2, 3]),
)
@SWEEP_SETTINGS
def test_sharded_fuzz_counters_partition_the_spill(
    runs, seed, shards, tmp_path_factory
):
    cfg = FuzzConfig(seed=seed)
    spill = str(tmp_path_factory.mktemp("shards") / "spill.jsonl")

    summed: dict = {}
    observed = 0
    failing = []
    for i in range(shards):
        spec = FuzzCampaignSpec(runs=runs, config=cfg, quick=True)
        engine = CampaignEngine(spec, shard=Shard(i, shards), spill=spill)
        result = engine.run()
        observed += result.processed
        failing += [row.index for row in result.failures]
        for name, n in result.counts.items():
            summed[name] = summed.get(name, 0) + n
        # Dedup is per shard: its coverage counter sees only its rows.
        own = {
            r["signature"]
            for r in read_spill(spill)
            if r["index"] % shards == i
        }
        assert result.extras["distinct_schedules"] == len(own)
    records = read_spill(spill)
    assert observed == runs == len(records)
    assert _nonzero(summed) == _counts(records)
    assert sorted(failing) == [
        r["index"]
        for r in records
        if r["outcome"] in ("schedule-failure", "silent-wrong-answer")
    ]


@given(
    pairs=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.sampled_from([1, 2]),
)
@SWEEP_SETTINGS
def test_streamed_fault_counters_match_the_spill(
    pairs, seed, workers, tmp_path_factory
):
    cfg = CampaignConfig(seed=seed)
    spill = str(tmp_path_factory.mktemp("fault") / "spill.jsonl")
    result = run_campaign(
        pairs=pairs, config=cfg, quick=True, workers=workers, spill=spill
    )
    records = read_spill(spill)
    assert [r["case_index"] for r in records] == list(range(pairs))

    assert _nonzero(result.counts) == _counts(records)
    assert result.extras["audit_failures"] == sum(
        1 for r in records if r["audit_failures"]
    )
    assert result.extras["restarts"] == sum(r["restarts"] for r in records)
    assert result.extras["stalls"] == sum(r["stalls"] for r in records)
    assert [r.index for r in result.failures] == [
        r["index"]
        for r in records
        if r["outcome"] == "silent-wrong-answer" or r["audit_failures"]
    ]

    spec = FaultCampaignSpec(pairs=pairs, config=cfg, quick=True)
    serial = [_evaluate_pair(spec.task(i)) for i in range(pairs)]
    assert records == [
        dict(row.to_dict(), case_index=i) for i, row in enumerate(serial)
    ]

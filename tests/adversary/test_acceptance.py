"""Sweep-scale acceptance: 500+ distinct interleavings, zero silent bugs.

One seeded fuzz run over the full Table-1 instance set must explore at
least 500 *distinct* interleavings (signature-deduplicated) and classify
every one of them without a silent wrong answer or a schedule failure —
the adversarial analogue of the fault campaign's no-silent-wrong-answer
oracle.
"""

from repro.adversary import run_fuzz


def test_500_distinct_interleavings_no_silent_wrong_answers():
    result = run_fuzz(runs=900, workers=4)
    assert result.extras["distinct_schedules"] >= 500
    assert result.counts["silent-wrong-answer"] == 0
    assert result.counts["schedule-failure"] == 0
    assert result.ok

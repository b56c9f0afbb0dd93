"""Tests of the benchmark itself.  No assertion depends on wall-clock time.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import random

import pytest

import campaigns
import harness
import layers
import run
import serveload


def _contract():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(campaigns, "GRID", {"fuzz": 14, "byzantine": 72})
    monkeypatch.setattr(serveload, "SMALL", serveload.SMALL[::3])
    monkeypatch.setattr(serveload, "WARM_ROUNDS", 1)
    monkeypatch.setattr(serveload, "MIN_PASSES", 2)
    monkeypatch.setattr(serveload, "LARGE", (("grid", (5, 5), "feasibility"), ("cycle", (20,), "elect")))


def _run(workload, trace, capsys):
    code = run.run_one(workload, seed=3, seconds=0.0, trace=trace)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


NAMED = {
    "fuzz": ("cases_per_s", "case_ms_p50", "case_ms_tail", "failed_frac"),
    "byzantine": ("cases_per_s", "case_ms_p50", "case_ms_tail", "failed_frac"),
    "serve": (
        "req_per_s", "cold_ms_p50", "cold_ms_tail",
        "warm_ms_p50", "warm_ms_tail", "failed_frac",
    ),
}


@pytest.mark.parametrize("workload", ["fuzz", "byzantine", "serve"])
def test_smoke_prints_every_metric_with_unit(workload, tiny, capsys):
    code, lines, line = _run(workload, False, capsys)
    assert code == 0 and line["correct"], lines
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    text = "\n".join(lines)
    for name in NAMED[workload]:
        assert f"  {name} " in text
    assert "of " in text.split("_tail", 1)[1].splitlines()[0]  # sample count
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    for key in ("kernel", "nproc", "python", "numpy", "scipy", "seed"):
        assert key in meta


@pytest.mark.parametrize("workload", ["fuzz", "byzantine", "serve"])
def test_traced_run_reports_layers_and_shares_sum_to_at_most_one(workload, tiny, capsys):
    code, lines, line = _run(workload, True, capsys)
    assert code == 0 and line["correct"], lines
    wanted = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    shares = {}
    for text in lines:
        fields = text.split()
        if len(fields) >= 3 and fields[0].endswith(".share"):
            shares[fields[0]] = float(fields[1])
    assert len(shares) == len(layers.LAYER_NAMES)
    assert 0.0 < sum(shares.values()) <= 1.0
    assert any(t.split()[:1] == ["trace.overhead"] for t in lines)


def _always_key_error(task):
    if task == 2:
        raise KeyError(task)
    return _Row(task)


class _Row:
    outcome = "ok"

    def __init__(self, index):
        self.index = index


class _StubSpec:
    """A five-case campaign whose third case raises ``KeyError``."""

    kind = "stub"
    span_name = "stub.case"
    campaign = "stub:seed=0"

    class config:
        seed = 0

    total = 5

    def __init__(self):
        from repro.campaign.engine import OutcomeCounter

        self.counter = OutcomeCounter()

    def task(self, index):
        return index

    evaluate = staticmethod(_always_key_error)

    def context(self, index):
        return None

    def ledger_row(self, index, result):
        from repro.obs.ledger import LedgerRow

        return LedgerRow(
            kind=self.kind, campaign=self.campaign, case_index=index,
            instance="", family="", chash="", seed=0, predicted="",
            outcome=result.outcome,
        )

    def case_failed(self, result):
        return False

    def stages(self):
        return [self.counter]

    def describe(self):
        return {"kind": self.kind}


def test_key_error_in_evaluate_is_a_counted_harness_error(tmp_path):
    from repro.campaign.engine import CampaignEngine

    spec = campaigns.guard_spec(_StubSpec())
    result = CampaignEngine(spec, ledger=str(tmp_path / "l.db"), workers=1).run()
    assert result.processed == 5
    assert result.counts == {"ok": 4, campaigns.HARNESS_ERROR: 1}
    assert result.failed == 1
    [err] = spec.harness_errors
    assert (err.index, err.exc_type) == (2, "KeyError")
    assert len(spec.evaluate.durations) == 5


def test_sweep_slots_cover_every_case_and_add_up_to_the_wall(tmp_path, monkeypatch):
    monkeypatch.setattr(campaigns, "build_spec", lambda workload, seed: _StubSpec())
    sweep = campaigns.Sweep("fuzz", 0, tmp_path, "s").run()
    assert len(sweep.slots) == len(sweep.durations) == sweep.cases == 5
    assert sum(sweep.slots) == pytest.approx(sweep.wall)


@pytest.fixture
def small_stream(monkeypatch):
    monkeypatch.setattr(serveload, "SMALL", serveload.SMALL[:3])
    monkeypatch.setattr(serveload, "WARM_ROUNDS", 1)
    monkeypatch.setattr(serveload, "LARGE", (("cycle", (12,), "elect"),))
    return serveload.Stream(seed=1)


def _answered(stream):
    """What a correct server answers for one pass of ``stream``."""
    from repro.core.placement import Placement
    from repro.serve.service import compute_payload
    from repro.serve.wire import build_network, canonical_json

    sent = []
    for request in stream.requests:
        inst = stream.instances[request.instance]
        network = build_network({"graph": inst.graph, "graph_args": list(inst.args)})
        body = canonical_json(compute_payload(inst.op, network, Placement.of(list(inst.homes))))
        source = "compute" if request.kind == "new" else "memory"
        sent.append(serveload.Sent(request, 200, source, body, 0.0))
    return sent


def test_parity_check_accepts_correct_answers(small_stream):
    assert serveload.check_parity(_answered(small_stream), small_stream.instances) == []


def test_parity_check_flags_a_corrupted_body(small_stream):
    sent = _answered(small_stream)
    bad = sent[-1]
    sent[-1] = serveload.Sent(bad.request, 200, "memory", bad.body.replace(b"}", b',"x":1}', 1), 0.0)
    problems = serveload.check_parity(sent, small_stream.instances)
    assert any(f"instance {bad.request.instance} " in p for p in problems), problems


def test_parity_check_flags_another_instances_correct_body(small_stream):
    """A warm hit on the wrong cache entry serves a body that is correct
    for some other instance; it must not pass."""
    sent = _answered(small_stream)
    body_of = {s.request.instance: s.body for s in sent}
    a, b = next(
        (a, b) for a in body_of for b in body_of if a != b and body_of[a] != body_of[b]
    )
    sent = [
        serveload.Sent(s.request, 200, s.source, body_of[a], 0.0) if s.request.instance == b else s
        for s in sent
    ]
    problems = serveload.check_parity(sent, small_stream.instances)
    assert any(f"instance {b} " in p for p in problems), problems


def test_parity_check_flags_a_new_instance_answered_from_a_cache(small_stream):
    sent = _answered(small_stream)
    k = next(i for i, s in enumerate(sent) if s.request.kind == "new")
    sent[k] = serveload.Sent(sent[k].request, 200, "sqlite", sent[k].body, 0.0)
    problems = serveload.check_parity(sent, small_stream.instances)
    assert any("answered from sqlite" in p for p in problems), problems


def test_iso_copies_share_the_canonical_hash():
    from repro.core.placement import Placement
    from repro.graphs.canonical import canonical_hash
    from repro.serve.wire import parse_query

    stream = serveload.Stream(seed=2)
    rng = random.Random(0)
    for inst in stream.instances[:6]:
        _, net, pl = parse_query(inst.named_payload())
        _, copy, cpl = parse_query(serveload.iso_copy(inst, rng))
        assert canonical_hash(net, pl.bicoloring(net)) == canonical_hash(copy, cpl.bicoloring(copy))
        assert isinstance(cpl, Placement)


def test_stream_is_a_function_of_the_seed():
    first = [r.payload for r in serveload.Stream(seed=5).requests]
    again = [r.payload for r in serveload.Stream(seed=5).requests]
    other = [r.payload for r in serveload.Stream(seed=6).requests]
    assert first == again and first != other


def test_every_instance_is_its_own_isomorphism_class():
    from repro.graphs.canonical import canonical_hash
    from repro.serve.wire import parse_query

    for seed in range(3):
        stream = serveload.Stream(seed)
        keys = set()
        for inst in stream.instances:
            _, net, pl = parse_query(inst.named_payload())
            keys.add((inst.op, canonical_hash(net, pl.bicoloring(net))))
        assert len(keys) == len(stream.instances)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    samples = list(range(1, 1001))
    assert harness.tail(samples) == (990, 99.0)
    assert harness.tail(samples[:60]) == (45, 75.0)
    assert harness.tail(samples[:5]) == (3, 50.0)


def test_generator_layer_counts_only_resumed_time():
    tracer = layers.Tracer()

    def gen(n):
        total = 0
        for i in range(n):
            total += yield i
        return total

    traced = tracer.wrap_generator("sim.traversal.draw_map", gen)

    def driver():
        return (yield from traced(3))

    d = driver()
    sent = [next(d)]
    try:
        while True:
            sent.append(d.send(10))
    except StopIteration as stop:
        assert stop.value == 30
    assert sent == [0, 1, 2]
    assert tracer.calls["sim.traversal.draw_map"] == 1
    assert tracer.nesting_errors == 0

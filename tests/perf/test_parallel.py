"""ParallelBatteryRunner: determinism, ordering, serial equivalence.

The binding contract: for ANY worker count the results equal the serial
loop's, element for element, in input order — which is what lets
``reproduce_table1(workers=N)`` promise byte-identical cells.
"""

import importlib
import os

import pytest

from repro.analysis.matrix import reproduce_table1
from repro.perf import ParallelBatteryRunner, parallel_map
from repro.perf.parallel import worker_count


def square(x):
    return x * x


def boom(x):
    if x == 3:
        raise ValueError("instance 3 is broken")
    return x


def test_serial_runner_is_a_plain_loop():
    runner = ParallelBatteryRunner(workers=1)
    assert runner.is_serial
    assert runner.map(square, range(10)) == [x * x for x in range(10)]
    assert runner._pool is None  # no executor was ever created


def test_workers_zero_and_none():
    assert ParallelBatteryRunner(workers=0).is_serial
    assert worker_count("0") == 0
    auto = ParallelBatteryRunner(workers=None)
    assert auto.workers == min(os.cpu_count() or 1, 8)
    with pytest.raises(ValueError):
        ParallelBatteryRunner(workers=-1)
    with pytest.raises(ValueError):
        ParallelBatteryRunner(executor="rayon")


@pytest.mark.parametrize(
    "module, argv",
    [
        pytest.param("campaign", ["run", "fault", "--ledger", "x.db"], id="campaign"),
        pytest.param("fault", [], id="fault"),
        pytest.param("adversary", ["fuzz"], id="adversary-fuzz"),
        pytest.param("obs", ["flight", "record", "--out", "x.json"], id="obs-flight"),
        pytest.param("analysis", [], id="analysis"),
        pytest.param("serve", ["serve"], id="serve-serve"),
        pytest.param(
            "serve",
            ["query", "--local", "--op", "classify", "--graph", "petersen",
             "--homes", "0", "1"],
            id="serve-query",
        ),
        pytest.param("serve", ["warm", "--store", "x.db"], id="serve-warm"),
    ],
)
def test_negative_workers_is_a_usage_error(module, argv, tmp_path, monkeypatch, capsys):
    """Every ``--workers`` flag refuses a negative count before any work
    starts, with argparse's exit 2: exit 1 means a sweep found failing
    cases.  (Only negative counts: a large one would start that many
    processes.)"""
    monkeypatch.chdir(tmp_path)
    main = importlib.import_module(f"repro.{module}.__main__").main
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --workers: workers must be >= 0, got -1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("executor", ["process", "thread"])
def test_parallel_results_in_input_order(executor):
    items = list(range(25))
    with ParallelBatteryRunner(workers=3, executor=executor) as runner:
        assert not runner.is_serial
        assert runner.map(square, items) == [x * x for x in items]
        # The pool is reused across calls.
        pool = runner._pool
        assert runner.map(square, items) == [x * x for x in items]
        assert runner._pool is pool
    assert runner._pool is None  # context exit closed it


def test_single_item_short_circuits():
    runner = ParallelBatteryRunner(workers=4)
    assert runner.map(square, [7]) == [49]
    assert runner._pool is None
    runner.close()


def test_exceptions_propagate():
    with ParallelBatteryRunner(workers=2) as runner:
        with pytest.raises(ValueError, match="instance 3"):
            runner.map(boom, range(6))


def test_starmap():
    with ParallelBatteryRunner(workers=2) as runner:
        assert runner.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]


def test_parallel_map_convenience():
    assert parallel_map(square, range(5), workers=2) == [0, 1, 4, 9, 16]


def test_explicit_chunksize_respected():
    with ParallelBatteryRunner(workers=2, chunksize=5) as runner:
        assert runner.map(square, range(11)) == [x * x for x in range(11)]


# ----------------------------------------------------------------------
# map_on_network: shared-memory fan-out is byte-identical to serial
# ----------------------------------------------------------------------


def classes_from(network, node):
    """A network-dependent pure function (module-level: picklable)."""
    from repro.graphs.views import view_refinement

    ids = view_refinement(network, [1 if v == node else 0 for v in network.nodes()])
    return (node, len(set(ids)), network.name, network.num_nodes)


def test_map_on_network_serial_and_thread_bind_in_process():
    from repro.graphs.builders import petersen_graph

    net = petersen_graph()
    items = list(net.nodes())
    expected = [classes_from(net, v) for v in items]
    assert ParallelBatteryRunner(workers=1).map_on_network(
        classes_from, net, items
    ) == expected
    with ParallelBatteryRunner(workers=2, executor="thread") as runner:
        assert runner.map_on_network(classes_from, net, items) == expected


def test_map_on_network_process_pool_matches_serial():
    from repro.graphs.builders import petersen_graph

    net = petersen_graph()
    items = list(net.nodes())
    expected = [classes_from(net, v) for v in items]
    with ParallelBatteryRunner(workers=2) as runner:
        assert runner.map_on_network(classes_from, net, items) == expected
        # The export is reused across calls on the same network...
        export = runner._exports[id(net)][1]
        assert runner.map_on_network(classes_from, net, items) == expected
        assert runner._exports[id(net)][1] is export
    # ...and released by close().
    assert runner._exports == {}
    assert export._segment is None


def test_evaluate_battery_worker_count_invariant():
    import pickle

    from repro.analysis.instances import evaluate_battery, quantitative_battery
    from repro.analysis.matrix import _eval_quantitative

    items = [(inst, 11) for inst in quantitative_battery()]
    blobs = []
    for workers in (1, 2):
        with ParallelBatteryRunner(workers=workers) as runner:
            blobs.append(
                pickle.dumps(evaluate_battery(items, _eval_quantitative, runner=runner))
            )
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------------------
# End-to-end determinism: Table 1 is worker-count invariant.  Whether the
# pool is also faster is a wall-time question for
# benchmarks/bench_table1_parallel.py, not for this suite.
# ----------------------------------------------------------------------


def cells_as_tuples(result):
    return {
        key: (cell.verdict, cell.evidence, cell.instances_checked)
        for key, cell in result.cells.items()
    }


def test_table1_parallel_is_byte_identical():
    serial = reproduce_table1(quick=True)
    parallel = reproduce_table1(quick=True, workers=2)
    assert cells_as_tuples(serial) == cells_as_tuples(parallel)
    assert serial.all_match and parallel.all_match
    assert serial.render() == parallel.render()

"""Coordinator services: FedAvg kernel, scheduling, journal, crash-resume."""

from __future__ import annotations

import functools
import gc
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crash_child import CASES, simulation
from repro.core import (CodecProfiler, FedSZCompressor, FedSZConfig,
                        NetworkModel, ProfiledPolicy)
from repro.data import make_dataset, train_test_split
from repro.fl import (
    FederatedSimulation,
    FLClient,
    FedSZUpdateCodec,
    FedAvgServer,
    RawUpdateCodec,
    RoundJournal,
    RoundScheduler,
    fedavg_aggregate,
)
from repro.fl.coordinator import (Coordinator, PartialAggregate, ShipTask,
                                  SimulatedTransport, deterministic_fields,
                                  resolve_scenario_seed, ship_update_task)
from repro.fl.delta import DeltaTracker
from repro.nn import build_model
from repro.utils.serialization import packed_arrays_nbytes


#: a narrow alexnet: its two dropout layers are what the resume tests
#: need, at a fraction of the full model's training time
NARROW_ALEXNET = {"width": 8, "hidden": 64}


def _factory(model="simplecnn"):
    return build_model(model, num_classes=10, in_channels=3, image_size=16,
                       seed=0, **(NARROW_ALEXNET if model == "alexnet" else {}))


def _make_sim(train, test, model="simplecnn", **kwargs):
    defaults = dict(n_clients=3, seed=5, local_epochs=1, batch_size=16, lr=0.15)
    defaults.update(kwargs)
    return FederatedSimulation(functools.partial(_factory, model), train, test,
                               **defaults)


@pytest.fixture(scope="module")
def fl_split():
    ds = make_dataset("cifar10", n_samples=240, image_size=16, seed=7)
    return train_test_split(ds, test_fraction=0.25, seed=3)


def _random_states(n, rng, with_ints=True):
    states = []
    for i in range(n):
        state = {"conv.weight": rng.standard_normal((4, 3, 3)).astype(np.float32),
                 "fc.bias": rng.standard_normal(6),
                 "scalar": np.float64(rng.standard_normal())}
        if with_ints:
            state["steps"] = np.asarray(rng.integers(0, 100, size=3), dtype=np.int64)
        states.append(state)
    return states


def _wide_states(n, rng):
    # float64 values over six decades, so that a plain float64 fold rounds
    # away from the exact sum on many elements
    return [{"w64": rng.standard_normal(257) * 10.0 ** rng.uniform(-3, 3, 257),
             "w32": rng.standard_normal((3, 5, 7)).astype(np.float32),
             "steps": rng.integers(0, 1000, size=4)} for _ in range(n)]


def _correctly_rounded_mean(states, weights):
    """FedAvg in exact rational arithmetic over the kernel's own float64
    leaves (``x * w / sum(w)``), rounded once: what a fold that loses no bit
    while summing returns."""
    raw = np.asarray(weights, dtype=np.float64)
    normalized = [float(w) for w in raw / raw.sum()]
    total = float(sum(Fraction(w) for w in normalized))
    result = {}
    for key, reference in states[0].items():
        reference = np.asarray(reference)
        leaves = [np.asarray(state[key]).astype(np.float64).ravel() * w
                  for state, w in zip(states, normalized)]
        sums = np.array([float(sum(Fraction(float(leaf[i])) for leaf in leaves))
                         for i in range(reference.size)])
        value = (sums / total).reshape(reference.shape)
        if reference.dtype.kind in "iub":
            value = np.rint(value)
        result[key] = value.astype(reference.dtype)
    return result


#: the weight spread of a fleet mixing tiny and huge shards
_EXTREME_WEIGHTS = [1e-6, 1e6, 1.0, 3.0, 1e-3, 7e5, 2.0, 1e4, 5.0, 0.5, 42.0]

_MEAN_CASES = [(2, "uniform"), (3, "samples"), (4, "tiny"), (7, "samples"),
               (11, "extreme"), (16, "samples"), (32, "samples")]


class TestFedAvgKernel:
    @pytest.mark.parametrize("n, kind", _MEAN_CASES,
                             ids=[f"{n}-{kind}" for n, kind in _MEAN_CASES])
    def test_matches_correctly_rounded_mean(self, n, kind):
        # the compensated partial sum keeps every bit an output can show:
        # the aggregate is the exact weighted sum of the leaves, rounded once
        rng = np.random.default_rng(1000 + n)
        states = _wide_states(n, rng)
        if kind == "uniform":
            weights = [1.0] * n
        elif kind == "extreme":
            weights = _EXTREME_WEIGHTS[:n]
        else:
            counts = rng.integers(1, 200, size=n).astype(np.float64)
            weights = list(counts * (1e-200 if kind == "tiny" else 1.0))
        got = fedavg_aggregate(states, None if kind == "uniform" else weights)
        want = _correctly_rounded_mean(states, weights)
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    def test_zero_weight_client_changes_nothing(self, position):
        rng = np.random.default_rng(31)
        states = _random_states(5, rng)
        weights = [4.0, 1.0, 3.0, 2.0, 5.0]
        weights[position] = 0.0
        kept = [i for i in range(5) if i != position]
        with_zero = fedavg_aggregate(states, weights)
        without = fedavg_aggregate([states[i] for i in kept],
                                   [weights[i] for i in kept])
        for key in without:
            assert np.array_equal(with_zero[key], without[key]), key

    def test_half_way_integer_means_round_to_even(self):
        states = [{"c": np.array([0, 1, 2, 3], dtype=np.int64)},
                  {"c": np.array([1, 2, 3, 4], dtype=np.int64)}]
        out = fedavg_aggregate(states)
        assert np.array_equal(out["c"], np.array([0, 2, 2, 4]))

    def test_single_state_is_exact_identity(self):
        rng = np.random.default_rng(17)
        state = _random_states(1, rng)[0]
        out = fedavg_aggregate([state], [37])
        for key, value in state.items():
            assert np.array_equal(np.asarray(value), out[key]), key

    def test_integer_entries_round_to_nearest(self):
        # the historic astype truncated toward zero: weights [1, 3] over
        # [0, 0] and [1, 3] average to [0.75, 2.25] -> nearest is [1, 2]
        states = [{"c": np.array([0, 0], dtype=np.int64)},
                  {"c": np.array([1, 3], dtype=np.int64)}]
        out = fedavg_aggregate(states, [1, 3])
        assert out["c"].dtype == np.int64
        assert np.array_equal(out["c"], np.array([1, 2]))

    def test_partial_merge_carries_weights(self):
        # merging partials of two halves must equal aggregating the whole
        rng = np.random.default_rng(5)
        states = _random_states(6, rng)
        weights = [5.0, 1.0, 2.0, 8.0, 3.0, 1.0]
        total = sum(weights)
        left = PartialAggregate.of(states[0], weights[0] / total)
        for state, weight in zip(states[1:3], weights[1:3]):
            left = left.merge(PartialAggregate.of(state, weight / total))
        right = PartialAggregate.of(states[3], weights[3] / total)
        for state, weight in zip(states[4:], weights[4:]):
            right = right.merge(PartialAggregate.of(state, weight / total))
        merged = left.merge(right)
        assert merged.count == 6
        full = fedavg_aggregate(states, weights)
        finalized = merged.finalize()
        assert all(np.array_equal(full[k], finalized[k]) for k in full)

    def test_validation_messages_preserved(self):
        with pytest.raises(ValueError, match="need at least one client state"):
            fedavg_aggregate([])
        state = {"w": np.ones(3)}
        with pytest.raises(ValueError, match="same length"):
            fedavg_aggregate([state, state], [1.0])
        with pytest.raises(ValueError, match="non-negative and not all zero"):
            fedavg_aggregate([state, state], [0.0, 0.0])
        with pytest.raises(ValueError, match="mismatched keys"):
            fedavg_aggregate([state, {"v": np.ones(3)}])
        with pytest.raises(ValueError, match="mismatched shapes"):
            fedavg_aggregate([state, {"w": np.ones(4)}])
        # a NaN or infinite weight is rejected before any leaf is built,
        # instead of returning an all-NaN global state
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-negative and not all zero"):
                fedavg_aggregate([state, state], [bad, 1.0])

    @pytest.mark.parametrize("other, weight, message", [
        ({"v": np.ones(3)}, 0.5, "mismatched keys"),
        ({"w": np.ones(4)}, 0.5, "mismatched shapes"),
        (None, 0.0, "non-negative and not all zero"),
    ], ids=["keys", "shapes", "zero-total"])
    def test_partial_guards(self, other, weight, message):
        # a caller folding partials itself gets the same errors
        partial = PartialAggregate.of({"w": np.ones(3)}, weight)
        with pytest.raises(ValueError, match=message):
            if other is None:
                partial.finalize()
            else:
                partial.merge(PartialAggregate.of(other, weight))


class TestRoundScheduler:
    def test_matches_simulation_plan_round(self, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test, n_clients=4, seed=21, participation=0.75,
                        dropout_prob=0.25, straggler_prob=0.5)
        scheduler = RoundScheduler(4, participation=0.75, dropout_prob=0.25,
                                   straggler_prob=0.5, seed=21)
        for round_index in range(6):
            assert scheduler.plan_round(round_index) == sim.scheduler.plan_round(round_index)

    def test_full_participation_shortcut(self):
        scheduler = RoundScheduler(5, participation=1.0, seed=0)
        plan = scheduler.plan_round(3)
        assert plan.participants == (0, 1, 2, 3, 4)
        assert plan.dropped == () and plan.stragglers == ()
        # an int participation of 1 is a count, not the full-fleet fraction
        assert not RoundScheduler(5, participation=1, seed=0).full_participation

    def test_validation(self):
        with pytest.raises(ValueError, match="participation fraction"):
            RoundScheduler(4, participation=0.0)
        with pytest.raises(ValueError, match="participation count"):
            RoundScheduler(4, participation=9)
        with pytest.raises(ValueError, match="dropout_prob"):
            RoundScheduler(4, dropout_prob=1.5)
        with pytest.raises(ValueError, match="straggler_prob"):
            RoundScheduler(4, straggler_prob=-0.1)

    def test_resolve_scenario_seed(self):
        assert resolve_scenario_seed(42) == 42
        drawn = resolve_scenario_seed(None)
        assert 0 <= drawn < 2 ** 63
        # two unseeded draws must not collide (astronomically unlikely)
        assert resolve_scenario_seed(None) != drawn


@pytest.fixture(scope="module")
def two_round_journal(tmp_path_factory, fl_split):
    """The event lines of a journaled 2-client, 2-round FedSZ run, whose
    ships journal a report and a plan."""
    directory = tmp_path_factory.mktemp("journal")
    _make_sim(*fl_split, n_clients=2, codec=FedSZUpdateCodec(FedSZConfig()),
              journal_dir=directory).run(2)
    return (directory / "journal.jsonl").read_text().splitlines()


#: (damage, an edit of the parsed events, the error it raises): the events
#: are run_start, then per round round_start, 2 ships and round_complete
_JOURNAL_DAMAGE = [
    ("round-start-without-round", lambda e: e[1].pop("round"), "line 2: malformed round_start"),
    ("ship-without-payload-bytes", lambda e: e[2].pop("payload_bytes"),
     "line 3: malformed client_shipped"),
    ("record-with-extra-field", lambda e: e[4]["record"].update(wall_seconds=1.0),
     "line 5: malformed round_complete"),
    ("record-without-accuracy", lambda e: e[4]["record"].pop("accuracy"),
     "line 5: malformed round_complete"),
    ("participants-not-a-list", lambda e: e[1].update(participants=5),
     "line 2: malformed round_start"),
    ("json-array-line", lambda e: e.__setitem__(2, [1, 2]), "line 3: unexpected event None"),
    ("client-outside-fleet", lambda e: e[2].update(client=9), "line 3: malformed client_shipped"),
    ("client-ships-twice", lambda e: e[3].update(client=e[2]["client"]),
     "line 4: client 0 is not due to ship in round 0"),
    ("rounds-out-of-order", lambda e: [event.update(round=2) for event in e[5:]],
     "line 6: round 2 starts while round 1 is due"),
    ("version-1-header", lambda e: e[0].update(journal_version=1), "journal version 1 is not"),
    ("plan-with-trailing-bytes", lambda e: e[2].update(plan=e[2]["plan"] + "00"),
     "line 3: plan has 1 trailing bytes"),
    ("plan-not-hex", lambda e: e[7].update(plan="not hex"), "line 8: plan is not hex"),
]


class TestRoundJournal:
    def test_fresh_dir_required_without_resume(self, tmp_path, fl_split):
        train, test = fl_split
        _make_sim(train, test, journal_dir=tmp_path / "j").run(1)
        with pytest.raises(ValueError, match="already holds a run"):
            _make_sim(train, test, journal_dir=tmp_path / "j")

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(ValueError, match="no journal found"):
            RoundJournal(tmp_path / "missing", resume=True)

    def test_journaled_run_replays_bit_identical(self, tmp_path, fl_split):
        train, test = fl_split
        reference = _make_sim(train, test).run(2)
        live = _make_sim(train, test, journal_dir=tmp_path / "j").run(2)
        assert deterministic_fields(live) == deterministic_fields(reference)
        replayed = _make_sim(train, test, journal_dir=tmp_path / "j",
                             resume=True).run(2)
        assert deterministic_fields(replayed) == deterministic_fields(reference)
        # replay preserves the wall-clock measurements of the original run
        assert [r.mean_train_seconds for r in replayed.rounds] == \
            [r.mean_train_seconds for r in live.rounds]

    def test_truncated_tail_is_tolerated(self, tmp_path, two_round_journal):
        (tmp_path / "journal.jsonl").write_text(
            "\n".join(two_round_journal) + '\n{"event": "round_start", "rou')
        state = RoundJournal(tmp_path, resume=True).load()
        assert len(state.records) == 2 and state.partial is None

    def test_corrupt_middle_line_rejected(self, tmp_path, two_round_journal):
        lines = list(two_round_journal)
        lines[1] = lines[1][:10]
        (tmp_path / "journal.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unparseable event"):
            RoundJournal(tmp_path, resume=True).load()

    @pytest.mark.parametrize("damage, message", [c[1:] for c in _JOURNAL_DAMAGE],
                             ids=[c[0] for c in _JOURNAL_DAMAGE])
    def test_malformed_event_rejected(self, tmp_path, two_round_journal,
                                      damage, message):
        events = [json.loads(line) for line in two_round_journal]
        damage(events)
        (tmp_path / "journal.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events))
        with pytest.raises(ValueError, match=message):
            RoundJournal(tmp_path, resume=True).load()

    def test_run_closes_the_log_and_a_resumed_run_reopens_it(self, tmp_path, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test, model="mlp", journal_dir=tmp_path)
        sim.run(1)
        assert sim.journal._log is None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del sim
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        resumed = _make_sim(train, test, model="mlp", journal_dir=tmp_path, resume=True)
        assert len(resumed.run(1).rounds) == 1  # every round journaled: returns early
        assert resumed.journal._log is None
        assert len(resumed.run(2).rounds) == 2
        assert resumed.journal._log is None
        events = [json.loads(line) for line in
                  (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert [e["round"] for e in events if e["event"] == "round_complete"] == [0, 1]

    def test_mismatched_run_rejected(self, tmp_path, fl_split):
        train, test = fl_split
        _make_sim(train, test, journal_dir=tmp_path / "j").run(1)
        with pytest.raises(ValueError, match="does not match this run's seed"):
            _make_sim(train, test, seed=6, journal_dir=tmp_path / "j", resume=True)
        with pytest.raises(ValueError, match="clients"):
            _make_sim(train, test, n_clients=2, journal_dir=tmp_path / "j",
                      resume=True)

    def test_resume_without_journal_dir_rejected(self, fl_split):
        train, test = fl_split
        with pytest.raises(ValueError, match="resume=True requires journal_dir"):
            _make_sim(train, test, resume=True)


def _truncate_journal(journal_dir, keep_events):
    """Emulate a crash: keep only the first ``keep_events`` journal lines."""
    log = journal_dir / "journal.jsonl"
    lines = log.read_text().splitlines()
    assert len(lines) > keep_events, "test needs a longer journal to truncate"
    log.write_text("\n".join(lines[:keep_events]) + "\n")


@functools.lru_cache(maxsize=None)
def _uninterrupted(case):
    """The case's run without a crash: its records and final global state
    (deterministic, so one 2-worker run serves both worker counts)."""
    sim = simulation(case, 2)
    result = sim.run(CASES[case][1])
    return deterministic_fields(result), sim.server.global_state()


class TestCrashResume:
    @pytest.mark.parametrize("model", ["simplecnn", "alexnet"])
    def test_mid_round_crash_resumes_bit_identical(self, tmp_path, fl_split, model):
        # alexnet trains through dropout: the resumed run retrains clients on
        # fresh replicas, whose masks must match the uninterrupted run's
        train, test = fl_split
        reference_sim = _make_sim(train, test, model)
        reference = reference_sim.run(2)

        _make_sim(train, test, model, journal_dir=tmp_path / "j").run(2)
        # events: run_start, then per round: round_start + 3 ships + complete;
        # keeping 8 lines cuts round 1 after its round_start + 1 shipped client
        _truncate_journal(tmp_path / "j", keep_events=8)

        resumed_sim = _make_sim(train, test, model, journal_dir=tmp_path / "j",
                                resume=True)
        resumed = resumed_sim.run(2)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)

    @pytest.mark.parametrize("model", ["simplecnn", "alexnet"])
    def test_round_boundary_crash_resumes_bit_identical(self, tmp_path, fl_split,
                                                        model):
        train, test = fl_split
        reference = _make_sim(train, test, model).run(2)
        _make_sim(train, test, model, journal_dir=tmp_path / "j").run(2)
        # keep run_start + all 5 events of round 0: resume restarts round 1
        _truncate_journal(tmp_path / "j", keep_events=6)
        resumed = _make_sim(train, test, model, journal_dir=tmp_path / "j",
                            resume=True).run(2)
        assert deterministic_fields(resumed) == deterministic_fields(reference)

    @pytest.mark.parametrize("model", ["simplecnn", "alexnet"])
    def test_resume_extends_run(self, tmp_path, fl_split, model):
        train, test = fl_split
        reference = _make_sim(train, test, model).run(3)
        _make_sim(train, test, model, journal_dir=tmp_path / "j").run(2)
        extended = _make_sim(train, test, model, journal_dir=tmp_path / "j",
                             resume=True).run(3)
        assert deterministic_fields(extended) == deterministic_fields(reference)

    def test_crash_env_hook_hard_exits(self, tmp_path, fl_split, monkeypatch):
        train, test = fl_split
        recorded = {}

        def fake_exit(code):
            recorded["code"] = code
            raise SystemExit(code)

        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setenv("REPRO_JOURNAL_CRASH_AFTER", "3")
        with pytest.raises(SystemExit):
            _make_sim(train, test, journal_dir=tmp_path / "j").run(2)
        assert recorded["code"] == 42
        # the journal holds exactly the events appended before the crash
        lines = (tmp_path / "j" / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_killed_process_resumes_bit_identical(self, tmp_path, case, workers):
        # a real hard exit: the child process dies mid-round with its journal
        # open (on 2 workers, with its pool threads too), and a fresh run
        # resumes from what it left
        crash_after, rounds = CASES[case]
        journal = tmp_path / "j"
        env = dict(os.environ, REPRO_JOURNAL_CRASH_AFTER=str(crash_after),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(Path(__file__).resolve().parent.parent / "src"),
                       os.environ.get("PYTHONPATH")])))
        # a child that never exits would hang the test: the timeout fails it
        child_script = Path(__file__).with_name("crash_child.py")
        child = subprocess.run([sys.executable, str(child_script), case,
                                str(workers), str(journal)], env=env, capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 42, child.stderr[-2000:]

        resumed_sim = simulation(case, workers, journal_dir=journal, resume=True)
        resumed = resumed_sim.run(rounds)
        ref_fields, ref_state = _uninterrupted(case)
        assert deterministic_fields(resumed) == ref_fields
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)


class _HeldRawCodec(RawUpdateCodec):
    """Raw codec that logs each decode; a held one waits for all the others.

    Holding client 0's decode until every other client of the batch has
    decoded makes a pool complete the batch in another order than the one it
    was submitted in.
    """

    def __init__(self, client_id, log, release, others, hold=False):
        self.client_id = client_id
        self.log = log
        self.release = release
        self.others = others
        self.hold = hold

    def decode(self, payload):
        if self.hold:
            assert self.release.wait(timeout=30), "the other ships never decoded"
        state = super().decode(payload)
        self.log.append(self.client_id)
        if len(self.log) == self.others:
            self.release.set()
        return state


class TestPooledUplinks:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_out_of_order_completion_aggregates_in_task_order(self, n):
        # the round aggregates once, pairing each result with its client's
        # weight by position: ship_batch must hand results back in task order
        # however the pool completes them, at every fan-in
        rng = np.random.default_rng(n)
        states = _random_states(n, rng)
        weights = list(rng.integers(1, 200, size=n))
        log, release = [], threading.Event()
        tasks = [ShipTask(client_id=cid, state=state,
                          codec=_HeldRawCodec(cid, log, release, n - 1,
                                              hold=cid == 0 and n > 1),
                          network=NetworkModel(bandwidth_mbps=10.0))
                 for cid, state in enumerate(states)]
        results = SimulatedTransport(max_workers=4).ship_batch(tasks)
        assert sorted(log) == list(range(n))  # every ship decoded once
        if n > 1:
            assert log[-1] == 0  # the first task completed last
        assert [r.client_id for r in results] == list(range(n))
        merged = fedavg_aggregate([r.state for r in results], weights)
        reference = fedavg_aggregate(states, weights)
        assert list(merged) == list(reference)
        for key in reference:
            assert merged[key].dtype == reference[key].dtype
            assert np.array_equal(merged[key], reference[key]), key


def _ship_state(seed: int = 12) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(0, 1, (32, 64)).astype(np.float32),
            "b": rng.normal(0, 1, 32).astype(np.float32)}


class TestShipUpdateTask:
    """One ship is encode → transfer → decode: it hands back exactly what the
    codec decodes, and its recorded transfer time is the link's analytic one."""

    @pytest.mark.parametrize("codec_factory", [
        RawUpdateCodec, lambda: FedSZUpdateCodec(FedSZConfig())], ids=["raw", "fedsz"])
    def test_ship_returns_the_codec_roundtrip(self, codec_factory):
        codec = codec_factory()
        state = _ship_state()
        net = NetworkModel(bandwidth_mbps=4.0, latency_s=0.01)
        result = ship_update_task(ShipTask(client_id=7, state=state, codec=codec,
                                           network=net))
        payload = codec.encode(state)
        expected = codec.decode(payload)
        assert result.client_id == 7
        assert list(result.state) == list(expected)
        for key in expected:
            np.testing.assert_array_equal(result.state[key], expected[key])
            assert result.state[key].dtype == expected[key].dtype
        assert result.payload_bytes == len(payload)
        assert result.raw_bytes == packed_arrays_nbytes(state)
        assert result.transfer_seconds == net.transfer_time(len(payload))

    def test_kept_payload_is_the_shipped_payload(self):
        codec = FedSZUpdateCodec(FedSZConfig())
        result = ship_update_task(ShipTask(client_id=0, state=_ship_state(), codec=codec,
                                           network=NetworkModel(), keep_payload=True))
        assert len(result.payload) == result.payload_bytes
        decoded = codec.decode(result.payload)
        for key in result.state:
            np.testing.assert_array_equal(decoded[key], result.state[key])

    def test_straggler_slowdown_scales_transfer(self):
        net = NetworkModel(bandwidth_mbps=4.0, latency_s=0.02)
        plain, slowed = (ship_update_task(ShipTask(client_id=0, state=_ship_state(),
                                                   codec=RawUpdateCodec(), network=net,
                                                   straggler_slowdown=slowdown))
                         for slowdown in (1.0, 3.0))
        assert slowed.transfer_seconds == pytest.approx(3.0 * plain.transfer_seconds)
        assert slowed.payload_bytes == plain.payload_bytes

    def test_real_delay_link_sleeps_the_transfer_and_ships_the_same_update(self):
        state = _ship_state()
        instant = ship_update_task(ShipTask(client_id=0, state=state, codec=RawUpdateCodec(),
                                            network=NetworkModel(bandwidth_mbps=2000.0,
                                                                 latency_s=0.02)))
        start = time.perf_counter()
        delayed = ship_update_task(ShipTask(client_id=0, state=state, codec=RawUpdateCodec(),
                                            network=NetworkModel(bandwidth_mbps=2000.0,
                                                                 latency_s=0.02,
                                                                 simulate_delay=True)))
        assert time.perf_counter() - start >= delayed.transfer_seconds
        assert delayed.transfer_seconds == instant.transfer_seconds
        for key in state:
            np.testing.assert_array_equal(delayed.state[key], instant.state[key])

    def test_thread_pool_matches_one_ship_at_a_time(self):
        # concurrent ships on a thread pool share the fleet's one codec, as
        # the round engine does, and ship exactly what one ship at a time does
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, state=_ship_state(seed=i), codec=codec,
                          network=net) for i in range(4)]
        pooled = SimulatedTransport(max_workers=4).ship_batch(tasks)
        for task, got in zip(tasks, pooled):
            want = ship_update_task(task)
            assert got.client_id == want.client_id
            assert list(got.state) == list(want.state)
            for key in want.state:
                np.testing.assert_array_equal(got.state[key], want.state[key])
            assert got.payload_bytes == want.payload_bytes
            assert got.transfer_seconds == want.transfer_seconds


#: (owner, keyword, value) of every removed round-engine setting: those that
#: chose between two paths, the late-update triage's and the test-only
#: shims'; a removed keyword is a TypeError and a removed class an ImportError
_REMOVED_ENGINE_KNOBS = [
    ("FederatedSimulation", "overlap", "async"),
    ("FederatedSimulation", "aggregate_on_arrival", True),
    ("FederatedSimulation", "persistent", False),
    ("FederatedSimulation", "streaming_encode", True),
    ("FederatedSimulation", "streaming", True),
    ("Coordinator", "overlap", "async"),
    ("Coordinator", "aggregate_on_arrival", True),
    ("Coordinator", "persistent", False),
    ("SimulatedTransport", "streaming_encode", True),
    ("SimulatedTransport", "streaming", True),
    ("SimulatedTransport", "packet_bytes", 2048),
    ("ShipTask", "streaming_encode", True),
    ("ShipTask", "streaming", True),
    ("ShipTask", "packet_bytes", 2048),
    ("FederatedSimulation", "round_deadline_s", 1.0),
    ("FederatedSimulation", "max_staleness", 1),
    ("FederatedSimulation", "compute_factors", [1.0, 1.0, 1.0]),
    ("Coordinator", "round_deadline_s", 1.0),
    ("Coordinator", "staleness", None),
    ("FLClient", "compute_factor", 3.0),
    ("RoundJournal.record_shipped", "status", "late"),
    ("DeltaTracker.adopt_replayed", "late", True),
    ("repro.fl", "StalenessPolicy", None),
    ("repro.fl.coordinator", "StalenessPolicy", None),
]


class TestOneEnginePath:
    @pytest.mark.parametrize("owner, knob, value", _REMOVED_ENGINE_KNOBS,
                             ids=[f"{owner}-{knob}"
                                  for owner, knob, _ in _REMOVED_ENGINE_KNOBS])
    def test_removed_knob_rejected(self, tmp_path, fl_split, owner, knob, value):
        # an error, not a silently ignored option that selects nothing
        if owner.startswith("repro."):
            with pytest.raises(ImportError, match=f"cannot import name '{knob}'"):
                exec(f"from {owner} import {knob}", {})
            return
        train, test = fl_split
        build = {
            "FederatedSimulation": lambda **kw: _make_sim(train, test, **kw),
            "Coordinator": Coordinator,
            "SimulatedTransport": SimulatedTransport,
            "ShipTask": lambda **kw: ShipTask(client_id=0, state={},
                                              codec=RawUpdateCodec(),
                                              network=NetworkModel(), **kw),
            "FLClient": lambda **kw: FLClient(0, _factory(), train, **kw),
            "RoundJournal.record_shipped": lambda **kw: RoundJournal(
                tmp_path).record_shipped(0, None, 0.0, 0.0, 1, **kw),
            "DeltaTracker.adopt_replayed": lambda **kw: DeltaTracker(
                {}).adopt_replayed(0, None, **kw),
        }[owner]
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{knob}'"):
            build(**{knob: value})


#: the durable profile cache with its drift anchors, and tree aggregation:
#: each is gone, and naming it is an error
_REMOVED_SCALE_KNOBS = [
    ("CodecProfiler", "profile_cache", "profiles.json"),
    ("CodecProfiler", "drift_threshold", 0.25),
    ("ProfiledPolicy", "profile_cache", "profiles.json"),
    ("ProfiledPolicy", "drift_threshold", 0.25),
    ("FedAvgServer", "aggregator", None),
    ("FederatedSimulation", "tree_fanout", 2),
]


class TestOneProfilerOneKernel:
    @pytest.mark.parametrize("owner, knob, value", _REMOVED_SCALE_KNOBS,
                             ids=[f"{owner}-{knob}"
                                  for owner, knob, _ in _REMOVED_SCALE_KNOBS])
    def test_removed_knob_rejected(self, fl_split, owner, knob, value):
        train, test = fl_split
        build = {
            "CodecProfiler": CodecProfiler,
            "ProfiledPolicy": ProfiledPolicy,
            "FedAvgServer": lambda **kw: FedAvgServer(_factory(), **kw),
            "FederatedSimulation": lambda **kw: _make_sim(train, test, **kw),
        }[owner]
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{knob}'"):
            build(**{knob: value})

    @pytest.mark.parametrize("knob, value", [("profile_cache", "profiles.json"),
                                             ("drift_threshold", 0.25)])
    def test_removed_policy_option_rejected(self, knob, value):
        # the pipeline resolves its policy at construction, so a stale
        # option fails there instead of planning without it
        config = FedSZConfig(policy="profiled", policy_options={knob: value})
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{knob}'"):
            FedSZCompressor(config)


class TestSatelliteRegressions:
    def test_seed_none_derives_everything_from_one_scenario_seed(self, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test, seed=None)
        # client seeds derive from the drawn scenario seed, not from seed 0
        assert [c.seed for c in sim.clients] == \
            [sim._scenario_seed + i for i in range(len(sim.clients))]
        other = _make_sim(train, test, seed=None)
        assert other._scenario_seed != sim._scenario_seed

    def test_explicit_seed_keeps_historic_client_seeds(self, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test, seed=5)
        assert [c.seed for c in sim.clients] == [5, 6, 7]

    def test_client_evaluate_restores_entry_mode(self, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test)
        client = sim.clients[0]
        client.model.train(False)
        client.evaluate()
        assert client.model.training is False
        client.model.train(True)
        client.evaluate()
        assert client.model.training is True

    def test_loader_seed_varies_per_round(self, fl_split):
        train, test = fl_split
        client = _make_sim(train, test).clients[0]
        seeds = {client._loader_seed(r) for r in range(5)}
        assert len(seeds) == 5, "rounds must not replay the same batch order"
        assert client._loader_seed(0) == client.seed  # round 0 is historic

    def test_analytic_raw_bytes_matches_encoder(self, small_state):
        assert packed_arrays_nbytes(small_state) == \
            len(RawUpdateCodec().encode(small_state))

    def test_ship_task_reports_analytic_raw_bytes(self, small_state):
        task = ShipTask(client_id=0, state=small_state, codec=RawUpdateCodec(),
                        network=NetworkModel(bandwidth_mbps=10.0),
                        straggler_slowdown=1.0)
        result = ship_update_task(task)
        assert result.raw_bytes == len(RawUpdateCodec().encode(small_state))
        assert result.payload is None  # payloads are only kept when journaling

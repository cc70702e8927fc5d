"""Coordinator services: tree aggregation, scheduling, journal, crash-resume."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import NetworkModel
from repro.data import make_dataset, train_test_split
from repro.fl import (
    FederatedSimulation,
    FlatAggregator,
    RawUpdateCodec,
    RoundJournal,
    RoundScheduler,
    StalenessPolicy,
    TreeAggregator,
    fedavg_aggregate,
)
from repro.fl.coordinator import (PartialAggregate, RoundPlan, ShipTask,
                                  resolve_scenario_seed, ship_update_task)
from repro.nn import build_model
from repro.utils.serialization import packed_arrays_nbytes


def _factory():
    return build_model("simplecnn", num_classes=10, in_channels=3,
                       image_size=16, seed=0)


def _make_sim(train, test, **kwargs):
    defaults = dict(n_clients=3, seed=5, local_epochs=1, batch_size=16, lr=0.15)
    defaults.update(kwargs)
    return FederatedSimulation(_factory, train, test, **defaults)


def _deterministic_fields(result):
    """Every field of a SimulationResult that must be seed-reproducible."""
    return [(r.accuracy, r.uncompressed_bytes, r.transmitted_bytes,
             r.communication_seconds, tuple(r.client_losses),
             tuple(r.participants), tuple(r.dropped_clients),
             tuple(r.straggler_clients), tuple(r.late_clients),
             tuple(sorted(r.absorbed_clients.items())))
            for r in result.rounds]


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


class TestTreeAggregator:
    @pytest.mark.parametrize("fan_in", [2, 3, 4, 7, 16])
    def test_bit_identical_to_flat_at_every_fan_in(self, fan_in):
        rng = np.random.default_rng(99)
        states = _random_states(11, rng)
        weights = list(rng.integers(1, 200, size=11))
        flat = fedavg_aggregate(states, weights)
        tree = TreeAggregator(fan_in=fan_in).aggregate(states, weights)
        assert list(flat) == list(tree)
        for key in flat:
            assert flat[key].dtype == tree[key].dtype
            assert np.array_equal(flat[key], tree[key]), key

    def test_extreme_weight_spread_still_bit_identical(self):
        rng = np.random.default_rng(3)
        states = _random_states(9, rng, with_ints=False)
        weights = [1e-6, 1e6, 1.0, 3.0, 1e-3, 7e5, 2.0, 1e4, 5.0]
        flat = fedavg_aggregate(states, weights)
        for fan_in in (2, 3, 5):
            tree = TreeAggregator(fan_in=fan_in).aggregate(states, weights)
            assert all(np.array_equal(flat[k], tree[k]) for k in flat)

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

    def test_fan_in_below_two_rejected(self):
        with pytest.raises(ValueError, match="fan_in must be >= 2"):
            TreeAggregator(fan_in=1)

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
            FlatAggregator().aggregate([state, {"w": np.ones(4)}])


class TestRoundScheduler:
    def test_matches_simulation_plan_round(self, fl_split):
        train, test = fl_split
        sim = _make_sim(train, test, n_clients=4, seed=21, participation=0.75,
                        dropout_prob=0.25, straggler_prob=0.5)
        scheduler = RoundScheduler(4, participation=0.75, dropout_prob=0.25,
                                   straggler_prob=0.5, seed=21)
        for round_index in range(6):
            assert scheduler.plan_round(round_index).as_tuple() == \
                sim.plan_round(round_index)

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


class TestStalenessPolicy:
    def test_admission_matrix(self):
        policy = StalenessPolicy(max_staleness=2)
        assert policy.admits(3, 3)
        assert policy.admits(3, 4)
        assert policy.admits(3, 5)
        assert not policy.admits(3, 6)
        assert policy.expired(3, 6)
        assert not policy.expired(3, 5)

    def test_zero_staleness_rejects_any_later_round(self):
        policy = StalenessPolicy()
        assert policy.admits(2, 2)
        assert not policy.admits(2, 3)

    def test_invalid(self):
        with pytest.raises(ValueError, match="max_staleness"):
            StalenessPolicy(max_staleness=-1)
        with pytest.raises(ValueError, match="earlier round"):
            StalenessPolicy().admits(4, 3)


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
        assert _deterministic_fields(live) == _deterministic_fields(reference)
        replayed = _make_sim(train, test, journal_dir=tmp_path / "j",
                             resume=True).run(2)
        assert _deterministic_fields(replayed) == _deterministic_fields(reference)
        # replay preserves the wall-clock measurements of the original run
        assert [r.mean_train_seconds for r in replayed.rounds] == \
            [r.mean_train_seconds for r in live.rounds]

    def test_truncated_tail_is_tolerated(self, tmp_path, fl_split):
        train, test = fl_split
        _make_sim(train, test, journal_dir=tmp_path / "j").run(1)
        log = tmp_path / "j" / "journal.jsonl"
        log.write_text(log.read_text() + '{"event": "round_start", "rou')
        state = RoundJournal(tmp_path / "j", resume=True).load()
        assert len(state.records) == 1 and state.partial is None

    def test_corrupt_middle_line_rejected(self, tmp_path, fl_split):
        train, test = fl_split
        _make_sim(train, test, journal_dir=tmp_path / "j").run(1)
        log = tmp_path / "j" / "journal.jsonl"
        lines = log.read_text().splitlines()
        lines[1] = lines[1][:10]
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unparseable event"):
            RoundJournal(tmp_path / "j", resume=True).load()

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


class TestCrashResume:
    def test_mid_round_crash_resumes_bit_identical(self, tmp_path, fl_split):
        train, test = fl_split
        reference_sim = _make_sim(train, test)
        reference = reference_sim.run(2)

        _make_sim(train, test, journal_dir=tmp_path / "j").run(2)
        # events: run_start, then per round: round_start + 3 ships + complete;
        # keeping 8 lines cuts round 1 after its round_start + 1 shipped client
        _truncate_journal(tmp_path / "j", keep_events=8)

        resumed_sim = _make_sim(train, test, journal_dir=tmp_path / "j",
                                resume=True)
        resumed = resumed_sim.run(2)
        assert _deterministic_fields(resumed) == _deterministic_fields(reference)
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)

    def test_round_boundary_crash_resumes_bit_identical(self, tmp_path, fl_split):
        train, test = fl_split
        reference = _make_sim(train, test).run(2)
        _make_sim(train, test, journal_dir=tmp_path / "j").run(2)
        # keep run_start + all 5 events of round 0: resume restarts round 1
        _truncate_journal(tmp_path / "j", keep_events=6)
        resumed = _make_sim(train, test, journal_dir=tmp_path / "j",
                            resume=True).run(2)
        assert _deterministic_fields(resumed) == _deterministic_fields(reference)

    def test_resume_extends_run(self, tmp_path, fl_split):
        train, test = fl_split
        reference = _make_sim(train, test).run(3)
        _make_sim(train, test, journal_dir=tmp_path / "j").run(2)
        extended = _make_sim(train, test, journal_dir=tmp_path / "j",
                             resume=True).run(3)
        assert _deterministic_fields(extended) == _deterministic_fields(reference)

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


class TestStalenessEndToEnd:
    def test_deadline_defers_and_staleness_absorbs(self, fl_split):
        train, test = fl_split
        slow = NetworkModel(bandwidth_mbps=0.001)
        sim = _make_sim(train, test, n_clients=2, network=slow,
                        round_deadline_s=1e-4, max_staleness=1)
        result = sim.run(3)
        assert result.rounds[0].participants == []
        assert result.rounds[0].late_clients == [0, 1]
        assert result.rounds[0].absorbed_clients == {}
        # round 1 absorbs round 0's late updates (origin recorded per client)
        assert result.rounds[1].absorbed_clients == {0: 0, 1: 0}
        # late bytes are still accounted to their origin round
        assert result.rounds[0].transmitted_bytes > 0

    def test_zero_staleness_rejects_late_updates(self, fl_split):
        train, test = fl_split
        slow = NetworkModel(bandwidth_mbps=0.001)
        sim = _make_sim(train, test, n_clients=2, network=slow,
                        round_deadline_s=1e-4, max_staleness=0)
        result = sim.run(2)
        assert all(r.absorbed_clients == {} for r in result.rounds)
        # nothing aggregated: accuracy stays at the untrained model's level
        assert result.rounds[0].accuracy == result.rounds[1].accuracy

    def test_no_deadline_means_no_behaviour_change(self, fl_split):
        train, test = fl_split
        result = _make_sim(train, test).run(1)
        assert result.rounds[0].late_clients == []
        assert result.rounds[0].absorbed_clients == {}


class TestAsyncOverlap:
    def test_async_matches_pool_bit_for_bit(self, fl_split):
        train, test = fl_split
        pool = _make_sim(train, test).run(2)
        overlapped = _make_sim(train, test, overlap="async").run(2)
        assert _deterministic_fields(overlapped) == _deterministic_fields(pool)

    def test_unknown_overlap_rejected(self, fl_split):
        train, test = fl_split
        with pytest.raises(ValueError, match="overlap must be one of"):
            _make_sim(train, test, overlap="fiber")


class TestTreeFanoutEndToEnd:
    @pytest.mark.parametrize("fan_in", [2, 3])
    def test_tree_run_matches_flat_run(self, fl_split, fan_in):
        train, test = fl_split
        flat = _make_sim(train, test).run(2)
        tree = _make_sim(train, test, tree_fanout=fan_in).run(2)
        assert _deterministic_fields(tree) == _deterministic_fields(flat)

    def test_invalid_fanout_rejected(self, fl_split):
        train, test = fl_split
        with pytest.raises(ValueError, match="tree_fanout"):
            _make_sim(train, test, tree_fanout=1)


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

    def test_round_plan_tuple_shape(self):
        plan = RoundPlan(2, (0, 2), (1,), (2,))
        assert plan.as_tuple() == ([0, 2], [1], [2])

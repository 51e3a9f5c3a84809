"""Sharded execution: shard planning, stream spawning, and the determinism
contracts of the multi-core layer.

The regression guarantee pinned here is **worker-count independence**:
tallies, estimates and whole answer sets are identical with ``jobs`` unset
(or a serial policy) and for ``jobs=1`` and ``jobs=4``, across thread and
process pools — spawned streams are the only way the samplers draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.importance import importance_sample_violation
from repro.analysis.kernels import (
    merge_tallies,
    monte_carlo_tally,
    monte_carlo_tally_sharded,
    plan_shards,
    run_sharded,
    spawn_shard_generators,
)
from repro.analysis.montecarlo import monte_carlo_reliability
from repro.engine import (
    ExecutionPolicy,
    ReliabilityEngine,
    Scenario,
    ScenarioSet,
)
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import uniform_fleet
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec


class TestShardPlanning:
    def test_shards_sum_to_trials(self):
        for trials in (1, 4096, 50_000, 123_457, 1_000_000):
            plan = plan_shards(trials)
            assert sum(plan.shards) == trials
            assert all(s > 0 for s in plan.shards)

    def test_plan_is_independent_of_worker_count(self):
        # The plan takes no jobs parameter at all; same inputs, same plan.
        assert plan_shards(100_000) == plan_shards(100_000)

    def test_small_budgets_make_single_shard(self):
        plan = plan_shards(1000)
        assert plan.shards == (1000,)

    def test_explicit_shard_trials(self):
        plan = plan_shards(10_000, shard_trials=3000)
        assert plan.shards == (3000, 3000, 3000, 1000)

    def test_default_grain_bounds_shard_count(self):
        assert plan_shards(10_000_000).num_shards == 16

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidConfigurationError):
            plan_shards(0)
        with pytest.raises(InvalidConfigurationError):
            plan_shards(100, shard_trials=0)

    def test_spawned_generators_are_deterministic_and_distinct(self):
        a = spawn_shard_generators(7, 3)
        b = spawn_shard_generators(7, 3)
        draws_a = [rng.random(4).tolist() for rng in a]
        draws_b = [rng.random(4).tolist() for rng in b]
        assert draws_a == draws_b
        assert draws_a[0] != draws_a[1] != draws_a[2]

    def test_spawn_prefix_stability(self):
        # The first k children of a bigger spawn equal a smaller spawn's
        # children: shard streams never depend on how many shards follow.
        small = [rng.random(4).tolist() for rng in spawn_shard_generators(3, 2)]
        big = [rng.random(4).tolist() for rng in spawn_shard_generators(3, 5)]
        assert big[:2] == small

    def test_run_sharded_preserves_payload_order(self):
        double = lambda x: x * 2  # noqa: E731
        for mode in ("serial", "thread"):
            assert run_sharded(double, list(range(8)), jobs=4, mode=mode) == [
                0, 2, 4, 6, 8, 10, 12, 14,
            ]

    def test_merge_tallies_sums_fields(self):
        spec, fleet = RaftSpec(3), uniform_fleet(3, 0.1)
        rng = np.random.default_rng(0)
        parts = [monte_carlo_tally(spec, fleet, 500, rng) for _ in range(3)]
        merged = merge_tallies(parts)
        assert merged.trials == 1500
        assert merged.safe == sum(p.safe for p in parts)
        assert merged.both == sum(p.both for p in parts)


class TestShardDeterminism:
    """jobs unset, jobs=1 and jobs=4 give identical values."""

    SPEC = RaftSpec(7)
    FLEET = uniform_fleet(7, 0.05)

    def test_tally_identical_across_jobs_and_pools(self):
        reference, plan = monte_carlo_tally_sharded(
            self.SPEC, self.FLEET, 30_000, 42, jobs=1, mode="serial"
        )
        assert plan.num_shards > 1  # the contract below is non-trivial
        for jobs, mode in ((4, "thread"), (2, "thread"), (4, "process")):
            tally, other_plan = monte_carlo_tally_sharded(
                self.SPEC, self.FLEET, 30_000, 42, jobs=jobs, mode=mode
            )
            assert tally == reference
            assert other_plan == plan

    def test_reliability_identical_across_jobs(self):
        one = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=1, pool="serial"
        )
        four_t = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=4, pool="thread"
        )
        four_p = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=4, pool="process"
        )
        assert one == four_t == four_p

    def test_legacy_results_byte_identical_when_jobs_unset(self):
        unset = monte_carlo_reliability(self.SPEC, self.FLEET, trials=20_000, seed=9)
        jobs_four = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=20_000, seed=9, jobs=4, pool="thread"
        )
        assert unset == jobs_four
        # A budget of at most one shard is the raw kernel run over the
        # seed's first spawned child.
        small = monte_carlo_reliability(self.SPEC, self.FLEET, trials=4_000, seed=9)
        tally = monte_carlo_tally(
            self.SPEC, self.FLEET, 4_000, spawn_shard_generators(9, 1)[0]
        )
        assert small.safe.value == tally.safe / 4_000
        assert small.safe_and_live.value == tally.both / 4_000
        assert "over 1 spawned-stream shards" in small.detail

    def test_importance_identical_across_jobs(self):
        kwargs = dict(predicate="live", trials=12_000, seed=3)
        one = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=1, pool="serial", **kwargs
        )
        four = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=4, pool="thread", **kwargs
        )
        assert one == four
        assert one.shards > 1

    def test_importance_legacy_unchanged_when_jobs_unset(self):
        kwargs = dict(predicate="live", trials=12_000, seed=3)
        unset = importance_sample_violation(self.SPEC, self.FLEET, **kwargs)
        four = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=4, pool="thread", **kwargs
        )
        assert unset == four
        assert unset.shards == 3
        # A budget of at most one shard weights the draws of the seed's
        # first spawned child.
        from repro.analysis.config import FaultKind
        from repro.analysis.importance import _tilted_violation_weights

        small = dict(predicate="live", trials=4_000, seed=3)
        one_shard = importance_sample_violation(self.SPEC, self.FLEET, **small)
        assert one_shard.shards == 1
        assert one_shard == importance_sample_violation(
            self.SPEC, self.FLEET, jobs=4, pool="thread", **small
        )
        p = np.array(self.FLEET.failure_probabilities)
        tilt = np.array(one_shard.tilt)
        weights = _tilted_violation_weights(
            self.SPEC,
            "live",
            self.SPEC.is_live,
            tilt,
            np.log(np.maximum(p, 1e-300)) - np.log(tilt),
            np.log1p(-p) - np.log1p(-tilt),
            4_000,
            spawn_shard_generators(3, 1)[0],
            FaultKind.CRASH,
        )
        assert one_shard.violation.value == float(weights.sum()) / 4_000


def _mixed_scenarios() -> ScenarioSet:
    scenarios = []
    for n in (3, 5, 7):
        for p in (0.01, 0.05):
            scenarios.append(Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, p)))
            scenarios.append(
                Scenario(spec=PBFTSpec(n), fleet=uniform_fleet(n, p, byzantine_fraction=1.0))
            )
            scenarios.append(
                Scenario(
                    spec=RaftSpec(n),
                    fleet=uniform_fleet(n, p),
                    method="monte-carlo",
                    trials=20_000,
                    seed=n * 100 + 1,
                )
            )
    scenarios.append(
        Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="importance",
            trials=8_000,
            seed=77,
        )
    )
    return ScenarioSet.build(scenarios)


class TestEnginePolicy:
    def test_engine_result_identical_jobs1_vs_jobs4(self):
        scenarios = _mixed_scenarios()
        one = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="thread", jobs=1))
        four = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="thread", jobs=4))
        proc = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="process", jobs=4))
        assert one.values == four.values == proc.values

    def test_legacy_engine_result_byte_identical_when_policy_unset(self):
        scenarios = _mixed_scenarios()
        baseline = ReliabilityEngine().run(scenarios)
        serial = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy())
        thread = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=2)
        )
        assert baseline.values == serial.values == thread.values
        for s, t in zip(serial, thread):
            assert s.provenance.shards == t.provenance.shards

    def test_exact_values_unchanged_under_parallel_policy(self):
        scenarios = _mixed_scenarios()
        serial = ReliabilityEngine().run(scenarios)
        parallel = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=4)
        )
        for s, p in zip(serial, parallel):
            if p.provenance.estimator in ("counting", "exact"):
                assert s.value == p.value

    def test_provenance_records_shard_count(self):
        answer = ReliabilityEngine().run_query(
            Scenario(
                spec=RaftSpec(5),
                fleet=uniform_fleet(5, 0.05),
                method="monte-carlo",
                trials=30_000,
                seed=1,
            ),
            policy=ExecutionPolicy(mode="thread", jobs=2),
        )
        assert answer.provenance.shards == 8  # 30000 / 4096-trial shards
        assert "shards[8]" in answer.provenance.describe()

    def test_chunked_counting_sweep_waves_match_serial(self, monkeypatch):
        """A counting group split into many DP chunks, swept in thread
        waves, answers bit-for-bit like the serial sweep."""
        import repro.analysis.kernels as kernels
        import repro.engine.engine as engine_module

        n = 5
        # One fleet per chunk: seven unique fleets -> seven chunks, swept
        # in four waves of at most two under jobs=2.
        monkeypatch.setattr(engine_module, "_BATCH_CHUNK_FLOATS", (n + 1) ** 2)
        scenarios = [
            Scenario(spec=spec, fleet=uniform_fleet(n, p, byzantine_fraction=0.5))
            for p in (0.01, 0.02, 0.03, 0.05, 0.08, 0.13, 0.21)
            for spec in (RaftSpec(n), PBFTSpec(n))
        ]
        waves = []
        sharded = kernels.run_sharded

        def counting_run_sharded(worker, payloads, **kwargs):
            waves.append(len(payloads))
            return sharded(worker, payloads, **kwargs)

        monkeypatch.setattr(kernels, "run_sharded", counting_run_sharded)
        serial = ReliabilityEngine().run(scenarios)
        assert waves == []
        threaded = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy.from_jobs(2, mode="thread")
        )
        assert waves == [2, 2, 2, 1]
        assert threaded.values == serial.values
        assert [a.to_dict() for a in threaded] == [a.to_dict() for a in serial]
        for s, t in zip(serial, threaded):
            assert t.provenance.batched and t.provenance.batch_size == len(scenarios)
            assert (s.provenance.batched, s.provenance.batch_size) == (
                t.provenance.batched,
                t.provenance.batch_size,
            )

    def test_policy_and_legacy_cache_entries_do_not_collide(self):
        engine = ReliabilityEngine()
        scenario = Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="monte-carlo",
            trials=20_000,
            seed=4,
        )
        serial = engine.run_query(scenario)
        assert not serial.provenance.cache_hit
        # Serial and pooled policies with equal shard_trials give equal
        # values, so they share one memo entry ...
        thread = engine.run_query(
            scenario, policy=ExecutionPolicy(mode="thread", jobs=2)
        )
        assert thread.provenance.cache_hit
        assert thread.value == serial.value
        # ... while a different shard size is a different plan.
        resharded = engine.run_query(
            scenario, policy=ExecutionPolicy(mode="thread", jobs=2, shard_trials=5_000)
        )
        assert not resharded.provenance.cache_hit
        assert resharded.value != serial.value
        assert engine.run_query(
            scenario, policy=ExecutionPolicy(shard_trials=5_000)
        ).provenance.cache_hit

    def test_policy_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="serial", jobs=2)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="warp", jobs=2)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="thread", jobs=0)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="thread", jobs=2, shard_trials=0)

    def test_from_jobs(self):
        assert not ExecutionPolicy.from_jobs(None).parallel
        assert not ExecutionPolicy.from_jobs(0).parallel
        # An *explicit* --jobs 1 still builds a pool policy.
        one = ExecutionPolicy.from_jobs(1)
        assert one.parallel and one.jobs == 1
        policy = ExecutionPolicy.from_jobs(3)
        assert policy.mode == "process" and policy.jobs == 3
        negative = ExecutionPolicy.from_jobs(-1)
        assert negative.jobs >= 1 and negative.parallel

    def test_engine_default_policy_constructor(self):
        scenarios = _mixed_scenarios()
        engine = ReliabilityEngine(policy=ExecutionPolicy(mode="thread", jobs=4))
        baseline = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=1)
        )
        assert engine.run(scenarios).values == baseline.values

    def test_overrides_still_honored_under_process_policy(self):
        from repro.analysis.counting import counting_reliability

        calls = []

        def custom(scenario):
            calls.append(scenario.label)
            return counting_reliability(scenario.spec, scenario.fleet)

        engine = ReliabilityEngine(estimators={"monte-carlo": custom})
        scenarios = [
            Scenario(
                spec=RaftSpec(3),
                fleet=uniform_fleet(3, 0.01),
                method="monte-carlo",
                label=f"s{i}",
            )
            for i in range(3)
        ]
        answers = engine.run(scenarios, policy=ExecutionPolicy(mode="process", jobs=2))
        assert len(calls) == 3  # ran in-process, through the override
        reference = counting_reliability(RaftSpec(3), uniform_fleet(3, 0.01))
        assert all(value == reference for value in answers.values)

    def test_generator_seed_scenarios_run_deterministically_in_order(self):
        def build(policy):
            rng = np.random.default_rng(123)
            scenarios = [
                Scenario(
                    spec=RaftSpec(3),
                    fleet=uniform_fleet(3, 0.05),
                    method="monte-carlo",
                    trials=5_000,
                    seed=rng,
                    label=f"g{i}",
                )
                for i in range(3)
            ]
            return ReliabilityEngine().run(scenarios, policy=policy).values

        one = build(ExecutionPolicy(mode="thread", jobs=1))
        four = build(ExecutionPolicy(mode="thread", jobs=4))
        assert one == four

"""Tests for the harvest/batch subsystem (degradable workloads)."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import (
    BatchJob,
    CheckpointPolicy,
    HarvestScheduler,
    variable_capacity_series,
    young_daly_interval,
)
from repro.errors import ConfigurationError
from repro.traces import synthesize_solar
from repro.units import grid_days


def make_job(job_id=0, arrival=0, cores=4, work=40.0):
    return BatchJob(job_id, arrival, cores, work)


class TestJobValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchJob(0, -1, 4, 10.0)
        with pytest.raises(ConfigurationError):
            BatchJob(0, 0, 0, 10.0)
        with pytest.raises(ConfigurationError):
            BatchJob(0, 0, 4, 0.0)

    def test_remaining_work(self):
        job = make_job(work=40.0)
        job.progress_core_steps = 15.0
        assert job.remaining_core_steps == 25.0


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(interval_steps=0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(overhead_fraction=1.0)

    def test_young_daly_interval(self):
        # sqrt(2 * 0.1 * 80) = 4.
        assert young_daly_interval(80.0, 0.1) == 4

    def test_young_daly_monotone_in_mtbf(self):
        short = young_daly_interval(10.0, 0.1)
        long = young_daly_interval(1000.0, 0.1)
        assert long > short

    def test_young_daly_zero_overhead(self):
        assert young_daly_interval(100.0, 0.0) == 1

    def test_young_daly_validation(self):
        with pytest.raises(ConfigurationError):
            young_daly_interval(0.0, 0.1)


class TestVariableCapacity:
    def test_reservation_subtracted(self):
        grid = grid_days(datetime(2020, 6, 1), 1)
        trace = synthesize_solar(grid, seed=1)
        full = variable_capacity_series(trace, 1000, 0.0)
        reserved = variable_capacity_series(trace, 1000, 0.3)
        assert np.all(reserved <= full)
        assert np.all(reserved >= 0.0)

    def test_validation(self):
        grid = grid_days(datetime(2020, 6, 1), 1)
        trace = synthesize_solar(grid, seed=1)
        with pytest.raises(ConfigurationError):
            variable_capacity_series(trace, 0)
        with pytest.raises(ConfigurationError):
            variable_capacity_series(trace, 100, 1.5)


class TestSchedulerBasics:
    def test_single_job_completes(self):
        scheduler = HarvestScheduler(CheckpointPolicy(4, 0.0))
        job = make_job(work=40.0, cores=4)  # 10 steps at 4 cores
        result = scheduler.run([job], np.full(20, 4.0))
        assert job.is_done
        assert job.finish_step == 9
        assert job.progress_core_steps == 40.0
        assert result.goodput_fraction() == pytest.approx(1.0)

    def test_checkpoint_overhead_slows_completion(self):
        no_overhead = make_job(0, work=40.0)
        with_overhead = make_job(1, work=40.0)
        HarvestScheduler(CheckpointPolicy(4, 0.0)).run(
            [no_overhead], np.full(30, 4.0)
        )
        HarvestScheduler(CheckpointPolicy(4, 0.5)).run(
            [with_overhead], np.full(30, 4.0)
        )
        assert with_overhead.finish_step > no_overhead.finish_step
        assert with_overhead.checkpoint_core_steps > 0

    def test_gang_scheduling_all_or_nothing(self):
        scheduler = HarvestScheduler()
        big = make_job(0, cores=8, work=8.0)
        result = scheduler.run([big], np.full(5, 4.0))
        assert not big.is_done
        assert result.used_cores.sum() == 0.0

    def test_smaller_job_overtakes_blocked_head(self):
        scheduler = HarvestScheduler(CheckpointPolicy(4, 0.0))
        big = make_job(0, cores=8, work=8.0)
        small = make_job(1, cores=2, work=4.0)
        scheduler.run([big, small], np.full(10, 4.0))
        assert small.is_done
        assert not big.is_done

    def test_fifo_admission(self):
        scheduler = HarvestScheduler(CheckpointPolicy(4, 0.0))
        first = make_job(0, cores=4, work=8.0)
        second = make_job(1, cores=4, work=8.0)
        scheduler.run([first, second], np.full(10, 4.0))
        assert first.finish_step < second.finish_step

    def test_duplicate_ids_rejected(self):
        scheduler = HarvestScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.run([make_job(0), make_job(0)], np.full(5, 4.0))

    def test_bad_capacity_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            HarvestScheduler().run([make_job()], np.zeros((2, 2)))


class TestPreemptionAndRollback:
    def test_preemption_rolls_back_to_checkpoint(self):
        # Checkpoint every 4 steps; capacity vanishes after 6 steps.
        policy = CheckpointPolicy(interval_steps=4, overhead_fraction=0.0)
        scheduler = HarvestScheduler(policy)
        job = make_job(cores=4, work=400.0)
        capacity = np.concatenate([np.full(6, 4.0), np.zeros(4)])
        scheduler.run([job], capacity)
        # 6 steps run: checkpoint at step index 3 (4 steps), then 2
        # uncommitted steps lost on preemption.
        assert job.preemptions == 1
        assert job.progress_core_steps == pytest.approx(16.0)
        assert job.lost_core_steps == pytest.approx(8.0)

    def test_no_checkpoint_loses_everything(self):
        policy = CheckpointPolicy(interval_steps=100, overhead_fraction=0.0)
        scheduler = HarvestScheduler(policy)
        job = make_job(cores=4, work=400.0)
        capacity = np.concatenate([np.full(6, 4.0), np.zeros(4)])
        scheduler.run([job], capacity)
        assert job.progress_core_steps == 0.0
        assert job.lost_core_steps == pytest.approx(24.0)

    def test_lifo_preemption_spares_oldest(self):
        policy = CheckpointPolicy(interval_steps=2, overhead_fraction=0.0)
        scheduler = HarvestScheduler(policy)
        old = make_job(0, cores=4, work=100.0)
        young = make_job(1, arrival=2, cores=4, work=100.0)
        capacity = np.concatenate([np.full(6, 8.0), np.full(4, 4.0)])
        scheduler.run([old, young], capacity)
        assert young.preemptions >= 1
        assert old.preemptions == 0

    def test_preempted_job_resumes_and_finishes(self):
        policy = CheckpointPolicy(interval_steps=2, overhead_fraction=0.0)
        scheduler = HarvestScheduler(policy)
        job = make_job(cores=4, work=16.0)
        capacity = np.concatenate(
            [np.full(2, 4.0), np.zeros(3), np.full(10, 4.0)]
        )
        scheduler.run([job], capacity)
        assert job.is_done
        assert job.preemptions == 1

    def test_work_conservation(self):
        # progress + remaining == total work for every job, always.
        policy = CheckpointPolicy(interval_steps=3, overhead_fraction=0.2)
        scheduler = HarvestScheduler(policy)
        rng = np.random.default_rng(3)
        jobs = [
            make_job(i, arrival=int(rng.integers(0, 20)),
                     cores=int(rng.integers(1, 8)),
                     work=float(rng.integers(8, 60)))
            for i in range(20)
        ]
        capacity = rng.integers(0, 24, size=200).astype(float)
        scheduler.run(jobs, capacity)
        for job in jobs:
            assert job.progress_core_steps <= job.work_core_steps + 1e-9
            assert job.committed_core_steps <= (
                job.progress_core_steps + 1e-9
            )
            assert job.lost_core_steps >= 0.0

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_capacity_never_exceeded(self, max_capacity):
        policy = CheckpointPolicy(interval_steps=3, overhead_fraction=0.1)
        scheduler = HarvestScheduler(policy)
        rng = np.random.default_rng(max_capacity)
        jobs = [
            make_job(i, cores=int(rng.integers(1, 5)),
                     work=float(rng.integers(4, 30)))
            for i in range(8)
        ]
        capacity = rng.integers(0, max_capacity + 1, size=60).astype(float)
        result = scheduler.run(jobs, capacity)
        assert np.all(result.used_cores <= capacity + 1e-9)


class TestResultMetrics:
    def _solar_run(self, interval):
        grid = grid_days(datetime(2020, 6, 1), 7)
        trace = synthesize_solar(grid, seed=5)
        capacity = variable_capacity_series(trace, 400, 0.1)
        rng = np.random.default_rng(9)
        jobs = [
            make_job(i, arrival=int(rng.integers(0, 96)),
                     cores=int(rng.integers(2, 16)),
                     work=float(rng.integers(50, 400)))
            for i in range(40)
        ]
        policy = CheckpointPolicy(interval, 0.1)
        return HarvestScheduler(policy).run(jobs, capacity)

    def test_solar_harvest_progresses(self):
        result = self._solar_run(8)
        assert result.useful_core_steps > 0
        assert result.total_preemptions > 0  # nights preempt everything
        assert 0.0 < result.goodput_fraction() <= 1.0
        assert 0.0 < result.harvest_utilization() <= 1.0

    def test_checkpoint_interval_tradeoff(self):
        # Very rare checkpoints lose more work than moderate ones on a
        # diurnal (nightly-preempting) supply.
        moderate = self._solar_run(8)
        rare = self._solar_run(500)
        assert rare.lost_core_steps > moderate.lost_core_steps

    def test_mean_completion_nan_when_nothing_finishes(self):
        result = HarvestScheduler().run(
            [make_job(work=1000.0)], np.zeros(5)
        )
        assert np.isnan(result.mean_completion_steps())

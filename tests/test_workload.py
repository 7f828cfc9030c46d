"""Tests for the workload subpackage."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.units import TimeGrid, grid_days
from repro.workload import (
    Application,
    AzureWorkloadConfig,
    VMClass,
    VMRequest,
    VMType,
    arrival_rate_for_utilization,
    default_vm_catalog,
    generate_applications,
    generate_vm_requests,
    workload_matched_to_power,
)


def reference_vm_requests(grid, config, rng, warm_start):
    """The per-VM ``rng.choice`` generator the catalog sampler replaced,
    kept as the stream reference (ids are list positions, as there)."""
    step_hours = grid.step_hours
    base_rate = arrival_rate_for_utilization(config, step_hours)
    hour_of_day = grid.hour_of_day()
    modulation = 1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * (hour_of_day - 9.0) / 24.0
    )
    rates = base_rate * modulation
    types = [t for t, _ in config.catalog]
    probabilities = np.array([p for _, p in config.catalog])
    sigma = config.lifetime_sigma
    mu = np.log(config.mean_lifetime_hours) - sigma**2 / 2.0
    requests = []

    def draw_vm(arrival, lifetime_steps):
        vm_type = types[rng.choice(len(types), p=probabilities)]
        vm_class = (
            VMClass.STABLE
            if rng.random() < config.stable_fraction
            else VMClass.DEGRADABLE
        )
        return VMRequest(
            len(requests), arrival, lifetime_steps, vm_type, vm_class
        )

    if warm_start and grid.n > 0:
        mean_lifetime_steps = config.mean_lifetime_hours / step_hours
        n_initial = rng.poisson(base_rate * mean_lifetime_steps)
        for _ in range(n_initial):
            lifetime_hours = rng.lognormal(mu + sigma**2, sigma)
            lifetime_steps = max(1, int(round(lifetime_hours / step_hours)))
            residual = max(1, int(np.ceil(lifetime_steps * rng.random())))
            requests.append(draw_vm(0, residual))
    for step in range(grid.n):
        for _ in range(rng.poisson(rates[step])):
            lifetime_hours = rng.lognormal(mu, sigma)
            lifetime_steps = max(1, int(round(lifetime_hours / step_hours)))
            requests.append(draw_vm(step, lifetime_steps))
    return requests


def reference_applications(grid, count, rng, mean_vm_count=24.0,
                           mean_duration_days=3.0, stable_fraction=0.5,
                           arrival_window_fraction=0.5):
    """The per-application ``rng.choice`` generator body the catalog
    sampler replaced, kept as the stream reference."""
    catalog = default_vm_catalog()
    types = [t for t, _ in catalog]
    probabilities = np.array([p for _, p in catalog])
    per_day = grid.steps_per_day()
    arrival_limit = max(1, int(grid.n * arrival_window_fraction))
    applications = []
    for app_id in range(count):
        arrival = int(rng.integers(0, arrival_limit))
        duration = max(
            1,
            min(
                grid.n - arrival,
                int(round(rng.exponential(mean_duration_days) * per_day)),
            ),
        )
        vm_count = 1 + rng.geometric(1.0 / mean_vm_count)
        vm_type = types[rng.choice(len(types), p=probabilities)]
        applications.append(
            Application(
                app_id, arrival, duration, int(vm_count), vm_type,
                stable_fraction,
            )
        )
    applications.sort(key=lambda a: (a.arrival_step, a.app_id))
    return applications


def request_fields(requests):
    return [
        (r.vm_id, r.arrival_step, r.lifetime_steps, r.vm_type, r.vm_class)
        for r in requests
    ]


STREAM_GRIDS = {
    "4-day-15min": grid_days(datetime(2020, 5, 1), 4),
    "hourly-week": TimeGrid(datetime(2020, 5, 3), timedelta(hours=1), 168),
}


class TestVMTypes:
    def test_catalog_probabilities_sum_to_one(self):
        assert sum(p for _, p in default_vm_catalog()) == pytest.approx(1.0)

    def test_catalog_skewed_small(self):
        small = sum(p for t, p in default_vm_catalog() if t.cores <= 2)
        assert small > 0.6

    def test_vm_type_validation(self):
        with pytest.raises(ConfigurationError):
            VMType("bad", 0, 4.0)
        with pytest.raises(ConfigurationError):
            VMType("bad", 2, 0.0)

    def test_memory_bytes_binary(self):
        assert VMType("D4", 4, 16.0).memory_bytes == 16 * 2**30

    def test_request_validation(self):
        vm_type = VMType("B1", 1, 4.0)
        with pytest.raises(ConfigurationError):
            VMRequest(0, -1, 10, vm_type, VMClass.STABLE)
        with pytest.raises(ConfigurationError):
            VMRequest(0, 0, 0, vm_type, VMClass.STABLE)

    def test_request_accessors(self):
        vm_type = VMType("D8", 8, 32.0)
        request = VMRequest(7, 5, 10, vm_type, VMClass.DEGRADABLE)
        assert request.cores == 8
        assert request.memory_bytes == 32 * 2**30
        assert request.departure_step == 15


class TestAzureWorkload:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(target_utilization=0.0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(total_cores=0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(mean_lifetime_hours=0.0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(stable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(diurnal_amplitude=1.0)

    def test_bad_catalog_rejected(self):
        b1, b2 = VMType("B1", 1, 4.0), VMType("B2", 2, 8.0)
        for bad in (
            ((b1, 0.5),),
            # Sums to 1, but a negative weight is no probability.
            ((b1, -0.5), (b2, 1.5)),
            ((b1, float("nan")), (b2, 1.0)),
            ((b1, float("inf")), (b2, 1.0)),
        ):
            with pytest.raises(ConfigurationError):
                AzureWorkloadConfig(catalog=bad)

    def test_arrival_rate_littles_law(self):
        config = AzureWorkloadConfig(
            target_utilization=0.7, total_cores=28000,
            mean_lifetime_hours=24.0,
        )
        rate = arrival_rate_for_utilization(config, step_hours=0.25)
        # rate * lifetime_steps * mean_cores == target cores.
        occupied = rate * (24.0 / 0.25) * config.mean_cores_per_vm
        assert occupied == pytest.approx(0.7 * 28000)

    def test_arrival_rate_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            arrival_rate_for_utilization(AzureWorkloadConfig(), 0.0)

    def test_generate_deterministic(self, week_grid):
        a = generate_vm_requests(week_grid, seed=5)
        b = generate_vm_requests(week_grid, seed=5)
        assert len(a) == len(b)
        assert all(
            x.vm_id == y.vm_id and x.arrival_step == y.arrival_step
            for x, y in zip(a, b)
        )

    def test_generate_sorted_and_dense_ids(self, week_grid):
        requests = generate_vm_requests(week_grid, seed=5)
        steps = [r.arrival_step for r in requests]
        assert steps == sorted(steps)
        assert [r.vm_id for r in requests] == list(range(len(requests)))

    def test_generate_arrivals_within_grid(self, week_grid):
        requests = generate_vm_requests(week_grid, seed=5)
        assert all(0 <= r.arrival_step < week_grid.n for r in requests)

    def test_warm_start_populates_step_zero(self, week_grid):
        warm = generate_vm_requests(week_grid, seed=5, warm_start=True)
        cold = generate_vm_requests(week_grid, seed=5, warm_start=False)
        warm_zero = sum(1 for r in warm if r.arrival_step == 0)
        cold_zero = sum(1 for r in cold if r.arrival_step == 0)
        assert warm_zero > cold_zero + 100

    def test_steady_state_utilization_near_target(self):
        # Run Little's law forward: count core-steps demanded.
        grid = grid_days(datetime(2020, 5, 1), 14)
        config = AzureWorkloadConfig(
            target_utilization=0.5, total_cores=10000,
            diurnal_amplitude=0.0,
        )
        requests = generate_vm_requests(grid, config, seed=9)
        occupancy = np.zeros(grid.n)
        for request in requests:
            end = min(grid.n, request.departure_step)
            occupancy[request.arrival_step : end] += request.cores
        # Skip the first 2 days of residual warm-up noise.
        mean_util = occupancy[192:].mean() / config.total_cores
        assert mean_util == pytest.approx(0.5, rel=0.15)

    def test_stable_fraction_respected(self, week_grid):
        config = AzureWorkloadConfig(stable_fraction=0.8)
        requests = generate_vm_requests(week_grid, config, seed=5)
        stable = sum(1 for r in requests if r.vm_class is VMClass.STABLE)
        assert stable / len(requests) == pytest.approx(0.8, abs=0.05)

    def test_matched_workload_scales_demand(self):
        matched = workload_matched_to_power(0.3, 28000, 0.7)
        assert matched.target_utilization == pytest.approx(0.21)
        assert matched.total_cores == 28000

    def test_matched_workload_validation(self):
        with pytest.raises(ConfigurationError):
            workload_matched_to_power(0.0, 28000)

    @pytest.mark.parametrize("grid_name", sorted(STREAM_GRIDS))
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_stream_matches_choice_reference(self, grid_name, warm_start):
        """The inverse-CDF catalog sampler draws the requests and leaves
        the caller's generator exactly where the per-VM ``rng.choice``
        loop did, a zero-probability type included."""
        grid = STREAM_GRIDS[grid_name]
        b1, b2, d4, d8 = (t for t, _ in default_vm_catalog()[:4])
        catalogs = (
            tuple(default_vm_catalog()),
            ((b1, 0.4), (b2, 0.0), (d4, 0.35), (d8, 0.25)),
        )
        for catalog in catalogs:
            config = AzureWorkloadConfig(total_cores=2800, catalog=catalog)
            for seed in range(3):
                fast_rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                fast = generate_vm_requests(
                    grid, config, rng=fast_rng, warm_start=warm_start
                )
                reference = reference_vm_requests(
                    grid, config, ref_rng, warm_start
                )
                assert len(fast) > 100
                assert request_fields(fast) == request_fields(reference)
                assert (
                    fast_rng.bit_generator.state
                    == ref_rng.bit_generator.state
                )
                drawn = {r.vm_type for r in fast}
                assert (b2 in drawn) == (catalog is catalogs[0])

    def test_lifetimes_heavy_tailed(self, month_grid):
        requests = generate_vm_requests(month_grid, seed=5)
        lifetimes = np.array([r.lifetime_steps for r in requests])
        # Median well below mean is the log-normal signature.
        assert np.median(lifetimes) < 0.6 * lifetimes.mean()


class TestApplications:
    def test_application_validation(self):
        vm_type = VMType("B2", 2, 8.0)
        with pytest.raises(ConfigurationError):
            Application(0, -1, 10, 5, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 0, 5, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 10, 0, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 10, 5, vm_type, stable_fraction=2.0)

    def test_application_core_accounting(self):
        app = Application(0, 0, 10, 10, VMType("B2", 2, 8.0), 0.5)
        assert app.total_cores == 20
        assert app.stable_cores == 10
        assert app.degradable_cores == 10
        assert app.stable_cores + app.degradable_cores == app.total_cores

    def test_application_memory_and_end(self):
        app = Application(0, 4, 6, 3, VMType("B1", 1, 4.0))
        assert app.total_memory_bytes == 3 * 4 * 2**30
        assert app.end_step == 10

    def test_generate_applications_deterministic(self, week_grid):
        a = generate_applications(week_grid, 50, seed=3)
        b = generate_applications(week_grid, 50, seed=3)
        assert [x.app_id for x in a] == [y.app_id for y in b]
        assert [x.vm_count for x in a] == [y.vm_count for y in b]

    def test_generate_applications_bounds(self, week_grid):
        apps = generate_applications(week_grid, 100, seed=3)
        assert len(apps) == 100
        for app in apps:
            assert 0 <= app.arrival_step < week_grid.n
            assert app.end_step <= week_grid.n
            assert app.vm_count >= 1

    @pytest.mark.parametrize("grid_name", sorted(STREAM_GRIDS))
    def test_applications_stream_matches_choice_reference(self, grid_name):
        """Same applications and trailing generator state as the
        per-application ``rng.choice`` loop."""
        grid = STREAM_GRIDS[grid_name]
        for seed in range(3):
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            fast = generate_applications(grid, 200, rng=fast_rng)
            reference = reference_applications(grid, 200, ref_rng)
            assert fast == reference
            assert (
                fast_rng.bit_generator.state == ref_rng.bit_generator.state
            )

    def test_generate_applications_validation(self, week_grid):
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, -1)
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, 5, mean_vm_count=0.5)
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, 5, arrival_window_fraction=0.0)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_generate_applications_count(self, n):
        grid = grid_days(datetime(2020, 5, 1), 7)
        assert len(generate_applications(grid, n, seed=1)) == n

"""Tests for the multisite subpackage: latency, graph, variability,
grid purchase, and economics."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.multisite import (
    EconomicModel,
    GridPurchase,
    SiteGraph,
    VBSite,
    build_vb_sites,
    combination_report,
    cov_improvement,
    latency_matrix_ms,
    latency_ms,
    pairwise_cov_improvements,
    stabilize_with_purchase,
    stable_energy_split,
    windowed_stable_energy,
)
from repro.traces import (
    PowerTrace,
    SpotPriceTrace,
    default_european_catalog,
    synthesize_catalog_traces,
)
from repro.units import TimeGrid, grid_days

START = datetime(2020, 5, 1)


@pytest.fixture(scope="module")
def catalog():
    return default_european_catalog()


@pytest.fixture(scope="module")
def month_traces(catalog):
    grid = grid_days(START, 30)
    return synthesize_catalog_traces(catalog, grid, seed=17)


def flat_trace(values, name="t", capacity=400.0):
    grid = TimeGrid(START, timedelta(minutes=15), len(values))
    return PowerTrace(grid, np.array(values, float), name, "wind", capacity)


class TestLatency:
    def test_zero_distance_is_overhead_only(self, catalog):
        site = catalog["UK-wind"]
        assert latency_ms(site, site) == pytest.approx(4.0)

    def test_latency_scales_with_distance(self, catalog):
        near = latency_ms(catalog["UK-wind"], catalog["NL-wind"])
        far = latency_ms(catalog["UK-wind"], catalog["RO-wind"])
        assert near < far

    def test_matrix_symmetric(self, catalog):
        matrix = latency_matrix_ms(catalog)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_validation(self, catalog):
        a, b = catalog["UK-wind"], catalog["NL-wind"]
        with pytest.raises(ConfigurationError):
            latency_ms(a, b, inflation=0.5)
        with pytest.raises(ConfigurationError):
            latency_ms(a, b, overhead_ms=-1.0)

    def test_continental_scale_plausible(self, catalog):
        # London-ish to Bucharest-ish should exceed the 50 ms threshold
        # comfortably under the default model? It is ~2000 km -> RTT
        # ~2*2000*1.5/200 + 4 = 34 ms. Within threshold, actually.
        rtt = latency_ms(catalog["UK-wind"], catalog["RO-wind"])
        assert 20.0 < rtt < 60.0


class TestVBSite:
    def test_build_sites(self, catalog, month_traces):
        sites = build_vb_sites(catalog, month_traces)
        assert len(sites) == len(catalog)
        assert sites[0].total_cores == ClusterSpec().total_cores

    def test_trace_name_mismatch_rejected(self, catalog, month_traces):
        with pytest.raises(ConfigurationError):
            VBSite(
                catalog["UK-wind"],
                month_traces["PT-wind"],
                ClusterSpec(),
            )

    def test_missing_trace_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            build_vb_sites(catalog, {})

    def test_core_budget_series(self, catalog, month_traces):
        sites = build_vb_sites(catalog, month_traces)
        site = sites[0]
        budgets = site.core_budget_series()
        assert len(budgets) == len(site.trace)
        assert all(0 <= b <= site.total_cores for b in budgets)


class TestSiteGraph:
    def test_edges_respect_threshold(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces, 50.0)
        for a, b, data in graph.graph.edges(data=True):
            assert data["latency_ms"] <= 50.0

    def test_tighter_threshold_fewer_edges(self, catalog, month_traces):
        loose = SiteGraph(catalog, month_traces, 50.0)
        tight = SiteGraph(catalog, month_traces, 15.0)
        assert (
            tight.graph.number_of_edges() < loose.graph.number_of_edges()
        )

    def test_k1_cliques_are_nodes(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        assert len(graph.k_cliques(1)) == len(catalog)

    def test_k2_cliques_are_edges(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        assert len(graph.k_cliques(2)) == graph.graph.number_of_edges()

    def test_k3_cliques_fully_connected(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        for clique in graph.k_cliques(3)[:50]:
            for a in clique:
                for b in clique:
                    if a != b:
                        assert graph.graph.has_edge(a, b)

    def test_candidates_sorted_by_cov(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        candidates = graph.candidates(2)
        covs = [c.cov for c in candidates]
        assert covs == sorted(covs)

    def test_candidates_limit(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        assert len(graph.candidates(2, limit=5)) == 5

    def test_candidates_up_to(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        candidates = graph.candidates_up_to(3, per_k_limit=4)
        ks = {c.k for c in candidates}
        assert ks == {2, 3}

    def test_validation(self, catalog, month_traces):
        with pytest.raises(ConfigurationError):
            SiteGraph(catalog, month_traces, 0.0)
        with pytest.raises(ConfigurationError):
            SiteGraph(catalog, {}, 50.0)
        graph = SiteGraph(catalog, month_traces)
        with pytest.raises(ConfigurationError):
            graph.k_cliques(0)
        with pytest.raises(ConfigurationError):
            graph.candidates(2, limit=-1)
        with pytest.raises(ConfigurationError):
            graph.candidates_up_to(1)
        with pytest.raises(ConfigurationError):
            graph.aggregate_trace([])

    def test_group_max_latency(self, catalog, month_traces):
        graph = SiteGraph(catalog, month_traces)
        assert graph.group_max_latency(["UK-wind"]) == 0.0
        pair = graph.group_max_latency(["UK-wind", "NL-wind"])
        assert pair == pytest.approx(
            graph.latency_between("UK-wind", "NL-wind")
        )


class TestStableEnergy:
    def test_constant_trace_fully_stable(self):
        trace = flat_trace([0.5] * 96 * 3)
        stable, variable = windowed_stable_energy(trace, 3.0)
        assert variable == pytest.approx(0.0, abs=1e-9)
        assert stable == pytest.approx(trace.energy_mwh())

    def test_single_zero_kills_window_stability(self):
        values = [0.5] * (96 * 3)
        values[100] = 0.0
        trace = flat_trace(values)
        stable, variable = windowed_stable_energy(trace, 3.0)
        assert stable == 0.0
        assert variable == pytest.approx(trace.energy_mwh())

    def test_windows_are_independent(self):
        # First 1-day window flat 0.5, second flat 0.2.
        values = [0.5] * 96 + [0.2] * 96
        trace = flat_trace(values)
        stable, variable = windowed_stable_energy(trace, 1.0)
        assert stable == pytest.approx(trace.energy_mwh())
        assert variable == pytest.approx(0.0, abs=1e-9)

    def test_partial_trailing_window(self):
        values = [0.4] * (96 + 48)
        trace = flat_trace(values)
        stable, variable = windowed_stable_energy(trace, 1.0)
        assert stable == pytest.approx(trace.energy_mwh())

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            windowed_stable_energy(flat_trace([0.5] * 96), 0.0)

    def test_split_report_consistency(self, month_traces):
        report = stable_energy_split(
            month_traces, ["UK-wind", "PT-wind"], 3.0
        )
        assert report.stable_energy_mwh + report.variable_energy_mwh == (
            pytest.approx(report.total_energy_mwh)
        )
        assert 0.0 <= report.stable_fraction <= 1.0

    def test_empty_combination_rejected(self, month_traces):
        with pytest.raises(ConfigurationError):
            stable_energy_split(month_traces, [])

    def test_combination_report_covers_all_subsets(self, month_traces):
        trio = ["NO-solar", "UK-wind", "PT-wind"]
        reports = combination_report(month_traces, trio)
        assert len(reports) == 7  # 2^3 - 1

    def test_aggregation_raises_stable_fraction(self, month_traces):
        # The paper's core claim: combining complementary sites yields a
        # larger stable share than the same sites alone (on average).
        trio = ["NO-solar", "UK-wind", "PT-wind"]
        singles = [
            stable_energy_split(month_traces, [name]).stable_fraction
            for name in trio
        ]
        combined = stable_energy_split(month_traces, trio).stable_fraction
        assert combined >= np.mean(singles)

    def test_solar_alone_nearly_all_variable(self, month_traces):
        report = stable_energy_split(month_traces, ["NO-solar"])
        # Nights zero the 3-day minimum: ~100% variable (paper Fig 3b).
        assert report.stable_fraction < 0.02


class TestCovTools:
    def test_cov_improvement_definition(self, month_traces):
        improvement = cov_improvement(
            month_traces, ["NO-solar"], "UK-wind"
        )
        base = stable_energy_split(month_traces, ["NO-solar"]).cov
        combo = stable_energy_split(
            month_traces, ["NO-solar", "UK-wind"]
        ).cov
        assert improvement == pytest.approx(base / combo)

    def test_adding_site_improves_solar_cov(self, month_traces):
        assert cov_improvement(month_traces, ["NO-solar"], "UK-wind") > 1.0

    def test_pairwise_improvements_complete(self, month_traces):
        trio = {
            name: month_traces[name]
            for name in ("NO-solar", "UK-wind", "PT-wind")
        }
        improvements = pairwise_cov_improvements(trio)
        assert len(improvements) == 3
        assert all(v > 0 for v in improvements.values())


class TestGridPurchase:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridPurchase(-1.0)
        with pytest.raises(ConfigurationError):
            GridPurchase(10.0, window_days=0.0)

    def test_zero_budget_changes_nothing(self):
        trace = flat_trace([0.5, 0.1] * 144)
        outcome = stabilize_with_purchase(trace, GridPurchase(0.0))
        assert outcome.purchased_mwh == 0.0
        assert outcome.new_stable_mwh == 0.0

    def test_budget_respected(self, month_traces):
        trace = month_traces["UK-wind"]
        outcome = stabilize_with_purchase(trace, GridPurchase(1000.0))
        assert outcome.purchased_mwh <= 1000.0 + 1e-6

    def test_gain_decomposition(self, month_traces):
        trace = month_traces["UK-wind"]
        outcome = stabilize_with_purchase(trace, GridPurchase(2000.0))
        assert outcome.new_stable_mwh == pytest.approx(
            outcome.purchased_mwh + outcome.stabilized_variable_mwh
        )

    def test_leverage_exceeds_one(self, month_traces):
        # Buying the dips always converts at least the purchased energy,
        # plus the variable energy above the old floor.
        trace = month_traces["UK-wind"]
        outcome = stabilize_with_purchase(trace, GridPurchase(2000.0))
        assert outcome.leverage >= 1.0

    def test_huge_budget_flattens(self):
        trace = flat_trace([0.1, 0.9] * 144)
        outcome = stabilize_with_purchase(trace, GridPurchase(1e9))
        # Floor rises to the max: everything stable, fill fully bought.
        max_mw = trace.power_mw().max()
        expected_gain = (
            max_mw * len(trace) * trace.grid.step_hours
            - trace.stable_energy_mwh()
        )
        assert outcome.new_stable_mwh == pytest.approx(
            expected_gain, rel=1e-6
        )

    def test_monotone_in_budget(self, month_traces):
        trace = month_traces["PT-wind"]
        small = stabilize_with_purchase(trace, GridPurchase(500.0))
        large = stabilize_with_purchase(trace, GridPurchase(5000.0))
        assert large.new_stable_mwh >= small.new_stable_mwh


class TestEconomics:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EconomicModel(power_cost_fraction=1.5)
        with pytest.raises(ConfigurationError):
            EconomicModel(energy_price_per_mwh=-1)

    def test_headline_savings(self):
        # Paper §2.1: 20% x 50% = 10% of operating cost.
        assert EconomicModel().savings_fraction() == pytest.approx(0.10)

    def test_vb_cheaper_than_grid(self):
        model = EconomicModel()
        grid = model.grid_fed(100.0)
        vb = model.virtual_battery(100.0)
        assert vb.total_cost == pytest.approx(90.0)
        assert vb.total_cost < grid.total_cost
        assert vb.transmission_cost == 0.0

    def test_curtailment_credit(self, month_traces):
        model = EconomicModel()
        vb = model.virtual_battery(100.0, month_traces["UK-wind"])
        assert vb.curtailment_value > 0
        assert vb.effective_cost < vb.total_cost

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            EconomicModel().grid_fed(-1.0)


class TestCarbonModel:
    def test_validation(self):
        from repro.multisite import CarbonModel

        with pytest.raises(ConfigurationError):
            CarbonModel(grid_intensity_kg_per_mwh=-1)
        with pytest.raises(ConfigurationError):
            CarbonModel(renewable_intensity_kg_per_mwh=-1)
        with pytest.raises(ConfigurationError):
            CarbonModel(transmission_loss_fraction=1.0)

    def test_vb_far_cleaner_than_grid(self):
        from repro.multisite import CarbonModel

        model = CarbonModel()
        assert model.savings_fraction() > 0.9
        assert model.savings_kg(1000.0) > 0

    def test_losses_inflate_grid_emissions(self):
        from repro.multisite import CarbonModel

        lossless = CarbonModel(transmission_loss_fraction=0.0)
        lossy = CarbonModel(transmission_loss_fraction=0.10)
        assert lossy.grid_fed_emissions_kg(100.0) > (
            lossless.grid_fed_emissions_kg(100.0)
        )

    def test_negative_consumption_rejected(self):
        from repro.multisite import CarbonModel

        with pytest.raises(ConfigurationError):
            CarbonModel().grid_fed_emissions_kg(-1.0)
        with pytest.raises(ConfigurationError):
            CarbonModel().vb_emissions_kg(-1.0)


class TestMarketModel:
    def _wind(self):
        grid = grid_days(START, 14)
        from repro.traces import synthesize_wind

        return synthesize_wind(grid, seed=61)

    def test_validation(self):
        from repro.multisite import MarketModel

        with pytest.raises(ConfigurationError):
            MarketModel(base_price_per_mwh=-1)
        with pytest.raises(ConfigurationError):
            MarketModel(curtailment_threshold=0.0)
        with pytest.raises(ConfigurationError):
            MarketModel(compute_value_per_mwh=0.0)

    def test_price_anticorrelated_with_output(self):
        from repro.multisite import MarketModel

        trace = self._wind()
        model = MarketModel()
        prices = SpotPriceTrace.merit_order(
            trace,
            base_price_per_mwh=model.base_price_per_mwh,
            sensitivity_per_mwh=model.sensitivity_per_mwh,
            noise_std_per_mwh=model.noise_std_per_mwh,
            seed=5,
        ).values
        corr = np.corrcoef(prices, trace.values)[0, 1]
        assert corr < -0.5

    def test_negative_prices_occur_at_high_output(self):
        from repro.multisite import MarketModel

        trace = self._wind()
        model = MarketModel(sensitivity_per_mwh=90.0)
        prices = SpotPriceTrace.merit_order(
            trace,
            base_price_per_mwh=model.base_price_per_mwh,
            sensitivity_per_mwh=model.sensitivity_per_mwh,
            noise_std_per_mwh=model.noise_std_per_mwh,
            seed=5,
        ).values
        negative = prices < 0
        if negative.any():
            # Negative-price steps have above-average output.
            assert trace.values[negative].mean() > trace.values.mean()

    def test_curtailment_only_above_threshold(self):
        from repro.multisite import MarketModel

        trace = self._wind()
        model = MarketModel(curtailment_threshold=0.8)
        curtailed = model.curtailed_series_mwh(trace)
        assert np.all(curtailed[trace.values <= 0.8] == 0.0)
        assert np.all(curtailed >= 0.0)

    def test_compute_revenue_beats_export(self):
        from repro.multisite import compare_revenue

        trace = self._wind()
        comparison = compare_revenue(trace, seed=5)
        # §2.1: on-site compute monetizes curtailment and dodges the
        # depressed prices its own output causes.
        assert comparison.compute_revenue > comparison.export_revenue
        assert comparison.uplift > 1.0

    def test_deterministic_with_seed(self):
        from repro.multisite import compare_revenue

        trace = self._wind()
        a = compare_revenue(trace, seed=7)
        b = compare_revenue(trace, seed=7)
        assert a.export_revenue == b.export_revenue

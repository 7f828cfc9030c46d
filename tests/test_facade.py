"""Tests for the unified simulate() facade (repro.sim.facade).

Routing is by input shape; every route must hand back the underlying
engine's native result unchanged.
"""

from __future__ import annotations

import pytest

from tests.test_detailed_sim import make_app, two_site_setup
from tests.test_fleet import make_site, reference_run

from repro import simulate
from repro.cluster import Datacenter
from repro.errors import ConfigurationError
from repro.sched import Placement


class TestRouting:
    def test_datacenter_route(self):
        site = make_site(1, 600, 150)
        got = simulate(
            Datacenter(site.config, site.trace), site.requests
        )
        want = reference_run(site)
        assert got.summary_dict() == want.summary_dict()

    def test_datacenter_route_engine_passthrough(self):
        site = make_site(2, 400, 100)
        got = simulate(
            Datacenter(site.config, site.trace), site.requests,
            engine="soa",
        )
        assert got.summary_dict() == reference_run(site).summary_dict()

    def test_single_fleet_site_route(self):
        site = make_site(3, 600, 150)
        got = simulate(site)
        assert got.site_name == site.name
        assert got.summary_dict() == reference_run(site).summary_dict()

    def test_fleet_route(self):
        sites = [make_site(4, 500, 120), make_site(5, 500, 120)]
        results = simulate(sites)
        assert sorted(results) == sorted(s.name for s in sites)
        for site in sites:
            assert (
                results[site.name].summary_dict()
                == reference_run(site).summary_dict()
            )
        for target in (sites[0], sites):
            with pytest.raises(ConfigurationError):
                simulate(target, engine="warp")

    def test_placement_route(self):
        problem, traces = two_site_setup(
            [1.0] * 6, [1.0] * 6, [make_app()]
        )
        placement = Placement({0: {"a": 10, "b": 0}})
        got = simulate(problem, placement, traces)
        want = simulate(problem, placement, traces, engine="dense")
        assert got.summary_dict() == want.summary_dict()
        with pytest.raises(ConfigurationError):
            simulate(problem, placement)
        with pytest.raises(ConfigurationError):
            simulate(problem, "not a placement", traces)

    def test_unroutable_inputs(self):
        with pytest.raises(ConfigurationError):
            simulate("a string")
        with pytest.raises(ConfigurationError):
            simulate([1, 2, 3])
        with pytest.raises(ConfigurationError):
            simulate(make_site(6, 100, 10), "extra")
        with pytest.raises(ConfigurationError):
            simulate(Datacenter(
                make_site(7, 100, 10).config,
                make_site(7, 100, 10).trace,
            ))


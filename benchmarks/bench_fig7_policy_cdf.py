"""Figure 7: CDF of migration overhead across scheduling policies.

The paper's reading: MIP-peak achieves its low peak by performing
*more* migrations (74% zero-transfer steps vs 81% for greedy and 94%
for MIP), each at a lower volume — the CDF rises latest for MIP but
its tail is shortest for MIP-peak.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_cdf_points
from repro.sim import summarize_transfers

POLICY_ORDER = ("Greedy", "MIP-24h", "MIP", "MIP-peak")


def test_fig7_policy_cdf(benchmark, table1_results, report_writer):
    """Per-step transfer CDFs and zero fractions by policy."""

    def run():
        series = {}
        for name in POLICY_ORDER:
            _, execution, _ = table1_results[name]
            series[name] = execution.total_transfer_series() / 1e9
        return series

    series = benchmark(run)
    lines = ["Figure 7: per-step transfer CDF by policy (GB)"]
    zero_fraction = {}
    for name in POLICY_ORDER:
        values = series[name]
        zero_fraction[name] = float(np.mean(values <= 1e-12))
        lines.append(
            f"{name}: zero-steps {100 * zero_fraction[name]:.0f}%"
        )
        nonzero = values[values > 1e-12]
        if nonzero.size:
            lines.append(format_cdf_points(nonzero, unit="GB"))
    lines.append(
        "(paper zero fractions: greedy 81%, MIP 94%, MIP-peak 74%)"
    )
    report_writer("fig7_policy_cdf", "\n".join(lines))

    # Paper's headline reading of Fig 7: MIP-peak performs *more*
    # migrations than anyone (fewest zero steps), each at a *lower*
    # volume (smallest tail).  That ordering is robust here.
    assert zero_fraction["MIP-peak"] < zero_fraction["Greedy"]
    assert zero_fraction["MIP-peak"] < zero_fraction["MIP"]
    # Paper also shows MIP with the most zero steps (94% vs greedy's
    # 81%).  Our reactive execution makes MIP migrate about as *often*
    # as greedy (week-ahead forecast error puts some stable load into
    # dips) while moving far less per event — assert the volume side
    # and near-parity on frequency; EXPERIMENTS.md records the gap.
    assert zero_fraction["MIP"] > zero_fraction["Greedy"] - 0.10
    mip_median = float(np.median(series["MIP"][series["MIP"] > 1e-12]))
    greedy_median = float(
        np.median(series["Greedy"][series["Greedy"] > 1e-12])
    )
    assert mip_median < greedy_median
    # And MIP-peak's largest transfer is the smallest of all policies.
    peaks = {
        name: summarize_transfers(name, s * 1e9).peak_gb
        for name, s in series.items()
    }
    assert peaks["MIP-peak"] == min(peaks.values())

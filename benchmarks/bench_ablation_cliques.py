"""Ablation: clique size k and the latency threshold (§3.1 step 1).

The paper's trade-off: larger multi-VB groups flatten variability
further (lower aggregate cov) but admit higher intra-group latency and
more migration surface.  Sweeping k = 2..5 should show the best
candidate's cov falling monotonically while its worst-pair latency
grows; tightening the latency threshold should shrink the candidate
pool.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.multisite import SiteGraph


def test_ablation_clique_size(
    benchmark, catalog, quarter_traces, report_writer
):
    graph = SiteGraph(catalog, quarter_traces, latency_threshold_ms=50.0)

    def run():
        best = {}
        for k in range(2, 6):
            candidates = graph.candidates(k, limit=1)
            if candidates:
                best[k] = candidates[0]
        return best

    best = benchmark(run)
    rows = [
        [
            k,
            "+".join(candidate.names),
            f"{candidate.cov:.3f}",
            f"{candidate.max_latency_ms:.1f} ms",
        ]
        for k, candidate in best.items()
    ]
    table = format_table(
        ["k", "Best group", "Aggregate cov", "Worst-pair RTT"],
        rows,
        title="Ablation: clique size vs variability and latency",
    )
    report_writer("ablation_clique_size", table)

    ks = sorted(best)
    assert len(ks) >= 3, "graph too sparse for the sweep"
    covs = [best[k].cov for k in ks]
    # Larger groups are (weakly) steadier.
    assert all(b <= a + 1e-9 for a, b in zip(covs, covs[1:]))
    # All groups honour the latency threshold.
    assert all(best[k].max_latency_ms <= 50.0 for k in ks)


def test_ablation_latency_threshold(
    benchmark, catalog, quarter_traces, report_writer
):
    def run():
        counts = {}
        for threshold in (15.0, 30.0, 50.0):
            graph = SiteGraph(
                catalog, quarter_traces, latency_threshold_ms=threshold
            )
            counts[threshold] = {
                "edges": graph.graph.number_of_edges(),
                "k3": len(graph.k_cliques(3)),
            }
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{int(t)} ms", c["edges"], c["k3"]]
        for t, c in counts.items()
    ]
    table = format_table(
        ["Latency threshold", "Edges", "3-cliques"],
        rows,
        title="Ablation: latency threshold vs candidate pool size",
    )
    report_writer("ablation_latency_threshold", table)

    assert counts[15.0]["edges"] < counts[50.0]["edges"]
    assert counts[15.0]["k3"] <= counts[50.0]["k3"]

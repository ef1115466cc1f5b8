"""Benchmark reproducing Figure 2 (Tables F2a/F2b): per-edge update cost.

Each (method, k) cell times the method's sequential update kernel over
a prefix of the youtube-lite dynamic stream via pytest-benchmark. A
final collector test materialises the full sweep as
results/fig2_runtime.csv and prints the two tables, so running

    pytest benchmarks/bench_fig2_runtime.py --benchmark-only

regenerates the Fig 2 numbers recorded in EXPERIMENTS.md.
"""
import pathlib

import pytest

from repro.eval import METHODS, runtime

KS = [1, 10, 100, 1_000, 10_000, 100_000]
RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("method", METHODS)
def test_update_kernel(benchmark, method, k):
    """Per-edge sketch update; benchmark extra_info carries us/edge."""
    n_edges = runtime.edges_for(method, k)
    users, items, actions = runtime.stream_arrays("youtube", n_edges=n_edges)
    run = runtime.make_runner(method, k)
    benchmark.pedantic(run, args=(users, items, actions), rounds=3, iterations=1)
    benchmark.extra_info["us_per_edge"] = 1e6 * benchmark.stats["mean"] / n_edges
    benchmark.extra_info["n_edges"] = n_edges


def test_fig2_tables(benchmark, capsys):
    """Collector: run the sweep once, print Tables F2a/F2b, write CSV.

    Uses the benchmark fixture (1 round) so it runs under
    --benchmark-only like the kernels it aggregates.
    """
    table = benchmark.pedantic(
        runtime.runtime_sweep, kwargs=dict(ks=KS, dataset="youtube"),
        rounds=1, iterations=1,
    )
    RESULTS.mkdir(exist_ok=True)
    table.to_csv(RESULTS / "fig2_runtime.csv", index=False)
    wide = table.pivot(index="k", columns="method", values="us_per_edge")
    with capsys.disabled():
        print("\n\nTable F2a — per-edge update time (us) vs k [youtube]:")
        print(wide.round(2).to_string())
        print(f"\nTable F2b — per-edge update time (us) at k={max(KS)}:")
        print(wide.loc[max(KS)].round(2).to_string())
    # the paper's complexity shape must hold in the recorded numbers:
    # VOS/OPH flat in k, MinHash/RP growing ~linearly
    for flat in ("vos", "oph"):
        assert wide.loc[100_000, flat] < 10 * wide.loc[1, flat]
    for linear in ("minhash", "rp"):
        assert wide.loc[100_000, linear] > 20 * wide.loc[1, linear]
    assert wide.loc[100_000, "minhash"] > 10 * wide.loc[100_000, "vos"]
    assert wide.loc[100_000, "rp"] > 10 * wide.loc[100_000, "oph"]

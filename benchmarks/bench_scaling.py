"""Supplemental scaling study: state growth vs. network size.

Not a single paper figure, but the quantitative backbone of its Section IV-B
claim — "with growing network size, the performance gain of SDS grows as
the number of bystanders increases".  Sweeps grid sides 3..6 and records
states per algorithm; asserts the COW/SDS factor is monotone-ish in k.
"""


from repro.api import run_scenario
from repro.workloads import grid_scenario


def test_cow_over_sds_factor_grows_with_network_size(once, benchmark):
    sides = [3, 4, 5, 6]

    def sweep():
        factors = {}
        for side in sides:
            states = {}
            for algorithm in ("cow", "sds"):
                row = run_scenario(
                    grid_scenario(side, sim_seconds=6), algorithm
                )
                assert not row.aborted
                states[algorithm] = row.total_states
            factors[side * side] = states["cow"] / states["sds"]
        return factors

    factors = once(sweep)
    sizes = sorted(factors)
    assert factors[sizes[-1]] > factors[sizes[0]], factors
    for nodes, factor in factors.items():
        benchmark.extra_info[f"factor_{nodes}_nodes"] = round(factor, 2)


def test_sds_growth_is_subexponential_in_size(once, benchmark):
    """SDS state counts grow polynomially-ish with node count on the grid
    workload (the whole point of eliminating bystander duplication)."""

    def sweep():
        counts = {}
        for side in (3, 4, 5, 6):
            row = run_scenario(grid_scenario(side, sim_seconds=6), "sds")
            counts[side * side] = row.total_states
        return counts

    counts = once(sweep)
    sizes = sorted(counts)
    # Doubling the node count must not square the state count.
    small, large = counts[sizes[0]], counts[sizes[-1]]
    ratio_nodes = sizes[-1] / sizes[0]
    assert large / small < ratio_nodes ** 3
    for nodes, states in counts.items():
        benchmark.extra_info[f"sds_states_{nodes}_nodes"] = states

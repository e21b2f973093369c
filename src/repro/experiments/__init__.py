"""Experiment harness reproducing every figure of the paper's evaluation.

Each ``figure*`` function regenerates the data behind one figure of the
paper (the numbers, not the plot): the workload is generated with the same
recipe, the competing algorithms are run, and the averaged series the paper
plots is returned as a list of dictionaries.  The benchmarks under
``benchmarks/`` are produced from these functions.
"""

from repro.experiments.figures import (
    ExperimentConfig,
    active_placement_experiment,
    figure3_worked_example,
    figure6_traffic_skew,
    figure7_passive_pop10,
    figure8_passive_pop15,
    figure9_active_pop15,
    figure10_active_pop29,
    figure11_active_pop80,
    passive_placement_experiment,
    ppme_sampling_experiment,
    dynamic_controller_experiment,
)
from repro.experiments.reporting import format_table, rows_to_csv, summarize_ratio

__all__ = [
    "ExperimentConfig",
    "active_placement_experiment",
    "dynamic_controller_experiment",
    "figure10_active_pop29",
    "figure11_active_pop80",
    "figure3_worked_example",
    "figure6_traffic_skew",
    "figure7_passive_pop10",
    "figure8_passive_pop15",
    "figure9_active_pop15",
    "format_table",
    "passive_placement_experiment",
    "ppme_sampling_experiment",
    "rows_to_csv",
    "summarize_ratio",
]

"""Experiment harness: one module per figure of the paper's evaluation.

Every experiment can be run at paper scale (``scale=1.0``) or scaled down
(populations and underlay shrink together), prints its figure as an
aligned text table and returns the raw series.  Run from the command
line::

    python -m repro.experiments list
    python -m repro.experiments run fig04 --scale 0.1
    python -m repro.experiments all --scale 0.05

Results for shared sweeps (e.g. Figs 4/7/8/10 reuse the same churn runs)
are cached in-process, so ``all`` costs far less than the sum of its
parts.
"""

from .registry import REGISTRY, ExperimentResult, get_experiment, list_experiments

# Importing the figure modules registers them.
from . import (  # noqa: F401  (import-for-side-effect)
    ablations,
    campaigns,
    fig04_disruptions,
    fig05_cdf,
    fig06_member_disruptions,
    fig07_delay,
    fig08_stretch,
    fig09_member_delay,
    fig10_overhead,
    fig11_switch_interval,
    fig12_group_size,
    fig13_buffer,
    fig14_rost_cer,
    messages,
    multitree_ext,
    rescue_ext,
)

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
]

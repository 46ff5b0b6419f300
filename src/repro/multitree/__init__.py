"""Multiple-tree delivery: the paper's future-work extension.

The paper evaluates single-tree delivery and notes that its techniques
"can also be applied to the multiple-tree case" (Section 1).  This
subpackage implements that case, SplitStream-style: the stream is split
into K stripes, each distributed over its own ROST-maintained tree, and
every member is *interior-capable in exactly one tree* (its home tree)
while joining the others as a leaf — so one member's failure can
interrupt at most one stripe of any other member.  Losing one stripe of
K degrades quality by 1/K instead of blacking the stream out, which is
the multiple-description-coding resilience argument the paper cites.

* :mod:`repro.multitree.intervals` — outage-interval algebra (union,
  intersection, clipping);
* :mod:`repro.multitree.metrics` — cross-stripe blackout/quality
  aggregation and time-binned resilience series;
* :mod:`repro.multitree.faults` — correlated fault planning (one kill,
  all stripes);
* :mod:`repro.multitree.driver` — the K-tree orchestrator composing
  protocols, repair schemes and fault schedules per stripe.

The ``multitree_resilience`` scenario grid (K x protocol x fault
scenario) and its report are the K-tree family of
:mod:`repro.faults.campaign`.
"""

from .driver import MultiTreeResult, MultiTreeSimulation, home_tree
from .faults import FaultPlan, StripeFaultPlanner
from .intervals import clip_intervals, intersect_many, merge_intervals, total_length
from .metrics import MultiTreeResilienceMetrics, blackout_intervals

__all__ = [
    "FaultPlan",
    "MultiTreeResilienceMetrics",
    "MultiTreeResult",
    "MultiTreeSimulation",
    "StripeFaultPlanner",
    "blackout_intervals",
    "clip_intervals",
    "home_tree",
    "intersect_many",
    "merge_intervals",
    "total_length",
]

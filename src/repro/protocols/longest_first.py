"""The longest-first join algorithm (Section 2.1, from Sripanidkulchai et
al.).

A joining member attaches under the *oldest* known member with spare
capacity, exploiting the long-tailed lifetime distribution: old members
are likely to stay longer.  The paper notes (and Fig. 4/7 confirm) that
the resulting tree is tall, which ultimately hurts both reliability and
service delay.
"""

from __future__ import annotations

from ..overlay.node import OverlayNode
from .base import BY_JOIN_TIME, TreeProtocol


class LongestFirstProtocol(TreeProtocol):
    """Attach under the longest-lived candidate; no proactive maintenance."""

    name = "longest-first"
    centralized = False

    def place(self, node: OverlayNode, rejoin: bool) -> bool:
        candidates = self.sample_candidates(node, mature_view=rejoin)
        # Oldest = smallest join time; the root has join time 0 and in
        # the paper always has spare slots early on.  Ties break toward
        # network proximity, as in the join rule.
        parent = self.select_min_by(node, candidates, BY_JOIN_TIME)
        if parent is None:
            return False
        self.attach(node, parent)
        return True

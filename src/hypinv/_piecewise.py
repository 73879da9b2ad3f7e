"""``PiecewisePoly``, the result type of ``metgraph.green_diagonal``.

The one dataclass, as perfbench's checks call ``dataclasses.replace`` on a
``green_diagonal`` result.  ``green_diagonal`` imports it in its own body,
so that importing ``metgraph`` loads neither ``dataclasses`` nor the
``inspect`` module that it imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metgraph import _edge_point


@dataclass
class PiecewisePoly:
    """Per-edge quadratic in arc length from the edge's u-endpoint."""

    vertex_values: dict
    edge_coeffs: dict  # eid -> (c0, c1, c2)
    # eid -> L, to check offsets; the graph's data, not the function's
    edge_lengths: dict = field(default_factory=dict, compare=False)

    def evaluate(self, point):
        """The value at a vertex id or an (edge id, offset) pair; ValueError
        for a point off the function's edges and vertices."""
        if isinstance(point, tuple):
            eid, s = _edge_point(point)
            if eid not in self.edge_coeffs:
                raise ValueError(f"no edge {eid} in this function")
            # an edge whose length is not recorded bounds the offset below only
            if not 0 <= s <= self.edge_lengths.get(eid, s):
                raise ValueError(f"offset {s} outside edge {eid}")
            c0, c1, c2 = self.edge_coeffs[eid]
            return c0 + c1 * s + c2 * s * s
        point = str(point)  # as ``metgraph._norm_point`` reads a vertex id
        if point not in self.vertex_values:
            raise ValueError(f"unknown vertex: {point}")
        return self.vertex_values[point]

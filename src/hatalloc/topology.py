"""Interaction graph over autonomous and human agents.

The vertex set is the union of the two agent groups. Every stacked vector or
matrix in the package orders blocks canonically: sorted autonomous ids first,
then sorted human ids. Connectivity is a hard precondition for the constraint
decoupling, so it is checked at construction time, as is each edge: a pair
of agent ids (a list or tuple of two), whether it comes from a scenario file
or from code, else `TopologyError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedGraphError, TopologyError


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected connected graph partitioned into autonomous and human nodes.

    Ids are stored sorted; `edges` is a frozenset of sorted id pairs, so the
    adjacency is symmetric by representation and free of self loops.
    """

    autonomous_ids: tuple[str, ...]
    human_ids: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    # Computed once: each agent's neighbors split into (autonomous, human).
    _split: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        auto = tuple(sorted(self.autonomous_ids))
        hum = tuple(sorted(self.human_ids))
        object.__setattr__(self, "autonomous_ids", auto)
        object.__setattr__(self, "human_ids", hum)

        all_ids = set(auto) | set(hum)
        if len(all_ids) != len(auto) + len(hum):
            raise TopologyError("agent ids must be unique across both groups")
        if not all_ids:
            raise TopologyError("topology needs at least one agent")

        normalized = set()
        adjacency: dict[str, list[str]] = {i: [] for i in all_ids}
        for edge in self.edges:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
                raise TopologyError(f"edge {edge!r}: expected a pair of agent ids")
            a, b = edge
            if a == b:
                raise TopologyError(f"self loop on '{a}'")
            for endpoint in (a, b):
                if endpoint not in all_ids:
                    raise TopologyError(f"edge endpoint '{endpoint}' is not an agent")
            pair = (a, b) if a < b else (b, a)
            if pair not in normalized:
                normalized.add(pair)
                adjacency[a].append(b)
                adjacency[b].append(a)
        object.__setattr__(self, "edges", frozenset(normalized))
        for key in adjacency:
            adjacency[key].sort()
        autos = frozenset(auto)
        object.__setattr__(self, "_split", {
            node: (tuple(n for n in adj if n in autos),
                   tuple(n for n in adj if n not in autos))
            for node, adj in adjacency.items()
        })

        # Assumption: connected graph. BFS from an arbitrary vertex.
        start = next(iter(all_ids))
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if seen != all_ids:
            missing = sorted(all_ids - seen)
            raise DisconnectedGraphError(
                f"graph is not connected (unreachable: {missing})"
            )

    @property
    def node_order(self) -> tuple[str, ...]:
        """Canonical vertex order: autonomous ids then human ids."""
        return self.autonomous_ids + self.human_ids


def neighbors(topology: NetworkTopology, agent_id: str) -> tuple[list[str], list[str]]:
    """Neighbor set of `agent_id`, split into (autonomous, human), each sorted."""
    if agent_id not in topology._split:
        raise KeyError(f"unknown agent id '{agent_id}'")
    autos, humans = topology._split[agent_id]
    return list(autos), list(humans)


def laplacian(topology: NetworkTopology) -> np.ndarray:
    """Graph Laplacian D - A in canonical vertex order."""
    order = topology.node_order
    index = {node: i for i, node in enumerate(order)}
    n = len(order)
    lap = np.zeros((n, n))
    for a, b in topology.edges:
        i, j = index[a], index[b]
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def lift_entries(lap: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of the nonzeros of lap (x) I_r,
    read from the node Laplacian: one entry per edge end, per diagonal and
    per block row, never the dense lift."""
    ij = np.flatnonzero(lap != 0.0)
    i, j = np.divmod(ij, lap.shape[0])
    k = np.arange(r)
    return (
        (i[:, None] * r + k).ravel(),
        (j[:, None] * r + k).ravel(),
        np.repeat(lap.take(ij), r),
    )

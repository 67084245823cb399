"""Transportation network model: links with polynomial delays, OD demands,
and the link-path incidence machinery used by the solvers.

Delay functions are cubic polynomials d(x) = a0 + a1*x + a2*x^2 + a3*x^3
with non-negative coefficients and a1 > 0, so every valid delay is strictly
increasing and convex on [0, inf). Demand of each OD pair is split between a
selfish class (share 1 - alpha) and a coordinated fleet (share alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

# numpy is imported where arrays are built or read, so the data model and
# validate_network load without it
if TYPE_CHECKING:
    import numpy as np

PATH_CAP_DEFAULT = 10_000


class PathCountExceeded(RuntimeError):
    """Raised when path enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class DelayPoly:
    """Cubic link delay a0 + a1*x + a2*x^2 + a3*x^3 of the aggregate flow x."""

    coefficients: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) != 4:
            raise ValueError("delay must have 4 coefficients (a0, a1, a2, a3)")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class Link:
    """Directed road segment with its delay function."""

    id: str
    tail: str
    head: str
    delay: DelayPoly


@dataclass(frozen=True)
class OdSpec:
    """Origin-destination demand: total rate and the fleet share alpha."""

    origin: str
    destination: str
    demand_total: float
    fleet_share: float

    @property
    def demand_selfish(self) -> float:
        return (1.0 - self.fleet_share) * self.demand_total

    @property
    def demand_fleet(self) -> float:
        return self.fleet_share * self.demand_total

    def with_share(self, alpha: float) -> "OdSpec":
        return OdSpec(self.origin, self.destination, self.demand_total, alpha)


@dataclass(frozen=True)
class Network:
    """Directed graph with polynomial link delays and OD demands."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    od_pairs: tuple[OdSpec, ...]
    name: str = ""

    @property
    def n_links(self) -> int:
        return len(self.links)

    def total_demand(self) -> float:
        return float(sum(od.demand_total for od in self.od_pairs))

    def is_parallel(self) -> bool:
        """True when the network is a bundle of single-link origin-destination
        paths for one OD pair (links and paths coincide)."""
        if len(self.od_pairs) != 1:
            return False
        od = self.od_pairs[0]
        return all(
            link.tail == od.origin and link.head == od.destination
            for link in self.links
        )


@dataclass(frozen=True)
class IncidenceStructure:
    """All simple paths per OD pair plus the link-path incidence matrix.

    ``paths`` holds link-index sequences, grouped by OD pair and ordered
    lexicographically within each group. ``matrix`` is the L x P 0/1 matrix
    with entry (l, p) = 1 iff link l lies on path p.
    """

    paths: tuple[tuple[int, ...], ...]
    od_of_path: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        import numpy as np

        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_links(self) -> int:
        return int(self.matrix.shape[0])

    def paths_of_od(self, od_index: int) -> tuple[int, ...]:
        return tuple(
            p for p, k in enumerate(self.od_of_path) if k == od_index
        )


def validate_network(net: Network) -> list[str]:
    """Check every structural invariant and return the list of violations.

    An empty list means the network is valid. Violations are returned as
    human-readable strings (they are data, not exceptions).
    """
    report: list[str] = []
    nodes = set(net.nodes)
    seen_ids: set[str] = set()

    if net.n_links < 1:
        report.append("network must contain at least one link")

    sound_links = []  # links whose coefficients pass every check below
    for link in net.links:
        coeffs = link.delay.coefficients
        n_before = len(report)
        for j, c in enumerate(coeffs):
            if not math.isfinite(c):
                report.append(
                    f"link {link.id!r}: coefficient a{j} must be finite"
                    f" (got {c})"
                )
            elif c < 0.0:
                report.append(
                    f"link {link.id!r}: coefficient a{j} must be non-negative"
                    f" (got {c})"
                )
        if coeffs[1] <= 0.0:
            report.append(f"link {link.id!r}: a1 must be strictly positive")
        if len(report) == n_before:
            sound_links.append(link)
        if link.tail == link.head:
            report.append(f"link {link.id!r}: tail and head coincide")
        if link.tail not in nodes:
            report.append(f"link {link.id!r}: tail {link.tail!r} not declared")
        if link.head not in nodes:
            report.append(f"link {link.id!r}: head {link.head!r} not declared")
        if link.id in seen_ids:
            report.append(f"duplicate link id {link.id!r}")
        seen_ids.add(link.id)

    for i, od in enumerate(net.od_pairs):
        if od.origin not in nodes:
            report.append(f"od pair {i}: origin {od.origin!r} not declared")
        if od.destination not in nodes:
            report.append(
                f"od pair {i}: destination {od.destination!r} not declared"
            )
        if not math.isfinite(od.demand_total):
            report.append(f"od pair {i}: demand must be finite")
        elif od.demand_total < 0.0:
            report.append(f"od pair {i}: demand must be non-negative")
        if not 0.0 <= od.fleet_share <= 1.0:
            report.append(f"od pair {i}: fleet_share must lie in [0, 1]")
        if od.origin in nodes and od.destination in nodes:
            if not _reachable(net, od.origin, od.destination):
                report.append(
                    f"od pair {i}: destination unreachable from origin"
                )

    if sound_links and all(math.isfinite(od.demand_total)
                           for od in net.od_pairs):
        report.extend(_box_overflows(sound_links, net.total_demand()))
    return report


def _box_overflows(links: Sequence[Link], D: float) -> list[str]:
    """Links whose delay, marginal delay or Jacobian norm is not finite on
    the demand box. Each is non-decreasing in the load for non-negative
    coefficients, so the corner (D, D), aggregate load 2D, decides; at zero
    demand the box is the one ``check`` certifies, D = 1. A finite norm
    implies finite d' and d'' at the corner, and the modulus c is finite
    for finite coefficients.

    With a the largest coefficient and Y = max(1, 2D), every value these
    checks compute is at most 4e5 (a Y^3)^4 (the norm's squared Gram
    mean, the largest), so no link can overflow when a Y^3 <= 1e60."""
    D_box = D if D > 0.0 else 1.0
    Y = max(1.0, 2.0 * D_box)
    a = max(max(link.delay.coefficients) for link in links)
    if a * Y * Y * Y <= 1e60:
        return []
    import numpy as np

    # imported here because calculus imports this module
    from .calculus import jacobian_norms_sq, link_costs

    coeffs = np.array([link.delay.coefficients for link in links])
    with np.errstate(over="ignore", invalid="ignore"):
        values = [*link_costs(coeffs, D_box, D_box),
                  jacobian_norms_sq(coeffs, D_box, D_box)]
        finite = np.isfinite(values).all(axis=0)
    return [
        f"link {link.id!r}: delay not finite on the demand box "
        f"(aggregate load up to {2.0 * D_box:g})"
        for link, ok in zip(links, finite.tolist()) if not ok
    ]


def _reachable(net: Network, origin: str, destination: str) -> bool:
    adjacency: dict[str, list[str]] = {}
    for link in net.links:
        adjacency.setdefault(link.tail, []).append(link.head)
    frontier = [origin]
    visited = {origin}
    while frontier:
        node = frontier.pop()
        if node == destination:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return False


def enumerate_paths(net: Network, cap: int = PATH_CAP_DEFAULT) -> IncidenceStructure:
    """Enumerate all simple directed paths per OD pair and build the
    incidence matrix.

    Paths are grouped by OD pair and ordered lexicographically by their
    link-index sequence, so downstream results are reproducible bit for bit.
    Raises PathCountExceeded when the total number of paths would exceed
    ``cap`` (the instance is too dense for explicit enumeration).
    """
    import numpy as np

    out_links: dict[str, list[int]] = {}
    for idx, link in enumerate(net.links):
        out_links.setdefault(link.tail, []).append(idx)
    for seq in out_links.values():
        seq.sort()

    all_paths: list[tuple[int, ...]] = []
    od_of_path: list[int] = []
    for k, od in enumerate(net.od_pairs):
        found: list[tuple[int, ...]] = []
        _dfs_paths(net, out_links, od.origin, od.destination,
                   [], {od.origin}, found, cap)
        found.sort()
        all_paths.extend(found)
        od_of_path.extend([k] * len(found))
        if len(all_paths) > cap:
            raise PathCountExceeded(
                f"path enumeration exceeded cap of {cap} paths"
            )

    matrix = np.zeros((net.n_links, len(all_paths)))
    for p, path in enumerate(all_paths):
        for l in path:
            matrix[l, p] = 1.0
    return IncidenceStructure(
        paths=tuple(all_paths),
        od_of_path=tuple(od_of_path),
        matrix=matrix,
    )


def _dfs_paths(
    net: Network,
    out_links: dict[str, list[int]],
    node: str,
    destination: str,
    stack: list[int],
    visited: set[str],
    found: list[tuple[int, ...]],
    cap: int,
) -> None:
    if node == destination:
        found.append(tuple(stack))
        if len(found) > cap:
            raise PathCountExceeded(
                f"path enumeration exceeded cap of {cap} paths"
            )
        return
    for idx in out_links.get(node, ()):
        head = net.links[idx].head
        if head in visited:
            continue
        stack.append(idx)
        visited.add(head)
        _dfs_paths(net, out_links, head, destination, stack, visited, found, cap)
        visited.remove(head)
        stack.pop()


def feasibility_residual(inc: IncidenceStructure, ods: Sequence[OdSpec], z) -> float:
    """Distance of a path-flow pair from the feasible set.

    Returns the maximum over classes and OD pairs of the absolute demand
    mismatch |sum of path flows - class demand| plus the magnitude of the
    most negative flow entry. The value is zero iff the flow is feasible,
    and infinite when any entry is not finite.
    """
    import numpy as np

    zS = np.asarray(z.zS, dtype=float)
    zC = np.asarray(z.zC, dtype=float)
    if zS.shape != (inc.n_paths,) or zC.shape != (inc.n_paths,):
        raise ValueError(
            f"flow dimension mismatch: expected {inc.n_paths} per class"
        )
    if not (np.isfinite(zS).all() and np.isfinite(zC).all()):
        return math.inf
    worst_mismatch = 0.0
    for k, od in enumerate(ods):
        idx = list(inc.paths_of_od(k))
        worst_mismatch = max(
            worst_mismatch,
            abs(float(zS[idx].sum()) - od.demand_selfish),
            abs(float(zC[idx].sum()) - od.demand_fleet),
        )
    most_negative = min(0.0, float(zS.min(initial=0.0)), float(zC.min(initial=0.0)))
    return worst_mismatch - most_negative

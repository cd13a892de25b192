"""Exact threshold-cost transport discrepancy between empirical samples.

The discrepancy at threshold ``eps`` between two empirical distributions is
the smallest probability mass that any coupling must move strictly farther
than ``eps`` (a Levy-Prokhorov style pseudo-metric; at ``eps = 0`` it is the
total variation distance). A coupling edge between atoms ``x`` and ``y`` is
admissible when ``|x - y| <= eps`` (non-strict match).

The value is computed exactly on the common ``n * m`` integer scaling
(source atoms supply ``m`` units, target atoms demand ``n``). Both samples
are sorted, so admissible partners form intervals that advance together; on
such convex bipartite graphs, filling each target in ascending order from
the earliest source with supply is optimal (Glover 1967), which gives one
``O(n + m)`` sweep for any sample sizes. A Dinic max-flow on the dense
admissibility predicate is kept as an independent reference.

A solve counts matched units only. The optimal coupling that certifies
``rho`` is built on first access to ``TransportResult.certificate``, by
re-running the same sweep with its fills recorded.

All ``|x - y| <= eps`` comparisons are exact on the given doubles; no
tolerance slack is applied. Callers constructing shifted samples should keep
in mind that ``(x + eps) - x`` can exceed ``eps`` by one ulp in floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import ScoreSample, check_epsilon, check_rho

__all__ = [
    "LPParams",
    "TransportResult",
    "lp_distance",
    "lp_profile",
    "solve_flow",
    "tv_distance",
    "winf_within",
]


@dataclass(frozen=True)
class LPParams:
    """Ambiguity ball parameters: local radius ``epsilon``, global mass budget ``rho``."""

    epsilon: float
    rho: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_rho(self.rho)


@dataclass(frozen=True)
class TransportResult:
    """Outcome of the exact transport solve between two samples.

    ``certificate`` is an optimal coupling on the integer scaling: a tuple of
    ``(source_index, target_index, units)`` triples where one unit of mass is
    ``1 / (n * m)``. Indices refer to the sorted samples. Row sums equal ``m``
    units (mass ``1/n``) and column sums equal ``n`` units (mass ``1/m``)
    exactly. Edges between atoms farther apart than the threshold carry
    exactly ``n*m - matched_units`` units, so the plan's cost is ``rho``.

    The certificate is built on first access and then cached: the solve
    keeps its two samples and threshold (or, on the flow path, its matched
    plan) so that callers needing only ``rho`` never pay for the coupling.
    It takes no part in ``repr`` or ``==``.
    """

    rho: float
    matched_mass: float
    n: int
    m: int
    matched_units: int
    _p: ScoreSample = field(repr=False, compare=False)
    _q: ScoreSample = field(repr=False, compare=False)
    _epsilon: float = field(repr=False, compare=False)
    _plan: list[tuple[int, int, int]] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def certificate(self) -> tuple[tuple[int, int, int], ...]:
        """The optimal coupling, built on first access and then cached."""
        plan = self._plan
        if plan is None:
            plan = []
            _sweep(self._p.scores.tolist(), self._q.scores.tolist(), self._epsilon, plan)
        return _complete_plan(self.n, self.m, plan)


class _Dinic:
    """Max flow on small integer-capacity graphs (BFS level graph + blocking DFS)."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.adj: list[list[list[int]]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> list[int]:
        # edge record: [to, capacity, index of reverse edge record]
        fwd = [v, cap, len(self.adj[v])]
        rev = [u, 0, len(self.adj[u])]
        self.adj[u].append(fwd)
        self.adj[v].append(rev)
        return fwd

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.num_nodes
        self.level[s] = 0
        queue = [s]
        for u in queue:
            for to, cap, _ in self.adj[u]:
                if cap > 0 and self.level[to] < 0:
                    self.level[to] = self.level[u] + 1
                    queue.append(to)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: int) -> int:
        if u == t:
            return pushed
        adj_u = self.adj[u]
        while self.it[u] < len(adj_u):
            edge = adj_u[self.it[u]]
            to, cap, rev = edge
            if cap > 0 and self.level[to] == self.level[u] + 1:
                flow = self._dfs(to, t, min(pushed, cap))
                if flow > 0:
                    edge[1] -= flow
                    self.adj[to][rev][1] += flow
                    return flow
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.num_nodes
            while True:
                pushed = self._dfs(s, t, 1 << 62)
                if pushed == 0:
                    break
                total += pushed
        return total


def solve_flow(
    n: int, m: int, edges_per_source: Sequence[Iterable[int]]
) -> tuple[int, list[tuple[int, int, int]]]:
    """Exact transport on the ``n*m`` integer scaling.

    Source ``i`` supplies ``m`` units, sink ``j`` absorbs ``n`` units, and
    only the listed admissible edges may carry flow. Returns the matched
    units and the positive flows as ``(i, j, units)`` triples.
    """
    source = n + m
    sink = n + m + 1
    net = _Dinic(n + m + 2)
    for i in range(n):
        net.add_edge(source, i, m)
    inner: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    cap = min(n, m)
    for i, targets in enumerate(edges_per_source):
        for j in targets:
            inner[i].append((j, net.add_edge(i, n + j, cap)))
    for j in range(m):
        net.add_edge(n + j, sink, n)
    matched = net.max_flow(source, sink)
    plan = [
        (i, j, cap - edge[1])
        for i in range(n)
        for j, edge in inner[i]
        if cap - edge[1] > 0
    ]
    return matched, plan


def _complete_plan(
    n: int, m: int, plan: list[tuple[int, int, int]]
) -> tuple[tuple[int, int, int], ...]:
    """Extend a matched sub-plan to full marginals.

    Leftover supply and demand are paired greedily in index order; maximality
    of the matched sub-plan guarantees every added edge joins atoms farther
    apart than the threshold, so the completed plan's cost equals the
    unmatched mass.
    """
    supply = [m] * n
    demand = [n] * m
    for i, j, units in plan:
        supply[i] -= units
        demand[j] -= units
    full = list(plan)
    i = j = 0
    while i < n and j < m:
        if supply[i] == 0:
            i += 1
            continue
        if demand[j] == 0:
            j += 1
            continue
        units = min(supply[i], demand[j])
        full.append((i, j, units))
        supply[i] -= units
        demand[j] -= units
    full.sort()
    return tuple(full)


def _sweep(
    x: list[float], y: list[float], eps: float,
    plan: list[tuple[int, int, int]] | None = None,
) -> int:
    """Maximum matched units on the ``n*m`` scaling for sorted samples.

    Targets are visited in ascending order. Sources lying more than ``eps``
    to the left of the target can match no later target and are dropped;
    the target is then filled from the earliest source that still has
    supply, while the exact test ``abs(x_i - y_j) <= eps`` holds. A partly
    used source is carried forward to the next target. Each fill is
    appended to ``plan`` as ``(i, j, units)`` when a list is given.
    """
    n, m = len(x), len(y)
    x = x + [float("inf")]  # sentinel: never dropped, never admissible
    matched = 0
    i = 0
    xi = x[0]
    left = m  # units source ``i`` can still supply
    for j, yj in enumerate(y):
        while xi < yj and abs(xi - yj) > eps:
            i += 1
            xi = x[i]
            left = m
        demand = n
        while demand and abs(xi - yj) <= eps:
            units = left if left < demand else demand
            if plan is not None:
                plan.append((i, j, units))
            demand -= units
            left -= units
            if not left:
                i += 1
                xi = x[i]
                left = m
        matched += n - demand
    return matched


def lp_distance(
    p: ScoreSample, q: ScoreSample, epsilon: float, method: str = "auto"
) -> TransportResult:
    """Exact minimal mass that must move farther than ``epsilon`` between samples.

    Parameters
    ----------
    p, q : ScoreSample
        The two empirical distributions, with uniform atom masses ``1/n`` and
        ``1/m``.
    epsilon : float
        Nonnegative match radius; atoms within ``epsilon`` (inclusive) may be
        coupled at zero cost.
    method : str
        ``"auto"`` and ``"greedy"`` run the ``O(n + m)`` sorted sweep
        (``"greedy"`` additionally requires equal sizes); ``"flow"`` runs the
        Dinic max-flow reference on the dense admissibility predicate.

    Returns
    -------
    TransportResult
        ``rho`` is the exact optimum; the certificate realizes it.
    """
    check_epsilon(epsilon)
    x, y = p.scores, q.scores
    n, m = p.n, q.n
    if method not in ("auto", "greedy", "flow"):
        raise ValueError(f"unknown method {method!r}")
    if method == "greedy" and n != m:
        raise ValueError("greedy path requires equal sample sizes")
    plan = None
    if method == "flow":
        with np.errstate(over="ignore"):
            edges = [np.nonzero(np.abs(xi - y) <= epsilon)[0].tolist() for xi in x]
        matched, plan = solve_flow(n, m, edges)
    else:
        matched = _sweep(x.tolist(), y.tolist(), float(epsilon))
    rho = (n * m - matched) / (n * m)
    return TransportResult(rho=rho, matched_mass=1.0 - rho, n=n, m=m, matched_units=matched,
                           _p=p, _q=q, _epsilon=float(epsilon), _plan=plan)


def tv_distance(p: ScoreSample, q: ScoreSample) -> float:
    """Total variation distance between the empirical distributions."""
    return lp_distance(p, q, 0.0).rho


def winf_within(p: ScoreSample, q: ScoreSample, epsilon: float) -> bool:
    """Whether the sup-norm transport distance between the samples is <= epsilon.

    For equal sizes this is the exact order-statistic test
    ``max_i |x_(i) - y_(i)| <= epsilon``; otherwise it falls back to the
    ``O(n + m)`` sweep of :func:`lp_distance` and checks that the
    threshold-cost discrepancy at ``epsilon`` is zero.
    """
    check_epsilon(epsilon)
    if p.n == q.n:
        # An overflowing gap is inf, which correctly exceeds any finite epsilon.
        with np.errstate(over="ignore"):
            return bool(np.all(np.abs(p.scores - q.scores) <= epsilon))
    res = lp_distance(p, q, epsilon)
    return res.matched_units == res.n * res.m


def validate_epsilon_grid(epsilon_grid: Sequence[float]) -> list[float]:
    """The grid as floats, checked nonempty, finite, nonnegative and strictly increasing."""
    grid = [float(e) for e in epsilon_grid]
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if any(not (np.isfinite(e) and e >= 0.0) for e in grid):
        raise ValueError("epsilon grid entries must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    return grid


def lp_profile(
    p: ScoreSample, q: ScoreSample, epsilon_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Sweep ``lp_distance`` over a strictly increasing grid of thresholds."""
    return [(e, lp_distance(p, q, e).rho) for e in validate_epsilon_grid(epsilon_grid)]

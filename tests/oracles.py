"""Reference implementations and proof devices for the tests.

The exact transport problem on the ``n*m`` integer scaling is a max-flow:
source atom ``i`` supplies ``m`` units, target atom ``j`` absorbs ``n``
units, and only admissible pairs may carry flow. Here it is built as a
network and handed to ``scipy.sparse.csgraph.maximum_flow``, which works on
any admissibility pattern, not only the interval structure of one
dimension that the sorted sweep relies on. The kernel's greedy fill is
kept as a two-pointer loop on Python floats and ints. The sup-norm
distance has a closed form over the pairs of order statistics that the
monotone coupling meets (for equal sizes, a test on sorted gaps), and the
row perturbation has a plain fancy-indexing form, with its own copy of the
clamp loop; all are kept here as references.

Three constructions certify the library's numbers without being part of
it: the optimal coupling cut from the transport kernel's fills, the
extremal rank-band families that approach the worst-case quantile and
coverage, a plain calibration/test split of a score matrix, and a
least-squares residual score with an input-space adversary that attains
the score's Lipschitz bound. The report
texts are checked against ``json.dumps`` and a ``csv.writer`` handed the
raw values, and every output file against what ``open(path, "w")`` writes.
The conformal, worst-case, chi-square and smoothed-score rules are kept in
the form that decides each level's snap, clamp and order statistic inline,
as a reference for ``QuantileRule.at_level``.
"""

import contextlib
import csv
import io
import json
import os
import threading

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from lpconformal import LPParams, PointMass, ScoreMatrix, ScoreSample, cdf, lp_distance
from lpconformal.baselines import chi2_g, chi2_g_inv
from lpconformal.core import QuantileRule, level_at_most_one, quantile_index, snapped_ceil
from lpconformal.lp_metric import _fills


def max_flow_matched_units(admissible) -> int:
    """Maximum matched units for a boolean ``n x m`` admissibility matrix.

    Nodes ``0..n-1`` are sources and ``n..n+m-1`` targets; the network's
    source and sink follow. Capacities are ``m`` into each source, ``min(n,
    m)`` on each admissible pair and ``n`` out of each target.
    """
    admissible = np.asarray(admissible, dtype=bool)
    n, m = admissible.shape
    assert n * m < 2**31, "flow values are int32"
    source, sink = n + m, n + m + 1
    rows, cols = np.nonzero(admissible)
    tails = np.concatenate([np.full(n, source), rows, n + np.arange(m)])
    heads = np.concatenate([np.arange(n), n + cols, np.full(m, sink)])
    caps = np.concatenate([np.full(n, m), np.full(rows.size, min(n, m)), np.full(m, n)])
    graph = csr_array((caps.astype(np.int32), (tails, heads)), shape=(n + m + 2, n + m + 2))
    return int(maximum_flow(graph, source, sink).flow_value)


def transport_matched_units(x, y, eps: float) -> int:
    """Maximum matched units between two score samples at threshold ``eps``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        return max_flow_matched_units(np.abs(x[:, None] - y[None, :]) <= eps)


def greedy_fill(x, y, eps: float) -> tuple[list[int], list[int]]:
    """The greedy fill of the ``lp_metric`` docstring, in plain Python on sorted samples.

    Two pointers find the admissible sources ``[lo, hi)`` of each target with
    the exact float tests ``y - x > eps`` and ``x - y <= eps``. Target ``j``
    takes the units ``[max(P, lo*m), min(max(P, lo*m) + n, hi*m))``, where
    ``P`` is where the previous target's fill ended. Returns every target's
    ``start`` and ``end`` as Python ints, which cannot overflow.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    eps = float(eps)
    n, m = len(x), len(y)
    start, end = [], []
    lo = hi = filled = 0
    for yj in y:
        while lo < n and yj - x[lo] > eps:
            lo += 1
        while hi < n and x[hi] - yj <= eps:
            hi += 1
        first = max(filled, lo * m)
        filled = min(first + n, hi * m)
        start.append(first)
        end.append(filled)
    return start, end


def pushforward_check(points_p, points_q, scores_p: ScoreSample, scores_q: ScoreSample,
                      epsilon: float) -> bool:
    """Whether pushing two point clouds through a score map kept them as close.

    Solves the exact transport problem twice at radius ``epsilon``: in data
    space with admissible pairs ``||z1 - z2||_2 <= epsilon`` (the max-flow
    oracle on a dense distance matrix), and in score space (``lp_distance``).
    A 1-Lipschitz score map guarantees that the score-space discrepancy does
    not exceed the data-space one.
    """
    p = np.atleast_2d(np.asarray(points_p, dtype=float))
    q = np.atleast_2d(np.asarray(points_q, dtype=float))
    assert (p.shape[0], q.shape[0]) == (scores_p.n, scores_q.n), "one score per point"
    dists = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    matched_data = max_flow_matched_units(dists <= epsilon)
    return lp_distance(scores_p, scores_q, epsilon).matched_units >= matched_data


def sorted_gap_within(x, y, eps: float) -> bool:
    """Equal-size sup-norm test ``max_i |x_(i) - y_(i)| <= eps`` on the sorted samples.

    The monotone coupling is optimal for the sup-norm cost in one dimension.
    An overflowing gap is inf, which exceeds every finite ``eps``.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    assert x.size == y.size, "the order-statistic test needs equal sizes"
    with np.errstate(over="ignore"):
        return bool(np.all(np.abs(x - y) <= eps))


def sup_norm_distance(x, y) -> float:
    """The sup-norm transport distance between samples ``x`` and ``y``.

    The monotone coupling attains it; its pairs of order statistics change
    only at levels ``k / (n*m)`` with ``k`` a multiple of ``n`` or ``m``.
    An overflowing gap is inf.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n, m = len(x), len(y)
    k = np.union1d(np.arange(m, n * m + 1, m), np.arange(n, n * m + 1, n))
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(x[(k - 1) // m] - y[(k - 1) // n])))


def clamp_displacement(values, center, eps: float) -> np.ndarray:
    """Nudge ``values`` until each lies within ``eps`` of its center.

    The sampler's clamp as a plain loop without its early return, kept here
    so that the references below do not run the code they check.
    """
    out = np.array(values, dtype=float)
    for _ in range(4):
        delta = out - center
        over = delta > eps
        under = delta < -eps
        if not (over.any() or under.any()):
            break
        out[over] = np.nextafter(out[over], -np.inf)
        out[under] = np.nextafter(out[under], np.inf)
    return out


def _draw(law, rng, size) -> np.ndarray:
    if isinstance(law, PointMass):
        return np.full(size, law.value, dtype=float)
    return rng.uniform(law.low, law.high, size)


def perturb_rows_reference(scores, true_labels, spec, rng):
    """``shiftlab.perturb_rows`` written with 2-d fancy indexing and a boolean row mask.

    Same draws in the same order: replacement mask, local noise, then the
    global draws for the replaced rows. Only the rows that are not replaced
    are displaced.
    """
    n_rows, n_labels = scores.shape
    out = scores.copy()
    corrupt = rng.random(n_rows) < spec.rho
    noise = _draw(spec.local_law, rng, n_rows)
    keep = np.nonzero(~corrupt)[0]
    cols = true_labels[keep]
    original = out[keep, cols]
    with np.errstate(over="ignore"):
        shifted = original + noise[keep]
    out[keep, cols] = clamp_displacement(shifted, original, spec.epsilon)
    n_corrupt = int(corrupt.sum())
    if n_corrupt:
        out[corrupt] = _draw(spec.global_law, rng, (n_corrupt, n_labels))
    return out


def eager_complete(n, m, plan):
    """Leftover supply paired with leftover demand in index order, then sorted.

    Maximality of the matched sub-plan guarantees every added edge joins
    atoms farther apart than the threshold, so the completed plan's cost is
    the unmatched mass.
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
        elif demand[j] == 0:
            j += 1
        else:
            units = min(supply[i], demand[j])
            full.append((i, j, units))
            supply[i] -= units
            demand[j] -= units
    return tuple(sorted(full))


def certificate(p: ScoreSample, q: ScoreSample, epsilon: float):
    """An optimal coupling realizing ``lp_distance(p, q, epsilon).rho``.

    A sorted tuple of ``(source_index, target_index, units)`` triples on the
    integer scaling, with indices into the sorted samples and one unit of
    mass ``1 / (n * m)``. Row sums are ``m`` units and column sums ``n``.
    The admissible triples are cut from the kernel's greedy fill, so edges
    between atoms farther apart than ``epsilon`` carry exactly
    ``n*m - matched_units`` units.
    """
    n, m = p.n, q.n
    (start,), (end,) = _fills(p.scores, q.scores, np.array([float(epsilon)]))
    # Target j's range crosses the sources start_j // m .. (end_j - 1) // m.
    first = start // m
    spans = np.where(end > start, (end - 1) // m - first + 1, 0)
    target = np.repeat(np.arange(m), spans)
    source = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans - first, spans)
    units = np.minimum(end[target], (source + 1) * m) - np.maximum(start[target], source * m)
    return eager_complete(n, m, list(zip(source.tolist(), target.tolist(), units.tolist())))


def conformal_rule_inline(n: int, alpha: float) -> QuantileRule:
    k = max(snapped_ceil((1.0 - alpha) * (n + 1)), 1)
    level = k / n
    if k > n:
        return QuantileRule(None, level)
    return QuantileRule(quantile_index(n, level), level)


def worst_case_rule_inline(n: int, beta: float, params: LPParams) -> QuantileRule:
    level = beta + params.rho
    if not level_at_most_one(level):
        return QuantileRule(None, level)
    level = min(level, 1.0)
    return QuantileRule(quantile_index(n, level), level, params.epsilon)


def rscp_rule_inline(n: int, alpha: float, delta: float, sigma: float) -> QuantileRule:
    level = (1.0 - alpha) * (2 + n) / (1 + n)
    if not level_at_most_one(level):
        return QuantileRule(None, level)
    level = min(level, 1.0)
    return QuantileRule(quantile_index(n, level), level, delta / sigma)


def chi2_rule_inline(n: int, alpha: float, rho_chi2: float) -> QuantileRule:
    inner = (1.0 + 1.0 / n) * chi2_g_inv(1.0 - alpha, rho_chi2)
    if not level_at_most_one(inner):
        return QuantileRule(None, inner)
    inner = min(inner, 1.0)
    alpha_n = 1.0 - chi2_g(inner, rho_chi2)
    level = chi2_g_inv(1.0 - alpha_n, rho_chi2)
    if level <= 0.0:
        raise ValueError(f"degenerate chi-square level {level!r}")
    return QuantileRule(quantile_index(n, level), level)


def snapped_floor(value: float) -> int:
    """Floor with the same near-integer snapping as ``core.snapped_ceil``."""
    return -snapped_ceil(-value)


def _shifted_scores(base: ScoreSample, eps: float) -> np.ndarray:
    return clamp_displacement(base.scores + eps, base.scores, eps)


def _rank_band(n: int, lo_level: float, hi_level: float, rho: float) -> tuple[int, int]:
    """Indices (i_lo, i_hi] of the atoms whose rank/n lies in the level band.

    The band is trimmed from below so at most ``floor(n * rho)`` atoms move:
    the discretized construction must never exceed the global mass budget.
    """
    i_lo = max(snapped_floor(n * lo_level), 0)
    i_hi = min(snapped_floor(n * hi_level), n)
    cap = snapped_floor(n * rho)
    i_lo = max(i_lo, i_hi - cap)
    if i_hi <= i_lo:
        raise ValueError(
            f"level band ({lo_level!r}, {hi_level!r}] contains no sample atoms at n={n}"
        )
    return i_lo, i_hi


def _band_member(base: ScoreSample, params: LPParams, k: int, levels) -> ScoreSample:
    """The ``epsilon`` shift of ``base`` with, for ``rho > 0``, the atoms of
    the level band ``levels()`` moved to its upper quantile (plus ``epsilon``)."""
    shifted = _shifted_scores(base, params.epsilon)
    if params.rho == 0.0:
        return ScoreSample(shifted)
    if 1.0 / k > params.rho:
        raise ValueError(f"need 1/k <= rho, got k={k}, rho={params.rho!r}")
    n = base.n
    lo_level, hi_level = levels()
    i_lo, i_hi = _rank_band(n, lo_level, hi_level, params.rho)
    target = min(max(snapped_ceil(n * hi_level), 1), n)
    out = shifted.copy()
    out[i_lo:i_hi] = shifted[target - 1]
    return ScoreSample(out)


def wc_quantile_family(
    base: ScoreSample, beta: float, params: LPParams, k: int
) -> ScoreSample:
    """Ball member whose ``beta``-quantile approaches the worst case as k grows.

    Every score is shifted up by ``epsilon``, then the atoms whose rank lies
    in the level band ``(beta - 1/k, beta - 1/k + rho]`` are moved to the
    band's upper quantile (plus ``epsilon``). Requires ``beta + rho <= 1``
    and, for ``rho > 0``, granularity ``1/k <= rho``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if beta + params.rho > 1.0 + 1e-12:
        raise ValueError(f"beta + rho must be at most one, got {beta + params.rho!r}")
    return _band_member(base, params, k, lambda: (beta - 1.0 / k, beta - 1.0 / k + params.rho))


def wc_coverage_family(
    base: ScoreSample, q: float, params: LPParams, k: int
) -> ScoreSample:
    """Ball member whose CDF at ``q`` approaches the worst case as k grows.

    Mirror of :func:`wc_quantile_family`: after the ``epsilon`` shift, atoms
    in the level band ``(F(q - eps) - rho + 1/k, F(q - eps) + 1/k]`` are
    moved to the band's upper quantile, emptying the CDF just below ``q``
    down to the worst-case plateau.
    """
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")

    def levels() -> tuple[float, float]:
        f0 = cdf(base, q - params.epsilon)
        return f0 - params.rho + 1.0 / k, f0 + 1.0 / k

    return _band_member(base, params, k, levels)


def regression_draws(rng, beta, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws of ``y = x·beta + N(0, 1)`` with ``x ~ N(0, I)``."""
    x = rng.normal(size=(size, len(beta)))
    return x, x @ beta + rng.normal(size=size)


def least_squares_score(x, y):
    """The least-squares fit ``b`` on ``(x, y)``, its residual score ``|y - x·b|`` and the
    score's Lipschitz constant ``1 + ||b||_2`` under the metric ``max(||dx||_2, |dy|)``,
    since ``|dy - dx·b| <= |dy| + ||dx||_2 ||b||_2``."""
    b = np.linalg.lstsq(x, y, rcond=None)[0]
    return b, (lambda x, y: np.abs(y - x @ b)), 1.0 + float(np.linalg.norm(b))


def residual_adversary(rng, x, y, b, eps: float, rho: float, far: float = 1e6):
    """The test points moved by an adversary in the input-space ball ``(eps, rho)``.

    Each point moves by ``eps`` under ``max(||dx||_2, |dy|)`` toward a larger
    residual ``r = y - x·b``: ``dy = eps·sign(r)`` and ``dx = -eps·sign(r)·b/||b||_2``
    raise ``|r|`` by ``(1 + ||b||_2)·eps``, the Lipschitz bound. Then a ``rho``
    share of the points, drawn at random, moves ``far`` instead. Returns the
    moved ``x``, ``y`` and the mask of the far points.
    """
    sign = np.sign(y - x @ b)
    x_moved = x - eps * sign[:, None] * (b / np.linalg.norm(b))
    y_moved = y + eps * sign
    moved_far = np.zeros(len(y), dtype=bool)
    moved_far[rng.choice(len(y), size=round(rho * len(y)), replace=False)] = True
    y_moved[moved_far] = y[moved_far] + far
    x_moved[moved_far] = x[moved_far]
    return x_moved, y_moved, moved_far


def split_indices(n_rows: int, n_calib: int, k_test: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Uniform without-replacement split of ``n_rows`` row indices into
    calibration and test indices, deterministic per seed."""
    if n_calib < 1 or k_test < 0:
        raise ValueError("need n_calib >= 1 and k_test >= 0")
    if n_calib + k_test > n_rows:
        raise ValueError(
            f"n_calib + k_test = {n_calib + k_test} exceeds the {n_rows} available rows"
        )
    perm = np.random.default_rng(seed).permutation(n_rows)
    return perm[:n_calib], perm[n_calib:n_calib + k_test]


def split(matrix: ScoreMatrix, n_calib: int, k_test: int, seed):
    """The partition ``compare`` draws for split ``j`` with ``seed=[base_seed,
    j, 0]``. Returns the calibration rows' true-label scores as a sample, and
    the test rows as a (sub)matrix.
    """
    calib_idx, test_idx = split_indices(matrix.n_rows, n_calib, k_test, seed)
    calib = ScoreSample(matrix.scores[calib_idx, matrix.true_labels[calib_idx]])
    return calib, ScoreMatrix(matrix.scores[test_idx], matrix.true_labels[test_idx])


def report_json(reports, wrapped: bool) -> str:
    """``json.dumps`` of one report's ``to_dict``, or of all of them under ``"reports"``."""
    if wrapped:
        payload = {"reports": [r.to_dict() for r in reports]}
    else:
        (report,) = reports
        payload = report.to_dict()
    return json.dumps(payload, sort_keys=True, indent=2)


def report_csv(reports) -> str:
    """The per-split table with each value handed to ``csv.writer`` as it is."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["method", "split", "coverage", "mean_set_size"])
    for report in reports:
        writer.writerows(
            (report.method, j, r.coverage, r.mean_set_size)
            for j, r in enumerate(report.per_split)
        )
    return fh.getvalue()


def written_by_open(path, text: str, newline=None) -> bytes:
    """The bytes ``open(path, "w", newline=newline)`` leaves in ``path`` for ``text``."""
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    return path.read_bytes()


def fifo_receives(path, write) -> tuple:
    """``write()``'s result and every byte a reader of the new named pipe ``path`` gets."""
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    try:
        result = write()
    finally:
        # A writer that failed before opening the pipe leaves the reader
        # waiting for one: open and close one, so that it reads to the end.
        with contextlib.suppress(OSError):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(10)
    assert not reader.is_alive()
    return result, received[0]

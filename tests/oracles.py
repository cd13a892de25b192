"""Reference implementations for the tests, independent of the library's fast paths.

The exact transport problem on the ``n*m`` integer scaling is a max-flow:
source atom ``i`` supplies ``m`` units, target atom ``j`` absorbs ``n``
units, and only admissible pairs may carry flow. Here it is built as a
network and handed to ``scipy.sparse.csgraph.maximum_flow``, which works on
any admissibility pattern, not only the interval structure of one
dimension that the sorted sweep relies on. For equal sizes the sup-norm
test has a closed form over order statistics, and the row perturbation has
a plain fancy-indexing form; both are kept here as references.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from lpconformal import ScoreSample, lp_distance
from lpconformal.shiftlab import _clamp_displacement, _draw_law


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


def perturb_rows_reference(scores, true_labels, spec, rng):
    """``shiftlab.perturb_rows`` written with 2-d fancy indexing and a boolean row mask.

    Same draws in the same order: replacement mask, local noise, then the
    global draws for the replaced rows.
    """
    n_rows, n_labels = scores.shape
    out = scores.copy()
    corrupt = rng.random(n_rows) < spec.rho
    noise = _draw_law(spec.resolved_local_law(), rng, n_rows)
    keep = np.nonzero(~corrupt)[0]
    cols = true_labels[keep]
    original = out[keep, cols]
    out[keep, cols] = _clamp_displacement(original + noise[keep], original, spec.epsilon)
    n_corrupt = int(corrupt.sum())
    if n_corrupt:
        out[corrupt] = _draw_law(spec.global_law, rng, (n_corrupt, n_labels))
    return out

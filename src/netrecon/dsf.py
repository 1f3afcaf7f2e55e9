"""Dynamical structure functions (DSFs) of state-space models.

A DSF is the triple (Q, P, H) of transfer-function matrices relating the
measured outputs to each other, to the inputs, and to the innovations:

    y = Q(q) y + P(q) u + H(q) e

with zero diagonal and strictly proper entries in Q.  The outputs are the
first p states (``StateSpaceModel`` takes p: C = [I 0], the setting in
which Goncalves & Warnick, IEEE TAC 53(7), 2008, define the DSF), so the
partition is read off A and B directly: A11 is A's leading p x p block,
A22 its hidden block, B1 and B2 B's measured and hidden rows.  The
innovations enter the measured states only, as sigma [I; 0], so the
hidden block is eliminated through its resolvent from A21 and B2 alone:

    W(q) = A11 + A12 (qI - A22)^{-1} A21
    V(q) = B1  + A12 (qI - A22)^{-1} B2,        L = sigma I
    Q  = (qI - D_W)^{-1} (W - D_W),   D_W = diag(W)
    P  = (qI - D_W)^{-1} V + (I - Q) D
    H  = (qI - D_W)^{-1} L + (I - Q)

The DSF is evaluated by sampling: every matrix is computed at a set of
complex points, which works at any size and is all the reconstruction
reads.  The default points lie on the unit circle, where max_q |Q_ij(q)|
is the sampled peak gain of the edge j -> i.  All points go through one
batched evaluation, with one solve for the resolvent over every point; a
point that hits a pole is moved outward by a fixed factor and the batch
evaluated again, so the sample is a function of the model and the
points alone.  The exact rational DSF, built by the
characteristic-polynomial adjugate recursion on the hidden block, is kept
with the tests as the oracle for this path; it reads the same blocks of A
and B itself.

The nonzero pattern of (Q, P) is the Boolean network; graph comparison
metrics (precision, true-positive rate) operate on the Q adjacency, and
``edge_auc`` scores the sampled magnitudes of Q against it without a
threshold.
"""

from dataclasses import dataclass

import numpy as np

from .fileio import adjacency_rows, fmt, write_text

__all__ = [
    "DSFError",
    "FreqSample",
    "NetworkGraph",
    "GraphMetrics",
    "default_q_points",
    "dsf_from_state_space",
    "boolean_structure",
    "graph_compare",
    "edge_auc",
    "save_dsf_result",
]


class DSFError(RuntimeError):
    """DSF evaluation failed: the evaluation points are empty or repeat, or
    64 moves did not take every point off the poles."""


@dataclass
class FreqSample:
    """DSF matrices evaluated at a set of complex shift-operator points."""

    q_points: np.ndarray
    Q_vals: np.ndarray   # (L, p, p)
    P_vals: np.ndarray   # (L, p, m)
    H_vals: np.ndarray   # (L, p, p)

    @property
    def p(self):
        return self.Q_vals.shape[1]

    @property
    def m(self):
        return self.P_vals.shape[2]


@dataclass
class NetworkGraph:
    """Boolean adjacency of the dynamic network; q_adj[i, j] is the edge j -> i."""

    q_adj: np.ndarray
    p_adj: np.ndarray

    def __post_init__(self):
        self.q_adj = np.array(self.q_adj, dtype=bool)
        self.p_adj = np.array(self.p_adj, dtype=bool)
        if np.any(np.diag(self.q_adj)):
            raise ValueError("q_adj must have an all-false diagonal")


@dataclass
class GraphMetrics:
    precision: float
    tpr: float
    n_est_edges: int
    n_true_edges: int


def default_q_points():
    """The read-off's evaluation points: the 32 points e^{i pi (2k+1)/32}
    on the unit circle, a fresh array on every call."""
    return np.exp(1j * np.pi * (2 * np.arange(32) + 1) / 32)


# The factor a point that hits a pole is moved by, and the most moves
# dsf_from_state_space makes before giving up.
_POLE_STEP = 1.05
_MAX_MOVES = 64


def dsf_from_state_space(model, q_points):
    """Evaluate the DSF of ``model`` at the given shift-operator points.

    All points are evaluated in one batch.  A point hits a pole when it
    lies within 1e-8 max(1, |q|) of an eigenvalue of the hidden block or of
    a diagonal entry of W.  Each point that hits one is multiplied by 1.05,
    in index order, and again while it repeats another point; then the
    batch is evaluated again, until no point hits a pole.  The returned
    points are a function of the model and ``q_points`` alone.  Needing
    more than 64 moves raises DSFError.
    """
    q = np.array(q_points, dtype=complex).ravel()
    if q.size == 0:
        raise DSFError("need at least one evaluation point")
    if len(set(q.tolist())) != q.size:
        raise DSFError("q_points must be distinct")

    p = model.p
    A, B = model.A, model.B
    A11, A12, A22, B1 = A[:p, :p], A[:p, p:], A[p:, p:], B[:p]
    AB2 = np.hstack([A[p:, :p], B[p:]]).astype(complex)
    eig22 = np.linalg.eigvals(A22)
    diag = np.arange(p)

    moves = 0
    while True:
        tol = 1e-8 * np.maximum(1.0, np.abs(q))
        hit = ~np.all(np.abs(q[:, None] - eig22) > tol[:, None], axis=1)
        ok = ~hit
        # X = (qI - A22)^{-1} [A21 B2] off A22's eigenvalues; with no hidden
        # states (h = 0) the products are empty sums, zero
        X = np.linalg.solve(q[ok, None, None] * np.eye(A22.shape[0]) - A22, AB2)
        W = A11 + A12 @ X[..., :p]
        V = B1 + A12 @ X[..., p:]
        d = W[:, diag, diag]
        hit[ok] = np.abs(q[ok, None] - d).min(axis=1) <= tol[ok]
        if not hit.any():
            break
        for idx in np.flatnonzero(hit):
            while True:
                moves += 1
                if moves > _MAX_MOVES:
                    raise DSFError(f"could not find pole-free evaluation points "
                                   f"after {_MAX_MOVES} moves")
                q[idx] *= _POLE_STEP
                if np.count_nonzero(q == q[idx]) == 1:
                    break

    denom = (q[:, None] - d)[..., None]   # q - D_W, per output row
    Qhat = W.copy()
    Qhat[:, diag, diag] -= d              # W - D_W
    Qhat /= denom
    I = np.eye(p)
    return FreqSample(q_points=q, Q_vals=Qhat,
                      P_vals=V / denom + (I - Qhat) @ model.D,
                      H_vals=model.sigma * I / denom + (I - Qhat))


def _check_rel_tol(rel_tol, name="rel_tol"):
    """ValueError unless the structure threshold is in [0, 1); NaN is not."""
    if not 0 <= rel_tol < 1:
        raise ValueError(f"{name} must be in [0, 1), got {rel_tol}")


def boolean_structure(sample, rel_tol):
    """Extract the Boolean network from sampled DSF values.

    An edge j -> i is present when max_q |Q_ij(q)| exceeds rel_tol times
    the largest magnitude over all entries and points of Q; the same rule
    applies to P.  All-zero matrices yield an empty (valid) graph.  A
    ``rel_tol`` outside [0, 1) raises ValueError.
    """
    _check_rel_tol(rel_tol)
    if sample.q_points.size == 0:
        raise ValueError("sample is empty")
    absQ, absP = (np.abs(v).max(axis=0) for v in (sample.Q_vals, sample.P_vals))
    q_adj, p_adj = absQ > rel_tol * absQ.max(), absP > rel_tol * absP.max()
    np.fill_diagonal(q_adj, False)
    return NetworkGraph(q_adj=q_adj, p_adj=p_adj)


def graph_compare(est, truth):
    """Precision and TPR of the estimated Q adjacency against the truth.

    Conventions: precision is 1 when no edges are claimed (no false
    positives exist) and TPR is 1 when the truth has no edges.
    """
    if est.q_adj.shape != truth.q_adj.shape:
        raise ValueError(f"graph dimensions differ: {est.q_adj.shape} "
                         f"vs {truth.q_adj.shape}")
    offdiag = ~np.eye(est.q_adj.shape[0], dtype=bool)
    e = est.q_adj & offdiag
    t = truth.q_adj & offdiag
    correct = int((e & t).sum())
    n_est = int(e.sum())
    n_true = int(t.sum())
    precision = 1.0 if n_est == 0 else correct / n_est
    tpr = 1.0 if n_true == 0 else correct / n_true
    return GraphMetrics(precision=precision, tpr=tpr,
                        n_est_edges=n_est, n_true_edges=n_true)


def edge_auc(sample, truth):
    """Area under the ROC curve of the edge scores max_q |Q_ij(q)| of a
    sampled DSF against the truth's Q adjacency, over the off-diagonal
    entries (i != j).

    It is the fraction of (true edge, non-edge) pairs whose true edge
    scores higher, a tie counting one half (Fawcett, Pattern Recogn. Lett.
    27, 2006), so it depends on no threshold.  NaN when the truth has no
    edge or no non-edge.
    """
    score = np.abs(sample.Q_vals).max(axis=0)
    if score.shape != truth.q_adj.shape:
        raise ValueError(f"graph dimensions differ: {score.shape} "
                         f"vs {truth.q_adj.shape}")
    offdiag = ~np.eye(score.shape[0], dtype=bool)
    neg = np.sort(score[offdiag & ~truth.q_adj])
    pos = score[offdiag & truth.q_adj]
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def save_dsf_result(path, sample, graph, extra_header=()):
    """Write the DSF result file: q points, per-point complex matrices as
    re/im pairs, and the Boolean adjacencies."""
    def cplx_row(values):
        parts = []
        for v in np.asarray(values).ravel():
            parts.append(fmt(v.real))
            parts.append(fmt(v.imag))
        return " ".join(parts)

    L = sample.q_points.size
    lines = ["# netrecon dsf v1"]
    lines.extend(f"# {h}" for h in extra_header)
    lines.append(f"p {sample.p}")
    lines.append(f"m {sample.m}")
    lines.append(f"n_points {L}")
    for t in range(L):
        lines.append(f"point {t}")
        lines.append("q " + cplx_row([sample.q_points[t]]))
        lines.append("Q")
        lines.extend(cplx_row(row) for row in sample.Q_vals[t])
        lines.append("P")
        lines.extend(cplx_row(row) for row in sample.P_vals[t])
        lines.append("H")
        lines.extend(cplx_row(row) for row in sample.H_vals[t])
    lines += ["q_adjacency", *adjacency_rows(graph.q_adj),
              "p_adjacency", *adjacency_rows(graph.p_adj)]
    write_text(path, "\n".join(lines) + "\n")

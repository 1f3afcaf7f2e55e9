"""Dynamical structure functions (DSFs) of state-space models.

A DSF is the triple (Q, P, H) of transfer-function matrices relating the
measured outputs to each other, to the inputs, and to the innovations:

    y = Q(q) y + P(q) u + H(q) e

with zero diagonal and strictly proper entries in Q.  It is obtained by a
change of basis that exposes the measured coordinates, eliminating the
hidden block through its resolvent:

    W(q) = A11 + A12 (qI - A22)^{-1} A21        (and V, L likewise for B, K)
    Q  = (qI - D_W)^{-1} (W - D_W),   D_W = diag(W)
    P  = (qI - D_W)^{-1} V + (I - Q) D
    H  = (qI - D_W)^{-1} L + (I - Q)

The DSF is evaluated by sampling: every matrix is computed at a set of
complex points, which works at any size and is all the reconstruction
reads.  The exact rational DSF, built by the characteristic-polynomial
adjugate recursion on the hidden block, is kept with the tests as the
oracle for this path; it shares ``_transformed_blocks`` with it.

The nonzero pattern of (Q, P) is the Boolean network; graph comparison
metrics (precision, true-positive rate) operate on the Q adjacency.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "save_dsf_result",
]


class DSFError(RuntimeError):
    """DSF evaluation failed (rank-deficient C, or no pole-free points found)."""


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


# The annulus |q| in [1.5, 4] from which random evaluation points are drawn,
# both the default ones and the replacements of points that hit a pole.
_ANNULUS = (1.5, 4.0)


def default_q_points(seed=0):
    """Default evaluation points: 16 points on the circle |q| = 2 plus 16
    points drawn uniformly in the annulus |q| in [1.5, 4] (radii first,
    then phases, from ``default_rng(seed)``)."""
    angles = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    circle = 2.0 * np.exp(1j * angles)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(_ANNULUS[0], _ANNULUS[1], 16)
    phases = rng.uniform(0.0, 2.0 * np.pi, 16)
    return np.concatenate([circle, radii * np.exp(1j * phases)])


def _noise_coupling(model):
    # K = sigma * [I_p; 0], the innovations-form coupling into the state
    K = np.zeros((model.n, model.p))
    K[: model.p, : model.p] = model.sigma * np.eye(model.p)
    return K


def _transformed_blocks(model):
    """Change basis so the first p coordinates are the measured outputs.

    Returns the partitioned blocks of T A T^{-1}, T B, T K with
    T = [C; E^T], E an orthonormal null-space basis of C.
    """
    C = model.C
    n, p = model.n, model.p
    if np.linalg.matrix_rank(C) != p:
        raise DSFError("C must have full row rank")
    E = scipy.linalg.null_space(C)
    if E.shape != (n, n - p):
        raise DSFError("null-space basis of C has unexpected dimension")
    T = np.vstack([C, E.T])
    Ebar = C.T @ np.linalg.inv(C @ C.T)
    Tinv = np.hstack([Ebar, E])
    Ahat = T @ model.A @ Tinv
    Bhat = T @ model.B
    Khat = T @ _noise_coupling(model)
    A11, A12 = Ahat[:p, :p], Ahat[:p, p:]
    A21, A22 = Ahat[p:, :p], Ahat[p:, p:]
    return A11, A12, A21, A22, Bhat[:p], Bhat[p:], Khat[:p], Khat[p:]


# Most pole-hitting points dsf_from_state_space replaces before giving up.
_MAX_RESAMPLE = 64


def dsf_from_state_space(model, q_points):
    """Evaluate the DSF of ``model`` at the given shift-operator points.

    Points that collide with a pole (an eigenvalue of the hidden block or a
    diagonal entry of W) are replaced by random draws from the annulus
    |q| in [1.5, 4], from a fixed-seed generator, so the returned points
    depend on the model and ``q_points`` alone.  Needing more than 64
    replacements raises DSFError.
    """
    q = np.asarray(q_points, dtype=complex).ravel()
    if q.size == 0:
        raise DSFError("need at least one evaluation point")
    if len(np.unique(q)) != q.size:
        raise DSFError("q_points must be distinct")
    rng = np.random.default_rng(0x0D5F)

    blocks = _transformed_blocks(model)
    A22 = blocks[3]
    eig22 = np.linalg.eigvals(A22) if A22.size else np.array([], dtype=complex)
    p, m = model.p, model.m

    points = list(q)
    Q_vals = np.empty((len(points), p, p), dtype=complex)
    P_vals = np.empty((len(points), p, m), dtype=complex)
    H_vals = np.empty((len(points), p, p), dtype=complex)

    resamples = 0
    for idx in range(len(points)):
        while True:
            qi = points[idx]
            pole_tol = 1e-8 * max(1.0, abs(qi))
            ok = eig22.size == 0 or np.min(np.abs(qi - eig22)) > pole_tol
            result = _eval_dsf_point(qi, blocks, model.D, pole_tol) if ok else None
            if result is not None:
                Q_vals[idx], P_vals[idx], H_vals[idx] = result
                break
            resamples += 1
            if resamples > _MAX_RESAMPLE:
                raise DSFError(f"could not find pole-free evaluation points "
                               f"after {_MAX_RESAMPLE} resamples")
            radius = rng.uniform(*_ANNULUS)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            candidate = radius * np.exp(1j * phase)
            if candidate not in points:
                points[idx] = candidate
    return FreqSample(q_points=np.array(points), Q_vals=Q_vals,
                      P_vals=P_vals, H_vals=H_vals)


def _eval_dsf_point(q, blocks, D, pole_tol):
    A11, A12, A21, A22, B1, B2, K1, K2 = blocks
    h = A22.shape[0]
    if h > 0:
        rhs = np.hstack([A21, B2, K2]).astype(complex)
        X = np.linalg.solve(q * np.eye(h) - A22, rhs)
        nB = B2.shape[1]
        W = A11 + A12 @ X[:, : A21.shape[1]]
        V = B1 + A12 @ X[:, A21.shape[1]: A21.shape[1] + nB]
        L = K1 + A12 @ X[:, A21.shape[1] + nB:]
    else:
        W = A11.astype(complex)
        V = B1.astype(complex)
        L = K1.astype(complex)
    d = np.diag(W)
    if np.min(np.abs(q - d)) <= pole_tol:
        return None
    denom = (q - d)[:, None]
    Qhat = (W - np.diag(d)) / denom
    p = A11.shape[0]
    I = np.eye(p)
    return Qhat, V / denom + (I - Qhat) @ D, L / denom + (I - Qhat)


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

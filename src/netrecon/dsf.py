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

Two evaluation paths are provided: frequency sampling at a set of complex
points (works at any size) and exact rational arithmetic via the
characteristic-polynomial adjugate recursion (small hidden blocks only).
The exact path serves as an oracle for the sampled one.

The nonzero pattern of (Q, P) is the Boolean network; graph comparison
metrics (precision, true-positive rate) operate on the Q adjacency.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

__all__ = [
    "DSFError",
    "UnsupportedSizeError",
    "FreqSample",
    "RationalMatrix",
    "NetworkGraph",
    "GraphMetrics",
    "default_q_points",
    "dsf_from_state_space",
    "exact_dsf_small",
    "boolean_structure",
    "graph_compare",
    "save_dsf_result",
]


class DSFError(RuntimeError):
    """DSF evaluation failed (rank-deficient C, or no pole-free points found)."""


class UnsupportedSizeError(DSFError):
    """The exact rational path only supports small hidden blocks."""


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


class RationalMatrix:
    """Matrix of scalar rational functions, each a (num, den) coefficient pair.

    Coefficients are stored lowest power first and denominators are monic.
    An entry is identically zero when its numerator has no nonzero
    coefficient.
    """

    def __init__(self, entries):
        self.entries = entries
        self.shape = (len(entries), len(entries[0]))

    def num(self, i, j):
        return self.entries[i][j][0]

    def den(self, i, j):
        return self.entries[i][j][1]

    def is_zero(self, i, j):
        return not np.any(self.num(i, j))

    def zero_pattern(self):
        rows, cols = self.shape
        return np.array([[not self.is_zero(i, j) for j in range(cols)]
                         for i in range(rows)])

    def evaluate(self, q_points):
        """Evaluate every entry at the given complex points; returns (L, rows, cols)."""
        q = np.asarray(q_points, dtype=complex).ravel()
        rows, cols = self.shape
        out = np.empty((q.size, rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                num, den = self.entries[i][j]
                out[:, i, j] = npoly.polyval(q, num) / npoly.polyval(q, den)
        return out


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


def default_q_points(n_circle=16, n_random=16, circle_radius=2.0,
                     annulus=(1.5, 4.0), seed=0):
    """Default evaluation points: n_circle points on a circle plus n_random
    points drawn uniformly in an annulus of the complex plane."""
    angles = 2.0 * np.pi * (np.arange(n_circle) + 0.5) / max(n_circle, 1)
    circle = circle_radius * np.exp(1j * angles)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(annulus[0], annulus[1], n_random)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_random)
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


def dsf_from_state_space(model, q_points, max_resample=64, rng=None):
    """Evaluate the DSF of ``model`` at the given shift-operator points.

    Points that collide with a pole (an eigenvalue of the hidden block or a
    diagonal entry of W) are replaced by random draws from the annulus
    |q| in [1.5, 4], up to ``max_resample`` replacements.
    """
    q = np.asarray(q_points, dtype=complex).ravel()
    if q.size == 0:
        raise DSFError("need at least one evaluation point")
    if len(np.unique(q)) != q.size:
        raise DSFError("q_points must be distinct")
    if rng is None:
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
            if resamples > max_resample:
                raise DSFError(f"could not find pole-free evaluation points "
                               f"after {max_resample} resamples")
            radius = rng.uniform(1.5, 4.0)
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


def _faddeev_leverrier(M):
    """Characteristic polynomial and adjugate expansion of (qI - M).

    Returns (char, adj) where char has length h+1 (lowest power first,
    monic) and adj[d] is the h x h coefficient matrix of q^d in
    adj(qI - M) = sum_d q^d adj[d], so (qI - M)^{-1} = adj(q) / char(q).
    """
    h = M.shape[0]
    coeffs = np.zeros(h + 1)
    coeffs[h] = 1.0
    adj = np.zeros((h, h, h))
    Nk = np.eye(h)
    for k in range(1, h + 1):
        if k > 1:
            Nk = M @ Nk + c * np.eye(h)
        c = -np.trace(M @ Nk) / k
        coeffs[h - k] = c
        adj[h - k] = Nk
    return coeffs, adj


def _poly_trim(c):
    c = np.asarray(c, dtype=float)
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1)


def _canonical_zero(matrix_polys, rel_tol=1e-10):
    """Zero out entries whose coefficients all fall below rel_tol times the
    largest coefficient magnitude in the matrix (recursion round-off)."""
    scale = max((np.max(np.abs(c)) for row in matrix_polys for c in row), default=0.0)
    thresh = rel_tol * scale
    out = []
    for row in matrix_polys:
        out_row = []
        for c in row:
            c = np.where(np.abs(c) <= thresh, 0.0, c)
            out_row.append(_poly_trim(c))
        out.append(out_row)
    return out


def exact_dsf_small(model, max_hidden=12):
    """Exact rational (Q, P, H) via the adjugate recursion on the hidden block.

    Every entry in row i shares the monic denominator
    d_i(q) = q char(q) - w_ii(q), where char is the characteristic
    polynomial of the hidden block and w_ij collects the numerators of W.
    Only feasible for small hidden blocks; raises UnsupportedSizeError when
    n - p exceeds ``max_hidden``.
    """
    h = model.n - model.p
    if h > max_hidden:
        raise UnsupportedSizeError(
            f"exact path supports n - p <= {max_hidden}, got {h}")
    A11, A12, A21, A22, B1, B2, K1, K2 = _transformed_blocks(model)
    p, m = model.p, model.m

    char, adj = _faddeev_leverrier(A22) if h > 0 else (np.ones(1), np.zeros((0, 0, 0)))

    def numerator_polys(first, second):
        # entries of first*char + A12 adj second, as (rows, cols) coeff arrays
        rows, cols = first.shape
        deg = h + 1
        out = np.zeros((deg, rows, cols))
        for d in range(len(char)):
            out[d] += first * char[d]
        for d in range(h):
            out[d] += A12 @ adj[d] @ second
        return [[_poly_trim(out[:, i, j]) for j in range(cols)] for i in range(rows)]

    w = numerator_polys(A11, A21)
    v = numerator_polys(B1, B2)
    l = numerator_polys(K1, K2)

    # row denominators d_i = q*char - w_ii, monic of degree h+1
    dens = []
    for i in range(p):
        dpoly = np.zeros(h + 2)
        dpoly[1:] = char
        wi = w[i][i]
        dpoly[: len(wi)] -= wi
        dens.append(_poly_trim(dpoly))

    zero = np.zeros(1)
    one = np.ones(1)

    q_nums = [[w[i][j] if i != j else zero for j in range(p)] for i in range(p)]
    h_nums = []
    for i in range(p):
        row = []
        for j in range(p):
            if i == j:
                row.append(_poly_trim(npoly.polyadd(l[i][i], dens[i])))
            else:
                row.append(_poly_trim(npoly.polysub(l[i][j], w[i][j])))
        h_nums.append(row)
    p_nums = []
    for i in range(p):
        row = []
        for j in range(m):
            num = v[i][j]
            if np.any(model.D):
                # (I - Qhat) D contribution: D_ij d_i - sum_{l != i} w_il D_lj
                num = npoly.polyadd(num, model.D[i, j] * dens[i])
                for l_idx in range(p):
                    if l_idx != i and model.D[l_idx, j] != 0.0:
                        num = npoly.polysub(num, model.D[l_idx, j] * w[i][l_idx])
            row.append(_poly_trim(num))
        p_nums.append(row)

    def build(nums, cols):
        nums = _canonical_zero(nums)
        return RationalMatrix([[(nums[i][j], dens[i].copy()) for j in range(cols)]
                               for i in range(len(nums))])

    return build(q_nums, p), build(p_nums, m), build(h_nums, p)


def boolean_structure(sample, rel_tol):
    """Extract the Boolean network from sampled DSF values.

    An edge j -> i is present when max_q |Q_ij(q)| exceeds rel_tol times
    the largest magnitude over all entries and points of Q; the same rule
    applies to P.  All-zero matrices yield an empty (valid) graph.
    """
    if sample.q_points.size == 0:
        raise ValueError("sample is empty")
    absQ = np.abs(sample.Q_vals).max(axis=0)
    absP = np.abs(sample.P_vals).max(axis=0)
    q_adj = absQ > rel_tol * absQ.max() if absQ.max() > 0 else np.zeros_like(absQ, dtype=bool)
    p_adj = absP > rel_tol * absP.max() if absP.max() > 0 else np.zeros_like(absP, dtype=bool)
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
    from .fileio import fmt

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
    lines.append("q_adjacency")
    lines.extend(" ".join(str(int(v)) for v in row) for row in graph.q_adj)
    lines.append("p_adjacency")
    lines.extend(" ".join(str(int(v)) for v in row) for row in graph.p_adj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

"""State-space models, random sparse ground-truth systems, and simulation.

The model class represents the discrete-time innovations-form system

    x(t_{k+1}) = A x(t_k) + B u(t_k) + process noise
    y(t_k)     = C x(t_k) + D u(t_k) + measurement noise

whose outputs are the first p states: C = [I 0], the setting in which the
dynamical structure function is defined (Goncalves & Warnick, IEEE TAC
53(7), 2008).  ``StateSpaceModel`` takes p, not C, so simulation,
estimation and the DSF read the outputs as those states and form no
product with C.  The feedthrough D defaults to zero, which estimation
requires.  The model has a single scale parameter ``sigma``: the process
noise is drawn as ``sigma * N(0, I_n)`` and the measurement noise as
``sigma * N(0, I_p)`` during simulation.  The estimation modules assume
process covariance ``sigma^2 I`` and unit measurement covariance, so
``sigma`` is the one noise knob shared by generation and identification.

A dataset holds outputs y(t_1..t_N) and the inputs u(t_0..t_{N-1}) that
drive each transition; there is no measurement at t_0.
"""

from dataclasses import dataclass

import numpy as np

from .fileio import LineReader, fmt, fmt_row, write_text
from .sbl import _check_number_fields
from .smoother import _first_nonfinite, _linear_scan

__all__ = [
    "StateSpaceModel",
    "Dataset",
    "GroundTruth",
    "GenerationError",
    "SimulationDivergedError",
    "generate_random_network",
    "simulate",
    "scale_noise_for_snr",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_model",
    "load_model",
]


class GenerationError(RuntimeError):
    """Random system generation kept producing unusable models."""


class SimulationDivergedError(RuntimeError):
    """The simulated state left the representable range (unstable model);
    ``step`` is the first step k >= 1 whose state x_k is not finite."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"simulation diverged at step {step}")


def _as_matrix(x, shape, name):
    arr = np.array(x, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_record(x):
    """``x`` as a float array with one row per sample; a 1-D record is one
    channel, so it becomes one column."""
    arr = np.array(x, dtype=float)
    return arr[:, None] if arr.ndim == 1 else np.atleast_2d(arr)


@dataclass
class StateSpaceModel:
    """Innovations-form LTI model (A, B, p, sigma, m0, R0, D).

    The outputs are the first p states, 1 <= p <= n, so ``C`` reads [I 0]
    (``np.eye(p, n)``); D defaults to zero.  Every entry must be finite.
    R0 must be symmetric positive semidefinite, and sigma must be
    nonnegative (zero means a noise-free system; the Kalman filter
    additionally requires sigma > 0).
    """

    A: np.ndarray
    B: np.ndarray
    p: int
    sigma: float
    m0: np.ndarray
    R0: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        _check_number_fields(self)
        p = self.p = int(self.p)
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
        B = np.array(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        m = B.shape[1]
        self.A = _as_matrix(A, (n, n), "A")
        self.B = _as_matrix(B, (n, m), "B")
        self.D = np.zeros((p, m)) if self.D is None else _as_matrix(self.D, (p, m), "D")
        self.m0 = _as_matrix(np.reshape(self.m0, n), (n,), "m0")
        self.R0 = _as_matrix(self.R0, (n, n), "R0")
        self.sigma = float(self.sigma)
        if not 0 <= self.sigma < np.inf:   # NaN fails this too
            raise ValueError(f"sigma must be nonnegative and finite, "
                             f"got {self.sigma}")
        # np.allclose(R0, R0', atol=1e-10), without its per-call overhead
        if not np.all(np.abs(self.R0 - self.R0.T)
                      <= 1e-10 + 1e-5 * np.abs(self.R0.T)):
            raise ValueError("R0 must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (self.R0 + self.R0.T))
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError("R0 must be positive semidefinite")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def C(self):
        return np.eye(self.p, self.n)

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass
class Dataset:
    """Simulated or measured input/output record.

    Y[k] is y(t_{k+1}) and U[k] is u(t_k) for k = 0..N-1, so U[k] drives
    the transition into the sample stored in Y[k].  A 1-D ``Y`` or ``U``
    is one channel: N rows of one column.
    """

    Y: np.ndarray
    U: np.ndarray
    N: int
    seed: int | None = None
    snr_db: float | None = None

    def __post_init__(self):
        self.Y = _as_record(self.Y)
        self.U = _as_record(self.U)
        if len(self.Y) != self.N or len(self.U) != self.N:
            raise ValueError("Y and U must both have N rows")
        if not (np.all(np.isfinite(self.Y)) and np.all(np.isfinite(self.U))):
            raise ValueError("dataset contains non-finite values")

    @property
    def p(self):
        return self.Y.shape[1]

    @property
    def m(self):
        return self.U.shape[1]


@dataclass
class GroundTruth:
    """A generated model together with the Boolean structure of its network."""

    model: StateSpaceModel
    q_structure: np.ndarray
    p_structure: np.ndarray

    def __post_init__(self):
        self.q_structure = np.array(self.q_structure, dtype=bool)
        self.p_structure = np.array(self.p_structure, dtype=bool)
        if np.any(np.diag(self.q_structure)):
            raise ValueError("q_structure must have an all-false diagonal")


# Candidate systems generate_random_network draws before giving up; a
# candidate is redrawn when its A pattern is degenerate or its Q has no edge.
_MAX_DRAWS = 20


def _check_generation(p, n, m, density):
    """ValueError unless ``generate_random_network`` can draw a system of
    these sizes and density."""
    if n < p:
        raise ValueError("need n >= p")
    if m != p:
        raise ValueError("need m = p so the input-to-output map can be square")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if density * n * n < n:
        raise ValueError("density too low: expected at least n nonzeros in A")


def generate_random_network(p, n, m, density, seed):
    """Draw a random stable sparse system with diagonal-led B.

    The sparsity pattern of A is directed Erdos-Renyi with the given
    density, entries are uniform on +-[0.5, 1.0], and A is rescaled to a
    spectral radius drawn uniformly from [0.5, 0.95].  B is [diag(b); 0]
    with b_i uniform in [0.5, 1.5], so P = diag(b_i / (q - W_ii)) and its
    structure is the identity.  Q's structure is the closure of A's zero
    pattern (``_q_closure``).  Both are exact; no DSF is sampled.

    Candidates whose A pattern is degenerate, or whose Q has no edge
    (p >= 2), are redrawn; after 20 candidates a GenerationError is
    raised.  Equal arguments give an equal system.
    """
    _check_generation(p, n, m, density)
    rng = np.random.default_rng(seed)
    expected_nnz = density * n * n
    for _ in range(_MAX_DRAWS):
        pattern = rng.random((n, n)) < density
        signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        A = np.where(pattern, signs * rng.uniform(0.5, 1.0, (n, n)), 0.0)
        rho_target = rng.uniform(0.5, 0.95)
        b = rng.uniform(0.5, 1.5, p)
        # unused: drawn so that each seed keeps drawing the candidates it
        # drew when this value seeded a sampled DSF
        rng.integers(2**32)

        nnz = int(np.count_nonzero(A))
        if nnz == 0 or nnz > 2 * expected_nnz + 4:
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        q_structure = _q_closure(A, p)
        if rho < 1e-12 or (p > 1 and not q_structure.any()):
            continue
        B = np.vstack([np.diag(b), np.zeros((n - p, m))])
        model = StateSpaceModel(A=A * (rho_target / rho), B=B, p=p, sigma=1.0,
                                m0=np.zeros(n), R0=np.eye(n))
        return GroundTruth(model=model, q_structure=q_structure,
                           p_structure=np.eye(p, dtype=bool))
    raise GenerationError(f"no usable random system after {_MAX_DRAWS} attempts")


def _q_closure(A, p):
    """Q adjacency of A's DSF with outputs the first p states: for random
    nonzeros it is generically W_bool = A11 | A12 (I | A22)* A21 off the
    diagonal (Dion, Commault & van der Woude, Automatica 39(7), 2003)."""
    nz = A != 0
    reach = nz[p:, p:] | np.eye(len(A) - p, dtype=bool)
    for _ in range((len(A) - p - 1).bit_length()):   # ceil(log2(h)) squarings
        reach = reach @ reach
    q = nz[:p, :p] | nz[:p, p:] @ reach @ nz[p:, :p]
    return q & ~np.eye(p, dtype=bool)


def _psd_sqrt(M):
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _rollout(model, U_full, sigma, x0, rng):
    """Outputs y_1..y_N of x_k = A x_{k-1} + B u_{k-1} + sigma w_k from
    x_0 = x0, with y_k = C x_k + D u_k + sigma e_k, where C x_k is the first p
    entries of x_k; rng=None means noise-free.

    One call draws the noise of all steps, w_k (n values) then e_k (p
    values) for each k in turn: the stream of a per-step loop.  The states
    come from the blocked scan ``smoother._linear_scan``, which agrees with
    a per-step loop to rounding, not bit for bit.  The scan forms powers
    of A up to about A^N, and once one overflows, inf times a zero state is
    NaN; so where the scan yields a state that is not finite, the steps
    from the last finite state are redone one at a time with their input
    terms, and SimulationDivergedError names the first step whose state
    that recursion leaves not finite.
    """
    N = len(U_full) - 1
    n, p = model.n, model.p
    noise = np.zeros((N, n + p)) if rng is None else rng.standard_normal((N, n + p))
    W = noise[:, :n]
    W *= sigma
    X = np.empty((N + 1, n))
    X[0] = x0
    np.matmul(U_full[:N], model.B.T, out=X[1:])
    X[1:] += W   # the input terms
    with np.errstate(over="ignore", invalid="ignore"):
        _linear_scan(model.A, X)
        first = _first_nonfinite(X, 1, N + 1)
        if first is not None:
            G = U_full[:N] @ model.B.T + W   # as the scan's input terms
            for k in range(first, N + 1):
                X[k] = model.A @ X[k - 1] + G[k - 1]
                if not np.isfinite(X[k]).all():
                    raise SimulationDivergedError(k)
    return X[1:, :p] + U_full[1:] @ model.D.T + sigma * noise[:, n:]


def simulate(model, N, input_kind="gaussian_iid", U_provided=None, snr_db=None, seed=None):
    """Simulate N output samples y(t_1..t_N) driven by u(t_0..t_{N-1}).

    With ``input_kind="gaussian_iid"`` the inputs are i.i.d. standard
    normal; ``"provided"`` uses ``U_provided`` (N rows; a 1-D sequence is
    one input).  The feedthrough input at the final sample, u(t_N), is not
    part of the recorded input sequence; it is drawn in gaussian mode and
    taken as zero for provided inputs (only relevant when D is nonzero).

    If ``snr_db`` is given, sigma is first rescaled by
    :func:`scale_noise_for_snr` so the channel-averaged output
    signal-to-noise variance ratio hits the target.
    """
    _check_simulation(N, snr_db)
    rng = np.random.default_rng(seed)
    n, m = model.n, model.m

    if input_kind == "gaussian_iid":
        U_full = rng.standard_normal((N + 1, m))
    elif input_kind == "provided":
        if U_provided is None:
            raise ValueError("input_kind='provided' requires U_provided")
        U = _as_record(U_provided)
        if U.shape != (N, m):
            raise ValueError(f"U_provided must have shape ({N}, {m}), got {U.shape}")
        U_full = np.vstack([U, np.zeros((1, m))])
    else:
        raise ValueError(f"unknown input_kind {input_kind!r}")

    sigma = model.sigma
    if snr_db is not None:
        sigma = scale_noise_for_snr(model, U_full[:N], snr_db,
                                    seed=int(rng.integers(2**32)))

    x0 = model.m0 + _psd_sqrt(model.R0) @ rng.standard_normal(n)
    Y = _rollout(model, U_full, sigma, x0, rng)
    return Dataset(Y=Y, U=U_full[:N].copy(), N=N, seed=seed, snr_db=snr_db)


def _check_snr(snr_db, name="snr_db"):
    """ValueError unless ``snr_db > -inf``; NaN fails that test too, and
    +inf dB means noise-free."""
    if not snr_db > -np.inf:
        raise ValueError(f"{name} must be above -inf dB, got {snr_db}")


def _check_simulation(N, snr_db, name="snr_db"):
    """ValueError unless ``simulate`` can run N samples at ``snr_db``: N >= 1,
    and with an SNR, one that ``_check_snr`` accepts (its error names
    ``name``) and N >= 2, since the noise scale is set from the variances
    of N samples."""
    if N < 1:
        raise ValueError("need N >= 1")
    if snr_db is not None:
        _check_snr(snr_db, name)
        if N < 2:
            raise ValueError("need at least two input samples to estimate variances")


def scale_noise_for_snr(model, U, snr_db, seed=None):
    """Return sigma hitting a target output SNR for the given input sequence.

    SNR is the channel-averaged ratio of the noise-free output variance to
    the variance of the noise contribution.  Both are estimated from one
    noise-free rollout and one unit-noise rollout from x0 = m0; since the
    system is linear, the noise contribution scales exactly with sigma.
    ``U`` has one row per sample and ``model.m`` columns (a 1-D ``U`` is
    one input).  ``snr_db`` must be above -inf (NaN is not); +inf gives
    sigma 0.
    """
    U = _as_record(U)
    if U.shape[1] != model.m:
        raise ValueError(f"U must have {model.m} columns, got {U.shape[1]}")
    _check_simulation(len(U), snr_db)
    if model.spectral_radius() >= 1.0:
        raise ValueError("model must be stable to define a steady SNR")
    U_full = np.vstack([U, np.zeros((1, model.m))])
    y_free = _rollout(model, U_full, 0.0, model.m0, None)
    y_unit = _rollout(model, U_full, 1.0, model.m0, np.random.default_rng(seed))
    noise = y_unit - y_free
    v_signal = float(np.mean(np.var(y_free, axis=0)))
    v_noise = float(np.mean(np.var(noise, axis=0)))
    if v_signal <= 1e-300:
        raise ValueError("zero signal power: noise-free output has no variance")
    return float(np.sqrt(v_signal / v_noise) * 10.0 ** (-snr_db / 20.0))


# ---------------------------------------------------------------------------
# file formats

def save_dataset_csv(dataset, path):
    """Write the dataset CSV: header t,y1..yp,u1..um; row k holds the 1-based
    index, y(t_k), and the input u(t_{k-1}) driving that step."""
    p, m = dataset.p, dataset.m
    lines = ["# netrecon dataset v1"]
    if dataset.seed is not None:
        lines.append(f"# seed {int(dataset.seed)}")
    if dataset.snr_db is not None:
        lines.append(f"# snr_db {fmt(dataset.snr_db)}")
    header = ["t"] + [f"y{i + 1}" for i in range(p)] + [f"u{j + 1}" for j in range(m)]
    lines.append(",".join(header))
    for k in range(dataset.N):
        row = [str(k + 1)] + [fmt(v) for v in dataset.Y[k]] + [fmt(v) for v in dataset.U[k]]
        lines.append(",".join(row))
    write_text(path, "\n".join(lines) + "\n")


def load_dataset_csv(path):
    """Read a dataset CSV; the ``# seed`` and ``# snr_db`` comments fill
    its metadata, and one given twice raises FileFormatError at the
    second."""
    reader = LineReader(path)
    header = reader.next_line().split(",")
    if header[0] != "t":
        reader.error(f"first column must be 't', found {header[0]!r}")
    p = sum(1 for name in header if name.startswith("y"))
    m = sum(1 for name in header if name.startswith("u"))
    expected = ["t"] + [f"y{i + 1}" for i in range(p)] + [f"u{j + 1}" for j in range(m)]
    if header != expected:
        reader.error(f"malformed header: expected {','.join(expected)}")
    Y_rows, U_rows = [], []
    k = 0
    while not reader.at_end():
        parts = reader.next_line().split(",")
        k += 1
        if len(parts) != 1 + p + m:
            reader.error(f"row {k}: expected {1 + p + m} fields, found {len(parts)}")
        try:
            t = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError:
            reader.error(f"row {k}: non-numeric field")
        if t != k:
            reader.error(f"row {k}: field 't' must be {k}, found {t}")
        Y_rows.append(vals[:p])
        U_rows.append(vals[p:])
    if k == 0:
        reader.error("dataset has no rows")
    kinds = {"seed": int, "snr_db": float}
    meta = dict.fromkeys(kinds)
    for lineno, comment in reader.comments:
        parts = comment.split(None, 1)
        if len(parts) == 2 and parts[0] in kinds:
            meta[parts[0]] = reader.field(*parts, kinds[parts[0]], lineno)
    return Dataset(Y=np.array(Y_rows), U=np.array(U_rows), N=k, **meta)


def save_model(model, path, seed=None, density=None):
    """Write the structured-text model file (matrices row-major, one row per line)."""
    n, p, m = model.n, model.p, model.m
    lines = ["# netrecon model v1", f"n {n}", f"p {p}", f"m {m}",
             f"sigma {fmt(model.sigma)}"]
    if seed is not None:
        lines.append(f"seed {int(seed)}")
    if density is not None:
        lines.append(f"density {fmt(density)}")
    for name, M in [("A", model.A), ("B", model.B), ("C", model.C), ("D", model.D)]:
        lines.append(name)
        lines.extend(fmt_row(row) for row in M)
    lines.append("m0")
    lines.append(fmt_row(model.m0))
    lines.append("R0")
    lines.extend(fmt_row(row) for row in model.R0)
    write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    """Read a model file; returns (model, metadata) with any seed/density
    found.  A metadata field given twice, a C row other than [I 0]'s, or a
    line other than a blank or a comment after R0 raises FileFormatError
    at that line."""
    reader = LineReader(path)
    n, p, m, sigma = (reader.parse(key, reader.expect_key(key), kind) for key, kind
                      in (("n", int), ("p", int), ("m", int), ("sigma", float)))
    kinds, meta = {"seed": int, "density": float}, {}
    # optional metadata lines before the first matrix block
    while True:
        line = reader.next_line()
        if line == "A":
            break
        parts = line.split(None, 1)
        if parts[0] in kinds and len(parts) == 2:
            meta[parts[0]] = reader.field(*parts, kinds[parts[0]])
        else:
            reader.error(f"unexpected field '{parts[0]}' before matrix A")
    A = np.vstack([reader.read_floats(n, f"matrix A row {r + 1}") for r in range(n)])
    B = reader.read_matrix("B", n, m)
    reader.expect_literal("C")
    for r, row in enumerate(np.eye(p, n)):
        if not np.array_equal(reader.read_floats(n, f"matrix C row {r + 1}"), row):
            reader.error(f"matrix C row {r + 1}: the outputs are the first p "
                         "states: C must be [I 0]")
    D = reader.read_matrix("D", p, m)
    reader.expect_literal("m0")
    m0 = reader.read_floats(n, "m0")
    R0 = reader.read_matrix("R0", n, n)
    if not reader.at_end():
        line = reader.next_line()
        reader.error(f"unexpected content after matrix R0: '{line}'")
    model = StateSpaceModel(A=A, B=B, p=p, sigma=sigma, m0=m0, R0=R0, D=D)
    return model, meta

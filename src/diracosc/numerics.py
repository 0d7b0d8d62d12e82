"""Discretized Hamiltonians and the numerical ground truth they provide.

Both operators are real symmetric lower bands (see ``kernels``), the
first-order one in the gauge U = diag(1, i, 1, i, ...); direct LAPACK
eigensolves keep every run deterministic. The first-order operator uses
antisymmetric central differences plus an optional second-difference
regulator (strength r) that lifts the lattice doubler branch by 2r/h; r = 1
is the default for spectra, while residual diagnostics always run at r = 0
so they measure the continuum equation.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np
import scipy.linalg

from . import kernels
from .errors import ZeroOutputError
from .model import Grid, ScalarField, SpinorField

# classify_bound: a bound state keeps at most OUTER_TOL of its probability in
# the outer OUTER_FRAC of the grid on each side; eigenvalues closer than
# DEGENERACY_TOL form one cluster
OUTER_FRAC = 0.1
OUTER_TOL = 0.01
DEGENERACY_TOL = 1e-6
# dirac_residual ignores the outer EXCLUDE_FRAC of nodes on each side
EXCLUDE_FRAC = 0.05
# reconstruct_spinor: output/input norm ratio below which the intertwiner
# counts as having annihilated its input
ZERO_OUTPUT_TOL = 1e-2
# selfconsistent_level: energy step that ends the fixed-point loop, and its
# iteration budget
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 100


@dataclass(frozen=True)
class DiracMatrix:
    grid: Grid
    storage: np.ndarray          # real-gauge lower band, shape (4, 2*n_points)


@dataclass(frozen=True)
class SchrodingerMatrix:
    grid: Grid
    storage: np.ndarray          # lower band, shape (2, n_points)


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs in ascending eigenvalue order, h-normalized vectors.

    kind is "dirac" (interleaved two-component vectors) or "schrodinger".
    bound_flags default to False until classify_bound runs.
    """

    kind: str
    grid: Grid
    values: np.ndarray
    vectors: np.ndarray          # columns match values
    residuals: np.ndarray
    bound_flags: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.bound_flags is None:
            object.__setattr__(
                self, "bound_flags", np.zeros(len(self.values), dtype=bool)
            )

    def node_density(self, i):
        """Per-node probability of eigenvector i (components summed for dirac)."""
        p = np.abs(self.vectors[:, i]) ** 2
        if self.kind == "dirac":
            p = p[0::2] + p[1::2]
        return p

    def bound(self):
        """(values, column indices) of the bound-flagged pairs."""
        idx = np.where(self.bound_flags)[0]
        return self.values[idx], idx


def _sample(profile, x):
    vals = np.asarray(profile.value(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("profile produced non-finite values on the grid")
    return vals


def build_dirac(profiles, grid, wilson_r=1.0):
    """Assemble the first-order operator for independent f, m, v profiles."""
    if wilson_r < 0:
        raise ValueError("wilson_r must be >= 0")
    x = grid.nodes
    f = _sample(profiles.f, x)
    m = _sample(profiles.m, x)
    v = _sample(profiles.v, x)
    band = kernels.assemble_dirac(f, m, v, grid.spacing, float(wilson_r))
    return DiracMatrix(grid=grid, storage=band)


def build_schrodinger(potential):
    """Assemble -d2/dx2 + V from a sampled potential."""
    grid = potential.grid
    band = kernels.assemble_schrodinger(
        np.asarray(potential.samples, dtype=float), grid.spacing
    )
    return SchrodingerMatrix(grid=grid, storage=band)


def _fix_phase(vectors):
    """Deterministic phase: largest-magnitude entry of each column real-positive."""
    for i in range(vectors.shape[1]):
        col = vectors[:, i]
        j = np.argmax(np.abs(col))
        piv = col[j]
        if piv != 0:
            vectors[:, i] = col * (abs(piv) / piv)
    return vectors


def eigensolve(matrix, k=None, window=None):
    """Eigenpairs of an assembled operator with the h-weighted normalization.

    Schrodinger: the k algebraically smallest pairs (all when k is None),
    from the tridiagonal band. Dirac: the pairs in `window=(lo, hi)`, or the
    full spectrum when window is None, from the real-gauge band; vectors are
    returned in the physical gauge. Values are in ascending order.
    """
    band = matrix.storage
    dim = band.shape[1]
    is_dirac = isinstance(matrix, DiracMatrix)
    if is_dirac and k is not None:
        raise ValueError("k selects Schrodinger levels; pass a window for a Dirac matrix")
    if not is_dirac and window is not None:
        raise ValueError("window selects Dirac pairs; pass k for a Schrodinger matrix")
    if k is not None and k > dim:
        raise ValueError(f"k={k} exceeds matrix dimension {dim}")
    try:
        if is_dirac:
            vals, vecs = scipy.linalg.eigh(
                kernels.band_dense(band), subset_by_value=window, overwrite_a=True
            )
        else:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                band[0], band[1, :-1],
                select="a" if k is None else "i",
                select_range=None if k is None else (0, k - 1),
            )
    except scipy.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {err}") from err
    res = np.linalg.norm(kernels.band_matvec(band, vecs) - vecs * vals, axis=0)
    if is_dirac:
        vecs = vecs.astype(complex)
        vecs[1::2] *= 1j
    vecs = _fix_phase(vecs / math.sqrt(matrix.grid.spacing))
    return EigenResult(
        kind="dirac" if is_dirac else "schrodinger",
        grid=matrix.grid,
        values=vals,
        vectors=vecs,
        residuals=res,
    )


def _outer_masses(density):
    n = len(density)
    kk = max(1, int(round(OUTER_FRAC * n)))
    tot = density.sum()
    if tot == 0:
        return 1.0, 1.0
    return density[:kk].sum() / tot, density[-kk:].sum() / tot


def _resolve_cluster(result, idx):
    """Re-mix a near-degenerate cluster to separate localized from edge states.

    Eigenvectors inside a (numerically) degenerate cluster are an arbitrary
    orthogonal mixture; LAPACK happily hybridizes a physical midgap state
    with a wall artifact at the same energy. Diagonalizing the outer-mass
    quadratic form inside the cluster subspace yields localization-sorted
    representatives deterministically. Values become Rayleigh quotients and
    residuals are widened by the cluster spread, both within DEGENERACY_TOL.
    """
    if len(idx) == 1:
        return
    vecs = result.vectors[:, idx]
    n = result.grid.n_points
    kk = max(1, int(round(OUTER_FRAC * n)))
    outer = np.zeros(vecs.shape[0], dtype=bool)
    if result.kind == "dirac":
        node_outer = np.zeros(n, dtype=bool)
        node_outer[:kk] = node_outer[-kk:] = True
        outer[0::2] = outer[1::2] = node_outer
    else:
        outer[:kk] = outer[-kk:] = True
    sub = vecs[outer, :]
    gram = sub.conj().T @ sub
    _, rot = np.linalg.eigh(gram)
    mixed = vecs @ rot
    h = result.grid.spacing
    mixed /= np.sqrt(np.sum(np.abs(mixed) ** 2, axis=0) * h)
    lam = result.values[idx]
    ray = np.real(np.sum(np.abs(rot) ** 2 * lam[:, None], axis=0))
    spread = np.sqrt(np.sum(np.abs(rot) ** 2 * (lam[:, None] - ray) ** 2, axis=0))
    order = np.argsort(ray, kind="stable")
    result.vectors[:, idx] = _fix_phase(mixed[:, order])
    result.values[idx] = ray[order]
    result.residuals[idx] = (result.residuals[idx].max() + spread)[order]


def classify_bound(result, continuum_edge):
    """Flag eigenpairs that are genuine bound states.

    A pair is bound when its eigenvalue lies strictly below the supplied
    continuum edge (|E| for dirac, algebraic for schrodinger) and at most
    OUTER_TOL of its probability mass sits in the outer OUTER_FRAC of the
    grid on each side. Near-degenerate clusters are re-mixed first (see
    _resolve_cluster) so hybridization with boundary artifacts cannot hide a
    localized state.
    """
    out = replace(
        result,
        values=result.values.copy(),
        vectors=result.vectors.copy(),
        residuals=result.residuals.copy(),
        bound_flags=np.zeros(len(result.values), dtype=bool),
    )
    below = (
        np.abs(out.values) < continuum_edge
        if out.kind == "dirac"
        else out.values < continuum_edge
    )
    cand = np.where(below)[0]
    if len(cand) == 0:
        return out
    # cluster candidates by eigenvalue gaps
    start = 0
    clusters = []
    for i in range(1, len(cand) + 1):
        if i == len(cand) or abs(out.values[cand[i]] - out.values[cand[i - 1]]) > DEGENERACY_TOL:
            clusters.append(cand[start:i])
            start = i
    for cl in clusters:
        _resolve_cluster(out, cl)
    for i in cand:
        left, right = _outer_masses(out.node_density(i))
        if left <= OUTER_TOL and right <= OUTER_TOL:
            out.bound_flags[i] = True
    return out


def dirac_continuum_edge(profiles, grid):
    """Scattering threshold |E| for profiles that saturate at the box ends.

    Each side contributes sqrt(f^2 + m^2) - |v| evaluated at the end node;
    the edge is the smaller one, clamped at zero. Exact for the odd
    saturating shapes used throughout; heuristic otherwise.
    """
    edges = []
    for xs in (-grid.half_length, grid.half_length):
        fs = float(np.asarray(profiles.f.value(xs)))
        ms = float(np.asarray(profiles.m.value(xs)))
        vs = float(np.asarray(profiles.v.value(xs)))
        edges.append(math.hypot(fs, ms) - abs(vs))
    return max(0.0, min(edges))


def schrodinger_continuum_edge(reduced, grid):
    """min over the two ends of wtilde^2 for a reduced partner problem."""
    ends = np.array([-grid.half_length, grid.half_length])
    return float(np.min(np.real(reduced.w_tilde(ends)) ** 2))


def _dirac_minus_e(f, m, v, h, psi1, psi2, energy):
    """(H - E) psi at r = 0 on physical components, via the real-gauge band."""
    x = np.empty(2 * len(psi1), dtype=complex)
    x[0::2] = psi1
    x[1::2] = -1j * psi2
    # E enters like v, on both diagonals
    y = kernels.band_matvec(kernels.assemble_dirac(f, m, v - energy, h, 0.0), x)
    return y[0::2], 1j * y[1::2]


def dirac_residual(profiles, psi, energy, jump_mask=True):
    """|| (H - E) psi || / || psi || with H matrix-free at r = 0.

    The outer EXCLUDE_FRAC of nodes on each side is ignored (boundary
    stencils), as are nodes straddling a profile discontinuity when
    jump_mask is set: the continuum equation holds one-sidedly at a jump and
    a central difference across it measures nothing.
    """
    grid = psi.grid
    x = grid.nodes
    f = _sample(profiles.f, x)
    m = _sample(profiles.m, x)
    v = _sample(profiles.v, x)
    r1, r2 = _dirac_minus_e(f, m, v, grid.spacing, psi.upper, psi.lower,
                            float(energy))
    n = grid.n_points
    mask = np.ones(n, dtype=bool)
    k = int(EXCLUDE_FRAC * n)
    if k > 0:
        mask[:k] = mask[-k:] = False
    if jump_mask:
        for prof in (f, m, v):
            rng = prof.max() - prof.min()
            if rng == 0:
                continue
            jumps = np.where(np.abs(np.diff(prof)) > 0.25 * rng)[0]
            for j in jumps:
                mask[max(j - 1, 0):min(j + 2, n)] = False
    num = np.sqrt(np.sum((np.abs(r1) ** 2 + np.abs(r2) ** 2)[mask]) * grid.spacing)
    den = np.sqrt(
        np.sum((np.abs(psi.upper) ** 2 + np.abs(psi.lower) ** 2)[mask]) * grid.spacing
    )
    if den == 0:
        raise ValueError("psi vanishes on the interior")
    return num / den


def reconstruct_spinor(phi, chi, model, energy):
    """Physical spinor from a reduced-problem solution phi.

    Applies the first-order intertwining operator to chi*phi(x) nodewise
    (central differences) and normalizes. At E = 0 the operator annihilates
    the supersymmetric ground state; that is detected by comparing output to
    input norm against ZERO_OUTPUT_TOL and reported as ZeroOutputError so the
    caller can switch to the direct first-order construction.
    """
    grid = phi.grid
    h = grid.spacing
    shape = _sample(model.profile, grid.nodes)
    f = model.kappa_f * shape
    m = model.kappa_m * shape
    v = model.kappa_v * shape
    p1 = chi[0] * np.asarray(phi.samples, dtype=complex)
    p2 = chi[1] * np.asarray(phi.samples, dtype=complex)
    # intertwiner = sigma_x p - sigma_y f + sigma_z m - v + E
    o1, o2 = _dirac_minus_e(f, m, -v, h, p1, p2, -float(energy))
    out_norm = math.sqrt(float(np.sum(np.abs(o1) ** 2 + np.abs(o2) ** 2)) * h)
    in_norm = math.sqrt(float(np.sum(np.abs(p1) ** 2 + np.abs(p2) ** 2)) * h)
    if in_norm == 0:
        raise ValueError("phi is identically zero")
    if out_norm < ZERO_OUTPUT_TOL * in_norm:
        raise ZeroOutputError(
            "the intertwining operator annihilated chi*phi (zero-energy ground "
            "state); build the state from the first-order equation instead"
        )
    return SpinorField(grid, o1 / out_norm, o2 / out_norm)


def selfconsistent_level(model, sigma, level, grid, seed_energy):
    """Fixed-point solve of one level when the potential carries the energy.

    With an electric coupling the reduced potential depends on E, so the
    partner-problem spectrum is found by iterating: solve with E_k inside
    the potential, read off eps at `level`, map back to E_{k+1}. Returns
    (energy, eps, iterations). Seeds of opposite sign probe the two
    branches. Raises RuntimeError when the loop fails to settle.
    """
    from .susy import reduce as susy_reduce

    E = float(seed_energy)
    sgn = 1.0 if E >= 0 else -1.0
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        red = susy_reduce(model, sigma, energy=E)
        pot = ScalarField(grid, red.effective_potential(grid.nodes))
        res = eigensolve(build_schrodinger(pot), k=level + 1)
        eps = float(res.values[level])
        if eps < 0:
            raise RuntimeError(f"level {level} has negative eps={eps:g}")
        E_new = sgn * math.sqrt(eps / red.epsilon_coefficient)
        if abs(E_new - E) < FIXED_POINT_TOL:
            return E_new, eps, it
        E = E_new
    raise RuntimeError(
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} steps"
    )

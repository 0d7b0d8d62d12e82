"""Discretized Hamiltonians and the numerical ground truth they provide.

Every operator is a real symmetric lower band (see ``kernels``), the
first-order ones in the sigma_y basis (w, u) they are solved in; direct
LAPACK eigensolves keep every run deterministic. The first-order operator
comes in two discretizations. `build_staggered` puts w on the nodes and u on
the midpoints: a tridiagonal chain of dimension 2N - 1 that does not split
+-E pairs (they are exact for odd f, m and v) and has no lattice
doubler, so it needs no regulator; it is what the census workflows solve.
It has one condition: once h * |m| reaches 2, its lattice band drops below
the continuum edge, so it refuses such grids.
`build_dirac` keeps both components on every node with antisymmetric central
differences plus an optional second-difference regulator (strength r) that
lifts the lattice doubler branch by 2r/h; the reference tests use it.
The second-order operator is tridiagonal, and so are the staggered chain
and the r = 1 per-node band: all go to one call of LAPACK's tridiagonal
solver. Only a per-node band at r != 1 builds a dense matrix. Either way
every eigenvector is real: the (w, u) chain of the band that was solved.
The residual diagnostic `dirac_residual` applies the per-node r = 0
operator, with a five-point first derivative (`_central`), to f, m, v
sampled on the nodes and directly to the physical
(psi1, psi2) samples of a spinor, so it measures the continuum equation
without assembling a band.

A windowed or k-smallest tridiagonal solve has two stages. Bisection
(stebz) stops at sqrt(eps_mach)*||T||, with ||T|| bounded by
max|d| + 2*max|e|, and inverse iteration (stein) gives the vectors; the
selected set is exact at any tolerance, because Sturm counts decide it.
Each value then becomes the Rayleigh quotient v^T T v of its unit vector,
which is accurate to rounding because the vector error enters squared.
Vectors whose bisected values lie within GROUP_TOLS tolerances of each
other get one Rayleigh-Ritz step together, which separates pairs split
below the bisection tolerance. The full-spectrum call does no bisection
and keeps LAPACK's values.

An index solve (one Schrodinger pair, what each Newton step of
`selfconsistent_level` reads) bisects and iterates for that pair alone,
not for every pair below it as the k = index + 1 solve does. A lone pair
has no neighbour to share a Rayleigh-Ritz step with, and inverse
iteration can return the vector of a neighbour closer than the bisection
tolerance with a residual as small as its own. So the pair is kept only
when its residual is at most LONE_RESIDUAL_TOL*||T|| and a Sturm count
over twice the bisection tolerance around it finds one eigenvalue;
otherwise the solve falls back to the k = index + 1 solve and returns its
last pair.

The census (cli.bound_census) takes its levels from `bound_levels`, which
solves the window for values and judges them from the values and the
staggered band alone. On a band that reversal negates, J T J = -T to
REFLECTION_TOL*||T|| (the staggered chain of odd f, m and v), it solves
(-tol, edge] only, tol the bisection tolerance, and mirrors each value
above tol to -value, once one Sturm count of (-edge, edge] agrees; else
it solves the full window. A value is bound when its WKB tunnelling
exponent to each wall is at least TUNNEL_MIN, unless it is the chain's
wall state at an end, whose Rayleigh quotient the band gives in closed
form. No census eigenvector leaves `_pairs`. `classify_bound` is the older,
geometric verdict (at most OUTER_TOL of a pair's weight in each outer
OUTER_FRAC of the box, degenerate clusters re-mixed first); the library
tests of the per-node operator and the second-order binding filter use it.

scipy.linalg is imported inside the eigensolver, so the first solve
(eigensolve or bound_levels) loads it; zero-mode constructions, report rechecks and runs that stop at a
config error need numpy alone and start faster.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from . import kernels, susy
from .errors import (
    BoxStateError,
    LatticeThresholdError,
    NonFiniteProfileError,
    GridOverflowError,
    VanishingSpinorError,
)
from .model import Grid, ScalarField

# bound_levels: a census value is bound when its tunnelling exponent to
# each wall is at least TUNNEL_MIN (its box shift is then about
# e^(-2 TUNNEL_MIN) of its scale); a decaying wall state takes the passing
# value nearest its Rayleigh quotient within max(WALL_TOL, its residual)
TUNNEL_MIN = 2.0
WALL_TOL = 1e-6
# classify_bound: a bound state keeps at most OUTER_TOL of its probability in
# the outer OUTER_FRAC of the grid on each side; eigenvalues closer than
# DEGENERACY_TOL form one cluster
OUTER_FRAC = 0.1
OUTER_TOL = 0.01
DEGENERACY_TOL = 1e-6
# dirac_residual ignores the outer EXCLUDE_FRAC of nodes on each side
EXCLUDE_FRAC = 0.05
# eigensolve, tridiagonal windows: bisection stops at BISECT_TOL * ||T||, and
# vectors whose bisected values lie within GROUP_TOLS bisection tolerances of
# each other share one Rayleigh-Ritz step (a pair split by just over 100
# tolerances keeps residuals near 1e-13 * ||T|| from inverse iteration alone)
BISECT_TOL = math.sqrt(np.finfo(float).eps)
GROUP_TOLS = 1000.0
# eigensolve, index selection: residual above which a lone pair is redone
# with the pairs below it (isolated pairs leave about 0.3 eps * ||T||)
LONE_RESIDUAL_TOL = 10.0 * np.finfo(float).eps
# bound_levels: a band within REFLECTION_TOL * ||T|| of odd under reversal
# solves E >= 0 only (Weyl: the gap moves no eigenvalue by more than about
# 3 * REFLECTION_TOL * ||T||)
REFLECTION_TOL = 10.0 * np.finfo(float).eps
# selfconsistent_level: energy step that ends the Newton loop, and its
# iteration budget
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 100


@dataclass(frozen=True)
class DiracMatrix:
    grid: Grid
    # sigma_y-basis lower band: per-node (4, 2*n_points) or staggered
    # (2, 2*n_points - 1)
    storage: np.ndarray


@dataclass(frozen=True)
class SchrodingerMatrix:
    grid: Grid
    storage: np.ndarray          # lower band, shape (2, n_points)


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs in ascending eigenvalue order, real h-normalized vectors.

    kind is "dirac" or "schrodinger". A Dirac vector is the sigma_y-basis
    (w, u) chain of its band: w_j, u_j at rows 2j, 2j + 1 per node, or u on
    the midpoint after node j on the staggered chain. bound_flags are all
    False until classify_bound sets them.
    """

    kind: str
    grid: Grid
    values: np.ndarray
    vectors: np.ndarray          # columns match values
    residuals: np.ndarray
    bound_flags: np.ndarray

    def bound(self):
        """(values, column indices) of the bound-flagged pairs."""
        idx = np.where(self.bound_flags)[0]
        return self.values[idx], idx


def _finite(vals):
    """vals, or NonFiniteProfileError when one of them is NaN or infinity."""
    if not np.all(np.isfinite(vals)):
        raise NonFiniteProfileError("profile produced non-finite values on the grid")
    return vals


def _sample(profile, x):
    """Profile values at x, refused by _finite on NaN or infinity.

    The values are checked here, so numpy's overflow warnings while
    evaluating them are not shown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.asarray(profile.value(x), dtype=float))


def build_dirac(profiles, grid, wilson_r=1.0):
    """Assemble the first-order operator for independent f, m, v profiles."""
    if wilson_r < 0:
        raise ValueError("wilson_r must be >= 0")
    x = grid.nodes
    f = _sample(profiles.f, x)
    m = _sample(profiles.m, x)
    v = _sample(profiles.v, x)
    band = kernels.assemble_wilson(f, m, v, grid.spacing, float(wilson_r))
    return DiracMatrix(grid=grid, storage=band)


def build_staggered(profiles, grid):
    """Assemble the staggered first-order operator (see kernels.assemble_dirac).

    f and v are sampled at the nodes and midpoints, m on the quarter-step
    lattice, whose odd points feed the bonds. Raises LatticeThresholdError,
    naming the smallest odd n_points that would do, when h * max|m| over
    that lattice, box ends included, is 2 or more: the chain's lattice band
    then reaches below the continuum edge.
    """
    h = grid.spacing
    x = np.linspace(-grid.half_length, grid.half_length, 4 * grid.n_points - 3)
    f = _sample(profiles.f, x[0::2])
    m = _sample(profiles.m, x)
    v = _sample(profiles.v, x[0::2])
    m_max = float(np.abs(m).max())
    if h * m_max >= 2.0:
        # h * m_max < 2 once n_points - 1 > half_length * m_max, which can
        # overflow where no n_points does
        bound = grid.half_length * m_max
        needed = math.floor(bound) + 2 if math.isfinite(bound) else None
        raise LatticeThresholdError(
            f"h*max|m| = {h * m_max:g} is not below 2, so lattice states of the "
            f"staggered operator fall inside the continuum edge; " + (
                f"n_points >= {needed + 1 - needed % 2} keeps it below 2" if needed
                else "no n_points keeps it below 2")
        )
    band = kernels.assemble_dirac(f, m[1::2], v, h)
    return DiracMatrix(grid=grid, storage=band)


def build_schrodinger(potential):
    """Assemble -d2/dx2 + V from a sampled potential."""
    grid = potential.grid
    band = kernels.assemble_schrodinger(
        np.asarray(potential.samples, dtype=float), grid.spacing
    )
    return SchrodingerMatrix(grid=grid, storage=band)


def _fix_phase(vectors):
    """Deterministic sign: largest-magnitude entry of each column positive."""
    piv = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # a zero column has a zero pivot and keeps its sign
    vectors *= np.where(piv < 0, -1.0, 1.0)
    return vectors


def _rayleigh_refine(vals, vecs, tv, group_gap):
    """Rayleigh quotients of bisected eigenpairs, re-sorted.

    vals (ascending) come from bisection to a loose tolerance, and vecs
    (unit, from inverse iteration) satisfy tv = T @ vecs. A vector accurate
    to delta has a Rayleigh quotient accurate to delta^2, so each value
    becomes v^T T v. Vectors whose bisected values lie within group_gap of a
    neighbour can be mixtures of pairs split below the bisection tolerance;
    each such group gets one Rayleigh-Ritz step, rotating vecs and tv by the
    eigenvectors of vecs^T tv over the group.

    The products are einsum calls and the small eigenproblem goes to
    scipy's LAPACK, which the solve has already loaded: numpy's matmul and
    eigh would start numpy's own BLAS as well, about 1 MB more resident
    memory per process.
    """
    import scipy.linalg

    breaks = np.flatnonzero(np.diff(vals) > group_gap) + 1
    groups = np.split(np.arange(len(vals)), breaks)
    vals = np.einsum("ij,ij->j", vecs, tv)
    for group in groups:
        if len(group) > 1:
            gram = np.einsum("ij,ik->jk", vecs[:, group], tv[:, group])
            vals[group], rot = scipy.linalg.eigh(0.5 * (gram + gram.T))
            vecs[:, group] = np.einsum("ij,jk->ik", vecs[:, group], rot)
            tv[:, group] = np.einsum("ij,jk->ik", tv[:, group], rot)
    # copy the columns only when the quotients changed their order
    if np.any(np.diff(vals) < 0):
        order = np.argsort(vals, kind="stable")
        vals, vecs, tv = vals[order], vecs[:, order], tv[:, order]
    return vals, vecs, tv


def _pairs(band, select, select_range, norm):
    """Bisected values, values, unit vectors and band residuals of one
    selection (see eigensolve).

    norm is the max|d| + 2*max|e| bound on ||T|| of a tridiagonal band and
    None for a band that is solved densely.
    """
    import scipy.linalg

    try:
        if norm is not None:
            tol = BISECT_TOL * norm
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                band[0], band[1, :-1], select=select, select_range=select_range,
                tol=tol
            )
        else:
            # only a Dirac band is dense, so select_range is a window or None
            vals, vecs = scipy.linalg.eigh(
                kernels.band_dense(band), subset_by_value=select_range,
                overwrite_a=True
            )
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise GridOverflowError(f"eigensolver did not converge: {err}") from err
    bisected = vals
    tv = kernels.band_matvec(band, vecs)
    if norm is not None and select != "a":
        vals, vecs, tv = _rayleigh_refine(vals, vecs, tv, GROUP_TOLS * tol)
    return bisected, vals, vecs, np.linalg.norm(tv - vecs * vals, axis=0)


def _sturm_count(band, lo, hi):
    """Eigenvalues of a tridiagonal band in (lo, hi], None if LAPACK fails.

    LAPACK's range "V" (1 here) with a tolerance wider than the interval
    counts the eigenvalues in it without bisecting them.
    """
    import scipy.linalg

    count, _, _, _, info = scipy.linalg.lapack.dstebz(
        band[0], band[1, :-1], 1, lo, hi, 1, 1, 2.0 * (hi - lo), "E"
    )
    return count if info == 0 else None


def _is_pair(band, bisected, value, residual, norm):
    """Whether a pair solved alone belongs to the eigenvalue it was bisected to.

    Bisection puts that eigenvalue within tol = BISECT_TOL*||T|| of
    `bisected`, and the pair's value (its Rayleigh quotient) lies within its
    residual of some eigenvalue. When the residual is at most
    LONE_RESIDUAL_TOL*||T||, the value is within tol of `bisected`, and a
    Sturm count finds exactly one eigenvalue within 2*tol of `bisected`, the
    two eigenvalues are one. The residual alone does not tell: a neighbour
    closer than tol can hand inverse iteration its own vector, whose
    residual is as small as any.
    """
    tol = BISECT_TOL * norm
    if not (residual <= LONE_RESIDUAL_TOL * norm and abs(value - bisected) <= tol):
        return False
    return _sturm_count(band, bisected - 2.0 * tol, bisected + 2.0 * tol) == 1


def _is_reflection_odd(band, norm):
    """Whether reversing the chain negates the tridiagonal band to
    REFLECTION_TOL*||T|| (J T J = -T, J the reversal): then -E is an
    eigenvalue whenever E is."""
    d, e = band[0], band[1, :-1]
    gap = max(np.abs(d + d[::-1]).max(), np.abs(e + e[::-1]).max(initial=0.0))
    return gap <= REFLECTION_TOL * norm


def _tridiagonal_norm(matrix):
    """max|d| + 2*max|e|, the bound on ||T|| of a tridiagonal band.

    Raises GridOverflowError when its square is not finite (entries past
    about 1e154: a grid spacing or a profile scale that LAPACK's bisection
    cannot square).
    """
    band = matrix.storage
    # Python floats overflow to inf silently
    norm = float(np.abs(band[0]).max()) + 2.0 * float(np.abs(band[1, :-1]).max(initial=0.0))
    if not math.isfinite(norm * norm):
        raise GridOverflowError(
            f"the operator's entries reach {norm:g} at grid spacing h = "
            f"{matrix.grid.spacing:g}; their squares overflow, so LAPACK "
            "cannot solve it"
        )
    return norm


def eigensolve(matrix, k=None, window=None, index=None):
    """Eigenpairs of an assembled operator with the h-weighted normalization.

    Schrodinger: the k algebraically smallest pairs (all when k and index
    are None), or the one pair at 0-based `index`. Dirac: the pairs in
    `window=(lo, hi]`, or the full spectrum when window is None. A band with
    nothing beyond its first subdiagonal (Schrodinger, staggered Dirac, or
    per-node Dirac at r = 1) goes to LAPACK's tridiagonal solver; a per-node
    band at any other r is solved densely. A windowed, k-smallest or index
    tridiagonal solve bisects only to BISECT_TOL*||T|| and then takes each
    value as the Rayleigh quotient of its vector, with one Rayleigh-Ritz
    step per group of values closer than GROUP_TOLS bisection tolerances
    (see _rayleigh_refine). A tridiagonal band whose norm bound squared is
    not finite is refused with GridOverflowError (see _tridiagonal_norm),
    which a LAPACK failure raises too. An index solve bisects and iterates
    for that pair alone, so a neighbour closer than the bisection tolerance
    has no Rayleigh-Ritz step to be separated in. The lone pair is kept only
    when its residual is at most LONE_RESIDUAL_TOL*||T|| and one Sturm count
    ties it to `index` (see _is_pair); otherwise the solve returns pair
    `index` of the k = index + 1 solve, bit for bit. A window is solved as
    asked; the census's half-window solve of reflection-odd chains is in
    bound_levels, which reads values only.
    Residuals are taken on the stored band, and every vector is returned as
    the real chain of that band: a Dirac vector in its sigma_y-basis (w, u)
    rows (see EigenResult). Values are in ascending order.
    """
    band = matrix.storage
    dim = band.shape[1]
    is_dirac = isinstance(matrix, DiracMatrix)
    if is_dirac and (k is not None or index is not None):
        raise ValueError("k and index select Schrodinger levels; pass a window "
                         "for a Dirac matrix")
    if not is_dirac and window is not None:
        raise ValueError("window selects Dirac pairs; pass k or index for a "
                         "Schrodinger matrix")
    if k is not None and index is not None:
        raise ValueError("pass k or index, not both")
    if k is not None and k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k is not None and k > dim:
        raise ValueError(f"k={k} exceeds matrix dimension {dim}")
    if index is not None and not 0 <= index < dim:
        raise ValueError(f"index={index} must be from 0 to {dim - 1}")
    if window is not None and not window[0] < window[1]:
        raise ValueError(f"window {window} must satisfy lo < hi")

    select, select_range = "a", None
    if k is not None:
        select, select_range = "i", (0, k - 1)
    elif index is not None:
        select, select_range = "i", (index, index)
    elif window is not None:
        select, select_range = "v", window
    norm = None if band[2:].any() else _tridiagonal_norm(matrix)
    bisected, vals, vecs, res = _pairs(band, select, select_range, norm)
    # at index 0 the lone pair is the k = 1 solve already
    if index and not _is_pair(band, bisected[0], vals[0], res[0], norm):
        _, vals, vecs, res = _pairs(band, "i", (0, index), norm)
        vals, vecs, res = vals[index:], vecs[:, index:], res[index:]
    vecs = _fix_phase(vecs / math.sqrt(matrix.grid.spacing))
    return EigenResult(
        kind="dirac" if is_dirac else "schrodinger",
        grid=matrix.grid,
        values=vals,
        vectors=vecs,
        residuals=res,
        bound_flags=np.zeros(len(vals), dtype=bool),
    )


def _outer_rows(result):
    """Rows per side in the outer OUTER_FRAC of grid nodes: rows [:kk] and
    [-kk:]. A grid has at least 3 nodes, so the two sides never overlap."""
    kk = max(1, int(round(OUTER_FRAC * result.grid.n_points)))
    # two interleaved rows per node spacing
    return 2 * kk if result.kind == "dirac" else kk


def _resolve_cluster(result, idx):
    """Re-mix a near-degenerate cluster to separate localized from edge states.

    Eigenvectors inside a (numerically) degenerate cluster are an arbitrary
    orthogonal mixture; LAPACK happily hybridizes a physical midgap state
    with a wall artifact at the same energy. Diagonalizing the outer-mass
    quadratic form inside the cluster subspace yields localization-sorted
    representatives deterministically. Values become Rayleigh quotients and
    residuals are widened by the cluster spread, both within DEGENERACY_TOL.
    """
    vecs = result.vectors[:, idx]
    kk = _outer_rows(result)
    sub = np.vstack([vecs[:kk], vecs[-kk:]])
    _, rot = np.linalg.eigh(sub.T @ sub)
    mixed = vecs @ rot
    h = result.grid.spacing
    mixed /= np.sqrt(np.sum(mixed ** 2, axis=0) * h)
    lam = result.values[idx]
    ray = np.sum(rot ** 2 * lam[:, None], axis=0)
    spread = np.sqrt(np.sum(rot ** 2 * (lam[:, None] - ray) ** 2, axis=0))
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
    level = np.abs(out.values) if out.kind == "dirac" else out.values
    cand = np.flatnonzero(level < continuum_edge)
    # cluster candidates by eigenvalue gaps
    gaps = np.flatnonzero(np.abs(np.diff(out.values[cand])) > DEGENERACY_TOL) + 1
    for cluster in np.split(cand, gaps):
        if len(cluster) > 1:
            _resolve_cluster(out, cluster)
    density = out.vectors[:, cand] ** 2
    total = density.sum(axis=0)
    kk = _outer_rows(out)
    sides = np.stack([density[:kk].sum(axis=0), density[-kk:].sum(axis=0)])
    # a column without probability mass is never bound
    frac = np.divide(sides, total, out=np.ones_like(sides), where=total > 0)
    out.bound_flags[cand] = np.all(frac <= OUTER_TOL, axis=0)
    return out


def _tunnelling_exponents(d, e, h, values):
    """Tunnelling exponents, shape (2, len(values)), of staggered-chain
    values to the left and the right wall.

    The chain (diagonal d, bonds e, spacing h) holds v + f on a node, v - f
    on a midpoint and m/2 +- 1/h on a bond, so on bond k
    q_k(E) = m_k^2 - (E - d_k)(E - d_{k+1}) is f^2 + m^2 - (E - v)^2 on the
    chain's own samples. An exponent is the sum of sqrt(max(q, 0)) * h/2 over
    the bonds from the outermost one where E is classically allowed (q <= 0)
    to that wall, or from the bond of least q when E is allowed on none: a
    midpoint rule for the WKB integral. Values go in blocks, so the
    (values, bonds) arrays stay near 8 MB.
    """
    half_m = e.copy()
    half_m[0::2] -= 1.0 / h
    half_m[1::2] += 1.0 / h
    # q = a + b E - E^2
    a = 4.0 * half_m**2 - d[:-1] * d[1:]
    b = d[:-1] + d[1:]
    n = len(e)
    out = np.empty((len(values), 2))
    block = max(1, 2**20 // n)
    for start in range(0, len(values), block):
        E = values[start:start + block, None]
        # one array, q = a + (b - E) E per row, with a zero column after the
        # last bond that keeps reduceat's index left + 1 = n in range
        padded = np.zeros((len(E), n + 1))
        q = padded[:, :n]
        np.subtract(b, E, out=q)
        q *= E
        q += a
        # the allowed bonds, or the bonds of least q when none is allowed
        turning = q <= np.maximum(q.min(axis=1), 0.0)[:, None]
        left = np.argmax(turning, axis=1)
        right = n - 1 - np.argmax(turning[:, ::-1], axis=1)
        np.sqrt(np.maximum(q, 0.0, out=q), out=q)
        # per row, the sums over bonds [0, left], (left, right) and [right, n]
        row = (n + 1) * np.arange(len(E))
        sums = np.add.reduceat(padded.ravel(),
                               np.stack([row, row + left + 1, row + right], axis=1).ravel())
        out[start:start + block] = sums.reshape(-1, 3)[:, ::2]
    return 0.5 * h * out.T


def _wall_state(d, e):
    """(Rayleigh quotient, residual) of the u = 0 trial state at the first
    node of a staggered chain (diagonal d, bonds e), or None when that state
    does not decay into the box.

    With u = 0 each midpoint row reads e_2j w_j + e_2j+1 w_j+1 = 0, so the
    trial follows w_j+1 / w_j = -e_2j / e_2j+1 from the wall for as long as
    that ratio has modulus below 1, and is zero beyond. Its node rows leave
    (d_2j - quotient) w_j, and the midpoint after its last node s leaves
    e_2s w_s.
    """
    ratio = -e[0::2] / e[1::2]
    stop = int(np.argmax(np.append(np.abs(ratio) >= 1.0, True)))
    if stop == 0:
        return None
    w2 = np.cumprod(np.append(1.0, ratio[:stop])) ** 2
    diag = d[0:2 * stop + 1:2]
    quotient = float(np.dot(diag, w2) / w2.sum())
    tail = e[2 * stop] ** 2 * w2[-1] if stop < len(ratio) else 0.0
    return quotient, math.sqrt((np.dot((diag - quotient) ** 2, w2) + tail) / w2.sum())


def bound_levels(matrix, edge):
    """The bound levels of a staggered chain's census window (-edge, edge],
    ascending, solved and judged from values and the band alone.

    The window's values come from the solve eigensolve makes (_pairs),
    vectors and Rayleigh quotients included, and no vector is returned. On
    a band that reversal negates (J T J = -T to REFLECTION_TOL*||T||: the
    chain of odd f, m and v) only (-tol, edge] is solved, tol the bisection
    tolerance, and each value above tol is mirrored to -value; the mirror
    stands only when one Sturm count of (-edge, edge] equals the number of
    values, and otherwise the full window is solved, with the values of
    eigensolve's window solve bit for bit. A band whose norm bound squared
    is not finite raises GridOverflowError (see _tridiagonal_norm).

    A value is bound when its tunnelling exponent to each wall is at least
    TUNNEL_MIN (see _tunnelling_exponents): its box shift is then about
    e^(-2 TUNNEL_MIN) of its scale. The chain also has a state at each wall
    with u = 0, exact at E = v + f where f and v are constant near that
    end, which the exponents cannot tell from a bound level. So for each end
    whose u = 0 state decays into the box and whose Rayleigh quotient lies
    in the window (see _wall_state), the passing value nearest that
    quotient is not bound when it lies within max(WALL_TOL, the trial's
    residual). No profile is sampled again.
    """
    band = matrix.storage
    norm = _tridiagonal_norm(matrix)
    tol = BISECT_TOL * norm
    values = None
    if _is_reflection_odd(band, norm):
        half = _pairs(band, "v", (-tol, edge), norm)[1]
        up = half[half > tol]
        if _sturm_count(band, -edge, edge) == len(half) + len(up):
            values = np.concatenate([-up[::-1], half])
    if values is None:
        values = _pairs(band, "v", (-edge, edge), norm)[1]
    d, e = band[0], band[1, :-1]
    bound = np.all(_tunnelling_exponents(d, e, matrix.grid.spacing, values)
                   >= TUNNEL_MIN, axis=0)
    for wall in (_wall_state(d, e), _wall_state(d[::-1], e[::-1])):
        passing = np.flatnonzero(bound)
        if wall is None or not len(passing) or not -edge < wall[0] <= edge:
            continue
        quotient, residual = wall
        near = passing[np.argmin(np.abs(values[passing] - quotient))]
        if abs(values[near] - quotient) <= max(WALL_TOL, residual):
            bound[near] = False
    return values[bound]


def dirac_continuum_edge(profiles, grid):
    """Scattering threshold |E| for profiles that saturate at the box ends.

    Each side contributes sqrt(f^2 + m^2) - |v| evaluated at the end node;
    the edge is the smaller one, clamped at zero. Exact for the odd
    saturating shapes used throughout; heuristic otherwise.
    """
    ends = np.array([-grid.half_length, grid.half_length])
    f, m, v = (_sample(p, ends).tolist() for p in (profiles.f, profiles.m, profiles.v))
    return max(0.0, min(math.hypot(fs, ms) - abs(vs) for fs, ms, vs in zip(f, m, v)))


def schrodinger_continuum_edge(reduced, grid):
    """min over the two ends of wtilde^2 for a reduced partner problem."""
    ends = np.array([-grid.half_length, grid.half_length])
    return float(np.min(reduced.w_tilde(ends) ** 2))


def _central(psi, h):
    """First derivative of nodal samples: the five-point central difference
    (psi[i-2] - 8 psi[i-1] + 8 psi[i+1] - psi[i+2]) / 12h on nodes 2..N-3,
    and the three-point one on the two nodes at each end, with psi zero
    outside the box.

    Every step works in place on d, so no array beyond d is allocated.
    """
    d = np.empty_like(psi)
    np.subtract(psi[2:], psi[:-2], out=d[1:-1])
    d[0], d[-1] = psi[1], -psi[-2]
    d[2:-2] *= 8.0
    d[2:-2] += psi[:-4]
    d[2:-2] -= psi[4:]
    d[2:-2] /= 6.0
    d /= 2.0 * h
    return d


def _dirac_minus_e(f, m, v, h, psi1, psi2, energy):
    """(H - E) psi at r = 0 on physical components, with D = _central:
    r1 = (v - E + m) psi1 + i (f psi2 - D psi2),
    r2 = (v - E - m) psi2 - i (f psi1 + D psi1)."""
    r1 = (v - energy + m) * psi1 + 1j * (f * psi2 - _central(psi2, h))
    r2 = (v - energy - m) * psi2 - 1j * (f * psi1 + _central(psi1, h))
    return r1, r2


def dirac_residual(f, m, v, psi, energy):
    """|| (H - E) psi || / || psi || with H matrix-free at r = 0.

    f, m and v are the profiles sampled on the nodes of psi. The outer
    EXCLUDE_FRAC of nodes on each side is ignored (boundary stencils), as
    are the nodes whose difference stencil (see _central) reaches across a
    jump of f, m or v (a step of more than a quarter of the profile's range
    between neighbours): nodes j - 1..j + 2 around a jump between nodes j
    and j + 1, and only j, j + 1 where the stencil is three-point. The
    continuum equation holds one-sidedly at a jump, and a difference across
    it measures nothing. Raises VanishingSpinorError (a ValueError) when psi
    has no probability mass on the nodes left, as on a grid too coarse to
    keep any, and GridOverflowError when the residual is not finite: the
    stencil scales like 1/h, so a spacing too fine, or profiles too large,
    overflow its squares.
    """
    grid = psi.grid
    n = grid.n_points
    mask = np.ones(n, dtype=bool)
    k = int(EXCLUDE_FRAC * n)
    if k > 0:
        mask[:k] = mask[-k:] = False
    # overflows are caught by the finiteness test below, not shown as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2 = _dirac_minus_e(f, m, v, grid.spacing, psi.upper, psi.lower,
                                float(energy))
        for prof in (f, m, v):
            # a jump on bond b (nodes b, b + 1) is crossed by the stencils of
            # _central at nodes b, b + 1 and, five-point ones, b - 1, b + 2
            jump = np.abs(np.diff(prof)) > 0.25 * (prof.max() - prof.min())
            mask[:-1] &= ~jump
            mask[1:] &= ~jump
            mask[2:-2] &= ~(jump[:-3] | jump[3:])
        num = np.sqrt(np.sum((np.abs(r1) ** 2 + np.abs(r2) ** 2)[mask]) * grid.spacing)
        den = np.sqrt(
            np.sum((np.abs(psi.upper) ** 2 + np.abs(psi.lower) ** 2)[mask]) * grid.spacing
        )
        if den == 0:
            raise VanishingSpinorError(
                "psi vanishes on the interior nodes the residual measures; "
                "the grid may be too coarse"
            )
        residual = num / den
    if not math.isfinite(residual):
        raise GridOverflowError(
            f"the Dirac residual is not finite at grid spacing h = {grid.spacing:g}; "
            "the grid is too fine or the profiles too large"
        )
    return residual


def selfconsistent_level(model, sigma, level, grid, seed_energy):
    """Self-consistent solve of one level when the potential carries the energy.

    With an electric coupling the reduced potential depends on E, so the
    level is a root of G(E) = F(E) - E, where F(E) = sgn*sqrt(eps(E)/c)
    maps the partner eigenvalue eps at `level`, solved with E inside the
    potential, back to an energy (eps = c*E^2). Each step is a Newton step
    on G with the exact derivative of the discrete problem: only the
    diagonal dV/dE = 2*wtilde*kappa_v/scale depends on E, so by
    Hellmann-Feynman eps'(E) = h*sum(phi^2 * dV/dE) over the h-normalized
    level vector, and F' = sgn*eps'/(2*sqrt(c*eps)). The step falls back to
    the plain fixed-point step E <- F(E) when eps = 0, when 1 - F' = 0, or
    when the Newton value is not finite or leaves the seed's branch (pure
    Newton was seen to cycle near the critical field). At kappa_v = 0,
    F' = 0 and every step is the plain one. Each step solves for the one
    pair at `level` (eigensolve's `index`, which falls back to the
    k = level + 1 solve when a neighbour is too close to vouch for the lone
    pair). Returns (energy, eps, iterations). Seeds of opposite sign probe
    the two branches. Raises RuntimeError when the loop fails to settle,
    and BoxStateError when it settles at an eps that is not below the
    continuum edge of the last reduced problem
    (`schrodinger_continuum_edge`, at an E within FIXED_POINT_TOL of the
    returned one): that level is a state of the box.
    """
    energy, eps, iterations, red = _newton_level(model, sigma, level, grid,
                                                 seed_energy)
    edge = schrodinger_continuum_edge(red, grid)
    if not eps < edge:
        raise BoxStateError(level, eps, edge)
    return energy, eps, iterations


def _newton_level(model, sigma, level, grid, seed_energy):
    """The loop of selfconsistent_level, without its edge test.

    Returns (energy, eps, iterations, reduced problem of the last solve).
    """
    E = float(seed_energy)
    sgn = 1.0 if E >= 0 else -1.0
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        red = susy.reduce(model, sigma, energy=E)
        pot = ScalarField(grid, red.effective_potential(grid.nodes))
        res = eigensolve(build_schrodinger(pot), index=level)
        eps = float(res.values[0])
        if eps < 0:
            raise RuntimeError(f"level {level} has negative eps={eps:g}")
        coeff = red.epsilon_coefficient
        E_new = sgn * math.sqrt(eps / coeff)
        if eps > 0:
            dv = 2.0 * model.kappa_v / red.scale * red.w_tilde(grid.nodes)
            deps = grid.spacing * float(np.sum(res.vectors[:, 0] ** 2 * dv))
            dfde = sgn * deps / (2.0 * math.sqrt(coeff * eps))
            if dfde != 1.0:
                newton = (E_new - E * dfde) / (1.0 - dfde)
                if math.isfinite(newton) and sgn * newton > 0:
                    E_new = newton
        if abs(E_new - E) < FIXED_POINT_TOL:
            return E_new, eps, it, red
        E = E_new
    raise RuntimeError(
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} steps"
    )

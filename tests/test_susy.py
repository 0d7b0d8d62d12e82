"""Coupling-matrix diagonalization and the partner-problem reduction."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracosc.errors import CouplingOverflowError, SupercriticalError
from diracosc.model import CoupledModel, TanhProfile
from diracosc.susy import (
    coupling_matrix,
    critical_field,
    is_subcritical,
    reduce,
    spin_eigensystem,
)


def brute_eigensystem(kf, km, kv):
    """Independent oracle: let LAPACK diagonalize the explicit 2x2 matrix."""
    M = coupling_matrix(kf, km, kv)
    vals, vecs = np.linalg.eig(M)
    order = np.argsort(vals.real)[::-1]  # +root first
    return vals[order], vecs[:, order]


@pytest.mark.parametrize("kf,km,kv,expected", [
    (3.0, 4.0, 0.0, 5.0),
    (1.0, 0.0, 0.0, 1.0),
    (1.0, 1.0, 1.0, 1.0),
])
def test_eigenvalues_against_brute_force(kf, km, kv, expected):
    pairs = spin_eigensystem(kf, km, kv)
    vals, _ = brute_eigensystem(kf, km, kv)
    assert pairs[0].lam == pytest.approx(expected, abs=1e-12)
    assert pairs[1].lam == pytest.approx(-expected, abs=1e-12)
    assert sorted(np.real(vals)) == pytest.approx(
        sorted([p.lam for p in pairs]), abs=1e-12
    )


def test_diagonal_coupling_gives_basis_spinor():
    plus, minus = spin_eigensystem(1.0, 0.0, 0.0)
    assert plus.lam == pytest.approx(1.0)
    assert np.allclose(plus.chi, [1.0, 0.0])
    assert np.allclose(np.abs(minus.chi), [0.0, 1.0])


def test_eigenvector_residual_and_norm():
    for kf, km, kv in [(3, 4, 0), (1, 2, 1.5), (0.5, 0.5, 0.5), (2, -1, 0.3),
                       (1, 1, 0), (-2, 3, -1)]:
        M = coupling_matrix(kf, km, kv)
        for pair in spin_eigensystem(kf, km, kv):
            assert np.linalg.norm(pair.chi) == pytest.approx(1.0, abs=1e-14)
            res = np.linalg.norm(M @ pair.chi - pair.lam * pair.chi)
            assert res <= 1e-12


def test_degenerate_denominator_falls_back_to_second_row():
    # km == kv made the first-row formula 0/0; the columns of M + lam I have
    # no denominator
    kf, km, kv = 2.0, 1.0, 1.0
    M = coupling_matrix(kf, km, kv)
    for pair in spin_eigensystem(kf, km, kv):
        res = np.linalg.norm(M @ pair.chi - pair.lam * pair.chi)
        assert res <= 1e-12


def test_supercritical_raises_as_reduce_does():
    # beyond the critical field sqrt(2) lambda is not real
    for kv in (2.0, -2.0, math.nextafter(math.sqrt(2.0), 2.0)):
        with pytest.raises(SupercriticalError) as err:
            spin_eigensystem(1.0, 1.0, kv)
        with pytest.raises(SupercriticalError) as ref:
            reduce(CoupledModel(1.0, 1.0, kv, TanhProfile(1.0)), +1)
        assert (err.value.kappa_v, err.value.critical) == (kv, math.sqrt(2.0))
        assert str(err.value) == str(ref.value)


def test_all_zero_couplings_rejected():
    with pytest.raises(ValueError):
        spin_eigensystem(0.0, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    kf=st.floats(-5, 5),
    km=st.floats(-5, 5),
    kv=st.floats(-5, 5),
)
def test_eigenpair_invariants_hold_generically(kf, km, kv):
    if kf == 0 and km == 0 and kv == 0:
        return
    rad = kf * kf + (km - kv) * (km + kv)
    if not rad > 0:
        with pytest.raises(SupercriticalError):
            spin_eigensystem(kf, km, kv)
        return
    pairs = spin_eigensystem(kf, km, kv)
    assert pairs[0].lam == pytest.approx(-pairs[1].lam, abs=1e-12)
    assert pairs[0].lam ** 2 == pytest.approx(rad, abs=1e-10)
    M = coupling_matrix(kf, km, kv)
    for p in pairs:
        assert np.linalg.norm(p.chi) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(M @ p.chi - p.lam * p.chi) <= 1e-12


@pytest.mark.parametrize("kv", [1e-6, -1e-6])
def test_equal_magnitude_couplings_give_the_exact_root(kv):
    # |km| = |kv| cancels km^2 - kv^2 exactly; summed as squares it rounded
    # the root one ulp below 4 and the triangular matrix's eigenvector
    # missed by 2e-9
    kf, km = 4.0, 1e-6
    pairs = spin_eigensystem(kf, km, kv)
    M = coupling_matrix(kf, km, kv)
    assert pairs[0].lam == 4.0
    for p in pairs:
        assert np.linalg.norm(M @ p.chi - p.lam * p.chi) <= 1e-12


@pytest.mark.parametrize("kf,km,kv", [
    (1.0, 1e-200, 0.0),
    (1.0, 1e-160, 0.0),
    (1.0, 0.0, 1e-180),
    (1.0, 1e-200, 1e-200),   # one row formula vanishes, the other overflows
])
def test_tiny_off_diagonal_gives_unit_spinor(kf, km, kv):
    # a row formula with a negligible denominator overflowed its norm and
    # could be normalized into the zero vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = spin_eigensystem(kf, km, kv)
    M = coupling_matrix(kf, km, kv)
    tol = 1e-12 * max(1.0, abs(kf), abs(km), abs(kv))
    for p in pairs:
        assert np.linalg.norm(p.chi) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(M @ p.chi - p.lam * p.chi) <= tol


# couplings from 1e-150 to 1e150, whole numbers and signed zeros among them
coupling = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-1.0, 1.0), st.integers(-150, 150)),
)


@st.composite
def subcritical_couplings(draw):
    """(kf, km, kv) below the critical field: generic, |km| = |kv|, kf = 0,
    or kv a few ulps below hypot(kf, km)."""
    kf, km, kv = draw(coupling), draw(coupling), draw(coupling)
    shape = draw(st.sampled_from(["generic", "equal", "kf0", "critical"]))
    if shape == "equal":
        kv = draw(st.sampled_from([1.0, -1.0])) * km
    elif shape == "kf0":
        kf = draw(st.sampled_from([0.0, -0.0]))
    elif shape == "critical":
        kv = critical_field(kf, km)
        for _ in range(draw(st.integers(1, 4))):
            kv = math.nextafter(kv, 0.0)
        kv *= draw(st.sampled_from([1.0, -1.0]))
    assume(is_subcritical(kf, km, kv))
    return kf, km, kv


def is_negative_zero(part):
    return part == 0 and math.copysign(1.0, part) < 0


@settings(max_examples=300, deadline=None)
@given(k=subcritical_couplings())
# the first two gave an imaginary upper component (the residual contest picked
# the second row formula by rounding noise); km + kv = -0.0 in the third; in
# the last, sigma = -1 took its sign from x = 5e-324 before x / length rounded
# to 0, which gave chi = (0, -i)
@example(k=(0.535, 0.8, 0.0))
@example(k=(0.6, 0.8, 0.5))
@example(k=(1.0, -0.0, -0.0))
@example(k=(1.0, 1e-200, 1e-200))
@example(k=(1.0, 5e-324, 0.0))
def test_spinor_is_the_closed_form_column(k):
    # unit norm, a residual of a few ulps of the largest entry, and the form
    # (x, i*y) with x > 0, or x = 0 and y > 0, without a -0.0 part
    kf, km, kv = k
    M = coupling_matrix(kf, km, kv)
    for p in spin_eigensystem(kf, km, kv):
        assert abs(np.linalg.norm(p.chi) - 1.0) <= 1e-15
        scale = max(abs(kf), abs(km), abs(kv), abs(p.lam))
        assert np.linalg.norm(M @ p.chi - p.lam * p.chi) <= 8 * sys.float_info.epsilon * scale
        upper, lower = p.chi
        parts = (upper.real, upper.imag, lower.real, lower.imag)
        assert upper.imag == 0 and lower.real == 0
        assert upper.real > 0 or (upper.real == 0 and lower.imag > 0)
        assert not any(is_negative_zero(part) for part in parts)


def test_critical_field_values():
    assert critical_field(3, 4) == pytest.approx(5.0)
    assert critical_field(0, 2.5) == pytest.approx(2.5)
    assert critical_field(1, 1) == pytest.approx(math.sqrt(2))
    assert not is_subcritical(1, 1, 1.5)
    assert is_subcritical(1, 1, 1.4)
    # the boundary itself is not subcritical: the reduction degenerates there
    assert not is_subcritical(3, 4, 5.0)


@pytest.mark.parametrize("kv", [0.0, 9e199])
def test_is_subcritical_refuses_overflowing_couplings(kv):
    # kf^2 overflows: the predicate read inf > 0 as subcritical at kv = 0 and
    # inf - inf = NaN as not subcritical at kv = 9e199, where reduce refuses
    with pytest.raises(CouplingOverflowError):
        is_subcritical(1e200, 0.0, kv)


@settings(max_examples=200, deadline=None)
@given(
    kf=st.floats(0.1, 10),
    km=st.floats(0.1, 10),
    step=st.sampled_from([-1, 0, 1]),
)
# kv one ulp below hypot, where the radicand kf^2 + (km - kv)(km + kv) is not
# positive although |kv| < hypot(kf, km)
@example(kf=6.523511964174448, km=4.439337860852986, step=-1)
def test_subcritical_rule_is_one_rule_at_the_critical_field(kf, km, step):
    # kv is the critical field or one of its float neighbours, where
    # |kv| < hypot(kf, km) and the factored radicand used to disagree
    kv = critical_field(kf, km)
    if step:
        kv = math.nextafter(kv, step * math.inf)
    sub = is_subcritical(kf, km, kv)
    model = CoupledModel(kf, km, kv, TanhProfile(1.0))
    for call in (lambda: reduce(model, +1), lambda: spin_eigensystem(kf, km, kv)):
        if sub:
            call()
        else:
            with pytest.raises(SupercriticalError):
                call()


def test_reduce_field_free():
    model = CoupledModel(3.0, 4.0, 0.0, TanhProfile(1.0))
    red = reduce(model, +1, energy=0.7)
    x = np.linspace(-3, 3, 7)
    assert np.allclose(red.w_tilde(x), 5 * np.tanh(x), atol=1e-14)
    assert red.epsilon_coefficient == pytest.approx(1.0)
    # energy cannot leak into the potential when kappa_v = 0
    red2 = reduce(model, +1, energy=-2.0)
    assert np.allclose(red.effective_potential(x), red2.effective_potential(x))


def test_reduce_with_field_shift():
    model = CoupledModel(2.0, 2.0, 2.0, TanhProfile(1.0))
    red = reduce(model, +1, energy=1.0)
    x = np.linspace(-2, 2, 9)
    assert np.allclose(red.w_tilde(x), 2 * (np.tanh(x) + 0.5), atol=1e-14)
    assert red.epsilon_coefficient == pytest.approx(2.0)


def test_reduce_refuses_supercritical_without_diagnostics():
    model = CoupledModel(1.0, 1.0, 2.0, TanhProfile(1.0))
    with pytest.raises(SupercriticalError) as err:
        reduce(model, +1)
    assert err.value.critical == pytest.approx(math.sqrt(2))


def test_reduce_refuses_exactly_critical():
    model = CoupledModel(3.0, 4.0, 5.0, TanhProfile(1.0))
    with pytest.raises(SupercriticalError):
        reduce(model, -1)


def test_effective_potential_partner_structure():
    model = CoupledModel(3.0, 4.0, 0.0, TanhProfile(0.8))
    x = np.linspace(-4, 4, 21)
    vplus = reduce(model, +1).effective_potential(x)
    vminus = reduce(model, -1).effective_potential(x)
    wt = 4 * np.tanh(x)
    wtp = 4 / np.cosh(x) ** 2
    assert np.allclose(vplus, wt**2 - wtp, atol=1e-12)
    assert np.allclose(vminus, wt**2 + wtp, atol=1e-12)

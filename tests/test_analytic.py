"""Closed-form level tables and the transformed-potential parameter algebra."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracosc.analytic import (
    LevelRecord,
    LevelTable,
    rm2_with_field_levels,
    rosen_morse2_levels,
    scarf2_levels,
    transformed_potential_parameters,
)
from diracosc.errors import ConstraintError, SupercriticalError
from diracosc.susy import subcritical_radicand


def test_scarf2_reference_tower():
    table = scarf2_levels(4.0)
    plus = table.e_squared_values(sigma=+1)
    minus = table.e_squared_values(sigma=-1)
    assert plus == pytest.approx([0.0, 7.0, 12.0, 15.0])
    assert minus == pytest.approx([7.0, 12.0, 15.0])


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 60.0, exclude_min=True))
# a * a - (a - n) ** 2 gave 7.1e-15 here: x ** 2 is not always x * x
@example(a=5.721902012661051)
def test_scarf2_ground_state_always_zero(a):
    table = scarf2_levels(a)
    assert table.e_squared_values(sigma=+1)[0] == 0.0


def test_scarf2_strict_range():
    # n < A strictly: A = 2.5 admits n = 0, 1, 2
    table = scarf2_levels(2.5)
    assert [r.n for r in table.entries if r.sigma == +1] == [0, 1, 2]
    # integer A: n = A would put the level exactly at the rim, excluded
    table4 = scarf2_levels(4.0)
    assert max(r.n for r in table4.entries) == 3


def test_scarf2_empty_when_unbinding():
    assert scarf2_levels(-1.0).entries == ()
    assert scarf2_levels(0.0).entries == ()


def test_scarf2_b_does_not_move_levels():
    assert scarf2_levels(3.0, 0.0).e_squared_values() == \
        scarf2_levels(3.0, 2.0).e_squared_values()


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.3, 12.0))
def test_scarf2_monotone_exhaustion(a):
    plus = scarf2_levels(a).e_squared_values(sigma=+1)
    assert all(x < y for x, y in zip(plus, plus[1:]))


def test_rosen_morse2_reference_values():
    table = rosen_morse2_levels(2.0, 1.0)
    # n = 0 terms cancel pairwise
    assert table.entries[0].e_squared == pytest.approx(0.0, abs=1e-14)
    # n = 1 evaluates to 2.25 but sits exactly at the decay threshold
    # ((A-n)^2 = |B|), so it is filtered into the excluded list
    assert len(table.entries) == 1
    excluded = table.metadata["excluded"]
    assert {e["n"] for e in excluded} == {1}
    assert excluded[0]["e_squared"] == pytest.approx(2.25)
    assert "non-normalizable" in excluded[0]["reason"]


def test_rosen_morse2_ground_level_survives_rounding():
    # the ungrouped level sum gives -1.8e-15 here; the ground level of a
    # bound tilt is exactly 0
    table = rosen_morse2_levels(2.7, 6.29)
    ground = [r for r in table.entries if r.n == 0]
    assert len(ground) == 1 and ground[0].e_squared == 0.0
    assert all(e["n"] != 0 for e in table.metadata["excluded"])


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.3, 12.0), frac=st.floats(-0.999, 0.999))
def test_rosen_morse2_ground_level_is_exact_zero(a, frac):
    # every tilt with A^2 > |B| binds the n = 0 level at exactly E^2 = 0
    table = rosen_morse2_levels(a, frac * a * a)
    assert table.entries[0].n == 0
    assert table.entries[0].e_squared == 0.0


def test_rosen_morse2_b_zero_reduces_to_scarf_form():
    rm = rosen_morse2_levels(3.0, 0.0)
    sc = scarf2_levels(3.0)
    assert rm.e_squared_values() == pytest.approx(sc.e_squared_values())


def test_rosen_morse2_constraints():
    with pytest.raises(ConstraintError):
        rosen_morse2_levels(2.0, 4.0)   # B >= A^2
    with pytest.raises(ConstraintError):
        rosen_morse2_levels(-1.0, 0.0)


def test_rosen_morse2_sigma_degeneracy_on_overlap():
    table = rosen_morse2_levels(4.0, 1.0)
    plus = {r.n: r.e_squared for r in table.entries if r.sigma == +1}
    minus = {r.n: r.e_squared for r in table.entries if r.sigma == -1}
    for n in minus:
        assert n in plus
        assert minus[n] == pytest.approx(plus[n], abs=1e-14)


def test_table_sorted_by_e_squared_with_plus_first():
    table = rosen_morse2_levels(4.0, 1.0)
    e2 = [r.e_squared for r in table.entries]
    assert e2 == sorted(e2)
    for a, b in zip(table.entries, table.entries[1:]):
        if a.e_squared == b.e_squared:
            assert (a.sigma, b.sigma) == (1, -1)


def test_field_free_limit_exposes_transcription_error():
    # the consistent composition reduces to the plain tilted-tanh table when
    # the field is switched off; the formula as transcribed does not (its
    # denominator correction carries the full coupling instead of the field
    # coupling, so it cannot even feel the field going away)
    printed, rederived = rm2_with_field_levels(1.0, 3.0, 4.0, 0.0)
    base = rosen_morse2_levels(5.0, 0.0)
    assert rederived.e_squared_values() == pytest.approx(base.e_squared_values(),
                                                         abs=1e-12)
    by_n = {r.n: r.e_squared for r in printed.entries if r.sigma == +1}
    assert by_n[1] != pytest.approx(9.0, abs=1.0)


def test_rederived_variant_small_field_limit():
    _, rederived = rm2_with_field_levels(1.0, 3.0, 4.0, 1e-6)
    base = rosen_morse2_levels(5.0, 0.0)
    assert rederived.e_squared_values() == pytest.approx(base.e_squared_values(),
                                                         abs=1e-4)


def test_field_variant_reference_level():
    # alpha0=1, couplings 3 and 4, no field: n=1 level at 25 - 16 = 9
    _, rederived = rm2_with_field_levels(1.0, 3.0, 4.0, 0.0)
    by_n = {r.n: r.e_squared for r in rederived.entries if r.sigma == +1}
    assert by_n[1] == pytest.approx(9.0, abs=1e-12)


def test_rederived_variant_takes_the_exact_reduced_coupling():
    # |km| = |kv| cancels exactly in kf^2 + (km - kv)(km + kv); summed as
    # squares the reduced coupling came out 3.9999999999999996
    _, rederived = rm2_with_field_levels(1.0, 4.0, 1e-6, 1e-6)
    assert rederived.metadata["A"] == 4.0


def test_field_variants_disagree_with_field():
    printed, rederived = rm2_with_field_levels(2.0, 1.0, 1.0, 1.0)
    # the consistent composition keeps only the zero level; its first excited
    # candidate fails the decay condition once the self-consistent tilt is in
    assert rederived.e_squared_values() == pytest.approx([0.0], abs=1e-14)
    assert {e["n"] for e in rederived.metadata["excluded"]} == {1}
    # the transcribed formula keeps a level near 1.37 that no state realizes
    printed_e2 = printed.e_squared_values(sigma=+1)
    assert printed_e2[0] == pytest.approx(0.0, abs=1e-14)
    assert printed_e2[1] == pytest.approx((8 - (2 * math.sqrt(2) - 1) ** 2)
                                          / (1 + 8 / (2 * math.sqrt(2) - 1) ** 2))


def test_field_variants_refuse_supercritical():
    with pytest.raises(SupercriticalError):
        rm2_with_field_levels(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ConstraintError):
        rm2_with_field_levels(-1.0, 3.0, 4.0, 0.0)


def test_transformed_reference_closure():
    p = transformed_potential_parameters(3.0, 1)
    assert p.valid
    assert (p.nu, p.a, p.b) == (1.0, 2.0, 3.0)


def test_transformed_boundary_case():
    p = transformed_potential_parameters(2.0, 1)
    assert p.valid
    assert p.nu == 0.0 and p.b == 0.0


@pytest.mark.parametrize("lam,n,fragment", [
    (3.0, 0, "n >= 1"),
    (1.5, 1, "lam >= n+1"),
    (1.0, 1, "lam >= n+1"),
])
def test_transformed_rejections(lam, n, fragment):
    p = transformed_potential_parameters(lam, n)
    assert not p.valid
    assert fragment in p.reason


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(2.0, 20.0), n=st.integers(1, 12))
def test_transformed_round_trip_identity(lam, n):
    p = transformed_potential_parameters(lam, n)
    if not p.valid or p.nu == 0:  # nu = 0 makes the identity a 0/0 limit
        return
    lhs = p.lam**2 + p.nu**2
    rhs = (p.lam - 1 - p.n) ** 2 + p.lam**2 * p.nu**2 / (p.lam - 1 - p.n) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lhs))


# The level tables as three separate loops, each with its own filters: a
# reference for the one builder that lists every table now.

def reference_sigma_range(nmax):
    for sigma, start in ((+1, 0), (-1, 1)):
        for n in range(start, nmax + 1):
            yield sigma, n


def reference_scarf2(a, b=0.0):
    entries = []
    meta = {"A": a, "B": b, "excluded": []}
    if a > 0:
        nmax = math.ceil(a) - 1
        for sigma, n in reference_sigma_range(nmax):
            an = a - n
            e2 = a * a - an * an
            entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), "scarf2", meta)


def reference_rm2_candidate(a, b, n):
    an = a - n
    return (a * a - an * an) + b * b * (1.0 / (a * a) - 1.0 / (an * an))


def reference_underflow(a):
    if a * a < sys.float_info.min:
        raise ConstraintError(f"A = {a:g} is too small: A^2 = {a * a:g} underflows "
                              f"below the smallest normal float {sys.float_info.min:g}")


def reference_rosen_morse2(a, b):
    reference_underflow(a)
    if a <= 0:
        raise ConstraintError(f"need A > 0, got {a}")
    if b >= a * a:
        raise ConstraintError(f"need B < A^2, got B={b}, A^2={a * a}")
    entries = []
    excluded = []
    nmax = math.ceil(a) - 1
    for sigma, n in reference_sigma_range(nmax):
        e2 = reference_rm2_candidate(a, b, n)
        if (a - n) ** 2 <= abs(b):
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "non-normalizable: (A-n)^2 <= |B|"})
            continue
        if e2 < 0:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "negative E^2"})
            continue
        entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), "rosen_morse2",
                      {"A": a, "B": b, "excluded": excluded})


def reference_field_variant(formula_id, alpha0, kappa, denom_coupling, kv, nmax):
    a = alpha0 * kappa
    reference_underflow(a)
    entries = []
    excluded = []
    for sigma, n in reference_sigma_range(nmax):
        an = a - n
        if an == 0:
            continue
        e2 = (a * a - an * an) / (1.0 + (alpha0 * denom_coupling) ** 2 / an**2)
        if e2 < 0:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "negative E^2"})
            continue
        b_self = alpha0 * abs(kv) * math.sqrt(e2)
        if an * an <= b_self:
            excluded.append({"n": n, "sigma": sigma, "e_squared": e2,
                             "reason": "non-normalizable: (A-n)^2 <= |B|"})
            continue
        entries.append(LevelRecord(n, sigma, e2))
    return LevelTable(tuple(entries), formula_id,
                      {"A": a, "alpha0": alpha0, "excluded": excluded})


def reference_rm2_with_field(alpha0, kf, km, kv):
    if alpha0 <= 0:
        raise ConstraintError(f"need alpha0 > 0, got {alpha0}")
    kprime = math.sqrt(subcritical_radicand(kf, km, kv))
    kappa = math.hypot(kf, km)
    printed = reference_field_variant(
        "rm2_field_printed", alpha0, kappa, kappa, kv, math.ceil(alpha0 * kappa) - 1
    )
    rederived = reference_field_variant(
        "rm2_field_rederived", alpha0, kprime, kv, kv, math.ceil(alpha0 * kprime) - 1
    )
    return printed, rederived


def outcome(build, *args):
    """repr of what build(*args) returns or raises: repr keeps every float
    bit, -0.0 included, and the metadata's key order. Both raise alike, a
    ConstraintError included where A^2 underflows at tiny A (the loops
    divided by zero there, or listed a NaN E^2)."""
    try:
        return repr(build(*args))
    except (ArithmeticError, ConstraintError, SupercriticalError) as err:
        return repr(err)


# amplitudes up to 60, whole and half ones among them, so that n = A and
# (A-n)^2 = |B| are hit exactly
amplitudes = st.one_of(st.floats(-2.0, 60.0), st.integers(-2, 60).map(float),
                       st.integers(-4, 120).map(lambda k: k / 2))


@st.composite
def tilts(draw):
    """(A, B) with B often exactly +-(A - k)^2, the decay threshold of level k."""
    a = draw(amplitudes)
    k = draw(st.integers(0, 60))
    return a, draw(st.one_of(
        st.floats(-3.0, 1.0).map(lambda frac: frac * a * a),
        st.sampled_from([-1.0, 1.0]).map(lambda sign: sign * (a - k) ** 2),
        st.floats(-1e3, 1e3)))


couplings = st.one_of(st.floats(-8.0, 8.0), st.integers(-8, 8).map(float))


# amplitudes whose square underflows: A^2 = 0 divided by zero, and a
# subnormal A^2 gave 1/A^2 = inf and a NaN E^2
TINY_TILTS = [(1.19e-287, -1.0), (2.2e-311, -1.0), (1e-160, 0.0)]


@settings(max_examples=300, deadline=None)
@given(ab=tilts(), field=st.tuples(st.floats(-0.5, 6.0), couplings, couplings, couplings))
@example(ab=TINY_TILTS[0], field=(1e-200, 3.0, 4.0, 1.0))
@example(ab=TINY_TILTS[1], field=(1e-160, 3.0, 4.0, 0.0))
@example(ab=TINY_TILTS[2], field=(1e-150, 1.0, 1.0, 1.0))
def test_tables_match_the_three_loop_reference_bit_for_bit(ab, field):
    # same entries (n, sigma, E^2 bits), same metadata, same refusals; and no
    # table divides by zero or lists a NaN E^2
    for got, want in ((outcome(scarf2_levels, *ab), outcome(reference_scarf2, *ab)),
                      (outcome(rosen_morse2_levels, *ab),
                       outcome(reference_rosen_morse2, *ab)),
                      (outcome(rm2_with_field_levels, *field),
                       outcome(reference_rm2_with_field, *field))):
        assert got == want
        assert "ZeroDivisionError" not in got and "nan" not in got


def assert_one_filter(table, unbound):
    """Every candidate is excluded exactly when unbound(n, E^2) says
    (A-n)^2 <= |B|, and every listed n >= 1 level has E^2 > 0."""
    for rec in table.entries:
        assert not unbound(rec.n, rec.e_squared)
        assert rec.n == 0 or rec.e_squared > 0
    for rec in table.metadata["excluded"]:
        assert rec["reason"] == "non-normalizable: (A-n)^2 <= |B|"
        assert unbound(rec["n"], rec["e_squared"])


scaled = st.one_of(st.just(0.0), st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3))


@settings(max_examples=300, deadline=None)
@given(ab=tilts(), field=st.tuples(st.one_of(st.floats(0.01, 6.0), st.floats(1e-320, 1e-150)),
                                   scaled, scaled, scaled))
@example(ab=TINY_TILTS[0], field=(1.0, 3.0, 4.0, 1.0))
@example(ab=TINY_TILTS[1], field=(1.0, 3.0, 4.0, 1.0))
@example(ab=(2.0, 1.0), field=(1e-200, 3.0, 4.0, 1.0))
def test_tables_exclude_only_non_normalizable_levels(ab, field):
    a, b = ab
    assert_one_filter(scarf2_levels(a, b), lambda n, e2: False)
    if a * a < sys.float_info.min:
        with pytest.raises(ConstraintError, match="underflows"):
            rosen_morse2_levels(a, b)
    elif a > 0 and b < a * a:
        assert_one_filter(rosen_morse2_levels(a, b), lambda n, e2: (a - n) ** 2 <= abs(b))
    alpha0, kf, km, kv = field
    try:
        amps = (alpha0 * math.hypot(kf, km),
                alpha0 * math.sqrt(subcritical_radicand(kf, km, kv)))
    except SupercriticalError:
        return
    if min(amp * amp for amp in amps) < sys.float_info.min:
        with pytest.raises(ConstraintError, match="underflows"):
            rm2_with_field_levels(alpha0, kf, km, kv)
        return
    for table in rm2_with_field_levels(alpha0, kf, km, kv):
        amp = table.metadata["A"]
        assert_one_filter(table, lambda n, e2: (amp - n) * (amp - n)
                          <= alpha0 * abs(kv) * math.sqrt(e2))

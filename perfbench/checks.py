"""Closed-form checks applied to every benchmark operation's output.

Each check returns an Outcome. ``passed`` is the verdict at the tolerance
the acceptance tests use for that quantity; an operation that misses it
counts as failed. ``consistent`` says whether the program's own verdict
(its exit code) agrees with the closed forms: a program that reports
success on levels clearly outside the tolerance, or failure on levels
clearly inside it, produced a wrong result. A factor-2 band around the
tolerance is left undecided so that rounding cannot flip it.
"""

import math
from dataclasses import dataclass


@dataclass
class Outcome:
    passed: bool
    consistent: bool = True
    e2_err: float = None       # nearest-partner |dE^2| / max(E^2, 1), two-sided
    residual: float = None     # reported Dirac residual of a zero mode
    note: str = ""


def nearest_partner_err(reference, numeric, relative=True):
    """Max over both sets of the distance to the nearest level of the other set.

    Two-sided, so a spurious numeric level counts as much as a missing one.
    With `relative` each distance is divided by max(E^2, 1) of its own level.
    """
    if not reference and not numeric:
        return 0.0
    if not reference or not numeric:
        return math.inf
    worst = 0.0
    for levels, others in ((reference, numeric), (numeric, reference)):
        for e2 in levels:
            dev = min(abs(e2 - other) for other in others)
            worst = max(worst, dev / max(abs(e2), 1.0) if relative else dev)
    return worst


def _verdict_consistent(program_passed, deviation, tol, counts_match=True):
    if program_passed:
        return counts_match and deviation <= 2.0 * tol
    return not (counts_match and deviation <= 0.5 * tol)


def spectrum_outcome(table_e2, bound_energies, exit_code, tol):
    """First-order bound census against the closed-form table (spectrum workflow).

    Every table entry is one bound state: the two partner signs at one
    level index are the +E and -E mirror states, and the E = 0 entry is the
    single zero mode. The program matches absolute E^2 deviations against
    `tol`.
    """
    numeric = [float(e) ** 2 for e in bound_energies]
    counts_match = len(numeric) == len(table_e2)
    dev = nearest_partner_err(table_e2, numeric, relative=False)
    independent = counts_match and dev <= tol
    return Outcome(
        passed=exit_code == 0 and independent,
        consistent=_verdict_consistent(exit_code == 0, dev, tol, counts_match),
        e2_err=nearest_partner_err(table_e2, numeric),
        note=f"exit {exit_code}, {len(numeric)} bound vs {len(table_e2)} tabulated",
    )


def sweep_outcome(kappa_v, counts, critical, expected, exit_code):
    """Bound counts along a field sweep (AC-5).

    `expected[i]` is (count, exact): the closed-form count at kappa_v[i] and
    whether the census must equal it (the field-free table) or only reach
    it (the field formula, which does not list levels hugging the edge).
    """
    non_increasing = all(a >= b for a, b in zip(counts, counts[1:]))
    zero_tail = all(c == 0 for kv, c in zip(kappa_v, counts) if kv >= critical - 1e-12)
    closed = all(c == n if exact else c >= n
                 for c, (n, exact) in zip(counts, expected))
    program_checks = non_increasing and zero_tail
    return Outcome(
        passed=exit_code == 0 and program_checks and closed,
        consistent=(exit_code == 0) == program_checks,
        note=f"exit {exit_code}, counts {counts} vs closed form {[n for n, _ in expected]}",
    )


def levels_outcome(reference, values, tol):
    """Reduced-problem eigenvalues against closed-form E^2 (AC-1, AC-3)."""
    err = nearest_partner_err(reference, [float(v) for v in values])
    return Outcome(passed=len(values) == len(reference) and err <= tol, e2_err=err)


def binding_filter_outcome(reference, values, bound_flags, edge, tol):
    """Listed levels bound, nothing else below the continuum edge (AC-2)."""
    bound = [float(v) for v, b in zip(values, bound_flags) if b]
    rest = [float(v) for v, b in zip(values, bound_flags) if not b]
    err = nearest_partner_err(reference, bound)
    passed = (len(bound) == len(reference) and err <= tol
              and all(v >= edge - tol for v in rest))
    return Outcome(passed=passed, e2_err=err,
                   note=f"{len(bound)} bound, edge {edge:.6g}")


def selfconsistent_outcome(expected_e2, energy, iterations, tol=2e-3, max_iter=50):
    """Fixed-point level against the composed field formula."""
    dev = abs(energy * energy - expected_e2)
    return Outcome(passed=dev <= tol and iterations < max_iter,
                   e2_err=dev / max(abs(expected_e2), 1.0),
                   note=f"{iterations} iterations")


def zeromode_outcome(exit_code, residual, residual_tol, norm_dev, shape_dev,
                     tol=1e-8):
    """Zero-mode CSV against its closed form, plus the reported residual."""
    shape_ok = norm_dev <= tol and shape_dev <= tol
    independent = shape_ok and residual <= residual_tol
    if exit_code == 0:
        consistent = norm_dev <= 2 * tol and shape_dev <= 2 * tol
    else:
        consistent = not independent
    return Outcome(passed=exit_code == 0 and independent, consistent=consistent,
                   residual=residual,
                   note=f"exit {exit_code}, norm dev {norm_dev:.1e}, shape dev {shape_dev:.1e}")


def selftest():
    """Feed the checkers known-good and shifted level sets; return the failures.

    The reference is the seed-0 README table (E^2 = 0, 7, 12, 15 with the
    +-E mirrors). Shifting every level by 1e-2 must fail each check, so a
    checker that passes everything cannot go unnoticed.
    """
    table = [0.0, 7.0, 7.0, 12.0, 12.0, 15.0, 15.0]
    exact = [s * math.sqrt(e2) for e2 in table[1::2] for s in (-1.0, 1.0)] + [0.0]
    shifted = [s * math.sqrt(e2 + 1e-2) for e2 in table[1::2] for s in (-1.0, 1.0)]
    shifted.append(0.1)
    plus = [0.0, 7.0, 12.0, 15.0]
    cases = [
        ("exact spectrum passes", spectrum_outcome(table, exact, 0, 1e-3).passed),
        ("shifted spectrum fails",
         not spectrum_outcome(table, shifted, 0, 1e-3).passed),
        ("shifted spectrum claimed as a pass is inconsistent",
         not spectrum_outcome(table, shifted, 0, 1e-3).consistent),
        ("spurious level fails",
         not spectrum_outcome(table, exact + [1.0], 0, 1e-3).passed),
        ("missing level fails", not spectrum_outcome(table, exact[1:], 0, 1e-3).passed),
        ("exact partner levels pass", levels_outcome(plus, plus, 1e-3).passed),
        ("shifted partner levels fail",
         not levels_outcome(plus, [e + 1e-2 for e in plus], 1e-3).passed),
        ("shifted fixed point fails",
         not selfconsistent_outcome(7.0, math.sqrt(7.0 + 1e-2), 12).passed),
        ("shifted binding filter fails",
         not binding_filter_outcome([0.0], [1e-2, 2.25, 2.6], [True, False, False],
                                    2.25, 1e-3).passed),
    ]
    return [name for name, ok in cases if not ok]

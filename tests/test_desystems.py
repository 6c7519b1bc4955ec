import hashlib
from fractions import Fraction

import pytest

from tuttelab.desystems import (DESolveError, _reduce, check_de_maps,
                                check_de_tri, check_tutte_ode, solve_de_maps,
                                solve_de_tri, tri_t2_series)
from tuttelab.poly import MultiPoly


def test_maps_system_small_order():
    assert check_de_maps(Fraction(2), Fraction(2), Fraction(1), 4)
    assert check_de_maps(Fraction(5, 2), Fraction(3), Fraction(1), 4)


def test_systems_above_the_verify_orders():
    assert check_de_tri(Fraction(5, 2), 24)
    assert check_de_maps(Fraction(3), Fraction(1, 2), Fraction(2, 3), 10)


def test_maps_system_returns_series():
    A, B, C, m11 = solve_de_maps(Fraction(2), Fraction(2), Fraction(1), 3)
    assert A.order == B.order == C.order == m11.order == 3
    # the map series starts 1 + ... with positive rational coefficients
    assert m11.coeff(0).constant_value() == 1
    assert m11.coeff(1).constant_value() > 0


def test_triangulation_system_small_order():
    assert check_de_tri(Fraction(2), 8)
    assert check_de_tri(Fraction(3), 8)


def test_tutte_ode_small_order():
    assert check_tutte_ode(Fraction(2), 8)
    assert check_tutte_ode(Fraction(3), 8)


def test_t2_series_leading_terms():
    # constant term q(q-1); only even z-powers appear (Euler parity)
    t2 = tri_t2_series(Fraction(3), 6)
    assert t2.coeff(0).constant_value() == 6
    assert all(t2.coeff(n).is_zero() for n in (1, 3, 5))
    assert t2.coeff(2).constant_value() == 6


def test_singular_parameters_raise():
    with pytest.raises(ValueError):
        solve_de_tri(Fraction(4), 4)


def test_solutions_are_pinned():
    def digest(s):
        return hashlib.sha256(repr(s).encode()).hexdigest()[:16]

    assert digest(solve_de_maps(Fraction(5, 2), Fraction(3), Fraction(1), 6)) \
        == "639bddf3fa3375b0"
    assert digest(solve_de_tri(Fraction(3), 12)) == "e96dc4e79909bce4"


@pytest.mark.parametrize("solve", [
    lambda: solve_de_maps(Fraction(5, 2), 0.5, 1, 2),
    lambda: solve_de_tri(2.5, 4),
    lambda: check_tutte_ode(0.1, 4),
])
def test_float_parameters_are_not_exact(solve):
    with pytest.raises(TypeError, match="not an exact scalar"):
        solve()


@pytest.mark.parametrize("q, nu", [(2, 1), (0, 2), (4, 2)])
def test_degenerate_maps_points_raise(q, nu):
    with pytest.raises(DESolveError, match="coefficients remain undetermined"):
        solve_de_maps(Fraction(q), Fraction(nu), Fraction(1), 2)


X, Y, Z = (MultiPoly.var(n) for n in "xyz")


def _solve(constraints, pending):
    """Run _reduce on a toy system; returns the solved values of the
    pending unknowns (still-symbolic ones as polynomials) and what is left."""
    values = [MultiPoly.var(u) for u in pending]
    left, free = _reduce(constraints, list(pending), [values], 0)
    return values, left, free


def test_reduce_affine_chain():
    values, left, free = _solve([X + Y + Z - 6, Y - 2 * Z, Z - 1], "xyz")
    assert values == [3, 2, 1] and left == [] and free == []


def test_reduce_quadratic_turns_affine():
    values, left, free = _solve([X * Y - 6, Y - 2], "xy")
    assert values == [3, 2] and left == [] and free == []


def test_reduce_cancels_quadratic_monomials():
    values, left, free = _solve([X * Y + X - 3, X * Y - 1], "xy")
    assert values == [2, Fraction(1, 2)] and left == [] and free == []


def test_reduce_clears_rational_coefficients():
    values, left, free = _solve([X / 2 + Y / 3 - 1, X - Y / 4], "xy")
    assert values == [Fraction(6, 11), Fraction(24, 11)]
    assert left == [] and free == []


def test_reduce_inconsistent_raises():
    with pytest.raises(DESolveError, match="inconsistent linear system"):
        _solve([X + Y - 1, X + Y - 2], "xy")

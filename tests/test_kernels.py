import pytest

from tuttelab import closed_forms as cf
from tuttelab import kernels, verify
from tuttelab.equations import EquationId, expand
from tuttelab.series import TSeries
from tuttelab.kernels import (U_series, V_series, kernel_six_pair_invariance,
                              lagrange_U_coeff, lagrange_V_coeff,
                              trinomial_coeff, trinomial_expansion_check,
                              x_of_u_inverts)


@pytest.fixture(scope="module")
def kernels_rows():
    return verify.run(["kernels"])


def test_kernel_solution_checks(kernels_rows):
    assert len(kernels_rows) == 15
    results = [r for r in kernels_rows if r.case.startswith("bipolar ")]
    assert len(results) == 7 and verify.all_pass(results)


def test_tree_rooted_checks(kernels_rows):
    results = [r for r in kernels_rows if r.case.startswith("tree_rooted ")]
    assert len(results) == 8 and verify.all_pass(results)


def test_substitution_series():
    assert V_series(4).coeff(0).is_zero()
    assert U_series(4).coeff(0).is_zero()
    assert x_of_u_inverts(6)
    assert kernel_six_pair_invariance()


def test_trinomial_expansion():
    assert trinomial_coeff(1, 0, 1) == 2  # u * zy/u, two orderings
    assert trinomial_coeff(1, 0, 0) == 0  # odd parity
    assert trinomial_expansion_check(3, 3)


def test_lagrange_coefficients_match_series():
    V = V_series(5)
    for n in range(1, 6):
        cn = V.coeff(n)
        for i in range(3):
            for j in range(1, 3):
                u_pow = n + 1 - 2 * i - 2 * j
                got = cn.coeff("w", i).coeff("z", j).coeff("u", u_pow)
                assert got.is_constant()
                assert got.constant_value() == lagrange_V_coeff(i, j, n)
    U = U_series(6)
    for n in range(1, 7):
        cn = U.coeff(n)
        for i in range(4):
            got = cn.coeff("y", 3 * i - n + 2)
            assert got.is_constant()
            assert got.constant_value() == lagrange_U_coeff(n, i)


# Each stray term sits in a cell where the formula gives 0, one that a
# check reading only the formula's own cells would never look at.
@pytest.mark.parametrize("series, check, var, power, stray", [
    ("V_series", "lagrange_V_spot_checks", "t", 3, kernels.Z * kernels.U ** 5),
    ("U_series", "lagrange_U_spot_checks", "t", 2, kernels.Y),
    ("tree_rooted_tri_Q0", "tri_q0_closed_form", "t", 2, kernels.Y ** 2),
    ("bipolar_tri_substituted", "gbt_closed_form_check", "z", 1,
     kernels.Y ** 4),
])
def test_formula_check_sees_a_stray_term(monkeypatch, series, check, var,
                                         power, stray):
    real = getattr(kernels, series)

    def with_stray(order, *rest):
        return real(order, *rest) + TSeries.const(stray, var, order).shift(power)

    monkeypatch.setattr(kernels, series, with_stray)
    assert not getattr(kernels, check)()


def test_spanning_tree_weighted_maps_series():
    # Tutte polynomial at (1, 1) counts spanning trees
    N = expand(EquationId.TUTTE_MAPS, 3, {"mu": 1, "nu": 1, "w": 1, "z": 1})
    for n in range(4):
        total = N.coeff(n).subs({"x": 1, "y": 1})
        assert total.constant_value() == cf.spanning_tree_series_coeff(n)

from fractions import Fraction

import pytest

from tuttelab.equations import (EquationId, UnknownEquation, brute_force_gf,
                                expand, quasi_tri_q2_relation_holds)


def test_maps_counts_from_equation():
    s = expand(EquationId.MAPS_1CAT, 4)
    counts = [s.coeff(n).subs({"y": 1}).constant_value() for n in range(5)]
    assert counts == [1, 2, 9, 54, 378]


def test_prefix_stability():
    lo = expand(EquationId.MAPS_1CAT, 3)
    hi = expand(EquationId.MAPS_1CAT, 6)
    assert all(lo.coeff(k) == hi.coeff(k) for k in range(4))


@pytest.mark.parametrize("name,cap", [
    ("MAPS_1CAT", 4), ("NT", 4), ("NQ", 3), ("BIP", 3), ("EULER_NT", 2),
    ("POTTS_MAPS", 3), ("TUTTE_MAPS", 3), ("TUTTE_NONSEP_TRI", 3),
    ("BIPOLAR_MAPS", 4), ("BIPOLAR_TRI", 3),
])
def test_expand_vs_brute_force(name, cap):
    eq = EquationId[name]
    assert expand(eq, cap) == brute_force_gf(eq, cap)


@pytest.mark.parametrize("name,params", [
    ("POTTS_MAPS", {"w": 2}), ("TUTTE_MAPS", {"z": 3}),
    ("TUTTE_MAPS", {"w": 2}),
])
def test_expand_vs_brute_force_at_numeric_parameters(name, params):
    eq = EquationId[name]
    assert expand(eq, 2, params) == brute_force_gf(eq, 2, params)


@pytest.mark.parametrize("name", ["POTTS_QUASI_TRI", "TUTTE_QUASI_TRI"])
def test_quasi_equations_at_x0(name):
    eq = EquationId[name]
    assert expand(eq, 3).subs({"x": 0}) == brute_force_gf(eq, 3)


def test_parameter_specialization_commutes():
    sym = expand(EquationId.POTTS_MAPS, 3)
    vals = {"q": Fraction(2), "nu": Fraction(3), "w": Fraction(1)}
    specialized = expand(EquationId.POTTS_MAPS, 3, vals)
    assert sym.subs(vals) == specialized


def test_q2_catalytic_relation():
    assert quasi_tri_q2_relation_holds(EquationId.POTTS_QUASI_TRI, 4,
                                       {"q": 2})


def test_errors():
    with pytest.raises(UnknownEquation):
        expand("NOPE", 2)
    with pytest.raises(ValueError):
        expand(EquationId.MAPS_1CAT, 2, {"q": 2})

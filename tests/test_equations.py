import hashlib
from fractions import Fraction

import pytest

from tuttelab.equations import (PARAM_VARS, EquationId, UnknownEquation,
                                brute_force_gf, expand,
                                quasi_tri_q2_relation_holds)


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
    for name in ("POTTS_QUASI_TRI", "TUTTE_QUASI_TRI"):
        assert quasi_tri_q2_relation_holds(EquationId[name], 8)


def test_errors():
    with pytest.raises(UnknownEquation):
        expand("NOPE", 2)
    with pytest.raises(ValueError):
        expand(EquationId.MAPS_1CAT, 2, {"q": 2})
    with pytest.raises(TypeError, match="not an exact scalar"):
        expand(EquationId.BIPOLAR_MAPS, 1, {"w": 0.1})


# sha256 prefixes of repr(expand(eq, order)) at verify's orders, and at the
# orders it used before raising them: with every parameter symbolic, and at
# POINT (None for equations without parameters).
# The printed expansions are part of the output contract, so any change to
# the polynomial or series core must leave them byte-identical.
POINT = {"q": Fraction(5, 3), "nu": Fraction(-3, 2), "mu": Fraction(2, 5),
         "w": Fraction(-4, 3), "z": Fraction(3, 4)}


@pytest.mark.parametrize("name,order,symbolic,numeric", [
    ("MAPS_1CAT", 6, "2d39c98568873926", None),
    ("NT", 6, "ec7fd5a10ce70c0b", None),
    ("NQ", 4, "1b4c25c70d741f74", None),
    ("NQ", 5, "215cd22b14e8d0f3", None),
    ("BIP", 4, "6cb93f1652fea7fa", None),
    ("BIP", 5, "6e99895a048657a6", None),
    ("EULER_NT", 2, "383e2abe22e16e2d", None),
    ("POTTS_MAPS", 4, "dad4cdd7b0b7f72a", "dde4095d133eef1c"),
    ("TUTTE_MAPS", 3, "b531e8c71a421604", "086546d38c814f6e"),
    ("TUTTE_NONSEP_TRI", 3, "fbd9b3b45809f6d4", "8650b8601cd3ca83"),
    ("POTTS_QUASI_TRI", 4, "af9086fcce55d7d3", "a845888fc1b71baa"),
    ("TUTTE_QUASI_TRI", 4, "b79e13e8118d5061", "e7b3b5987673feb3"),
    ("BIPOLAR_MAPS", 5, "fdc253f8cf8236ab", "a138530be1fa86f7"),
    ("BIPOLAR_TRI", 3, "7417cfff6b47181d", None),
])
def test_expansion_text_is_pinned(name, order, symbolic, numeric):
    def digest(s):
        return hashlib.sha256(repr(s).encode()).hexdigest()[:16]

    eq = EquationId[name]
    assert digest(expand(eq, order)) == symbolic
    point = {k: POINT[k] for k in PARAM_VARS[eq]}
    assert (digest(expand(eq, order, point)) if point else None) == numeric


# sha256 prefixes of repr(expand(eq, order, POINT)) above verify's orders:
# the products of these expansions accumulate Fraction coefficients with
# many distinct denominators, the hard case of the polynomial product.
@pytest.mark.parametrize("name,order,numeric", [
    ("POTTS_MAPS", 7, "ab0d4a68876356df"),
    ("TUTTE_MAPS", 5, "eb230fea0cb8e79d"),
    ("TUTTE_NONSEP_TRI", 9, "9382be686196dd6b"),
    ("POTTS_QUASI_TRI", 8, "94a05cbbc3e3090c"),
    ("TUTTE_QUASI_TRI", 8, "4e9a6ba9b7fb852a"),
    ("BIPOLAR_MAPS", 10, "664d6e964d64c5ef"),
])
def test_numeric_expansion_is_pinned_above_verify_orders(name, order, numeric):
    eq = EquationId[name]
    point = {k: POINT[k] for k in PARAM_VARS[eq]}
    text = repr(expand(eq, order, point))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == numeric

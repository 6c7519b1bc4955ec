import hashlib
from fractions import Fraction

import pytest

from tuttelab import generate, potts
from tuttelab.equations import (PARAM_VARS, EquationId, UnknownEquation,
                                brute_force_gf, expand,
                                quasi_tri_q2_relation_holds)
from tuttelab.generate import CapExceeded
from tuttelab.maps import RootedMap


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
    # at the list cap, where both top sizes come from the one pass
    ("NT", 7), ("NQ", 7), ("BIP", 7),
])
def test_expand_vs_brute_force(name, cap):
    eq = EquationId[name]
    assert expand(eq, cap) == brute_force_gf(eq, cap)


@pytest.mark.parametrize("name,params", [
    ("POTTS_MAPS", {"w": 2}), ("TUTTE_MAPS", {"z": 3}),
    ("TUTTE_MAPS", {"w": 2}),
    ("POTTS_MAPS", {"q": 3, "nu": Fraction(1, 2)}),
    ("TUTTE_NONSEP_TRI", {"q": Fraction(7, 2)}),
    ("POTTS_QUASI_TRI", {"q": 2, "nu": 3, "z": Fraction(2, 3)}),
    ("TUTTE_QUASI_TRI", {"mu": Fraction(3, 2), "nu": Fraction(-2, 5)}),
    ("BIPOLAR_MAPS", {"w": Fraction(-5, 3)}),
    ("TUTTE_MAPS", {"mu": 2, "nu": 3, "w": Fraction(1, 2), "z": 5}),
])
def test_expand_vs_brute_force_at_numeric_parameters(name, params):
    eq = EquationId[name]
    lhs = expand(eq, 3, params)
    if name.endswith("QUASI_TRI"):  # brute force has the x = 0 slice
        lhs = lhs.subs({"x": 0})
    assert lhs == brute_force_gf(eq, 3, params)


def test_brute_force_cap_checked_before_generation(monkeypatch):
    # every generator and weight is patched to raise, so that a memo filled
    # by an earlier test cannot hide work done below the capped size
    def no_work(*args, **kwargs):
        raise AssertionError("work started on the capped path")

    for name in ("all_maps", "near_angulations", "bipartite_maps",
                 "_root_edge_recursion"):
        monkeypatch.setattr(generate, name, no_work)
    for name in ("potts", "tutte"):
        monkeypatch.setattr(potts, name, no_work)
    monkeypatch.setattr(RootedMap, "__init__", no_work)
    for name, order, message in (
            ("MAPS_1CAT", 8, "all_maps cap is 7 edges (asked for 8)"),
            ("POTTS_MAPS", 8, "all_maps cap is 7 edges (asked for 8)"),
            ("BIP", 8, "bipartite_maps cap is 7 edges (asked for 8)"),
            ("EULER_NT", 3, "eulerian_near_triangulations cap is 2 black "
             "faces (asked for 3)"),
            ("TUTTE_NONSEP_TRI", 4, "non_separable_near_triangulations cap "
             "is 3 inner faces (asked for 4)")):
        with pytest.raises(CapExceeded) as err:
            brute_force_gf(EquationId[name], order)
        assert str(err.value) == message


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


def _digest(s):
    return hashlib.sha256(repr(s).encode()).hexdigest()[:16]


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
    eq = EquationId[name]
    assert _digest(expand(eq, order)) == symbolic
    point = {k: POINT[k] for k in PARAM_VARS[eq]}
    assert (_digest(expand(eq, order, point)) if point else None) == numeric


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
    assert _digest(expand(eq, order, point)) == numeric


# sha256 prefixes of repr(brute_force_gf(eq, order, params)) at the caps of
# test_expand_vs_brute_force, of the quasi-triangulation slices and of the
# numeric cases at order 2: the printed sums over generated maps.
@pytest.mark.parametrize("name,order,params,digest", [
    ("MAPS_1CAT", 4, None, "b2b67bd876830419"),
    ("NT", 4, None, "df1f6be65476e711"),
    ("NQ", 3, None, "b02c680d9b13219f"),
    ("BIP", 3, None, "5fddb69252429a56"),
    ("EULER_NT", 2, None, "383e2abe22e16e2d"),
    ("POTTS_MAPS", 3, None, "1bb5bb0b5cb8c356"),
    ("TUTTE_MAPS", 3, None, "b531e8c71a421604"),
    ("TUTTE_NONSEP_TRI", 3, None, "fbd9b3b45809f6d4"),
    ("BIPOLAR_MAPS", 4, None, "9286eb32f98b1591"),
    ("BIPOLAR_TRI", 3, None, "7417cfff6b47181d"),
    ("POTTS_QUASI_TRI", 3, None, "f78a823f1b9bdffe"),
    ("TUTTE_QUASI_TRI", 3, None, "f3ff94c87422bf29"),
    ("POTTS_MAPS", 2, {"w": 2}, "ca617968cba6b64e"),
    ("TUTTE_MAPS", 2, {"z": 3}, "6e88621c0be465d9"),
    ("TUTTE_MAPS", 2, {"w": 2}, "5ff2881cd7d01c92"),
])
def test_brute_force_text_is_pinned(name, order, params, digest):
    assert _digest(brute_force_gf(EquationId[name], order, params)) == digest


# sha256 prefixes of repr(expand(eq, order, params)) for the two equations
# of each step shape, near-p-angulations (NT, NQ) and the two-catalytic
# Potts and Tutte maps, above the orders of test_expansion_text_is_pinned:
# symbolic, and at rational points, one of which leaves w symbolic.
@pytest.mark.parametrize("name,order,params,digest", [
    ("NT", 12, None, "8c3dd4f1b8a4a3d4"),
    ("NQ", 10, None, "0d2409f3e246ddf6"),
    ("POTTS_MAPS", 5, None, "70ee4d2b25188152"),
    ("POTTS_MAPS", 7, {"q": 3, "nu": Fraction(1, 2)}, "43e19aa4e75762ce"),
    ("TUTTE_MAPS", 5, None, "49fdce154e743870"),
    ("TUTTE_MAPS", 6, {"mu": Fraction(3, 2), "nu": Fraction(-2, 5),
                       "w": Fraction(2, 3), "z": Fraction(5, 4)},
     "cf075af841c83faa"),
])
def test_shared_step_expansions_are_pinned(name, order, params, digest):
    assert _digest(expand(EquationId[name], order, params)) == digest


def test_non_separable_rows_stream_the_near_triangulations_once(monkeypatch):
    # TUTTE_NONSEP_TRI and BIPOLAR_TRI read one memoised list of the
    # non-separable near-triangulations, kept from one stream, whose 6- and
    # 7-edge near-triangulations come from one pass over a stream of size 6
    streams, calls = generate.stream, []

    def stream(family, n, *args):
        calls.append((family, n, *args))
        return streams(family, n, *args)

    monkeypatch.setattr(generate, "stream", stream)
    generate.non_separable_near_triangulations.cache_clear()
    for name in ("TUTTE_NONSEP_TRI", "BIPOLAR_TRI"):
        eq = EquationId[name]
        assert brute_force_gf(eq, 3) == expand(eq, 3)
    assert calls.count(("near_angulations", 6, 3)) == 1
    assert calls.count(("near_angulations", 7, 3)) == 0
    assert calls.count(("non_separable_near_triangulations", 3)) == 1

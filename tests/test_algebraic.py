from tuttelab import closed_forms as cf
from tuttelab import verify
from tuttelab.algebraic import (blossoming_T, check_maps_quadratic,
                                maps_series, nt1_series)


def test_all_checks_pass():
    results = verify.run(["algebraic"])
    assert len(results) == 8 and verify.all_pass(results)


def test_named_check_dispatch():
    assert check_maps_quadratic(6)


def test_maps_series_coefficients():
    M = maps_series(6)
    for n in range(7):
        assert M.coeff(n).constant_value() == cf.maps_count(n)


def test_blossoming_series_coefficients():
    T = blossoming_T(5)
    for n in range(6):
        assert T.coeff(n).constant_value() == cf.blossoming_count(n)


def test_nt1_series_coefficients():
    F = nt1_series(8)
    # nonzero only at 3n+2 edges
    for n in range(9):
        c = F.coeff(n).constant_value()
        if n % 3 == 2:
            assert c == cf.nt1_count((n - 2) // 3)
        else:
            assert c == 0

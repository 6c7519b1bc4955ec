from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_poly import nonzero, polys_in, ref, ref_add, ref_mul
from tuttelab.poly import MultiPoly
from tuttelab.series import SeriesError, TSeries, fixed_point

y = MultiPoly.var("y")


def geometric(order):
    return TSeries("t", order, [1] * (order + 1))


def test_arithmetic():
    g = geometric(5)
    t = TSeries.t("t", 5)
    assert (1 - t) * g == 1
    assert g - g == TSeries.zero("t", 5)
    assert (g * g).coeff(3) == 4
    assert g ** 2 == g * g


def test_inverse_and_division():
    g = geometric(6)
    assert g.inverse() == 1 - TSeries.t("t", 6)
    assert g / g == 1
    with pytest.raises(SeriesError):
        TSeries.t("t", 3).inverse()


def test_shift_and_divide_by_var():
    t = TSeries.t("t", 4)
    assert t.shift(2).coeff(3) == 1
    assert t.shift(1).divide_by_var(1) == t.truncate(3)
    with pytest.raises(SeriesError):
        geometric(3).divide_by_var(1)


def test_coefficient_operations():
    s = TSeries("t", 2, [1, y + 2, y ** 2])
    assert s.subs({"y": 3}).coeff(2) == 9
    assert s.coeff_of("y", 1).coeff(1) == 1
    assert s.diff_main() == TSeries("t", 1, [y + 2, 2 * y ** 2])
    assert s.positive_part("y") == TSeries("t", 2, [0, y, y ** 2])


def test_truncation_order_tracking():
    a = geometric(6)
    b = geometric(3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.truncate(3) == b
    assert a != b + TSeries.t("t", 3)


def test_fixed_point_catalan():
    t = TSeries.t("t", 8)
    cat = fixed_point(lambda f: 1 + t * f * f, "t", 8)
    assert [cat.coeff(n).constant_value() for n in range(6)] \
        == [1, 1, 2, 5, 14, 42]


def test_fixed_point_requires_contraction():
    with pytest.raises(SeriesError):
        fixed_point(lambda f: f + 1, "t", 3)


def test_compose_poly():
    t = TSeries.t("t", 5)
    p = MultiPoly.var("u") ** 2 + 1
    assert t.compose_poly(p, "u") == 1 + t * t


def test_eval_with_fractions():
    s = TSeries("t", 2, [Fraction(1, 2), Fraction(1, 3), 1])
    assert (s * 6).coeff(1) == 2
    assert (s / Fraction(1, 2)).coeff(0) == 1


def plain_iteration(update, var, order, seed):
    """Full-order iteration, order + 1 rounds: the definition that the
    graded fixed_point must reproduce."""
    f = TSeries.const(seed, var, order)
    for _ in range(order + 1):
        f = update(f)
    assert update(f) == f
    return f


def test_fixed_point_has_the_requested_order():
    for order in range(9):
        t = TSeries.t("t", order)
        f = fixed_point(lambda f: 1 + t * f * f, "t", order)
        assert f.order == order and len(f.coeffs) == order + 1
    with pytest.raises(SeriesError):
        fixed_point(lambda f: TSeries.const(1, "t", 5), "t", 3)


def test_fixed_point_equals_plain_iteration():
    x = MultiPoly.var("x")
    order = 7
    t = TSeries.t("t", order)
    updates = [
        (lambda f: 1 + t * f * f, 1),
        (lambda f: 1 + t * y * f * f + t * (x - y) * f.subs({"y": 1}), x),
    ]
    for update, seed in updates:
        assert fixed_point(update, "t", order, seed=seed) \
            == plain_iteration(update, "t", order, seed)


def test_expansions_are_consistent_across_orders():
    from tuttelab.equations import EquationId, expand
    for eq in EquationId:
        for k in range(3):
            low = expand(eq, k)
            assert low.order == k and low == expand(eq, k + 1).truncate(k)


# -- products against a naive convolution over tuple-keyed coefficients ------

coeff_lists = st.lists(polys_in(), min_size=1, max_size=5)


def convolve(a, b, order):
    """[sum(a[i] * b[k - i] for i <= k) for k <= order], on references."""
    a = a + [{}] * (order + 1 - len(a))
    b = b + [{}] * (order + 1 - len(b))
    out = []
    for k in range(order + 1):
        acc = {}
        for i in range(k + 1):
            acc = ref_add(acc, ref_mul(a[i], b[k - i]))
        out.append(acc)
    return out


@settings(deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_is_the_naive_convolution(a, b):
    order = max(len(a), len(b)) - 1
    got = TSeries("t", order, a) * TSeries("t", order, b)
    assert [ref(c) for c in got.coeffs] == convolve(
        [ref(c) for c in a], [ref(c) for c in b], order)


@settings(deadline=None)
@given(nonzero, coeff_lists)
def test_inverse_convolves_to_one(c0, rest):
    s = TSeries("t", len(rest), [c0] + rest)
    one = convolve([ref(c) for c in s.coeffs],
                   [ref(c) for c in s.inverse().coeffs], s.order)
    assert one == [{(): 1}] + [{}] * s.order

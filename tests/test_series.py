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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, -2])
def test_power_is_the_repeated_product(k):
    s = TSeries("t", 6, [2, y, 1 - y, 0, Fraction(1, 3), y ** 2, 5])
    base, want = s if k >= 0 else s.inverse(), 1
    for _ in range(abs(k)):
        want = want * base
    assert s ** k == want
    if k < 0:
        assert s ** k * s ** -k == 1


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
    for update in (lambda f: 1 + t * f * f, lambda f: 1 + f * f * t,
                   lambda f: 1 + f * (t * f)):
        cat = fixed_point(update, "t", 8)
        assert [cat.coeff(n).constant_value() for n in range(9)] \
            == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_fixed_point_requires_contraction():
    for update in (lambda f: f + 1, lambda f: 1 + f * f):
        with pytest.raises(SeriesError, match="not contracting"):
            fixed_point(update, "t", 3)


def test_fixed_point_calls_the_update_twice():
    t = TSeries.t("t", 6)
    calls = []

    def update(f):
        calls.append(f)
        return 1 + t * f * f

    fixed_point(update, "t", 6)
    assert len(calls) == 2 and calls[1] == fixed_point(update, "t", 6)


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
    online fixed_point must reproduce."""
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
        assert fixed_point(update, "t", order) \
            == plain_iteration(update, "t", order, seed)


# Random contracting updates: 1 + (a term with a factor of t), where t
# stands on either side of a product, alone, as t + t^2, as t^2 or as y t,
# and the other factors mix F, constants, subs, inverses and a cube.
ORDER = 5
leaf_trees = st.sampled_from([("F",), ("F",), ("c", 1), ("c", 2), ("y",)])
any_trees = st.recursive(leaf_trees, lambda kids: st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
    st.tuples(st.sampled_from(["subs", "inv"]), kids)), max_leaves=5)
small_trees = st.tuples(
    st.sampled_from(["t*a", "a*t", "e*a", "a*e", "a*(t*b)", "a*(e*b)",
                     "t*(t*a)", "(y*t)*a", "a*(t*y)", "t*a**3"]),
    any_trees, any_trees)


def build(tree, f, t):
    """The series (or polynomial) of a tree at F = f, main variable t."""
    op, *args = tree
    if op == "F":
        return f
    if op == "c":
        return MultiPoly.const(args[0])
    if op == "y":
        return y
    kids = [build(k, f, t) for k in args]
    e = t + t * t
    if op == "subs":
        return kids[0].subs({"y": 1})
    if op == "inv":
        return (1 - kids[0] * t).inverse()
    a, b = kids
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "t*a": lambda: t * a, "a*t": lambda: a * t,
            "e*a": lambda: e * a, "a*e": lambda: a * e,
            "a*(t*b)": lambda: a * (t * b),
            "a*(e*b)": lambda: a * (e * b),
            "t*(t*a)": lambda: t * (t * a),
            "(y*t)*a": lambda: (y * t) * a, "a*(t*y)": lambda: a * (t * y),
            "t*a**3": lambda: t * a ** 3}[op]()


@settings(deadline=None, max_examples=60)
@given(small_trees)
def test_random_contracting_updates_match_plain_iteration(tree):
    t = TSeries.t("t", ORDER)

    def update(f):
        return 1 + build(tree, f, t)

    assert fixed_point(update, "t", ORDER) \
        == plain_iteration(update, "t", ORDER, 1)


# sha256 prefixes of repr(expand(eq, order)) far above verify's orders: the
# online solve computes a coefficient from a graph of fixed depth, so its
# recursion does not grow with the order.
@pytest.mark.parametrize("name,order,digest", [
    ("NT", 60, "78887033ede9a522"),
    ("MAPS_1CAT", 30, "9ad0a008015fe4f3"),
])
def test_high_order_expansions_are_pinned(name, order, digest):
    import hashlib
    from tuttelab.equations import EquationId, expand
    text = repr(expand(EquationId[name], order))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


# sha256 prefixes of repr() of the fixed points that expand does not cover,
# at the orders verify uses them.
@pytest.mark.parametrize("module,name,order,digest", [
    ("kernels", "V_series", 6, "cbec358628783eb1"),
    ("kernels", "U_series", 6, "0938a4fda5964735"),
    ("algebraic", "blossoming_T", 10, "7ac2cdaaf607a087"),
    ("algebraic", "ising_parametrisation_series", 6, "44b00b34d3f834bb"),
    ("algebraic", "three_colour_parametrisation_series", 6,
     "0231eb26fed7113c"),
])
def test_fixed_point_series_are_pinned(module, name, order, digest):
    import hashlib
    import importlib
    fn = getattr(importlib.import_module(f"tuttelab.{module}"), name)
    text = repr(fn(order))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

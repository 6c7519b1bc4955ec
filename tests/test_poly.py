from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tuttelab.poly import MultiPoly, lagrange_interpolate

x = MultiPoly.var("x")
y = MultiPoly.var("y")
q = MultiPoly.var("q")


def test_constant_hashes_like_its_scalar():
    for c in (3, Fraction(1, 2), Fraction(4, 2), 0):
        p = MultiPoly.const(c)
        assert p == c and hash(p) == hash(c) and p in {c}
    assert MultiPoly.zero() in {0}
    assert x - x + 5 in {5}


def test_basic_arithmetic():
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert (x - x).is_zero()


def test_mixed_variable_sets():
    p = x + q
    assert p.degree("x") == 1 and p.degree("q") == 1
    assert (x * q).coeff("q", 1) == x


def test_laurent_monomials():
    xbar = MultiPoly.var("x", -1)
    assert x * xbar == 1
    assert (x + xbar).part("x", lo=1) == x
    assert (x + 1 + xbar).part("x", lo=0, hi=0) == 1


def test_div_linear_exact():
    p = y * y - 1
    assert p.div_linear("y", 1) == y + 1
    with pytest.raises(ValueError):
        (y + 2).div_linear("y", 1)


def test_divided_difference_form():
    # (y*F(y) - F(1)) / (y - 1) with F = 1 + y^2
    F = 1 + y ** 2
    num = y * F - MultiPoly.const(2)
    assert num.div_linear("y", 1) == y ** 2 + y + 2


def test_divexact_general():
    p = (x - 1) * (y - 1) * (x + y + 3)
    assert p.divexact((x - 1) * (y - 1)) == x + y + 3
    with pytest.raises(ValueError):
        (x + 1).divexact(y - 1)


def test_subs_and_eval():
    p = x ** 2 * y + 3
    assert p.subs({"x": y}) == y ** 3 + 3
    assert p.eval({"x": 2, "y": Fraction(1, 2)}) == 5
    xbar = MultiPoly.var("x", -1)
    assert (xbar * y).subs({"x": 2 * y}) == Fraction(1, 2)


def test_diff():
    p = q ** 3 + 2 * q - 5
    assert p.diff("q") == 3 * q ** 2 + 2


def test_interpolation():
    # recover q*(q-1) from values at q = 0, 1, 2
    pts = [(0, MultiPoly.const(0)), (1, MultiPoly.const(0)), (2, MultiPoly.const(2))]
    assert lagrange_interpolate(pts) == q * (q - 1)


def test_canonical_string():
    p = y + x ** 2 - 3 * x * y
    assert str(p) == "x^2 -3*x*y +y"
    assert str(MultiPoly.zero()) == "0"


coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = draw(coeffs)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MultiPoly(("x", "y"), {e: c for e, c in terms.items() if c})


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys(), polys())
def test_exact_division_roundtrip(a, b):
    if not b.is_zero():
        assert (a * b).divexact(b) == a


scalars = st.one_of(coeffs, st.fractions(min_value=-3, max_value=3,
                                         max_denominator=4))


@st.composite
def polys_in(draw, names=("q", "nu", "x", "y", "u")):
    """A Laurent polynomial over a drawn variable tuple, in drawn order."""
    vars_ = tuple(draw(st.lists(st.sampled_from(names), unique=True,
                                max_size=3)))
    exps = st.tuples(*[st.integers(-2, 3) for _ in vars_])
    return MultiPoly(vars_, draw(st.dictionaries(exps, scalars, max_size=4)))


@given(st.lists(st.one_of(polys_in(), scalars), max_size=6))
def test_sum_is_the_left_fold(ps):
    fold = MultiPoly.zero()
    for p in ps:
        fold = fold + p
    total = MultiPoly.sum(iter(ps))
    assert total == fold and total.vars == fold.vars
    assert str(total) == str(fold)


def test_sum_of_nothing_is_zero():
    assert MultiPoly.sum([]).is_zero() and MultiPoly.sum([]).vars == ()


nonzero = st.fractions(min_value=-3, max_value=3,
                       max_denominator=4).filter(bool)


@given(polys_in(names=("x", "y", "w")), polys_in(names=("q", "w")),
       nonzero, st.integers(-2, 2), st.integers(-2, 2),
       st.tuples(nonzero, nonzero, nonzero))
def test_subs_then_eval_is_eval_at_the_substituted_values(
        p, value, c, a, b, point):
    # x may take a polynomial in new variables, so only ordinary powers;
    # y takes an invertible Laurent monomial, so any power
    p = p.part("x", lo=0)
    mono = c * MultiPoly.var("nu", a) * MultiPoly.var("w", b)
    at = dict(zip(("q", "nu", "w"), point))
    extended = dict(at, x=value.eval(at), y=mono.eval(at))
    assert p.subs({"x": value, "y": mono}).eval(at) == p.eval(extended)

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tuttelab.poly import (MultiPoly, _integral, _pack, _repack, _unpack,
                           exact, lagrange_interpolate)

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
    with pytest.raises(ValueError, match="negative power"):
        (x + 1) ** -1


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
    assert ref((q ** 2 / 2).diff("q")) == {(("q", 1),): 1}  # an int, too


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


@settings(deadline=None)
@given(polys_in(), st.permutations(("q", "nu", "x", "y", "u", "w")))
def test_equal_polynomials_hash_equal_over_any_variables(p, wide):
    # the same polynomial over its own variables reversed, over six
    # variables in any order (some of them dead), and over its live
    # variables only; a constant hashes like its scalar
    live = tuple(v for v in p.vars if any(
        e[p.vars.index(v)] for e, _ in p.terms()))
    same = [MultiPoly(p.vars[::-1], {e[::-1]: c for e, c in p.terms()}),
            p.in_vars(wide), p.in_vars(live),
            p + MultiPoly.var("w") - MultiPoly.var("w")]
    for other in same:
        assert other == p and hash(other) == hash(p)
    if not live:
        c = p.constant_value()
        assert hash(p) == hash(c) and p in {c}


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
    assert MultiPoly.dot([]).is_zero() and MultiPoly.dot([]).vars == ()


def test_floats_are_not_exact_scalars():
    for bad in (lambda: MultiPoly.const(0.1),
                lambda: MultiPoly(("x",), {(1,): 0.25}),
                lambda: x.eval({"x": 0.5})):
        with pytest.raises(TypeError, match="not an exact scalar"):
            bad()
    with pytest.raises(TypeError):
        x + 0.5


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


@given(polys_in(names=("x", "y", "w")),
       st.tuples(nonzero, nonzero, nonzero))
def test_eval_is_the_sum_of_the_terms(p, point):
    # the term-by-term Fraction sum as the reference for the integer sum
    at = dict(zip(("x", "y", "w"), point))
    expected = Fraction(0)
    for exps, c in p.terms():
        for name, e in zip(p.vars, exps):
            c *= at[name] ** e
        expected += c
    got = p.eval(at)
    assert got == expected and type(got) is type(exact(expected))


def test_eval_refuses_a_missing_value_and_zero_to_a_negative_power():
    p = MultiPoly(("x", "y"), {(-1, 0): 1, (0, 2): Fraction(1, 3)})
    with pytest.raises(ValueError, match="no value for variable y"):
        p.eval({"x": 2})
    with pytest.raises(ZeroDivisionError):
        p.eval({"x": 0, "y": 1})
    assert (p - MultiPoly.var("y", 2) / 3).eval({"x": 4}) == Fraction(1, 4)


# -- the packed representation against a tuple-keyed reference ---------------
#
# The reference keeps a polynomial as {((name, exponent), ...): coefficient}
# over its nonzero exponents, so it needs no variable tuple at all.

LIMIT = 8192  # documented exponent range: [-LIMIT, LIMIT)
NAMES = ("q", "nu", "x", "y", "u")  # already in the library's display order


def ref(p):
    out = {}
    for exps, c in p.terms():
        # stored coefficients are nonzero, and ints when integral
        assert c and (type(c) is int or c.denominator > 1)
        mono = tuple(sorted((v, e) for v, e in zip(p.vars, exps) if e))
        assert mono not in out
        out[mono] = c
    return out


def ref_mono(*factors):
    e = {}
    for mono in factors:
        for v, k in mono:
            e[v] = e.get(v, 0) + k
    return tuple(sorted((v, k) for v, k in e.items() if k))


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_subs(a, mapping):
    """Substitute invertible monomials {name: (coefficient, mono)}."""
    out = {}
    for mono, c in a.items():
        factors = []
        for v, e in mono:
            if v in mapping:
                vc, vm = mapping[v]
                c = c * Fraction(vc) ** e
                factors.append(tuple((w, k * e) for w, k in vm))
            else:
                factors.append(((v, e),))
        m = ref_mono(*factors)
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@st.composite
def sorted_polys(draw, exps=st.integers(-2, 3)):
    """A Laurent polynomial over a drawn subset of NAMES, in display order."""
    chosen = draw(st.sets(st.sampled_from(NAMES)))
    vars_ = tuple(v for v in NAMES if v in chosen)
    terms = draw(st.dictionaries(st.tuples(*[exps for _ in vars_]), scalars,
                                 max_size=5))
    return MultiPoly(vars_, terms)


@settings(deadline=None)
@given(st.lists(st.tuples(st.one_of(polys_in(), scalars),
                          st.one_of(polys_in(), scalars)), max_size=5))
def test_dot_is_the_left_fold_of_products(pairs):
    def poly(v):
        return v if isinstance(v, MultiPoly) else MultiPoly.const(v)

    fold, want = MultiPoly.zero(), {}
    for p, q in pairs:
        fold = fold + p * q
        want = ref_add(want, ref_mul(ref(poly(p)), ref(poly(q))))
    got = MultiPoly.dot(iter(pairs))
    assert ref(got) == want  # ref checks: nonzero, and ints when integral
    assert got == fold and got.vars == fold.vars and str(got) == str(fold)
    # the running denominator ends as the lcm of the reduced denominators
    assert_one_form(got)


def test_dot_over_distinct_denominators():
    a = Fraction(1, 3) * x + Fraction(2, 5) * y + Fraction(1, 7)
    b = Fraction(3, 4) * x - Fraction(1, 6) * q
    assert MultiPoly.dot([(a, b), (-a, b), (b, a - a)]).is_zero()
    assert MultiPoly.dot([(a, b), (b, -a)]).vars == ("q", "x", "y")
    ints = MultiPoly.dot([(x / 3, 3), (y / 10, Fraction(5, 2) * y), (a, 21)])
    assert ints == 8 * x + y * y / 4 + Fraction(42, 5) * y + 3
    assert ref(ints)[(("x", 1),)] == 8  # ref checks: an int, not 8/1


@settings(deadline=None)
@given(polys_in(), polys_in(), polys_in(names=("x", "y", "w")))
def test_ring_operations_match_the_reference(a, b, c):
    assert ref(a + b) == ref_add(ref(a), ref(b))
    assert ref(a - b) == ref_add(ref(a), {m: -k for m, k in ref(b).items()})
    assert ref(a * b) == ref_mul(ref(a), ref(b))
    assert ref(a * b * c) == ref_mul(ref_mul(ref(a), ref(b)), ref(c))
    assert ref(MultiPoly.sum([a, b, c])) == ref_add(ref_add(ref(a), ref(b)),
                                                   ref(c))


@settings(deadline=None)
@given(polys_in(names=("x", "y", "w", "q")), nonzero, nonzero,
       st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_subs_of_laurent_monomials_matches_the_reference(p, c1, c2, a, b, d):
    xval = c1 * MultiPoly.var("nu", a) * MultiPoly.var("w", b)
    yval = c2 * MultiPoly.var("x", d)  # simultaneous: x is substituted too
    mapping = {"x": (c1, (("nu", a), ("w", b))), "y": (c2, (("x", d),))}
    assert ref(p.subs({"x": xval, "y": yval})) == ref_subs(ref(p), mapping)


@settings(deadline=None)
@given(polys_in(), polys_in())
def test_divexact_of_a_product_matches_the_reference(a, b):
    if a and b:
        assert ref((a * b).divexact(b)) == ref(a)
        assert ref((a * b).divexact(a)) == ref(b)


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-LIMIT, LIMIT - 1), min_size=n, max_size=n),
    st.lists(st.integers(-LIMIT, LIMIT - 1), min_size=n, max_size=n))))
def test_packed_order_is_lex_order(pair):
    from tuttelab.poly import _pack
    a, b = map(tuple, pair)
    n = len(a)
    assert (_pack(a, n) < _pack(b, n)) == (a < b)
    assert (_pack(a, n) == _pack(b, n)) == (a == b)


@settings(deadline=None)
@given(sorted_polys(), st.permutations(NAMES + ("w",)))
def test_in_vars_round_trips(p, order):
    wide = p.in_vars(order)
    assert wide == p and ref(wide) == ref(p) and hash(wide) == hash(p)
    back = wide.in_vars(p.vars)
    assert back.vars == p.vars and ref(back) == ref(p) and str(back) == str(p)


def assert_one_form(p):
    """The one stored form: d >= 1, int numerators, none zero, gcd(d,
    numerators) = 1, and (d, numerators) is the `_integral` of the terms."""
    d, t = p._d, p._t
    assert d >= 1 and all(type(n) is int and n for n in t.values())
    assert gcd(d, *t.values()) == 1
    n = len(p.vars)
    assert (d, t) == _integral({_pack(e, n): c for e, c in p.terms()})


@settings(deadline=None)
@given(sorted_polys(exps=st.integers(0, 3)), sorted_polys(), scalars, nonzero,
       st.sampled_from(NAMES), st.permutations(NAMES))
def test_every_result_is_in_the_one_form(p, r, c, k, v, order):
    mono, lin = k * MultiPoly.var(v, 2), MultiPoly.var(v) - c
    results = [p, r, MultiPoly.const(c), MultiPoly.dot([(p, r), (r, c)]),
               p.coeff(v, 1), p.part(v, lo=1), *p.by_powers(v).values(),
               p.diff(v), p.subs({v: r}), (p * lin).div_linear(v, c),
               (p * mono).divexact(mono), mono.monomial_inverse(),
               p.in_vars(order)]
    if r:
        results.append((p * r).divexact(r))
    for got in results:
        assert_one_form(got)


@settings(deadline=None)
@given(sorted_polys(), sorted_polys(), st.sampled_from(NAMES),
       st.integers(-2, 3))
def test_equal_polynomials_by_two_routes_hash_equal(p, r, v, e):
    wide, i = p.in_vars(NAMES), NAMES.index(v)
    got = wide.coeff(v, e)
    want = MultiPoly(NAMES, {x[:i] + (0,) + x[i + 1:]: c
                             for x, c in wide.terms() if x[i] == e})
    assert got == want and hash(got) == hash(want)
    if r:
        back = (p * r).divexact(r)
        assert back == p and hash(back) == hash(p)
    half = MultiPoly.const(3) / 2
    assert half == Fraction(6, 4) and hash(half) == hash(Fraction(3, 2))


@settings(deadline=None)
@given(sorted_polys(exps=st.integers(0, 3)), st.sampled_from(NAMES), scalars,
       st.permutations(NAMES))
def test_div_linear_over_any_variable_order(p, v, c, order):
    assert (p * (MultiPoly.var(v) - c)).in_vars(order).div_linear(v, c) == p


@settings(deadline=None)
@given(sorted_polys(), sorted_polys())
def test_str_is_independent_of_the_operand_variable_tuples(a, b):
    wa, wb = a.in_vars(NAMES), b.in_vars(NAMES)
    assert str(a) == str(wa) and str(b) == str(wb)
    assert str(a + b) == str(wa + wb) == str(wa + b)
    assert str(a * b) == str(wa * wb) == str(a * wb)
    a, wa = a.part("x", lo=0), wa.part("x", lo=0)
    assert str(a.subs({"x": b})) == str(wa.subs({"x": wb}))


@settings(deadline=None)
@given(st.integers(-LIMIT, LIMIT - 1), st.integers(-LIMIT, LIMIT - 1),
       st.integers(-3, 3), st.booleans())
def test_exponent_overflow_raises_and_never_carries(e1, e2, f, low_field):
    # the moving exponent sits in the high or the low field of (x, y)
    def mono(e, g):
        return MultiPoly(("x", "y"), {(g, e) if low_field else (e, g): 1})

    a, b = mono(e1, f), mono(e2, 0)
    if -LIMIT <= e1 + e2 < LIMIT:
        assert list((a * b).terms()) == [(((f, e1 + e2) if low_field
                                           else (e1 + e2, f)), 1)]
    else:
        with pytest.raises(OverflowError):
            a * b


@settings(deadline=None)
@given(st.permutations(NAMES + ("w", "z")), st.integers(1, 7),
       st.sets(st.sampled_from(NAMES + ("w", "z"))), st.data())
def test_repack_moves_runs_of_fields_as_the_general_path(order, k, new, data):
    # _repack moves each run of kept fields with one shift; the general
    # path rebuilds every kept field of every key from its exponents.  The
    # fields of the variables dropped are zero, as subs leaves them
    old, new = tuple(order[:k]), tuple(data.draw(st.permutations(sorted(new))))
    exps = st.integers(-LIMIT, LIMIT - 1)
    rows = data.draw(st.lists(st.tuples(
        *[exps if v in new else st.just(0) for v in old]), max_size=6))
    terms = {_pack(row, len(old)): i + 1 for i, row in enumerate(rows)}
    general = {}
    for key, c in terms.items():
        at = dict(zip(old, _unpack(key, len(old))))
        general[_pack(tuple(at.get(v, 0) for v in new), len(new))] = c
    assert _repack(terms, old, new) == general


def test_exponent_limits_are_checked_everywhere():
    top, bottom = MultiPoly.var("x", LIMIT - 1), MultiPoly.var("x", -LIMIT)
    for bad in (lambda: MultiPoly.var("x", LIMIT),
                lambda: MultiPoly(("x", "y"), {(0, -LIMIT - 1): 1}),
                lambda: top * MultiPoly.var("x"),
                lambda: top * (x + y),
                lambda: (top * y) ** 2,
                lambda: bottom.monomial_inverse(),
                lambda: bottom.diff("x"),
                lambda: top.div_monomial("x", -1),
                lambda: x.div_monomial("x", LIMIT + 2),
                lambda: (bottom + 1).divexact(top + 1)):
        with pytest.raises(OverflowError):
            bad()
    assert (top * MultiPoly.var("x", -1)).degree("x") == LIMIT - 2
    assert list(bottom.div_monomial("x", -1).terms()) == [((1 - LIMIT,), 1)]


@settings(deadline=None)
@given(polys_in(names=("q", "nu", "x")), st.integers(0, 6))
def test_power_is_the_repeated_product(p, n):
    product = MultiPoly.one()
    for _ in range(n):
        product = product * p
    got = p ** n
    assert got == product and got.vars == product.vars
    assert ref(got) == ref(product)


def test_subs_of_zero():
    p = MultiPoly(("x", "y"), {(2, 1): 3, (0, 1): Fraction(1, 2), (1, 0): 5})
    assert p.subs({"x": 0}) == y / 2 and p.subs({"y": 0}) == 5 * x
    assert p.subs({"x": 0, "y": 0}).is_zero()
    for zero in (0, MultiPoly.zero(), x - x):
        with pytest.raises(ValueError):
            (p * MultiPoly.var("x", -1)).subs({"x": zero})


@settings(deadline=None)
@given(polys_in(names=("x", "y", "w", "q")), polys_in(names=("q", "nu")),
       scalars, scalars, nonzero, st.integers(-2, 2),
       st.tuples(nonzero, nonzero))
def test_subs_of_constants_beside_a_polynomial(p, value, a, b, c, e, point):
    # x takes a polynomial, y and w constants (zero only at ordinary powers)
    p = p.part("x", lo=0)
    if not a:
        p = p.part("y", lo=0)
    if not b:
        p = p.part("w", lo=0)
    at = dict(zip(("q", "nu"), point))
    got = p.subs({"x": value, "y": a, "w": b})
    assert got.eval(at) == p.eval(dict(at, x=value.eval(at), y=a, w=b))
    assert_one_form(got)
    # with a monomial for x, the tuple-keyed reference applies
    mono = c * MultiPoly.var("nu", e)
    mapping = {"x": (c, (("nu", e),)), "y": (a, ()), "w": (b, ())}
    assert ref(p.subs({"x": mono, "y": a, "w": b})) == ref_subs(ref(p), mapping)


def test_subs_of_a_variable_in_no_term():
    p = MultiPoly(("y", "x"), {(0, 2): 3, (0, 0): 1})
    for value in (5, 0, q + 1, MultiPoly.var("nu", -1)):
        got = p.subs({"y": value})
        assert got == 3 * x ** 2 + 1 and got.vars == ("x",)
    assert MultiPoly(("x",), {}).subs({"x": q}).vars == ()


# rows (terms that agree but for y) with top exponents 3, 1, 0 and 2
ROWS = MultiPoly(("x", "y", "q"), {
    (0, 3, 0): 2, (0, 1, 0): Fraction(-1, 3), (1, 1, 0): 5, (1, 0, 0): 7,
    (2, 0, 1): Fraction(3, 4), (0, 2, 2): -1, (0, 0, 2): 1})


@pytest.mark.parametrize("c", [0, 1, -2, Fraction(-3, 2), Fraction(5, 7)])
def test_div_linear_over_rows_of_different_tops(c):
    product = ROWS * (y - c)
    got = product.div_linear("y", c)
    assert got == ROWS and got.vars == product.vars
    assert ref(got) == ref(ROWS)
    assert_one_form(got)
    # the quotient is over the sorted variables, as a product would be
    assert product.in_vars(("y", "x", "q")).div_linear("y", c).vars == (
        "q", "x", "y")


def test_div_linear_leaves_a_remainder_in_one_row():
    # every row but q*x divides by (y + 3/2); that row leaves 4*q*x
    p = ROWS * (y + Fraction(3, 2)) + 4 * q * x
    with pytest.raises(ValueError, match="not exact"):
        p.div_linear("y", Fraction(-3, 2))
    with pytest.raises(ValueError, match="not exact"):
        (x + 1).div_linear("y", 1)
    with pytest.raises(ValueError, match="nonnegative"):
        (y + MultiPoly.var("y", -1)).div_linear("y", 1)


def test_div_linear_of_zero():
    zero = MultiPoly(("x", "y"), {})
    got = zero.div_linear("y", Fraction(2, 3))
    assert got.is_zero() and got.vars == ("x", "y")

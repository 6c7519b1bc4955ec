"""Kernel-method solutions for bipolar orientations and spanning trees.

Both problems reduce functional equations with two catalytic variables to
explicit series: one introduces substitution series (V, U, X below) that
annihilate the kernel of the equation, and then recovers the generating
function as the positive (or non-negative) part of an explicit rational
expression.  This module builds those series, performs the extractions,
and cross-checks them against direct equation iteration and against
Lagrange-inversion coefficient formulas.  Each coefficient formula is
checked by building its whole table, to the truncation, as one MultiPoly
and comparing it with the whole series in one `==`, so a term that the
formula does not predict fails the check.  The closed counting formulas
are checked against brute force in `tuttelab.verify`.  Each geometric
series 1/(1 - ct) here is a `TSeries.inverse`, never a fixed point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from tuttelab import closed_forms
from tuttelab.equations import EquationId, expand
from tuttelab.poly import MultiPoly
from tuttelab.series import TSeries, fixed_point

U = MultiPoly.var("u")
UB = MultiPoly.var("u", -1)
V_ = MultiPoly.var("v")
VB = MultiPoly.var("v", -1)
Y = MultiPoly.var("y")
YB = MultiPoly.var("y", -1)
W = MultiPoly.var("w")
WB = MultiPoly.var("w", -1)
Z = MultiPoly.var("z")
X = MultiPoly.var("x")
ONE = MultiPoly.one()


# -- kernel-annihilating series --------------------------------------------------


def V_series(order: int) -> TSeries:
    """The unique power series V(t) with V = t(z + (u + w/u)V + V^2).

    Coefficients are Laurent polynomials in u with w, z ordinary."""
    t = TSeries.t("t", order)
    return fixed_point(lambda V: t * (Z + (U + W * UB) * V + V * V),
                       "t", order)


def U_series(order: int) -> TSeries:
    """The unique power series U(t) with constant term 0 satisfying
    U = t (y + U/y) / (1 - U y).  Coefficients are Laurent in y."""
    t = TSeries.t("t", order)
    return fixed_point(lambda Us: t * (Y + Us * YB) * (1 - Us * Y).inverse(),
                       "t", order)


def X_of_u(order: int) -> TSeries:
    """The root x = X(u) of u = x(1 - xt) that is a power series in t:
    X(u) = sum_n Catalan(n) u^{n+1} t^n."""
    coeffs = [MultiPoly.const(closed_forms.catalan(n)) * U ** (n + 1)
              for n in range(order + 1)]
    return TSeries("t", order, coeffs)


def x_of_u_inverts(order: int) -> bool:
    """X(u) - t X(u)^2 = u, exactly to the truncation order."""
    Xs = X_of_u(order)
    t = TSeries.t("t", order)
    return Xs - t * Xs * Xs == TSeries.const(U, "t", order)


# -- kernel of the bipolar-triangulation equation -------------------------------


def kernel_six_pairs():
    """The orbit of (u, y) under the two kernel-preserving involutions
    (u,y) -> (yz/u, y) and (u,y) -> (u, u/y)."""
    yzub = Y * Z * UB
    zyb = Z * YB
    uyb = U * YB
    return [(U, Y), (yzub, Y), (yzub, Z * UB), (zyb, Z * UB), (zyb, uyb),
            (U, uyb)]


def bipolar_tri_kernel() -> MultiPoly:
    """K(u, y) = 1 - u - z (y/u + 1/y)."""
    return ONE - U - Z * (Y * UB + YB)


def kernel_six_pair_invariance() -> bool:
    """K takes the same value on all 6 pairs, as an exact Laurent-polynomial
    identity."""
    K = bipolar_tri_kernel()
    vals = [K.subs({"u": up, "y": yp}) for up, yp in kernel_six_pairs()]
    return all(v == vals[0] for v in vals[1:])


def _geom_pow(p: int, cap: int) -> MultiPoly:
    """(1/(1-u))^p truncated at u^cap."""
    return MultiPoly.sum(MultiPoly.const(comb(k + p - 1, p - 1)) * U ** k
                         for k in range(cap + 1))


def trinomial_coeff(n: int, a: int, b: int) -> int:
    """[z^n u^a y^b] of 1/(1 - u - z(1/y + y/u)), expanded as a power series
    in z whose coefficients are power series in u and Laurent in y:
    C(n, (b+n)/2) C((b+n)/2 + n + a, n) when n + b is even, else 0."""
    if (n + b) % 2:
        return 0
    k = (b + n) // 2
    if not 0 <= k <= n or k + n + a < 0:
        return 0
    return comb(n, k) * comb(k + n + a, n)


def trinomial_expansion_check(order: int = 6, u_cap: int = 6) -> bool:
    """The closed form above gives every coefficient, to z^order and
    u^u_cap, of an independent truncated geometric expansion of
    1/(1 - (u + z(1/y + y/u)))."""
    L = YB + Y * UB
    base = U + Z * L
    total = MultiPoly.one()
    power = MultiPoly.one()
    for _ in range(u_cap + 2 * order):
        power = (power * base).part("z", hi=order).part("u", hi=u_cap + order)
        if power.is_zero():
            break
        total = total + power
    table = {(n, a, b): trinomial_coeff(n, a, b) for n in range(order + 1)
             for a in range(-n, u_cap + 1) for b in range(-n, n + 1)}
    return total.part("u", hi=u_cap) == MultiPoly(("z", "u", "y"), table)


# -- bipolar triangulations: positive-part extraction ---------------------------


def _subs_x_geometric(poly: MultiPoly, cap: int) -> MultiPoly:
    """Substitute x -> 1/(1-u) into a polynomial in x, truncating at u^cap."""
    parts = poly.by_powers("x")
    if parts and min(parts) < 0:
        raise ValueError("negative power of x")
    return MultiPoly.sum(c * _geom_pow(d, cap) for d, c in parts.items())


def bipolar_tri_substituted(order: int, u_cap: int) -> TSeries:
    """BT(1/(1-u), y) as a z-series, u-truncated at u_cap, where BT(x, y) is
    the bipolar-orientation generating function of near-triangulations."""
    BT = expand(EquationId.BIPOLAR_TRI, order)
    return BT.apply(lambda c: _subs_x_geometric(c, u_cap))


def bipolar_tri_positive_part_check(order: int = 6, u_cap: int = 6) -> bool:
    """u/y * BT(1/(1-u), y) equals the positive part, in u and y, of

        (uy - y^2 z/u + y z^2/u^2 - z^2/(uy) + zu/y^2 - u^2/y) / K(u, y),

    with 1/K expanded as a power series in z whose z^n coefficient is the
    power series (y/u + 1/y)^n / (1-u)^{n+1} in u."""
    lhs = (bipolar_tri_substituted(order, u_cap + 2).as_poly() * U * YB).part(
        "u", hi=u_cap).part("z", hi=order)
    num = (U * Y - Y * Y * Z * UB + Y * Z * Z * UB * UB
           - Z * Z * YB * UB + Z * U * YB * YB - U * U * YB)
    L = Y * UB + YB
    # 1/K = sum_n z^n L^n / (1-u)^{n+1}; z also occurs in the numerator, so
    # everything is assembled as one z-truncated Laurent polynomial.
    inv = MultiPoly.sum(Z ** n * L ** n * _geom_pow(n + 1, u_cap + 2 + n)
                        for n in range(order + 1))
    rhs = ((num * inv).part("z", hi=order).part("u", lo=1, hi=u_cap)
           .part("y", lo=1))
    return lhs == rhs


def gbt_coeff(n: int, i: int, j: int):
    """[z^n u^i y^j] of BT(1/(1-u), y):
    (i+1)(j-1)(i+j) ((3n+j)/2 + i - 1)!
    / (((n-j)/2 + 1)! ((n+j)/2 + i + 1)! ((n+j)/2)!)
    for n + j even, 2 <= j <= n + 2, i >= 0; zero otherwise."""
    if i < 0 or (n + j) % 2 or not 2 <= j <= n + 2:
        return 0
    num = (i + 1) * (j - 1) * (i + j) * factorial((3 * n + j) // 2 + i - 1)
    den = (factorial((n - j) // 2 + 1) * factorial((n + j) // 2 + i + 1)
           * factorial((n + j) // 2))
    val = Fraction(num, den)
    if val.denominator != 1:
        raise ValueError("formula did not evaluate to an integer")
    return int(val)


def gbt_closed_form_check(order: int = 6, u_cap: int = 4) -> bool:
    """The triple-sum closed form gives every coefficient of BT(1/(1-u), y)
    by iteration, to z^order and u^u_cap."""
    table = {(n, i, j): gbt_coeff(n, i, j) for n in range(order + 1)
             for i in range(u_cap + 1) for j in range(n + 3)}
    return (bipolar_tri_substituted(order, u_cap).as_poly()
            == MultiPoly(("z", "u", "y"), table))


# -- bipolar maps: non-negative-part extraction ----------------------------------


def bipolar_maps_extracted(order: int) -> TSeries:
    """G(1+u, 1+v) as the non-negative part in (u, v) of

        (1 - 1/(uv)) (u/v - w/u) (v/u - 1/(vw)) / (1 - t(1+1/u)(1+1/v)(u+vw)),

    where B(x, y) = x y^2 t w + x^2 y^2 t^2 w G(x, y) is the generating
    function of bipolar-oriented maps."""
    num = (ONE - UB * VB) * (U * VB - W * UB) * (UB * V_ - VB * WB)
    L = (ONE + UB) * (ONE + VB) * (U + V_ * W)
    D = (1 - TSeries.t("t", order) * L).inverse()
    return (D * num).nonneg_part("u").nonneg_part("v")


def bipolar_maps_from_equation(order: int) -> TSeries:
    """G(1+u, 1+v) recovered from the functional-equation iterate of the
    bipolar-orientation generating function B(x, y)."""
    B = expand(EquationId.BIPOLAR_MAPS, order + 2)
    first = TSeries("t", order + 2, [MultiPoly.zero(), X * Y * Y * W])
    G = (B - first).divide_by_var(2)
    G = G.subs({"x": ONE + U, "y": ONE + V_})
    den = W * (ONE + U) ** 2 * (ONE + V_) ** 2
    return G.apply(lambda c: c.divexact(den))


def bipolar_maps_nonneg_part_check(order: int = 6) -> bool:
    return bipolar_maps_extracted(order) == bipolar_maps_from_equation(order)


# -- tree-rooted maps: positive-part extraction ----------------------------------


def tree_rooted_S0(order: int) -> TSeries:
    """S(u, 0) = 1/(1-ut) * N(x -> 1/(1-ut), y -> 1, t -> t^2) where N is the
    edge generating function of maps weighted by spanning trees (w marking
    non-root vertices, z marking non-root faces, x the root-vertex degree)."""
    half = order // 2
    N = expand(EquationId.TUTTE_MAPS, half, {"mu": 1, "nu": 1})
    G = (1 - TSeries.t("t", order) * U).inverse()
    out = TSeries.zero("t", order)
    for n in range(half + 1):
        c = N.coeff(n).subs({"y": 1})
        out = out + G.compose_poly(c, "x").shift(2 * n)
    return out * G


def tree_rooted_extraction_check(order: int = 6) -> bool:
    """t z u S(u, 0) is the positive part in u of (u - w/u) V."""
    V = V_series(order)
    rhs = ((U - W * UB) * V).positive_part("u")
    lhs = (tree_rooted_S0(order) * (Z * U)).shift(1)
    return lhs == rhs


def tree_rooted_tri_Q0(order: int) -> TSeries:
    """Q(0, y): the edge generating function of near-triangulations weighted
    by spanning trees, y marking the root-face degree."""
    Qt = expand(EquationId.TUTTE_QUASI_TRI, order, {"mu": 1, "nu": 1, "z": 1})
    return Qt.coeff_of("x", 0)


def tree_rooted_tri_extraction_check(order: int = 6) -> bool:
    """t y Q(0, y) is the positive part in y of U (1 - 2t/y)."""
    Us = U_series(order)
    factor = TSeries("t", order, [ONE, MultiPoly.const(-2) * YB])
    rhs = (Us * factor).positive_part("y")
    lhs = (tree_rooted_tri_Q0(order) * Y).shift(1)
    return lhs == rhs


# -- Lagrange-inversion coefficients ---------------------------------------------


def lagrange_V_coeff(i: int, j: int, n: int):
    """[w^i z^j t^n u^{n+1-2i-2j}] V = (n-1)! / (i! (j-1)! j! (n+1-i-2j)!)."""
    if n < 1 or i < 0 or j < 1 or n + 1 - i - 2 * j < 0:
        return 0
    return Fraction(factorial(n - 1),
                    factorial(i) * factorial(j - 1) * factorial(j)
                    * factorial(n + 1 - i - 2 * j))


def lagrange_U_coeff(n: int, i: int):
    """[t^n y^{3i-n+2}] U = (1/n) C(n, i+1) C(n+i-1, i)."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(comb(n, i + 1) * comb(n + i - 1, i), n)


def tree_rooted_tri_q0_coeff(n: int, i: int):
    """[t^n y^{3i-n}] Q(0, y) = (3i-n)/((i+1)(n+i)) C(n, i) C(n+i, i)."""
    return Fraction((3 * i - n) * comb(n, i) * comb(n + i, i),
                    (i + 1) * (n + i))


# -- Lagrange-inversion checks --------------------------------------------------


def lagrange_V_spot_checks(order: int = 5) -> bool:
    """lagrange_V_coeff gives every coefficient of V_series to t^order."""
    table = {(n, i, j, n + 1 - 2 * i - 2 * j): lagrange_V_coeff(i, j, n)
             for n in range(1, order + 1) for i in range(n + 1)
             for j in range(1, n + 1)}
    return V_series(order).as_poly() == MultiPoly(("t", "w", "z", "u"), table)


def lagrange_U_spot_checks(order: int = 6) -> bool:
    """lagrange_U_coeff gives every coefficient of U_series to t^order."""
    table = {(n, 3 * i - n + 2): lagrange_U_coeff(n, i)
             for n in range(1, order + 1) for i in range(n + 1)}
    return U_series(order).as_poly() == MultiPoly(("t", "y"), table)


def tri_q0_closed_form(order: int = 6) -> bool:
    """Every coefficient of Q(0, y) to t^order: the constant term 1, and
    tree_rooted_tri_q0_coeff at every other."""
    table = {(n, 3 * i - n): tree_rooted_tri_q0_coeff(n, i)
             for n in range(1, order + 1) for i in range(n + 1) if 3 * i >= n}
    Q0 = tree_rooted_tri_Q0(order).as_poly()
    return Q0 == 1 + MultiPoly(("t", "y"), table)

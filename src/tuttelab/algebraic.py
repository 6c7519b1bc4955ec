"""Algebraic identities satisfied by the map generating functions.

Each check produces the left-hand series by functional-equation iteration
(an independent derivation path) and verifies a polynomial identity or a
rational parametrisation coefficientwise, exactly, to a requested order.
`tuttelab.verify` names each check as a row of its algebraic suite.
"""

from __future__ import annotations

from fractions import Fraction

from tuttelab.equations import EquationId, expand
from tuttelab.poly import MultiPoly
from tuttelab.series import TSeries, fixed_point

NU = MultiPoly.var("nu")
S = "S"  # parametrising variable name used in compose_poly


def maps_series(order: int) -> TSeries:
    """M(t) = sum over maps of t^edges, by equation iteration at y=1."""
    return expand(EquationId.MAPS_1CAT, order).subs({"y": 1})


def check_maps_quadratic(order: int = 10) -> bool:
    """M = 1 - 16t + 18tM - 27 t^2 M^2."""
    M = maps_series(order)
    t = TSeries.t("t", order)
    return M == 1 - 16 * t + 18 * t * M - 27 * t * t * M * M


def blossoming_T(order: int) -> TSeries:
    """T = 1 + 3t T^2, the generating function of blossoming trees."""
    t = TSeries.t("t", order)
    return fixed_point(lambda T: 1 + 3 * t * T * T, "t", order)


def check_blossoming_system(order: int = 10) -> bool:
    """M = T - t T^3 with T = 1 + 3t T^2 (4-valent maps via opened trees)."""
    T = blossoming_T(order)
    t = TSeries.t("t", order)
    return maps_series(order) == T - t * T ** 3


def nt1_series(order: int) -> TSeries:
    """Near-triangulations of outer degree 1, by edges."""
    return expand(EquationId.NT, order).coeff_of("y", 1)


def check_nt1_cubic(order: int = 10) -> bool:
    """NT1 = t^2 - 27t^5 + 30t^3 NT1 + t(1 - 96t^3) NT1^2 + 64 t^5 NT1^3."""
    F = nt1_series(order)
    t = TSeries.t("t", order)
    return F == (t ** 2 - 27 * t ** 5 + 30 * t ** 3 * F
                 + t * (1 - 96 * t ** 3) * F * F + 64 * t ** 5 * F ** 3)


def check_nt1_parametrisation(order: int = 10) -> bool:
    """With t^3 = X(1-2X)(1-4X), one has t NT1 = X(1-6X)/(1-4X)."""
    t = TSeries.t("t", order)
    Xp = fixed_point(
        lambda Xs: t ** 3 * ((1 - 2 * Xs) * (1 - 4 * Xs)).inverse(),
        "t", order)
    lhs = nt1_series(order).shift(1)
    rhs = Xp * (1 - 6 * Xp) * (1 - 4 * Xp).inverse()
    return lhs == rhs


def _poly_in_S(coeff_pairs) -> MultiPoly:
    """Build a polynomial in the formal variable S from (power, coeff) pairs,
    coefficients being MultiPoly values."""
    Sv = MultiPoly.var(S)
    return MultiPoly.sum(c * Sv ** k for k, c in coeff_pairs)


def ising_parametrisation_series(order: int) -> TSeries:
    """M(2, nu, t, 1; 1, 1) from its rational parametrisation: S(t) is the
    series with constant term 0 satisfying

        S = t (1 + 3 nu S - 3 nu S^2 - nu^2 S^3)^2
              / (1 - 2S + 2 nu^2 S^3 - nu^2 S^4),

    and M is an explicit rational function of S (degree 6 over Q(nu, t))."""
    t = TSeries.t("t", order)
    P = _poly_in_S([(0, MultiPoly.one()), (1, 3 * NU), (2, -3 * NU),
                    (3, -(NU ** 2))])
    Qd = _poly_in_S([(0, MultiPoly.one()), (1, MultiPoly.const(-2)),
                     (3, 2 * NU ** 2), (4, -(NU ** 2))])

    def step(Ss):
        num = Ss.compose_poly(P, S)
        den = Ss.compose_poly(Qd, S)
        return t * num * num * den.inverse()

    Ss = fixed_point(step, "t", order)
    R = _poly_in_S([
        (6, NU ** 3),
        (5, 2 * NU ** 2 * (1 - NU)),
        (4, NU * (1 - 6 * NU)),
        (3, -(NU * (1 - 5 * NU))),
        (2, 1 + 2 * NU),
        (1, -(3 + NU)),
        (0, MultiPoly.one()),
    ])
    num = Ss.compose_poly(P, S) * Ss.compose_poly(R, S)
    den = Ss.compose_poly(Qd, S)
    return num * (den * den).inverse()


def check_ising_parametrisation(order: int = 6) -> bool:
    """The parametrised series equals the q=2 equation iterate at x=y=w=1,
    with nu fully symbolic."""
    M = expand(EquationId.POTTS_MAPS, order, {"q": 2, "w": 1})
    M = M.subs({"x": 1, "y": 1})
    return M == ising_parametrisation_series(order)


def three_colour_parametrisation_series(order: int) -> TSeries:
    """M(3, 0, t, 1; 1, 1) (properly 3-coloured maps by edges): with
    t = S(1 - 2S^3)/(1+2S)^3,
    M = (1+2S)(1 - 2S^2 - 4S^3 - 4S^4)/(1 - 2S^3)^2."""
    t = TSeries.t("t", order)

    def step(Ss):
        return t * (1 + 2 * Ss) ** 3 * (1 - 2 * Ss ** 3).inverse()

    Ss = fixed_point(step, "t", order)
    num = (1 + 2 * Ss) * (1 - 2 * Ss ** 2 - 4 * Ss ** 3 - 4 * Ss ** 4)
    den = (1 - 2 * Ss ** 3)
    return num * (den * den).inverse()


def check_three_colour_parametrisation(order: int = 6) -> bool:
    M = expand(EquationId.POTTS_MAPS, order, {"q": 3, "nu": 0, "w": 1})
    M = M.subs({"x": 1, "y": 1})
    return M == three_colour_parametrisation_series(order)


def check_tutte_potts_change_of_variables(order: int = 3) -> bool:
    """M(q, nu, t, w; x, y) = Mt(1 + q/(nu-1), nu, (nu-1)tw, t; x, y), where
    Mt(mu, nu, W, Z; x, y) sums W^{v-1} Z^{f-1} x^dv y^df T_M(mu, nu).

    In the edge-marked form used here the right side is the Tutte equation
    iterate with vertex weight (nu-1)w and face weight 1.  Checked at w = 1
    and the exact (q, nu) points (2, 3) and (3, 2); nu = 1 would make the
    change of variables singular."""
    for q, nu in ((Fraction(2), Fraction(3)), (Fraction(3), Fraction(2))):
        lhs = expand(EquationId.POTTS_MAPS, order, {"q": q, "nu": nu, "w": 1})
        rhs = expand(EquationId.TUTTE_MAPS, order,
                     {"mu": 1 + q / (nu - 1), "nu": nu, "w": nu - 1, "z": 1})
        if lhs != rhs:
            return False
    return True


def check_potts_nu1_reduces_to_maps(order: int = 6) -> bool:
    """At nu = 1 the colour count factors out: the equation iterate at x=1
    with qw = 1 is the plain map series in (t, y), at q = 2, 3 and 5/2."""
    plain = expand(EquationId.MAPS_1CAT, order)
    for q in (Fraction(2), Fraction(3), Fraction(5, 2)):
        M = expand(EquationId.POTTS_MAPS, order,
                   {"q": q, "nu": 1, "w": 1 / q}).subs({"x": 1})
        if M != plain:
            return False
    return True

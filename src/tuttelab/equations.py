"""Catalog of the catalytic functional equations and their iteration.

Each EquationId names one functional equation for a map generating
function.  expand(eq, order, params) solves the equation as a truncated
series in its main variable (t for edge-counted families, z for
face-counted ones) by fixed-point iteration: every non-constant term of
the right-hand side carries an explicit factor of the main variable, so
the coefficient of order n is determined by coefficients of lower order.

Divided differences such as (y F(y) - F(1))/(y - 1) are evaluated by exact
polynomial division coefficientwise; a division failure is a hard error
(it would mean the equation was transcribed wrongly).

Equations of one shape share one step: NT and NQ that of
near-p-angulations, POTTS_MAPS and TUTTE_MAPS that of maps with two
catalytic variables, whose four term weights are built once per call.

brute_force_gf computes the same series as an explicit sum over
exhaustively generated maps, the ground truth for every equation.  It is
one table with a row per equation (family, what the weight reads, the
monomial it marks, a fixed step); the maps of one size are grouped by
weight, and parameters the caller sets are substituted once per
coefficient, after the sum.

Conventions of the generating functions (per map M: e edges, v vertices,
f faces, dv root-vertex degree, df root-face degree):

  MAPS_1CAT         sum t^e y^df over all maps
  NT                sum t^e y^df over near-triangulations
  NQ                sum t^e y^df over near-quadrangulations
  BIP               sum t^e y^(df/2) over bipartite maps
  EULER_NT          sum z^(e/3) y^(df/3) over Eulerian near-triangulations
  POTTS_MAPS        (1/q) sum t^e w^(v-1) x^dv y^df P_M(q, nu)
  TUTTE_MAPS        sum t^e w^(v-1) z^(f-1) x^dv y^df T_M(mu, nu)
                    (t is an auxiliary edge marker: w and z already carry
                    an implicit edge count via v - 1 + f - 1 = e)
  TUTTE_NONSEP_TRI  sum z^(f-1) x^dv y^df P_T(q, 0) over non-separable
                    near-triangulations
  POTTS_QUASI_TRI   Potts quasi-triangulation series; its x = 0 slice is
                    (1/q) sum t^e z^(f-1) y^df P_T(q, nu) over
                    near-triangulations
  TUTTE_QUASI_TRI   same shape with Tutte weights T_T(mu, nu); x = 0 slice
                    is sum t^e z^(f-1) y^df T_T(mu, nu)
  BIPOLAR_MAPS      sum t^e w^(v-1) x^dv y^df (#bipolar orientations)
  BIPOLAR_TRI       sum z^(f-1) x^dv y^df (#bipolar orientations) over
                    near-triangulations
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from tuttelab.poly import MultiPoly
from tuttelab.series import TSeries, fixed_point


class EquationId(Enum):
    MAPS_1CAT = "MAPS_1CAT"
    NT = "NT"
    NQ = "NQ"
    BIP = "BIP"
    EULER_NT = "EULER_NT"
    POTTS_MAPS = "POTTS_MAPS"
    TUTTE_MAPS = "TUTTE_MAPS"
    TUTTE_NONSEP_TRI = "TUTTE_NONSEP_TRI"
    POTTS_QUASI_TRI = "POTTS_QUASI_TRI"
    TUTTE_QUASI_TRI = "TUTTE_QUASI_TRI"
    BIPOLAR_MAPS = "BIPOLAR_MAPS"
    BIPOLAR_TRI = "BIPOLAR_TRI"


#: main series variable of each equation
MAIN_VAR = {
    EquationId.MAPS_1CAT: "t",
    EquationId.NT: "t",
    EquationId.NQ: "t",
    EquationId.BIP: "t",
    EquationId.EULER_NT: "z",
    EquationId.POTTS_MAPS: "t",
    EquationId.TUTTE_MAPS: "t",
    EquationId.TUTTE_NONSEP_TRI: "z",
    EquationId.POTTS_QUASI_TRI: "t",
    EquationId.TUTTE_QUASI_TRI: "t",
    EquationId.BIPOLAR_MAPS: "t",
    EquationId.BIPOLAR_TRI: "z",
}

#: parameter variables each equation accepts (catalytic variables excluded)
PARAM_VARS = {
    EquationId.MAPS_1CAT: (),
    EquationId.NT: (),
    EquationId.NQ: (),
    EquationId.BIP: (),
    EquationId.EULER_NT: (),
    EquationId.POTTS_MAPS: ("q", "nu", "w"),
    EquationId.TUTTE_MAPS: ("mu", "nu", "w", "z"),
    EquationId.TUTTE_NONSEP_TRI: ("q",),
    EquationId.POTTS_QUASI_TRI: ("q", "nu", "z"),
    EquationId.TUTTE_QUASI_TRI: ("mu", "nu", "z"),
    EquationId.BIPOLAR_MAPS: ("w",),
    EquationId.BIPOLAR_TRI: (),
}


class UnknownEquation(ValueError):
    pass


def _given(eq, params):
    """The caller's parameter values as polynomials; a name that eq does
    not take is an error."""
    params = dict(params or {})
    bad = set(params) - set(PARAM_VARS[eq])
    if bad:
        raise ValueError(f"{eq.value} does not take parameters {sorted(bad)}")
    return {k: v if isinstance(v, MultiPoly) else MultiPoly.const(v)
            for k, v in params.items()}


def _params(eq, params):
    """Every parameter of eq: the caller's value, else its symbol."""
    return {v: MultiPoly.var(v) for v in PARAM_VARS[eq]} | _given(eq, params)


def expand(eq: EquationId, order: int, params=None) -> TSeries:
    """Solve the named functional equation to the given order.

    params maps parameter names (q, nu, mu, w, z as applicable) to exact
    rational values; unspecified parameters stay symbolic.  The catalytic
    variables always stay symbolic.
    """
    if not isinstance(eq, EquationId):
        raise UnknownEquation(f"unknown equation {eq!r}")
    p = _params(eq, params)
    var = MAIN_VAR[eq]
    t = TSeries.t(var, order)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    one = TSeries.const(1, var, order)

    if eq is EquationId.MAPS_1CAT:
        def step(m):
            m1 = m.subs({"y": 1})
            dd = (m * y - m1).div_linear("y", 1)
            return one + t * y ** 2 * m * m + t * y * dd
    elif eq in (EquationId.NT, EquationId.NQ):
        # inner faces of degree k: dd = (M - sum_{i<k-1} M_i y^i) / y^(k-2)
        k = 3 if eq is EquationId.NT else 4

        def step(m):
            rest = m - m.coeff_of("y", 0)
            for i in range(1, k - 1):
                rest = rest - m.coeff_of("y", i) * y ** i
            return (one + t * y ** 2 * m * m
                    + t * rest.div_monomial("y", k - 2))
    elif eq is EquationId.BIP:
        def step(m):
            m1 = m.subs({"y": 1})
            dd = (m - m1).div_linear("y", 1)
            return one + t * y * m * m + t * y * dd
    elif eq is EquationId.EULER_NT:
        def step(m):
            m0 = m.coeff_of("y", 0)
            m1 = m.coeff_of("y", 1)
            dd = (m - m0 - m1 * y).div_monomial("y", 1)
            return (one + t * y * m ** 3 + 2 * t * m * (m - m0)
                    + t * (m - m0) + t * dd)
    elif eq in (EquationId.POTTS_MAPS, EquationId.TUTTE_MAPS):
        # the weights of M M(1, y), M M(x, 1), ddx and ddy
        nu, w = p["nu"], p["w"]
        if eq is EquationId.POTTS_MAPS:
            weights = (x * y * w * (p["q"] * y + (nu - 1) * (y - 1)),
                       x * y * (x * nu - 1), x * y * w * (nu - 1), x * y)
        else:
            z = p["z"]
            weights = (x * y * w * (y * p["mu"] - 1),
                       x * y * z * (x * nu - 1), x * y * w, x * y * z)
        a, b, c, d = (t * k for k in weights)

        def step(m):
            mx1 = m.subs({"y": 1})
            m1y = m.subs({"x": 1})
            ddx = (m * x - m1y).div_linear("x", 1)
            ddy = (m * y - mx1).div_linear("y", 1)
            return one + a * m * m1y + b * m * mx1 + c * ddx + d * ddy
    elif eq is EquationId.TUTTE_NONSEP_TRI:
        q = p["q"]
        seed = TSeries.const(x * y ** 2 * q * (q - 1), var, order)

        def step(m):
            m1y = m.subs({"x": 1})
            m2 = m.coeff_of("y", 2)
            ddx = (m - m1y).div_linear("x", 1)
            ddy = (m - m2 * y ** 2).div_monomial("y", 1)
            cross = (t * x * m1y * m).apply(lambda c: c.divexact(q))
            return (seed + cross.div_monomial("y", 1)
                    + t * x * ddy - t * (x ** 2 * y) * ddx)
    elif eq in (EquationId.POTTS_QUASI_TRI, EquationId.TUTTE_QUASI_TRI):
        nu, z = p["nu"], p["z"]
        # geometric series 1/(1 - x nu t z) to the working order
        geo = (one - t * (x * nu * z)).inverse()
        # coefficients of y^2 t Q(0,y) Q (factor), y t (Q - Q(0,y))/x (geo_dd)
        if eq is EquationId.POTTS_QUASI_TRI:
            geo_dd = geo * (nu - 1)            # (nu-1)/(1-x z t nu)
            factor = TSeries.const(p["q"], var, order) + geo_dd
        else:
            geo_dd = geo
            factor = TSeries.const(p["mu"], var, order) + t * (x * nu * z) * geo

        def step(m):
            m0y = m.subs({"x": 0})
            m1 = m.coeff_of("y", 1)
            m2 = m.coeff_of("y", 2)
            dd_y = (m - one - m1 * y).div_monomial("y", 1)
            dd_x = (m - m0y).div_monomial("x", 1)
            return (one
                    + t * z * dd_y
                    + t * (x * z) * (m - one)
                    + t * (x * y * z) * m1 * m
                    + t * (z * y * (nu - 1)) * m * (m1 * (2 * x) + m2)
                    + t * y ** 2 * factor * m0y * m
                    + t * y * geo_dd * dd_x)
    elif eq is EquationId.BIPOLAR_MAPS:
        w = p["w"]
        kern = (1 - x) * (1 - y)

        def step(b):
            b1y = b.subs({"x": 1})
            bx1 = b.subs({"y": 1})
            rhs = (t * (x * y ** 2 * w * (1 - x) * (1 - y)) * one
                   + t * (x ** 2 * y * w * (1 - y)) * b1y
                   + t * (x * y ** 2 * (1 - x)) * bx1
                   - t * (x * y * w * (1 - y)) * b
                   - t * (x * y * (1 - x)) * b)
            return rhs.apply(lambda c: c.divexact(kern))
    elif eq is EquationId.BIPOLAR_TRI:
        seed_poly = x * y ** 2
        xm1 = x - 1

        def step(b):
            b1y = b.subs({"x": 1})
            b2 = b.coeff_of("y", 2)
            rhs = (TSeries.const(seed_poly * xm1, var, order)
                   - t * (x * y * xm1) * b2
                   - t * (x ** 2 * y) * b1y
                   + (t * (x * xm1) * b).div_monomial("y", 1)
                   + t * (x ** 2 * y) * b)
            return rhs.div_linear("x", 1)
    else:  # pragma: no cover
        raise UnknownEquation(f"unknown equation {eq!r}")
    return fixed_point(step, var, order)


def quasi_tri_q2_relation_holds(eq: EquationId, order: int, params=None) -> bool:
    """Check the closed relation z t nu Q2(x) = (1 - 2 x z t nu) Q1(x) that
    the quasi-triangulation series satisfy, in cleared (denominator-free)
    form."""
    p = _params(eq, params)
    nu, z = p["nu"], p["z"]
    m = expand(eq, order, params)
    q1 = m.coeff_of("y", 1)
    q2 = m.coeff_of("y", 2)
    var = MAIN_VAR[eq]
    t = TSeries.t(var, order)
    x = MultiPoly.var("x")
    lhs = t * (z * nu) * q2
    rhs = q1 - t * (2 * x * z * nu) * q1
    return lhs == rhs


# -- brute-force ground truth -----------------------------------------------------


def brute_force_gf(eq: EquationId, order: int, params=None) -> TSeries:
    """The same series as expand(eq, ...), summed over generated maps.

    Exponential in the order; meant for desk-scale cross-checks.  A row of
    the table gives the equation's family, what the weight of a map reads
    beside one monomial (nothing, its Potts or Tutte polynomial, or its
    number of bipolar orientations), which of w^(v-1), x^dv, y^(df/per)
    and z^(f-1) that monomial marks, and a fixed step (division by q of the
    Potts weights, nu = 0 for TUTTE_NONSEP_TRI).  The maps of every size
    are counted at once by (size, what the weight reads, exponents), and
    each group costs one product with one monomial.  The fixed step, then
    the parameters the caller sets, are applied once per coefficient; a
    symbolic parameter is never substituted.  The maps come from
    generate.up_to, which refuses a size over its cap before any map is
    built.  The two quasi-triangulation ids yield the x = 0 slice
    (near-triangulations), the only slice with a direct combinatorial
    meaning.
    """
    from tuttelab import generate as g
    from tuttelab.potts import potts, tutte

    given = _given(eq, params)
    E = EquationId

    def bipolar(m):  # the atomic map has none
        return 0 if m.is_atomic else len(g.all_bipolar_orientations(m))

    def over_q(c):  # P_M(q, nu) / q
        return c.div_monomial("q", 1)

    def nu_0(c):  # P_T(q, 0)
        return c.subs({"nu": 0})

    all_maps, nt = ("all_maps",), ("near_angulations", 3)
    nonsep = ("non_separable_near_triangulations",)
    # {equation: ((family, *args) of generate, whose size is the exponent
    # of the main variable; what the weight of a map reads, None for
    # nothing; the variables its monomial marks; per, which divides the
    # root-face degree; the fixed step)}
    table = {
        E.MAPS_1CAT: (all_maps, None, "y", 1, None),
        E.NT: (nt, None, "y", 1, None),
        E.NQ: (("near_angulations", 4), None, "y", 1, None),
        E.BIP: (("bipartite_maps",), None, "y", 2, None),
        E.EULER_NT: (("eulerian_near_triangulations",), None, "y", 3, None),
        E.POTTS_MAPS: (all_maps, potts, "wxy", 1, over_q),
        E.TUTTE_MAPS: (all_maps, tutte, "wxyz", 1, None),
        E.TUTTE_NONSEP_TRI: (nonsep, potts, "xy", 1, nu_0),
        E.POTTS_QUASI_TRI: (nt, potts, "yz", 1, over_q),
        E.TUTTE_QUASI_TRI: (nt, tutte, "yz", 1, None),
        E.BIPOLAR_MAPS: (all_maps, bipolar, "wxy", 1, None),
        E.BIPOLAR_TRI: (nonsep, bipolar, "xy", 1, None),
    }
    (family, *args), reads, marks, per, fixed = table[eq]
    maps = g.up_to(family, order, *args)
    stat = {"w": lambda m: m.n_vertices - 1,
            "x": lambda m: m.root_vertex_degree,
            "y": lambda m: m.root_face_degree // per,
            "z": lambda m: m.n_faces - 1}
    stats = [stat[v] for v in marks]

    def key(sized):
        n, m = sized
        return n, reads(m) if reads else 1, tuple([s(m) for s in stats])

    groups = [[] for _ in range(order + 1)]
    for (n, value, exps), k in Counter(map(key, maps)).items():
        groups[n].append((value, MultiPoly(marks, {exps: k})))

    def coeff(group):
        c = MultiPoly.dot(group)
        c = fixed(c) if fixed else c
        return c.subs(given) if given else c

    return TSeries(MAIN_VAR[eq], order, [coeff(group) for group in groups])

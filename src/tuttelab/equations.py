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

brute_force_gf computes the same series as an explicit sum of monomials
over exhaustively generated maps, providing the ground truth for every
equation that has a generated counterpart family.

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

from collections import Counter, namedtuple
from enum import Enum
from functools import lru_cache

from tuttelab.poly import MultiPoly
from tuttelab.series import SeriesError, TSeries, fixed_point


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


def _params(eq, params):
    params = dict(params or {})
    bad = set(params) - set(PARAM_VARS[eq])
    if bad:
        raise ValueError(f"{eq.value} does not take parameters {sorted(bad)}")

    def p(name):
        if name in params:
            v = params[name]
            return v if isinstance(v, MultiPoly) else MultiPoly.const(v)
        return MultiPoly.var(name)

    return p


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
        return fixed_point(step, var, order)

    if eq is EquationId.NT:
        def step(m):
            m0 = m.coeff_of("y", 0)
            m1 = m.coeff_of("y", 1)
            dd = (m - m0 - m1 * y).div_monomial("y", 1)
            return one + t * y ** 2 * m * m + t * dd
        return fixed_point(step, var, order)

    if eq is EquationId.NQ:
        def step(m):
            m0 = m.coeff_of("y", 0)
            m1 = m.coeff_of("y", 1)
            m2 = m.coeff_of("y", 2)
            dd = (m - m0 - m1 * y - m2 * y ** 2).div_monomial("y", 2)
            return one + t * y ** 2 * m * m + t * dd
        return fixed_point(step, var, order)

    if eq is EquationId.BIP:
        def step(m):
            m1 = m.subs({"y": 1})
            dd = (m - m1).div_linear("y", 1)
            return one + t * y * m * m + t * y * dd
        return fixed_point(step, var, order)

    if eq is EquationId.EULER_NT:
        def step(m):
            m0 = m.coeff_of("y", 0)
            m1 = m.coeff_of("y", 1)
            dd = (m - m0 - m1 * y).div_monomial("y", 1)
            return (one + t * y * m ** 3 + 2 * t * m * (m - m0)
                    + t * (m - m0) + t * dd)
        return fixed_point(step, var, order)

    if eq is EquationId.POTTS_MAPS:
        q, nu, w = p("q"), p("nu"), p("w")

        def step(m):
            mx1 = m.subs({"y": 1})
            m1y = m.subs({"x": 1})
            ddx = (m * x - m1y).div_linear("x", 1)
            ddy = (m * y - mx1).div_linear("y", 1)
            return (one
                    + t * (x * y * w * (q * y + (nu - 1) * (y - 1))) * m * m1y
                    + t * (x * y * (x * nu - 1)) * m * mx1
                    + t * (x * y * w * (nu - 1)) * ddx
                    + t * (x * y) * ddy)
        return fixed_point(step, var, order)

    if eq is EquationId.TUTTE_MAPS:
        mu, nu, w, z = p("mu"), p("nu"), p("w"), p("z")

        def step(m):
            mx1 = m.subs({"y": 1})
            m1y = m.subs({"x": 1})
            ddx = (m * x - m1y).div_linear("x", 1)
            ddy = (m * y - mx1).div_linear("y", 1)
            return (one
                    + t * (x * y * w * (y * mu - 1)) * m * m1y
                    + t * (x * y * z * (x * nu - 1)) * m * mx1
                    + t * (x * y * w) * ddx
                    + t * (x * y * z) * ddy)
        return fixed_point(step, var, order)

    if eq is EquationId.TUTTE_NONSEP_TRI:
        q = p("q")
        seed = TSeries.const(x * y ** 2 * q * (q - 1), var, order)

        def step(m):
            m1y = m.subs({"x": 1})
            m2 = m.coeff_of("y", 2)
            ddx = (m - m1y).div_linear("x", 1)
            ddy = (m - m2 * y ** 2).div_monomial("y", 1)
            cross = (t * x * m1y * m).apply(lambda c: c.divexact(q))
            return (seed + cross.div_monomial("y", 1)
                    + t * x * ddy - t * (x ** 2 * y) * ddx)
        return fixed_point(step, var, order)

    if eq in (EquationId.POTTS_QUASI_TRI, EquationId.TUTTE_QUASI_TRI):
        nu, z = p("nu"), p("z")
        # geometric series 1/(1 - x nu t z) to the working order
        geo = fixed_point(lambda g: one + t * (x * nu * z) * g, var, order)
        # coefficients of y^2 t Q(0,y) Q (factor), y t (Q - Q(0,y))/x (geo_dd)
        if eq is EquationId.POTTS_QUASI_TRI:
            geo_dd = geo * (nu - 1)            # (nu-1)/(1-x z t nu)
            factor = TSeries.const(p("q"), var, order) + geo_dd
        else:
            geo_dd = geo
            factor = TSeries.const(p("mu"), var, order) + t * (x * nu * z) * geo

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
        return fixed_point(step, var, order)

    if eq is EquationId.BIPOLAR_MAPS:
        w = p("w")
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
        return fixed_point(step, var, order)

    if eq is EquationId.BIPOLAR_TRI:
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
        return fixed_point(step, var, order)

    raise UnknownEquation(f"unknown equation {eq!r}")  # pragma: no cover


def quasi_tri_q2_relation_holds(eq: EquationId, order: int, params=None) -> bool:
    """Check the closed relation z t nu Q2(x) = (1 - 2 x z t nu) Q1(x) that
    the quasi-triangulation series satisfy, in cleared (denominator-free)
    form."""
    p = _params(eq, params)
    nu, z = p("nu"), p("z")
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


#: what the weight of a map in brute_force_gf reads: `extra` is its Potts
#: or Tutte polynomial or its number of bipolar orientations (None if the
#: weight reads none), the rest are its statistics
_Stats = namedtuple("_Stats", "extra n_vertices n_faces root_vertex_degree"
                    " root_face_degree")


def brute_force_gf(eq: EquationId, order: int, params=None) -> TSeries:
    """The same series as expand(eq, ...), summed over generated maps.

    Exponential in the order; meant for desk-scale cross-checks.  The maps
    of each size are counted by what their weight reads, and each group is
    weighted once.  The root-edge families stream their top size, so it is
    never held.  The two quasi-triangulation ids yield the x = 0 slice
    (near-triangulations), the only slice with a direct combinatorial
    meaning.
    """
    from tuttelab import generate as g
    from tuttelab.potts import potts, tutte

    p = _params(eq, params)
    q, nu, mu, w, z = (p(v) for v in ("q", "nu", "mu", "w", "z"))
    E = EquationId

    def family(name, *args):
        """size -> the maps of g.<name>(size, *args): the memoised list
        below the order, a stream at the order."""
        def maps(n):
            if n == order:
                return g.stream(name, n, *args)
            return getattr(g, name)(n, *args)
        return maps

    all_maps, nt = family("all_maps"), family("near_angulations", 3)

    def outer(s, per=1):
        return MultiPoly.var("y", s.root_face_degree // per)

    def degrees(s):
        return MultiPoly(("x", "y"), {(s.root_vertex_degree,
                                       s.root_face_degree): 1})

    w_pow, z_pow = (lru_cache(maxsize=None)(p.__pow__) for p in (w, z))

    def vw(s):
        return w_pow(s.n_vertices - 1)

    def fz(s):
        return z_pow(s.n_faces - 1)

    def potts_w(s):  # P_M(q, nu) / q
        return s.extra.divexact(MultiPoly.var("q")).subs({"q": q, "nu": nu})

    def tutte_w(s):
        return s.extra.subs({"mu": mu, "nu": nu})

    def bipolar(m):  # the atomic map has none
        return 0 if m.is_atomic else len(g.all_bipolar_orientations(m))

    def nothing(m):
        return None

    # {equation: (its maps of size n, what else the weight of a map reads,
    # the weight of one map of given _Stats)}, the size being the exponent
    # of the equation's main variable
    table = {
        E.MAPS_1CAT: (all_maps, nothing, outer),
        E.NT: (nt, nothing, outer),
        E.NQ: (family("near_angulations", 4), nothing, outer),
        E.BIP: (family("bipartite_maps"), nothing, lambda s: outer(s, 2)),
        E.EULER_NT: (g.eulerian_near_triangulations, nothing,
                     lambda s: outer(s, 3)),
        E.POTTS_MAPS: (all_maps, potts,
                       lambda s: potts_w(s) * vw(s) * degrees(s)),
        E.TUTTE_MAPS: (all_maps, tutte,
                       lambda s: tutte_w(s) * vw(s) * fz(s) * degrees(s)),
        E.TUTTE_NONSEP_TRI: (
            g.non_separable_near_triangulations, potts,
            lambda s: s.extra.subs({"nu": 0, "q": q}) * degrees(s)),
        E.POTTS_QUASI_TRI: (nt, potts,
                            lambda s: potts_w(s) * fz(s) * outer(s)),
        E.TUTTE_QUASI_TRI: (nt, tutte,
                            lambda s: tutte_w(s) * fz(s) * outer(s)),
        E.BIPOLAR_MAPS: (all_maps, bipolar,
                         lambda s: s.extra * vw(s) * degrees(s)),
        E.BIPOLAR_TRI: (g.non_separable_near_triangulations, bipolar,
                        lambda s: s.extra * degrees(s)),
    }
    maps, extra, weight = table[eq]

    def stats(m):
        return _Stats(extra(m), m.n_vertices, m.n_faces,
                      m.root_vertex_degree, m.root_face_degree)

    coeffs = [MultiPoly.dot((weight(s), k)
                            for s, k in Counter(map(stats, maps(n))).items())
              for n in range(order + 1)]
    return TSeries(MAIN_VAR[eq], order, coeffs)

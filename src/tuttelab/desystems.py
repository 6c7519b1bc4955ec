"""Differential systems characterising coloured-map generating functions.

Two systems are solved order by order in the main series variable:

* the planar-map system: unique polynomials A(t,v) (degree 4 in v),
  B(t,v) (degree 2), C(t,v) (degree 2) with

      A(0,v) = (1-v)^2,  A(t,0) = 1,
      B(0,v) = 1-v,      C(t,0) = w(q+2b) - 1 - nu     (b = nu - 1),

  satisfying, with Delta(t,v) = (q nu + b^2) - q(nu+1)v + (bt(q-4)(wq+b)+q)v^2
  and D = A Delta^2,

      (1/C) d/dv (v^4 C^2 / D)  =  (v^2/B) d/dt (B^2 / D).

  A linear combination of A_2, B_1, B_2 then gives the Potts generating
  function of planar maps at x = y = 1.

* the near-triangulation system: unique A(z,v) (degree 3 in v), B(z,v)
  (degree 1) with A(0,v) = 1 + v/4, A(z,0) = 1, B(0,v) = 1 and, with
  Delta(v) = v + 4 - q,

      -(4z/v) d/dv (v^3 / A)  =  (1/(B Delta)) d/dz (B^2 / A),

  from which the chromatic generating function T_2(q,z;1) of non-separable
  near-triangulations of outer degree 2 is recovered.

Both identities are cleared of denominators, and one stage solver,
_solve_stages, matches the coefficients of both.
Stage n of the main variable adds the unknown coefficients of order n + 1
of A and B (order n of C) and forms one coefficient: [t^n] (or [z^n]) of
the cleared identity, read from the stored coefficient lists as one
MultiPoly.dot over O(n) products.  For the maps system the coefficients
D_k = sum_{l <= 2} A_{k-l} [t^l] Delta^2 of D, k <= n + 1, are formed
first.  The powers of v of that coefficient are the new constraints.  No
stage multiplies out a truncated series, so the N stages cost O(N^2)
products in all.

A cleared constraint is affine or quadratic in the unknowns not yet solved:
the B^2 terms give squares and products of coefficients of B.  _reduce
runs one exact sparse Gauss–Jordan elimination over the monomials of the
constraints, nonlinear monomials first, fraction-free in ints.  Every row
of the result that is led by an unknown solves it affinely, including the
consequences that come from cancelling quadratic monomials between
constraints.  The solutions are substituted everywhere, which can turn
quadratic constraints affine, and the elimination repeats until nothing
new is solved.

The solved series are cross-checked against the functional-equation
iterates, giving two independent derivations of the same numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from tuttelab.equations import EquationId, expand
from tuttelab.poly import MultiPoly, exact
from tuttelab.series import TSeries


class DESolveError(ValueError):
    """Raised when an order-by-order linear system is singular or
    inconsistent; carries the failing order."""

    def __init__(self, message, order):
        super().__init__(f"{message} (at order {order})")
        self.message = message
        self.order = order

    def __reduce__(self):
        # rebuilt from both arguments when it crosses a process boundary
        return type(self), (self.message, self.order)


V = MultiPoly.var("v")
V2, V3, V4 = V ** 2, V ** 3, V ** 4


def _row(p: MultiPoly, rank) -> dict:
    """A constraint as {monomial: int}: its coefficients times the lcm of
    their denominators, which leaves its solutions alone.  A monomial is a
    tuple of (unknown's rank, exponent) pairs; () is the constant term."""
    row = {tuple(sorted((rank[name], e)
                        for name, e in zip(p.vars, exps) if e)): c
           for exps, c in p.terms()}
    d = lcm(*(c.denominator for c in row.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in row.items()}


def _column(mono):
    """Column order: nonlinear monomials first, highest degree first, then
    the unknowns oldest first, then the constant."""
    deg = sum(e for _, e in mono)
    return (deg < 2, deg == 0, -deg, mono)


def _poly(row, pending) -> MultiPoly:
    """The polynomial of a row {monomial: rational}, as _row reads it."""
    return MultiPoly.sum(MultiPoly([pending[i] for i, _ in mono],
                                   {tuple(e for _, e in mono): c})
                         for mono, c in row.items())


def _reduce(constraints, pending, coeff_lists, order):
    """Propagate constraints by exact sparse Gauss–Jordan elimination.

    Each round brings the constraints to reduced row-echelon form with the
    columns in _column order.  The rows are eliminated fraction-free, in
    ints: where the pivot row p has its pivot entry a g and a row r has
    b g in that column, g = gcd, r becomes a r - b p, divided by the gcd
    of its entries.  Each row is divided by its pivot entry once, at the
    end.  The reduced row-echelon form is unique, so this is the form that
    elimination over the rationals reaches.  A row led by an unknown is
    affine: it solves that unknown in terms of later ones.  A row led by a
    nonlinear monomial stays a constraint, and a nonzero constant row is an
    inconsistency.  The solutions are substituted into the stored
    coefficient lists and the remaining constraints, until a round solves
    nothing; a stored coefficient is substituted into only while it still
    holds a solved unknown.  Returns the surviving constraints and
    unknowns."""
    while True:
        rank = {u: i for i, u in enumerate(pending)}
        rows = [_row(c, rank) for c in constraints]
        reduced = {}
        for col in sorted({m for r in rows for m in r}, key=_column):
            piv = next((i for i, r in enumerate(rows) if col in r), None)
            if piv is None:
                continue
            if not col:
                raise DESolveError("inconsistent linear system", order)
            pr = rows.pop(piv)
            lead = pr[col]
            for r in rows + list(reduced.values()):
                f = r.get(col)
                if f:
                    g = gcd(lead, f)
                    a, b = lead // g, f // g
                    if a != 1:
                        for m in r:
                            r[m] *= a
                    for m, c in pr.items():
                        nc = r.get(m, 0) - b * c
                        if nc:
                            r[m] = nc
                        else:
                            del r[m]
                    g = gcd(*r.values())
                    if g > 1:
                        for m in r:
                            r[m] //= g
            reduced[col] = pr
        sub, constraints = {}, []
        for col, r in reduced.items():
            lead = r[col]
            r = {m: Fraction(c, lead) for m, c in r.items()}
            if sum(e for _, e in col) == 1:
                del r[col]
                sub[pending[col[0][0]]] = -_poly(r, pending)
            else:
                constraints.append(_poly(r, pending))
        if not sub:
            return constraints, pending
        pending = [u for u in pending if u not in sub]
        for lst in coeff_lists:  # entries solved stages ago stay as they are
            for i, p in enumerate(lst):
                if not sub.keys().isdisjoint(p.vars):
                    lst[i] = p.subs(sub)
        constraints = [c for c in (p.subs(sub) for p in constraints)
                       if not c.is_zero()]


def _solve_stages(letters, identity, stages):
    """Fill the lists of letters, {letter: (coefficient list, powers of v)},
    each ending with the known part of the entry stage 0 completes.  Stage
    n appends a zero entry if n > 0, adds _{letter}{k}n{n} v^k to it per
    power k and solves the powers of v of MultiPoly.dot(identity(n)), [t^n]
    of the cleared identity.  All but the last two entries must be solved."""
    lists = [coeffs for coeffs, _ in letters.values()]
    pending, constraints = [], []
    for n in range(stages):
        for letter, (coeffs, powers) in letters.items():
            names = [f"_{letter}{k}n{n}" for k in powers]
            pending += names
            if n:
                coeffs.append(MultiPoly.zero())
            coeffs[-1] = coeffs[-1] + MultiPoly.dot(
                (MultiPoly.var(name), MultiPoly.var("v", k))
                for name, k in zip(names, powers))
        constraints += [p for p in MultiPoly.dot(identity(n)).by_powers(
            "v").values() if not p.is_zero()]
        constraints, pending = _reduce(constraints, pending, lists, n)
    if any(p.degree(u) > 0 for coeffs in lists for p in coeffs[:-2]
           for u in pending):
        raise DESolveError("coefficients remain undetermined", stages)


def _v_series(var, order, *reads) -> list:
    """The series in var to order of [v^k] of each (coefficient list, k)."""
    return [TSeries(var, order, [p.coeff("v", k) for p in coeffs[:order + 1]])
            for coeffs, k in reads]


def solve_de_maps(q, nu, w, N):
    """Solve the planar-map differential system to t-order N.

    Returns (A, B, C, M11): A, B, C as series in t with polynomial-in-v
    coefficients (to order N), and M11 the reconstructed Potts generating
    function of planar maps at x = y = 1 (to order N).

    Empirically the order-by-order solve degenerates (coefficients stay
    undetermined) exactly at nu = 1 and at q in {0, 4}; all other rational
    parameter points tried solve uniquely.
    """
    q, nu, w = (Fraction(exact(v)) for v in (q, nu, w))
    b = nu - 1
    c0 = w * (q + 2 * b) - 1 - nu
    delta0 = MultiPoly.const(q * nu + b * b) - q * (nu + 1) * V + q * V ** 2
    delta1 = b * (q - 4) * (w * q + b) * V ** 2
    delta_sq = [delta0 * delta0, 2 * delta0 * delta1, delta1 * delta1]

    A = [(MultiPoly.one() - V) ** 2, MultiPoly.zero()]
    B = [MultiPoly.one() - V, MultiPoly.zero()]
    C = [MultiPoly.const(c0)]

    def identity(n):
        # D_k = [t^k] A Delta^2 for k <= n + 1, then [t^n] of the identity
        D = [MultiPoly.dot((A[k - l], delta_sq[l])
                           for l in range(min(k, 2) + 1))
             for k in range(n + 2)]
        for i in range(n + 1):
            j = n - i
            yield (V3 * (4 * C[i]) + V4 * (2 * C[i].diff("v"))
                   - V2 * (2 * (i + 1) * B[i + 1]), D[j])
            yield V4 * C[i], -D[j].diff("v")
            yield V2 * ((j + 1) * B[i]), D[j + 1]

    _solve_stages({"a": (A, (1, 2, 3, 4)), "b": (B, (0, 1, 2)),
                   "c": (C, (1, 2))}, identity, N + 4)

    hi = N + 2
    a2, b1, b2 = _v_series("t", hi, (A, 2), (B, 1), (B, 2))
    t = TSeries.t("t", hi)
    rhs = 4 * t * (1 - 3 * (b + 2) ** 2 * t
                   + (6 * (b + 2) * (q + 2 * b) * t + q + 3 * b) * w
                   - 3 * (q + 2 * b) ** 2 * w ** 2 * t)
    numerator = rhs + a2 - 2 * b2 + 8 * c0 * t * b1 - b1 * b1
    scale = 12 * w * (q * nu + b * b)
    if scale == 0:
        raise ValueError("M(1,1) extraction needs w != 0 and q nu + (nu-1)^2 != 0")
    m11 = numerator.divide_by_var(2) * Fraction(1, 1) / scale
    return (TSeries("t", N, A[:N + 1]), TSeries("t", N, B[:N + 1]),
            TSeries("t", N, C[:N + 1]), m11.truncate(N))


def check_de_maps(q, nu, w, N=6) -> bool:
    """The reconstructed M(1,1) agrees with the functional-equation iterate."""
    _, _, _, m11 = solve_de_maps(q, nu, w, N)
    ref = expand(EquationId.POTTS_MAPS, N,
                 {"q": q, "nu": nu, "w": w})
    return m11 == ref.subs({"x": 1, "y": 1})


def solve_de_tri(q, N):
    """Solve the near-triangulation differential system to z-order N.

    Returns (A, B, T2): A, B as series in z with polynomial-in-v
    coefficients, and T2 the reconstructed chromatic generating function of
    non-separable near-triangulations of outer degree 2, all to order N.
    """
    q = Fraction(exact(q))
    if q == 4:
        raise ValueError("T2 extraction is singular at q = 4")
    delta = V + MultiPoly.const(4 - q)

    A = [MultiPoly.one() + Fraction(1, 4) * V, MultiPoly.zero()]
    B = [MultiPoly.one(), MultiPoly.zero()]

    def identity(n):
        # [z^n] of the identity, from the stored coefficients
        for i in range(n + 1):
            yield B[i + 1], 2 * (i + 1) * A[n - i]
        for i in range(n + 1):
            yield B[i], -(n - i + 1) * A[n - i + 1]
        if n:
            yield 4 * delta, V * (3 * A[n - 1]) - V2 * A[n - 1].diff("v")

    _solve_stages({"a": (A, (1, 2, 3)), "b": (B, (0, 1))}, identity, N + 6)

    hi = N + 4
    a2, b1 = _v_series("z", hi, (A, 2), (B, 1))
    z = TSeries.t("z", hi)
    z2 = z * z
    numerator = (2 * b1 * b1 + (96 * z2 - 24 * q * z2 + 1) * b1 - 2 * a2
                 + 2 * z2 * (10 - q + 432 * z2 - 216 * q * z2
                             + 27 * q * q * z2))
    t2 = numerator.divide_by_var(4) * (q / (20 * (q - 4)))
    return (TSeries("z", N, A[:N + 1]), TSeries("z", N, B[:N + 1]),
            t2.truncate(N))


@lru_cache(maxsize=None)
def tri_t2_series(q, N) -> TSeries:
    """T_2(q,z;1) by functional-equation iteration: the y^2 coefficient at
    x = 1 of the non-separable near-triangulation series.  Memoised:
    check_de_tri and check_tutte_ode read the same expansion."""
    full = expand(EquationId.TUTTE_NONSEP_TRI, N, {"q": q})
    return full.subs({"x": 1}).coeff_of("y", 2)


def check_de_tri(q, N=12) -> bool:
    """The reconstructed T2 agrees with the functional-equation iterate."""
    _, _, t2 = solve_de_tri(q, N)
    return t2 == tri_t2_series(q, N)


def check_tutte_ode(q, N=12) -> bool:
    """With t = z^2 and H(t) = t^2 T_2(1), verify

        2q^2(1-q)t + (qt + 10H - 6tH')H'' + q(4-q)(20H - 18tH' + 9t^2 H'') = 0

    exactly to the order supported by a z-order-N expansion of T_2.  Also
    checks that T_2 is supported on even z-powers (an Euler-relation parity
    consequence), so H is a genuine series in t."""
    q = Fraction(exact(q))
    t2 = tri_t2_series(q, N)
    if any(not t2.coeff(n).is_zero() for n in range(1, N + 1, 2)):
        raise DESolveError("T2 has odd-order z terms", 0)
    half = N // 2
    # H = t^2 T2 with t = z^2
    h = TSeries("t", half + 2,
                [MultiPoly.zero(), MultiPoly.zero()]
                + [t2.coeff(2 * k) for k in range(half + 1)])
    hp = h.diff_main()
    hpp = hp.diff_main()
    t = TSeries.t("t", half + 2)
    resid = (2 * q * q * (1 - q) * t
             + (q * t + 10 * h - 6 * t * hp) * hpp
             + q * (4 - q) * (20 * h - 18 * t * hp + 9 * t * t * hpp))
    return resid.truncate(half).is_zero()

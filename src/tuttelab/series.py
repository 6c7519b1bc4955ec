"""Truncated power series with exact multivariate-polynomial coefficients.

A TSeries is a series in one main variable (usually t or z) truncated at a
fixed order N, whose coefficients are MultiPoly values in the remaining
variables (possibly Laurent in designated catalytic variables).  All
arithmetic is exact and respects the truncation order.

The module also provides the generic fixed-point iterator used to solve
catalytic functional equations: any equation whose right-hand side carries
an explicit factor of the main variable in every non-constant term
determines its coefficients recursively, so the k-th iterate from the
initial term is exact to order k.  The iteration is graded: round k runs at
order k, on the previous iterate padded with a zero coefficient, so only
the last of the N + 1 rounds runs at the full order N.  One more round at
order N confirms the solution.
"""

from __future__ import annotations

from fractions import Fraction

from tuttelab.poly import MultiPoly


class SeriesError(ValueError):
    pass


def _as_poly(c) -> MultiPoly:
    if isinstance(c, MultiPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return MultiPoly.const(c)
    raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")


class TSeries:

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs=()):
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        self.var = var
        self.order = order
        cs = [_as_poly(c) for c in coeffs][:order + 1]
        cs += [MultiPoly.zero()] * (order + 1 - len(cs))
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c, var, order) -> "TSeries":
        return TSeries(var, order, [_as_poly(c)])

    @staticmethod
    def zero(var, order) -> "TSeries":
        return TSeries(var, order, [])

    @staticmethod
    def t(var, order) -> "TSeries":
        """The main variable itself as a series."""
        return TSeries(var, order, [MultiPoly.zero(), MultiPoly.one()])

    # -- basics ------------------------------------------------------------

    def coeff(self, n: int) -> MultiPoly:
        return self.coeffs[n] if 0 <= n <= self.order else MultiPoly.zero()

    def truncate(self, order: int) -> "TSeries":
        return TSeries(self.var, order, self.coeffs[:order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = TSeries.const(other, self.var, self.order)
        if not isinstance(other, TSeries):
            return NotImplemented
        if self.var != other.var:
            return False
        n = min(self.order, other.order)
        return (self.coeffs[:n + 1] == other.coeffs[:n + 1]
                and all(c.is_zero() for c in self.coeffs[n + 1:])
                and all(c.is_zero() for c in other.coeffs[n + 1:]))

    def __repr__(self):
        terms = [f"({c})*{self.var}^{n}" for n, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self.var}^{self.order + 1})>"

    def _coerce(self, other):
        if isinstance(other, TSeries):
            if other.var != self.var:
                raise SeriesError("main variables differ")
            return other
        return TSeries.const(other, self.var, self.order)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TSeries(self.var, n, [self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TSeries(self.var, n, [self.coeffs[i] - o.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            p = _as_poly(other)
            return TSeries(self.var, self.order, [c * p for c in self.coeffs])
        o = self._coerce(other)
        n = min(self.order, o.order)
        a, b = self.coeffs, o.coeffs
        out = [MultiPoly.dot((a[i], b[k - i]) for i in range(k + 1)
                             if a[i] and b[k - i])
               for k in range(n + 1)]
        return TSeries(self.var, n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = TSeries.const(1, self.var, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, k: int = 1) -> "TSeries":
        """Multiply by var^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise SeriesError("shift exponent must be nonnegative")
        return TSeries(self.var, self.order,
                       [MultiPoly.zero()] * k + self.coeffs[:self.order + 1 - k])

    def divide_by_var(self, k: int = 1) -> "TSeries":
        """Divide exactly by var^k; the low-order coefficients must vanish.

        The result is truncated at order - k (the information simply is not
        there beyond that).
        """
        if any(not c.is_zero() for c in self.coeffs[:k]):
            raise SeriesError(f"series is not divisible by {self.var}^{k}")
        return TSeries(self.var, self.order - k, self.coeffs[k:])

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; the constant coefficient must be a unit
        (a nonzero rational constant)."""
        c0 = self.coeffs[0]
        if not c0.is_constant() or c0.is_zero():
            raise SeriesError("series inverse requires a nonzero constant term")
        inv0 = Fraction(1, 1) / c0.constant_value()
        out = [MultiPoly.const(inv0)]
        for n in range(1, self.order + 1):
            acc = MultiPoly.dot((self.coeffs[i], out[n - i])
                                for i in range(1, n + 1))
            out.append(acc * MultiPoly.const(-inv0))
        return TSeries(self.var, self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1, 1) / Fraction(other))
        o = self._coerce(other)
        return self * o.inverse()

    # -- coefficient-wise operations -------------------------------------------

    def apply(self, fn) -> "TSeries":
        return TSeries(self.var, self.order, [fn(c) for c in self.coeffs])

    def subs(self, mapping) -> "TSeries":
        """Substitute values/polynomials into the coefficient variables."""
        if self.var in mapping:
            raise SeriesError("cannot substitute the main variable")
        return self.apply(lambda c: c.subs(mapping))

    def div_linear(self, name, a) -> "TSeries":
        """Divided difference: divide every coefficient by (name - a), exactly."""
        return self.apply(lambda c: c.div_linear(name, a))

    def div_monomial(self, name, k=1) -> "TSeries":
        """Multiply every coefficient by name^-k (Laurent shift)."""
        return self.apply(lambda c: c.div_monomial(name, k))

    def part(self, name, lo=None, hi=None) -> "TSeries":
        """Keep the coefficient terms whose exponent of `name` is in [lo, hi]."""
        return self.apply(lambda c: c.part(name, lo=lo, hi=hi))

    def positive_part(self, name) -> "TSeries":
        return self.part(name, lo=1)

    def nonneg_part(self, name) -> "TSeries":
        return self.part(name, lo=0)

    def coeff_of(self, name, power) -> "TSeries":
        """The series of [name^power] extracted from every coefficient."""
        return self.apply(lambda c: c.coeff(name, power))

    def diff_main(self) -> "TSeries":
        """d/d(var); the order drops by one."""
        return TSeries(self.var, self.order - 1,
                       [(n + 1) * self.coeffs[n + 1] for n in range(self.order)])

    def diff(self, name) -> "TSeries":
        """Derivative with respect to a coefficient variable."""
        return self.apply(lambda c: c.diff(name))

    def compose_poly(self, p: MultiPoly, name) -> "TSeries":
        """Evaluate a polynomial in `name` at this series (other variables of
        p become coefficient variables).  Requires self to have zero constant
        term unless p is an ordinary polynomial."""
        out = TSeries.zero(self.var, self.order)
        for k, c in sorted(p.by_powers(name).items()):
            if k < 0:
                raise SeriesError("negative powers need an invertible argument")
            out = out + self ** k * c
        return out

    def as_poly(self, t_name=None) -> MultiPoly:
        """The truncated series as a MultiPoly in the main variable."""
        name = t_name or self.var
        tv = MultiPoly.var(name)
        return MultiPoly.sum(c * tv ** n for n, c in enumerate(self.coeffs)
                             if not c.is_zero())


def fixed_point(update, var, order, seed=1) -> TSeries:
    """Solve F = update(F) by graded iteration from the given initial term.

    The update must be contracting: its value at order n may depend only on
    coefficients of orders < n (true whenever every non-constant term of the
    right-hand side carries an explicit factor of the main variable).  Then
    the iterate of round k is exact to order k, so round k runs on the
    previous iterate truncated (zero-padded) to order k, and the last round
    runs at full order.  One more full-order round confirms the solution; if
    it moves, the equation is not of this shape and a SeriesError is raised.
    """
    f = TSeries.const(seed, var, order) if not isinstance(seed, TSeries) else seed
    for k in range(order + 1):
        f = update(f.truncate(k))
    if f.order != order:
        raise SeriesError(f"the update returned order {f.order}, not {order}")
    if update(f) != f:
        raise SeriesError("fixed-point iteration did not stabilize; "
                          "the equation is not contracting in the main variable")
    return f

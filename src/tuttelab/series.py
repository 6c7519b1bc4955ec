"""Truncated power series with exact multivariate-polynomial coefficients.

A TSeries is a series in one main variable (usually t or z) truncated at a
fixed order N, whose coefficients are MultiPoly values in the remaining
variables (possibly Laurent in designated catalytic variables).  All
arithmetic is exact and respects the truncation order.

The module also provides the solver of catalytic functional equations
F = update(F): any equation whose right-hand side carries an explicit
factor of the main variable in every non-constant term determines the
coefficient of order n from those of lower order.  fixed_point solves it
online, the lazy evaluation of McIlroy ("Power series, power serious",
1999) and van der Hoeven ("Relax, but don't be too lazy", 2002): update is
called once on a placeholder for F, which builds a graph of the series
operations, and F's coefficients 0..N are then computed in order, each
once, from those already known.  One eager round, update(F) == F on the
resulting TSeries, confirms the solution.
"""

from __future__ import annotations

from fractions import Fraction

from tuttelab.poly import MultiPoly

_NOT_CONTRACTING = ("fixed-point iteration did not stabilize; "
                    "the equation is not contracting in the main variable")


class SeriesError(ValueError):
    pass


def _product_coeff(a, b, n: int) -> MultiPoly:
    """[var^n] of A * B, whose coefficients are read by a(i) and b(j): one
    MultiPoly.dot over the pairs.  Of each pair the factor of lower index is
    read first, and the other is not read when that one is zero, so a
    product of online series never reads what a zero factor makes moot."""
    pairs = []
    for i in range(n + 1):
        j = n - i
        if i <= j:
            p = a(i)
            if p and (q := b(j)):
                pairs.append((p, q))
        else:
            q = b(j)
            if q and (p := a(i)):
                pairs.append((p, q))
    return MultiPoly.dot(pairs)


def _inverse_coeff(a, out: list, n: int) -> MultiPoly:
    """[var^n] of 1/A, whose coefficients are read by a(i), from out[:n],
    the coefficients of 1/A below n.  A's constant term must be a nonzero
    rational constant."""
    if n:
        return MultiPoly.dot((a(i), out[n - i])
                             for i in range(1, n + 1)) * -out[0]
    c0 = a(0)
    if not c0.is_constant() or c0.is_zero():
        raise SeriesError("series inverse requires a nonzero constant term")
    return MultiPoly.const(Fraction(1, 1) / c0.constant_value())


class _SeriesOps:
    """The operations written once on top of apply, * and inverse, for both
    TSeries and the online series of fixed_point."""

    __slots__ = ()

    def _coerce(self, other):
        """other as a series in the same main variable: a TSeries or a node
        (for which TSeries operators return NotImplemented, so that the
        node's reflected operator builds the result)."""
        if isinstance(other, (TSeries, _Node)):
            if other.var != self.var:
                raise SeriesError("main variables differ")
            return other
        return TSeries.const(other, self.var, self.order)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return TSeries.const(1, self.var, self.order)
        if k == 1:
            return self
        half = self ** (k // 2)
        square = half * half
        return square * self if k % 2 else square

    def subs(self, mapping):
        """Substitute values/polynomials into the coefficient variables."""
        if self.var in mapping:
            raise SeriesError("cannot substitute the main variable")
        return self.apply(lambda c: c.subs(mapping))

    def div_linear(self, name, a):
        """Divided difference: divide every coefficient by (name - a), exactly."""
        return self.apply(lambda c: c.div_linear(name, a))

    def div_monomial(self, name, k=1):
        """Multiply every coefficient by name^-k (Laurent shift)."""
        return self.apply(lambda c: c.div_monomial(name, k))

    def part(self, name, lo=None, hi=None):
        """Keep the coefficient terms whose exponent of `name` is in [lo, hi]."""
        return self.apply(lambda c: c.part(name, lo=lo, hi=hi))

    def positive_part(self, name):
        return self.part(name, lo=1)

    def nonneg_part(self, name):
        return self.part(name, lo=0)

    def coeff_of(self, name, power):
        """The series of [name^power] extracted from every coefficient."""
        return self.apply(lambda c: c.coeff(name, power))

    def diff(self, name):
        """Derivative with respect to a coefficient variable."""
        return self.apply(lambda c: c.diff(name))

    def compose_poly(self, p: MultiPoly, name):
        """Evaluate a polynomial in `name` at this series (other variables of
        p become coefficient variables).  Requires self to have zero constant
        term unless p is an ordinary polynomial."""
        out = TSeries.zero(self.var, self.order)
        for k, c in sorted(p.by_powers(name).items()):
            if k < 0:
                raise SeriesError("negative powers need an invertible argument")
            out = out + self ** k * c
        return out


class TSeries(_SeriesOps):

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs=()):
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        self.var = var
        self.order = order
        cs = [MultiPoly._coerce(c) for c in coeffs][:order + 1]
        cs += [MultiPoly.zero()] * (order + 1 - len(cs))
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c, var, order) -> "TSeries":
        return TSeries(var, order, [MultiPoly._coerce(c)])

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

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if isinstance(o, _Node):
            return NotImplemented
        n = min(self.order, o.order)
        return TSeries(self.var, n, [self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if isinstance(o, _Node):
            return NotImplemented
        n = min(self.order, o.order)
        return TSeries(self.var, n, [self.coeffs[i] - o.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            p = MultiPoly._coerce(other)
            return TSeries(self.var, self.order, [c * p for c in self.coeffs])
        o = self._coerce(other)
        if isinstance(o, _Node):
            return NotImplemented
        n = min(self.order, o.order)
        a, b = self.coeffs.__getitem__, o.coeffs.__getitem__
        return TSeries(self.var, n, [_product_coeff(a, b, k) for k in range(n + 1)])

    __rmul__ = __mul__

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
        a, out = self.coeffs.__getitem__, []
        for n in range(self.order + 1):
            out.append(_inverse_coeff(a, out, n))
        return TSeries(self.var, self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1, 1) / Fraction(other))
        o = self._coerce(other)
        if isinstance(o, _Node):
            return NotImplemented
        return self * o.inverse()

    # -- coefficient-wise operations -------------------------------------------

    def apply(self, fn) -> "TSeries":
        return TSeries(self.var, self.order, [fn(c) for c in self.coeffs])

    def diff_main(self) -> "TSeries":
        """d/d(var); the order drops by one."""
        return TSeries(self.var, self.order - 1,
                       [(n + 1) * self.coeffs[n + 1] for n in range(self.order)])

    def as_poly(self) -> MultiPoly:
        """The truncated series as a MultiPoly in the main variable."""
        tv = MultiPoly.var(self.var)
        return MultiPoly.sum(c * tv ** n for n, c in enumerate(self.coeffs)
                             if not c.is_zero())


# -- online series -------------------------------------------------------------


def _reader(s):
    """The coefficient lookup n -> [var^n] of a TSeries or a node."""
    return s.coeffs.__getitem__ if isinstance(s, TSeries) else s.__getitem__


def _val(s) -> int:
    """A lower bound of the valuation of a TSeries or a node: the index
    below which every coefficient is zero."""
    if isinstance(s, _Node):
        return s.val
    return next((n for n, c in enumerate(s.coeffs) if c), s.order + 1)


class _Node(_SeriesOps):
    """An online series: a node of the graph that one call of the update
    builds in fixed_point.  s[n] computes coefficient n from the operands'
    coefficients (an operand is a node or a TSeries).  Below the valuation
    bound `val` it is zero and reads nothing: a product with a factor of
    zero constant term never reads the other factor at order 0.  Each node
    adds its reads per coefficient to the `uses` of its node operands when
    it is built.  A node read more than once per coefficient (`uses` > 1)
    keeps its coefficients and computes them in order; the others keep
    nothing, since each of their coefficients is read once."""

    __slots__ = ("var", "order", "val", "uses", "cs")
    #: whether the node reads each coefficient of its operands many times
    many = False

    def __init__(self, val, *operands):
        self.var = operands[0].var
        self.order = min(s.order for s in operands)
        self.val = val
        self.uses = 0
        self.cs = []
        for s in operands:
            if isinstance(s, _Node):
                s.uses += 2 if self.many else 1

    def __getitem__(self, n: int) -> MultiPoly:
        if n < self.val:
            return MultiPoly.zero()
        cs = self.cs
        if n < len(cs):
            return cs[n]
        if self.uses < 2:
            return self._coeff(n)
        while len(cs) <= n:
            cs.append(self._coeff(len(cs)))
        return cs[n]

    def __add__(self, other):
        return _Map(MultiPoly.__add__, self, self._coerce(other))

    def __radd__(self, other):
        return _Map(MultiPoly.__add__, self._coerce(other), self)

    def __sub__(self, other):
        return _Map(MultiPoly.__sub__, self, self._coerce(other))

    def __rsub__(self, other):
        return _Map(MultiPoly.__sub__, self._coerce(other), self)

    def __neg__(self):
        return self.apply(MultiPoly.__neg__)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.apply(lambda p: p * other)
        return _Product(self, self._coerce(other))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self * other
        return _Product(self._coerce(other), self)

    def inverse(self):
        return _Inverse(self)

    def apply(self, fn):
        return _Map(fn, self)


class _Unknown(_Node):
    """F, whose coefficients fixed_point appends in order.  Reading the one
    being computed means the update is not contracting."""

    __slots__ = ()

    def __init__(self, var, order):
        self.var, self.order, self.val = var, order, 0
        self.uses, self.cs = 2, []

    def __getitem__(self, n: int) -> MultiPoly:
        if n < len(self.cs):
            return self.cs[n]
        raise SeriesError(_NOT_CONTRACTING)


class _Map(_Node):
    """fn of the operands' coefficients of each order: a coefficient-wise
    operation (a product with a scalar among them), a sum or a difference.
    fn of zeros is zero, as for every such operation (the eager
    confirmation of fixed_point would catch a violation)."""

    __slots__ = ("fn", "readers")

    def __init__(self, fn, *operands):
        super().__init__(min(map(_val, operands)), *operands)
        self.fn, self.readers = fn, [_reader(s) for s in operands]

    def _coeff(self, n):
        return self.fn(*[r(n) for r in self.readers])


class _Product(_Node):
    __slots__ = ("a", "b")
    many = True

    def __init__(self, a, b):
        super().__init__(_val(a) + _val(b), a, b)
        self.a, self.b = _reader(a), _reader(b)

    def _coeff(self, n):
        return _product_coeff(self.a, self.b, n)


class _Inverse(_Node):
    """1/A; it reads its own coefficients, so it always keeps them."""

    __slots__ = ("a",)
    many = True

    def __init__(self, a):
        super().__init__(0, a)
        self.a, self.uses = _reader(a), 2

    def _coeff(self, n):
        return _inverse_coeff(self.a, self.cs, n)


def _solve_online(update, var, order) -> TSeries:
    """The online solve of fixed_point; its graph is released on return."""
    F = _Unknown(var, order)
    root = update(F)
    if not isinstance(root, _Node):
        return root
    for n in range(root.order + 1):
        F.cs.append(root[n])
    return TSeries(var, root.order, F.cs)


def fixed_point(update, var, order) -> TSeries:
    """Solve F = update(F) online, to the given order.

    The update must be contracting: its coefficient of order n may depend
    only on coefficients of F of orders < n (true whenever every
    non-constant term of the right-hand side carries an explicit factor of
    the main variable).  update is called once on a placeholder for F,
    which records each series operation as one node of a graph (a product
    with a scalar is a coefficient-wise map, any other product a
    convolution); then each coefficient of F is computed once, in order,
    from those below it, and a SeriesError is raised if one reads itself.
    The graph is then released, and one eager round, update(F) == F,
    confirms the solution with the TSeries arithmetic.
    """
    f = _solve_online(update, var, order)
    if f.order != order:
        raise SeriesError(f"the update returned order {f.order}, not {order}")
    if update(f) != f:
        raise SeriesError(_NOT_CONTRACTING)
    return f

"""Sparse multivariate (Laurent) polynomials with exact rational coefficients.

Exponent vectors may contain negative entries, so the same class serves as
the coefficient ring for ordinary polynomials and for the Laurent-series
manipulations needed by the kernel method (reciprocals of u, x, y).
Coefficients are Python ints or Fractions; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# Preferred display/storage order for the variables used throughout the
# library.  Unknown names sort after these, alphabetically.
_VAR_RANK = {name: i for i, name in enumerate(
    ("q", "nu", "mu", "w", "x", "y", "z", "u", "v", "t"))}


def _var_key(name: str):
    return (_VAR_RANK.get(name, len(_VAR_RANK)), name)


def _norm_scalar(c) -> Scalar:
    if type(c) is int:  # the common case, before the slower ABC checks
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"not an exact scalar: {c!r}")


class MultiPoly:
    """A sparse Laurent polynomial over Q in a fixed tuple of variables.

    Terms are stored as {exponent tuple: nonzero coefficient}.  Binary
    operations align the variable tuples of both operands (union, sorted),
    so polynomials in different variable sets mix freely.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(vars)
        t = {}
        if terms:
            for exps, c in terms.items():
                c = _norm_scalar(c)
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = Fraction(c) if not isinstance(c, (int, Fraction)) else c
        return MultiPoly((), {(): c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "MultiPoly":
        return MultiPoly((name,), {(power,): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly((), {(): 1})

    @staticmethod
    def sum(polys: Iterable) -> "MultiPoly":
        """The sum of polynomials or scalars, added into one dict.

        Equal to the left fold of + from zero, variables included: the
        result is over the union of the input variables, sorted.  The
        input is consumed as it is produced, one term at a time.
        """
        vars_: tuple = ()
        out: dict = {}
        for p in polys:
            p = MultiPoly._coerce(p)
            terms = p.terms
            if p.vars != vars_:
                union = tuple(sorted(set(vars_) | set(p.vars), key=_var_key))
                if union != vars_:
                    out = MultiPoly(vars_, out)._remap(union)
                    vars_ = union
                if p.vars != vars_:
                    terms = p._remap(vars_)
            for exps, c in terms.items():
                out[exps] = out.get(exps, 0) + c
        return MultiPoly(vars_, out)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        val = 0
        for exps, c in self.terms.items():
            if any(exps):
                raise ValueError(f"not a constant: {self}")
            val = c
        return val

    def degree(self, name: str) -> int:
        """Largest exponent of `name` (0 if the variable does not occur)."""
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def valuation(self, name: str) -> int:
        """Smallest exponent of `name`; 0 for polynomials without it.

        Raises on the zero polynomial (its valuation is +infinity).
        """
        if not self.terms:
            raise ValueError("valuation of zero polynomial")
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    # -- variable alignment --------------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars), key=_var_key))
        a = self.terms if self.vars == union else self._remap(union)
        b = other.terms if other.vars == union else other._remap(union)
        return union, a, b

    def _remap(self, new_vars: tuple) -> dict:
        idx = [self.vars.index(v) if v in self.vars else None for v in new_vars]
        # existing variables must all survive
        missing = set(self.vars) - set(new_vars)
        if missing:
            drop = [self.vars.index(v) for v in missing]
            if any(e[i] for e in self.terms for i in drop):
                raise ValueError(f"cannot drop live variables {missing}")
        out = {}
        for exps, c in self.terms.items():
            key = tuple(exps[i] if i is not None else 0 for i in idx)
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

    def in_vars(self, new_vars: Iterable[str]) -> "MultiPoly":
        """Re-express this polynomial over the given variable tuple."""
        new_vars = tuple(new_vars)
        return MultiPoly(new_vars, self._remap(new_vars))

    # -- ring operations -----------------------------------------------------

    @staticmethod
    def _coerce(p) -> "MultiPoly":
        if isinstance(p, MultiPoly):
            return p
        if isinstance(p, (int, Fraction)):
            return MultiPoly.const(p)
        raise TypeError(f"cannot coerce {p!r} to MultiPoly")

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented  # defer to the other operand (e.g. TSeries)
        other = self._coerce(other)
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for exps, c in b.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return MultiPoly(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        other = self._coerce(other)
        vars_, a, b = self._aligned(other)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return MultiPoly(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power; use monomial_inverse for monomials")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1, 1) / Fraction(other)
            return MultiPoly(self.vars, {e: c * inv for e, c in self.terms.items()})
        return self.divexact(self._coerce(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars_, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        vars_ = tuple(sorted(set(v for i, v in enumerate(self.vars)
                                 if any(e[i] for e in self.terms)), key=_var_key))
        canon = self._remap(vars_)
        if not vars_:  # a constant equals, so hashes like, its scalar
            return hash(canon.get((), 0))
        return hash((vars_, frozenset(canon.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- coefficient extraction ----------------------------------------------

    def coeff(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial with name removed."""
        if name not in self.vars:
            return self if power == 0 else MultiPoly(self.vars, {})
        i = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                key = exps[:i] + (0,) + exps[i + 1:]
                out[key] = out.get(key, 0) + c
        return MultiPoly(self.vars, {k: v for k, v in out.items() if v})

    def by_powers(self, name: str) -> dict:
        """Decompose into {power: coefficient poly (name zeroed out)}."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        out: dict = {}
        for exps, c in self.terms.items():
            key = exps[:i] + (0,) + exps[i + 1:]
            bucket = out.setdefault(exps[i], {})
            bucket[key] = bucket.get(key, 0) + c
        return {p: MultiPoly(self.vars, t) for p, t in sorted(out.items())}

    def truncate(self, name: str, max_power: int) -> "MultiPoly":
        """Drop all terms with exponent of `name` above max_power."""
        if name not in self.vars:
            return self
        i = self.vars.index(name)
        return MultiPoly(self.vars,
                         {e: c for e, c in self.terms.items() if e[i] <= max_power})

    def part(self, name: str, lo=None, hi=None) -> "MultiPoly":
        """Terms whose exponent of `name` lies in [lo, hi] (None = unbounded)."""
        if name not in self.vars:
            keep = (lo is None or lo <= 0) and (hi is None or hi >= 0)
            return self if keep else MultiPoly(self.vars, {})
        i = self.vars.index(name)
        return MultiPoly(self.vars, {
            e: c for e, c in self.terms.items()
            if (lo is None or e[i] >= lo) and (hi is None or e[i] <= hi)})

    # -- substitution ---------------------------------------------------------

    def subs(self, mapping: Mapping[str, object]) -> "MultiPoly":
        """Substitute polynomials/scalars for variables.

        Negative exponents are only allowed when the substituted value is an
        invertible monomial (scalar times a single power product).
        """
        mapping = {k: self._coerce(v) for k, v in mapping.items() if k in self.vars}
        if not mapping:
            return self
        keep = tuple(v for v in self.vars if v not in mapping)
        idx_keep = [self.vars.index(v) for v in keep]
        idx_sub = [(self.vars.index(v), v) for v in self.vars if v in mapping]
        pow_cache: dict = {}

        def mono_pow(name, k):
            key = (name, k)
            if key not in pow_cache:
                base = mapping[name]
                if k >= 0:
                    pow_cache[key] = base ** k
                else:
                    pow_cache[key] = base.monomial_inverse() ** (-k)
            return pow_cache[key]

        def term(exps, c):
            out = MultiPoly(keep, {tuple(exps[i] for i in idx_keep): c})
            for i, name in idx_sub:
                if exps[i]:
                    out = out * mono_pow(name, exps[i])
            return out

        return MultiPoly.sum(term(e, c) for e, c in self.terms.items())

    def monomial_inverse(self) -> "MultiPoly":
        """Inverse of a single-term polynomial (Laurent monomial)."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        (exps, c), = self.terms.items()
        return MultiPoly(self.vars, {tuple(-e for e in exps): Fraction(1) / Fraction(c)})

    def eval(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate fully at rational points; every live variable needs a value."""
        total = Fraction(0)
        vals = [Fraction(values[v]) if v in values else None for v in self.vars]
        for exps, c in self.terms.items():
            prod = Fraction(c)
            for i, e in enumerate(exps):
                if e:
                    if vals[i] is None:
                        raise ValueError(f"no value for variable {self.vars[i]}")
                    prod *= vals[i] ** e
            total += prod
        return _norm_scalar(total)

    # -- exact division --------------------------------------------------------

    def div_linear(self, name: str, c) -> "MultiPoly":
        """Exact division by (name - c) with c a rational constant.

        Synthetic division on the `name`-power decomposition; raises
        ValueError if the remainder is nonzero.
        """
        parts = self.by_powers(name)
        if not parts:
            return self
        if min(parts) < 0:
            raise ValueError("div_linear requires nonnegative exponents")
        deg = max(parts)
        x = MultiPoly.var(name)
        quot = MultiPoly.zero()
        carry = MultiPoly.zero()
        for p in range(deg, -1, -1):
            carry = parts.get(p, MultiPoly.zero()) + carry * c
            if p > 0:
                quot = quot + carry * x ** (p - 1)
        if not carry.is_zero():
            raise ValueError(f"division by ({name} - {c}) is not exact")
        return quot

    def div_monomial(self, name: str, k: int) -> "MultiPoly":
        """Laurent shift: divide by name**k (always exact in Laurent ring)."""
        if name not in self.vars:
            if not self.terms:
                return self
            return self * MultiPoly.var(name, -k)
        i = self.vars.index(name)
        return MultiPoly(self.vars, {
            e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in self.terms.items()})

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division (general, leading-term elimination)."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self / divisor.constant_value()
        if len(divisor.terms) == 1:
            return self * divisor.monomial_inverse()
        vars_, a, b = self._aligned(divisor)
        rem = dict(a)
        lead = max(b)  # lex-max exponent of divisor
        lead_c = Fraction(b[lead])
        quot: dict = {}
        budget = 4 * (len(a) + 1) * (len(b) + 1) + 1000
        while rem:
            budget -= 1
            if budget < 0:
                raise ValueError("polynomial division did not terminate; not exact")
            e = max(rem)
            diff = tuple(x - y for x, y in zip(e, lead))
            qc = Fraction(rem[e]) / lead_c
            quot[diff] = quot.get(diff, 0) + qc
            for be, bc in b.items():
                key = tuple(x + y for x, y in zip(diff, be))
                s = rem.get(key, 0) - qc * bc
                if s:
                    rem[key] = s
                elif key in rem:
                    del rem[key]
        return MultiPoly(vars_, {e: _norm_scalar(Fraction(c)) for e, c in quot.items() if c})

    # -- differentiation ---------------------------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return MultiPoly(self.vars, {})
        i = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                out[key] = out.get(key, 0) + c * exps[i]
        return MultiPoly(self.vars, {k: v for k, v in out.items() if v})

    # -- rendering -----------------------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        """Canonical string: graded lexicographic over the variable tuple."""
        if not self.terms:
            return "0"
        live = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]

        def key(item):
            exps, _ = item
            proj = tuple(exps[i] for i in live)
            return (-sum(proj), tuple(-x for x in proj))

        pieces = []
        for exps, c in sorted(self.terms.items(), key=key):
            factors = []
            for i in live:
                e = exps[i]
                if e == 1:
                    factors.append(self.vars[i])
                elif e:
                    factors.append(f"{self.vars[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if pieces and not body.startswith("-"):
                pieces.append("+" + body)
            else:
                pieces.append(body)
        return " ".join(pieces)


def lagrange_interpolate(points) -> "MultiPoly":
    """Univariate-style interpolation through (q_value, MultiPoly value) pairs.

    Returns the unique polynomial in q of degree < len(points) (with the
    given polynomial values as coefficients of the other variables) passing
    through all points.
    """
    points = list(points)
    q = MultiPoly.var("q")

    def term(i, xi, yi):
        num = MultiPoly.one()
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = num * (q - xj)
                den *= Fraction(xi) - Fraction(xj)
        return num * (MultiPoly._coerce(yi) / den)

    return MultiPoly.sum(term(i, xi, yi) for i, (xi, yi) in enumerate(points))

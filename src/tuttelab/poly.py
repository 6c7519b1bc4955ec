"""Sparse multivariate (Laurent) polynomials with exact rational coefficients.

Exponent vectors may contain negative entries, so the same class serves as
the coefficient ring for ordinary polynomials and for the Laurent-series
manipulations needed by the kernel method (reciprocals of u, x, y).
Coefficients are Python ints or Fractions; all arithmetic is exact.

Representation (packed monomials, after Monagan & Pearce, "Sparse
polynomial division using a heap", JSC 2011, and "POLY: a new polynomial
data structure for Maple 17", 2013).  A polynomial over the variable tuple
`vars` stores each term under one int key: the exponent vector written in
base 2^16 with signed digits, the first variable most significant,

    key = sum(e_i * 2^(16 * (len(vars) - 1 - i))).

A monomial product is then one integer add, integer order is lex order on
the exponent vectors, and the constant monomial is key 0 in every layout.
Exponents must lie in [-8192, 8192): the sum of two such digits still fits
its field, and every operation that can move an exponent checks its result
and raises OverflowError rather than carry into the next variable.

A polynomial stores a positive denominator d and {key: nonzero int
numerator} with gcd(d, numerators) = 1, so d is the lcm of the reduced
denominators and equal polynomials have equal forms.  The public
constructor takes {exponent tuple: coefficient}, normalises the scalars,
drops zeros and checks the exponents.  Ring operations build their results
through the trusted `_from_terms`, which only divides out gcd(d,
numerators): they keep numerators nonzero, and exponents in range, themselves.
Operands over different variable tuples are aligned on the sorted union,
and only the operand whose tuple differs is repacked, by a layout that is
cached per pair of tuples (a shift when its variables sit together in the
union).  `terms()` yields the (exponent tuple, coefficient) pairs, so the
packed keys stay private to this module; it divides by d on the way out.

Products and sums are fraction-free (Geddes, Czapor & Labahn, "Algorithms
for Computer Algebra", 1992, ch. 2).  `dot` adds the products of the stored
numerators into one dict over a running common denominator, which grows,
and rescales the dict, only when a pair's denominator does not divide it.
`*`, `+`, `-` and `sum` are all `dot`; `coeff`, `part`, `subs` and `diff`
work on the numerators under their d, so ring operations build no Fraction.
`subs` and `div_linear` each make one pass over the packed terms, and
`divexact` pops the remainder's leading keys from a heap (Monagan & Pearce).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, lcm
from operator import index, mul, or_
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# Preferred display/storage order for the variables used throughout the
# library.  Unknown names sort after these, alphabetically.
_VAR_RANK = {name: i for i, name in enumerate(
    ("q", "nu", "mu", "w", "x", "y", "z", "u", "v", "t"))}

_W = 16                  # bits per exponent field
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)    # offset that makes every field of a key unsigned
_LIMIT = 1 << (_W - 3)   # exponents lie in [-_LIMIT, _LIMIT)


def _var_key(name: str):
    return (_VAR_RANK.get(name, len(_VAR_RANK)), name)


def exact(c) -> Scalar:
    """c as a stored coefficient: an int, or a Fraction that is not
    integral.  Anything else, floats included, raises TypeError."""
    if type(c) is int:  # the common case, before the slower ABC checks
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"not an exact scalar: {c!r}")


def _integral(terms: dict):
    """(d, {key: c * d}) with d the lcm of the denominators; d = 1 and the
    same dict when every coefficient is an int."""
    if set(map(type, terms.values())) <= {int}:
        return 1, terms
    d = lcm(*{c.denominator for c in terms.values()})
    return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}


@lru_cache(maxsize=None)
def _fields(n: int):
    """Field shifts of n variables, most significant first, and the masks:
    key + off has unsigned fields; (key + low) & guard is zero exactly when
    every field lies in [-_LIMIT, _LIMIT), for keys whose fields lie in
    [-2 * _LIMIT, 2 * _LIMIT), such as the sum of two valid keys."""
    shifts = tuple(_W * (n - 1 - i) for i in range(n))
    off = sum(_HALF << s for s in shifts)
    low = sum(_LIMIT << s for s in shifts)
    guard = sum((_MASK ^ (2 * _LIMIT - 1)) << s for s in shifts)
    return shifts, off, low, guard


def _check(terms: dict, n: int) -> dict:
    """The terms, after checking that no exponent left its range."""
    _, _, low, guard = _fields(n)
    if reduce(or_, map(low.__add__, terms), 0) & guard:
        raise OverflowError(f"an exponent left [-{_LIMIT}, {_LIMIT})")
    return terms


def _pack(exps, n: int) -> int:
    if len(exps) != n:
        raise ValueError(f"exponent vector {exps!r} does not have {n} entries")
    key = 0
    for e in exps:
        if not -_LIMIT <= index(e) < _LIMIT:
            raise OverflowError(f"exponent {e} outside [-{_LIMIT}, {_LIMIT})")
        key = (key << _W) + e
    return key


def _unpack(key: int, n: int) -> tuple:
    shifts, off, _, _ = _fields(n)
    u = key + off
    return tuple(((u >> s) & _MASK) - _HALF for s in shifts)


@lru_cache(maxsize=4096)
def _union(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(set(a) | set(b), key=_var_key))


@lru_cache(maxsize=4096)
def _layout(old: tuple, new: tuple):
    """How keys over `old` become keys over `new`.  A shift when the old
    variables sit together and in order in `new` (0 for constants); else
    the runs of old fields that sit together and in order in `new`, each
    (old shift, mask, new shift) of its unsigned fields, the offset of the
    kept fields in `new`, and the mask and offset that read the dropped
    fields.  Dropping one field leaves two runs: the fields below it stay,
    and those above it move down by one shift."""
    if not old:
        return 0
    pos = [new.index(v) if v in new else None for v in old]
    if None not in pos and pos == list(range(pos[0], pos[0] + len(old))):
        return _W * (len(new) - 1 - pos[-1])
    old_s, new_s = _fields(len(old))[0], _fields(len(new))[0]
    runs = []  # [first old index, last old index] of each run
    for i, p in enumerate(pos):
        if p is None:
            continue
        if runs and pos[runs[-1][1]] == p - 1 and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    dropped = [old_s[i] for i, p in enumerate(pos) if p is None]
    return (tuple((old_s[j], (1 << _W * (j - i + 1)) - 1, new_s[pos[j]])
                  for i, j in runs),
            sum(_HALF << new_s[p] for p in pos if p is not None),
            sum(_MASK << s for s in dropped), sum(_HALF << s for s in dropped))


def _repack(terms: dict, old: tuple, new: tuple) -> dict:
    """The terms over `old` rekeyed over `new` (the same dict if no key
    moves); raises if a dropped variable occurs."""
    plan = _layout(old, new)
    if type(plan) is int:
        return {k << plan: c for k, c in terms.items()} if plan else terms
    runs, koff, dmask, doff = plan
    off = _fields(len(old))[1]
    out = {}
    for k, c in terms.items():
        u = k + off
        if u & dmask != doff:
            missing = set(old) - set(new)
            raise ValueError(f"cannot drop live variables {missing}")
        out[sum([((u >> s) & m) << t for s, m, t in runs]) - koff] = c
    return out


def _powers(x: Fraction, exps) -> tuple:
    """(d, table): table[e] = x**e * d, an int, for e in exps and for 0,
    with d the lcm of the denominators of those powers.  For x = a/b and
    exponents in [-lo, hi], d = |a|^lo * b^hi: a and b are coprime."""
    a, b = x.numerator, x.denominator
    hi, lo = max(0, *exps), -min(0, *exps)
    if lo and not a:
        raise ZeroDivisionError("zero to a negative power")
    table = {e: (-1 if a < 0 and e % 2 else 1) * abs(a) ** (lo + e)
             * b ** (hi - e) for e in (*exps, 0)}
    return table[0], table


def _scalar(n: int, d: int) -> Scalar:
    """n / d as a stored coefficient."""
    return n if d == 1 else n // d if n % d == 0 else Fraction(n, d)


def _from_terms(vars_: tuple, d: int, terms: dict) -> "MultiPoly":
    """Trusted constructor: `terms` is {packed key over vars_: nonzero int
    numerator} over d > 0, and gcd(d, numerators) is divided out here.  No
    polynomial mutates its dicts, so results may share them."""
    if d > 1:
        g = gcd(d, *terms.values())
        if g > 1:
            d //= g
            terms = {k: n // g for k, n in terms.items()}
    p = object.__new__(MultiPoly)
    p.vars, p._d, p._t = vars_, d, terms
    return p


class MultiPoly:
    """A sparse Laurent polynomial over Q in a fixed tuple of variables.

    Constructed from {exponent tuple: coefficient}; stored as int numerators
    under packed int keys over one reduced denominator `_d` (see the module
    docstring).  Binary operations align the variable tuples of both
    operands (union, sorted), so polynomials in different variable sets mix
    freely.
    """

    __slots__ = ("vars", "_d", "_t")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Scalar] | None = None):
        self.vars = tuple(vars)
        n = len(self.vars)
        t = {}
        if terms:
            for exps, c in terms.items():
                c = exact(c)
                if c:
                    t[_pack(tuple(exps), n)] = c
        self._d, self._t = _integral(t)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = exact(c)
        return _from_terms((), c.denominator, {0: c.numerator} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "MultiPoly":
        return _from_terms((name,), 1, {_pack((power,), 1): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return _from_terms((), 1, {})

    @staticmethod
    def one() -> "MultiPoly":
        return _from_terms((), 1, {0: 1})

    @staticmethod
    def sum(polys: Iterable) -> "MultiPoly":
        """The sum of polynomials or scalars, as `dot` with ones."""
        return MultiPoly.dot((p, _ONE) for p in polys)

    @staticmethod
    def dot(pairs: Iterable) -> "MultiPoly":
        """sum(p * q for p, q in pairs), for polynomials or scalars.

        Equal to the left fold of + over the products, variables included:
        the result is over the union of the input variables, sorted.  The
        products are added as integers over one running common denominator
        (see the module docstring), one pair at a time as it is produced.
        """
        vars_, out, d, moved = (), {}, 1, False
        for p, q in pairs:
            (pv, da, a), (qv, db, b) = _operand(p), _operand(q)
            # a constant (vars ()) fits every layout as it is
            if pv not in (vars_, ()) or qv not in (vars_, ()):
                new = _union(vars_, _union(pv, qv))
                out, a, b = (_repack(out, vars_, new), _repack(a, pv, new),
                             _repack(b, qv, new))
                vars_ = new
            m = da * db
            if d % m:
                f = lcm(d, m) // d
                out = {k: n * f for k, n in out.items()}
                d *= f
            if len(a) >= len(b):  # b is the larger, and ONE in a sum is a
                a, b = b, a
            moved = moved or len(a) > 1 or 0 not in a  # keys of b can move
            get, s = out.get, d // m
            for k1, c1 in a.items():
                c1 *= s
                if not out:  # the first row fills the empty dict
                    out = dict(b) if not k1 and c1 == 1 else {
                        k1 + k2: c1 * c2 for k2, c2 in b.items()}
                    get = out.get
                    continue
                for k2, c2 in b.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        if 0 in out.values():
            out = {k: n for k, n in out.items() if n}
        if moved:
            _check(out, len(vars_))
        return _from_terms(vars_, d, out)

    # -- basic queries ------------------------------------------------------

    def terms(self):
        """The (exponent tuple over self.vars, coefficient) pairs."""
        n, d = len(self.vars), self._d
        return ((_unpack(k, n), _scalar(c, d)) for k, c in self._t.items())

    def is_zero(self) -> bool:
        return not self

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return _scalar(self._t.get(0, 0), self._d)

    def _field(self, name: str):
        """Shift and offset for reading the exponent of `name` from a key."""
        shifts, off, _, _ = _fields(len(self.vars))
        return shifts[self.vars.index(name)], off

    def degree(self, name: str) -> int:
        """Largest exponent of `name` (0 if the variable does not occur)."""
        if name not in self.vars or not self._t:
            return 0
        return max(e for e, _, _, _ in self._exponents(name))

    def _exponents(self, name: str):
        """(exponent of `name`, shift, key, numerator) for every term."""
        s, off = self._field(name)
        return (((((k + off) >> s) & _MASK) - _HALF, s, k, c)
                for k, c in self._t.items())

    # -- variable alignment --------------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self._t, other._t
        union = _union(self.vars, other.vars)
        return (union, _repack(self._t, self.vars, union),
                _repack(other._t, other.vars, union))

    def in_vars(self, new_vars: Iterable[str]) -> "MultiPoly":
        """Re-express this polynomial over the given variable tuple."""
        new_vars = tuple(new_vars)
        return _from_terms(new_vars, self._d,
                           _repack(self._t, self.vars, new_vars))

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
        return MultiPoly.dot(((self, _ONE), (other, _ONE)))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.dot(((self, _MINUS_ONE),))

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return MultiPoly.dot(((self, _ONE), (other, _MINUS_ONE)))

    def __rsub__(self, other):
        return MultiPoly.dot(((other, _ONE), (self, _MINUS_ONE)))

    def __mul__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return MultiPoly.dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """n products by self, each costing the base's terms, not the power's."""
        if n < 0:
            raise ValueError("negative power; use monomial_inverse for monomials")
        return reduce(mul, repeat(self, n), MultiPoly.one())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1, 1) / Fraction(other))
        return self.divexact(self._coerce(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = self._aligned(other)
        return self._d == other._d and a == b

    def __hash__(self):
        # hashed over the live variables, sorted, so that equal polynomials
        # hash equal; the terms are rekeyed only when those are not vars
        vars_, terms = self.vars, self._t
        live = self._live()
        if len(live) < len(vars_) or vars_ != _union(vars_, ()):
            vars_ = tuple(sorted((vars_[i] for i in live), key=_var_key))
            terms = _repack(terms, self.vars, vars_)
        if not vars_:  # a constant equals, so hashes like, its scalar
            return hash(self.constant_value())
        return hash((vars_, self._d, frozenset(terms.items())))

    def __bool__(self):
        return bool(self._t)

    def _live(self) -> list:
        """Indices of the variables that occur with a nonzero exponent."""
        shifts, off, _, _ = _fields(len(self.vars))
        seen = reduce(or_, map(off.__xor__, map(off.__add__, self._t)), 0)
        return [i for i, s in enumerate(shifts) if (seen >> s) & _MASK]

    # -- coefficient extraction ----------------------------------------------

    def coeff(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial with name removed."""
        if name not in self.vars:
            return self if power == 0 else _from_terms(self.vars, 1, {})
        return _from_terms(self.vars, self._d, {
            k - (e << s): c for e, s, k, c in self._exponents(name)
            if e == power})

    def by_powers(self, name: str) -> dict:
        """Decompose into {power: coefficient poly (name zeroed out)}."""
        if name not in self.vars:
            return {0: self} if self._t else {}
        out: dict = {}
        for e, s, k, c in self._exponents(name):
            out.setdefault(e, {})[k - (e << s)] = c
        return {p: _from_terms(self.vars, self._d, t)
                for p, t in sorted(out.items())}

    def part(self, name: str, lo=None, hi=None) -> "MultiPoly":
        """Terms whose exponent of `name` lies in [lo, hi] (None = unbounded)."""
        if name not in self.vars:
            keep = (lo is None or lo <= 0) and (hi is None or hi >= 0)
            return self if keep else _from_terms(self.vars, 1, {})
        return _from_terms(self.vars, self._d, {
            k: c for e, _, k, c in self._exponents(name)
            if (lo is None or e >= lo) and (hi is None or e <= hi)})

    # -- substitution ---------------------------------------------------------

    def subs(self, mapping: Mapping[str, object]) -> "MultiPoly":
        """Substitute polynomials/scalars for variables.

        Negative exponents are only allowed when the substituted value is an
        invertible monomial (scalar times a single power product).  One pass
        over the terms subtracts each substituted field out of the key,
        folds each constant value into the numerator from the table of its
        powers (see `_powers`), and groups the terms by their exponents of
        the other values, so a mapping of constants is one group.  Each
        group is repacked over the kept variables once and costs one product.
        """
        mapping = {k: self._coerce(v) for k, v in mapping.items() if k in self.vars}
        if not mapping:
            return self
        keep = tuple(v for v in self.vars if v not in mapping)
        shifts, off, _, _ = _fields(len(self.vars))
        d, tables, subbed = self._d, [], []  # tables: (shift, {e: power})
        for name, value in mapping.items():
            s = shifts[self.vars.index(name)]
            if value.vars:
                subbed.append((name, s))
                continue
            seen = {(((k + off) >> s) & _MASK) - _HALF for k in self._t} - {0}
            if not seen:
                continue
            x = Fraction(value._t.get(0, 0), value._d)
            if not x and min(seen) < 0:
                raise ValueError(f"cannot substitute 0 for {name} at a negative power")
            dx, table = _powers(x, seen)
            tables.append((s, table))
            d *= dx
        groups: dict = {}
        for k, c in self._t.items():
            u = k + off
            for s, table in tables:
                e = ((u >> s) & _MASK) - _HALF
                c *= table[e]
                k -= e << s
            exps = []
            for _, s in subbed:
                e = ((u >> s) & _MASK) - _HALF
                exps.append(e)
                k -= e << s
            group = groups.setdefault(tuple(exps), {})
            group[k] = group.get(k, 0) + c
        powers: dict = {}  # (name, sign) -> [value^0, value^sign, ...]

        def mono_pow(name, k):
            table = powers.setdefault((name, k > 0), [MultiPoly.one()])
            if len(table) <= abs(k):
                base = mapping[name] if k > 0 else mapping[name].monomial_inverse()
                while len(table) <= abs(k):
                    table.append(table[-1] * base)
            return table[abs(k)]

        def value(exps):  # the product of the group's substituted powers
            pows = [mono_pow(name, k) for (name, _), k in zip(subbed, exps) if k]
            return reduce(mul, pows) if pows else _ONE

        def merged(t):  # a group's nonzero terms, over the kept variables
            if 0 in t.values():
                t = {k: c for k, c in t.items() if c}
            return _from_terms(keep, d, _repack(t, self.vars, keep))

        return MultiPoly.dot((merged(t), value(e)) for e, t in groups.items())

    def monomial_inverse(self) -> "MultiPoly":
        """Inverse of a single-term polynomial (Laurent monomial)."""
        if len(self._t) != 1:
            raise ValueError(f"not a monomial: {self}")
        (k, n), = self._t.items()
        c = Fraction(self._d, n)
        return _from_terms(self.vars, c.denominator, _check(
            {-k: c.numerator}, len(self.vars)))

    def eval(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate fully at rational points; every live variable needs a
        value.  Each power of a value is computed once, as an int over the
        lcm of the denominators of that variable's powers, and the
        numerators are summed as ints over one common denominator."""
        vals = [Fraction(exact(values[v])) if v in values else None
                for v in self.vars]
        shifts, off, _, _ = _fields(len(self.vars))
        den, tables = self._d, []  # (shift, {exponent: scaled power})
        for name, x, s in zip(self.vars, vals, shifts):
            exps = {(((k + off) >> s) & _MASK) - _HALF for k in self._t} - {0}
            if not exps:
                continue
            if x is None:
                raise ValueError(f"no value for variable {name}")
            d, table = _powers(x, exps)
            tables.append((s, table))
            den *= d
        total = 0
        for k, c in self._t.items():
            u = k + off
            for s, table in tables:
                c *= table[((u >> s) & _MASK) - _HALF]
            total += c
        return _scalar(total, den)

    # -- exact division --------------------------------------------------------

    def div_linear(self, name: str, c) -> "MultiPoly":
        """Exact division by (name - c) with c = num/den a rational constant.

        Synthetic division by rows, a row being the terms whose keys agree
        once the field of `name` is zeroed.  A row a_0 + ... + a_m name^m is
        one Horner pass from the top, in integers: B_m = a_m and B_p =
        den^(m-p) * a_p + num * B_(p+1), so B_p / den^(m-p) is the
        quotient's coefficient of name^(p-1), written over den^(top-1) for
        the top exponent `top` of all rows.  Raises ValueError if a row
        leaves a remainder, den^m * a_0 + num * B_1 != 0.
        """
        if not self._t:
            return self
        rows: dict = {}  # key with the field of name zeroed -> {e: numerator}
        if name in self.vars:
            for e, s, k, a in self._exponents(name):
                if e < 0:
                    raise ValueError("div_linear requires nonnegative exponents")
                rows.setdefault(k - (e << s), {})[e] = a
        c = MultiPoly._coerce(c).constant_value()
        if not rows:  # a nonzero polynomial free of name
            raise ValueError(f"division by ({name} - {c}) is not exact")
        num, den = Fraction(c).as_integer_ratio()
        top = max(map(max, rows.values()))
        dens = [den ** i for i in range(top + 1)]
        out = {}
        for base, row in rows.items():
            m, b = max(row), 0
            for p in range(m, 0, -1):
                b = dens[m - p] * row.get(p, 0) + num * b
                if b:
                    out[base + ((p - 1) << s)] = b * dens[top - 1 - m + p]
            if dens[m] * row.get(0, 0) + num * b:
                raise ValueError(f"division by ({name} - {c}) is not exact")
        vars_ = _union(self.vars, ())  # sorted, as every `dot` leaves them
        return _from_terms(vars_, self._d * dens[top - 1],
                           _repack(out, self.vars, vars_))

    def div_monomial(self, name: str, k: int) -> "MultiPoly":
        """Laurent shift: divide by name**k (always exact in Laurent ring)."""
        if name not in self.vars:
            if not self._t:
                return self
            return self * MultiPoly.var(name, -k)
        _pack((-k,), 1)  # so that no field moves by more than it can hold
        shift = k << self._field(name)[0]
        return _from_terms(self.vars, self._d, _check(
            {key - shift: c for key, c in self._t.items()}, len(self.vars)))

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division (general, leading-term elimination) of
        the numerators: (a/da) / (b/db) = (a/b) * (db/da), scaled once."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self / divisor.constant_value()
        if len(divisor._t) == 1:
            return self * divisor.monomial_inverse()
        vars_, a, b = self._aligned(divisor)
        _, _, low, guard = _fields(len(vars_))
        rem = dict(a)
        heap = [-k for k in rem]  # the remainder's keys, largest first
        heapify(heap)
        lead = max(b)  # lex-max exponent of divisor
        lead_c = Fraction(b[lead])
        quot: dict = {}
        budget = 4 * (len(a) + 1) * (len(b) + 1) + 1000
        while heap:
            e = -heappop(heap)
            if e not in rem:  # cancelled since it was pushed
                continue
            budget -= 1
            if budget < 0:
                raise ValueError("polynomial division did not terminate; not exact")
            diff = e - lead
            if (diff + low) & guard:
                raise OverflowError(f"an exponent left [-{_LIMIT}, {_LIMIT})")
            qc = rem[e] / lead_c
            if qc.denominator == 1:  # keep integer coefficients integers
                qc = qc.numerator
            quot[diff] = qc  # diff falls strictly, so each key is new
            for be, bc in b.items():
                key = diff + be
                old = rem.get(key)
                s = (old or 0) - qc * bc
                if s:
                    rem[key] = s
                    if old is None:
                        heappush(heap, -key)
                elif old is not None:
                    del rem[key]
        d, quot = _integral(quot)
        return _from_terms(vars_, d * self._d,
                           {k: n * divisor._d for k, n in quot.items()})

    # -- differentiation ---------------------------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return _from_terms(self.vars, 1, {})
        return _from_terms(self.vars, self._d, _check(
            {k - (1 << s): c * e for e, s, k, c in self._exponents(name) if e},
            len(self.vars)))

    # -- rendering -----------------------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        """Canonical string: graded lexicographic over the variable tuple."""
        if not self._t:
            return "0"
        live = self._live()

        def key(item):
            exps, _ = item
            proj = tuple(exps[i] for i in live)
            return (-sum(proj), tuple(-x for x in proj))

        pieces = []
        for exps, c in sorted(self.terms(), key=key):
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


_ONE, _MINUS_ONE = _from_terms((), 1, {0: 1}), _from_terms((), 1, {0: -1})


def _operand(p):
    """(vars, d, integer numerators) of a polynomial or an exact scalar."""
    if isinstance(p, MultiPoly):
        return p.vars, p._d, p._t
    c = exact(p)
    return (), c.denominator, {0: c.numerator} if c else {}


def lagrange_interpolate(points) -> "MultiPoly":
    """Univariate-style interpolation through (q_value, MultiPoly value) pairs.

    Returns the unique polynomial in q of degree < len(points) (with the
    given polynomial values as coefficients of the other variables) passing
    through all points.  It is built in Newton form: the divided differences
    of the values, then a Horner evaluation in q, one `dot` per step.
    """
    points = list(points)
    xs = [Fraction(x) for x, _ in points]
    coeffs = [MultiPoly._coerce(y) for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            h = 1 / (xs[i] - xs[i - k])
            coeffs[i] = MultiPoly.dot(((coeffs[i], h), (coeffs[i - 1], -h)))
    q = MultiPoly.var("q")
    out = MultiPoly.zero()
    for x, c in zip(reversed(xs), reversed(coeffs)):
        out = MultiPoly.dot(((out, q), (out, -x), (c, _ONE)))
    return out

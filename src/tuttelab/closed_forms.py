"""Closed-form counting formulas, each as an exact evaluator.

Every function returns an exact integer (or Fraction where division is not
known a priori to be exact, though all formulas below do evaluate to
integers on their stated domains).  Arguments outside the stated ranges
raise ValueError.  The formulas are cross-checked against brute-force
enumeration in the test suite.
"""

from __future__ import annotations

from math import comb, factorial


def _exact_div(num: int, den: int) -> int:
    if den == 0:
        raise ValueError("zero denominator")
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{num}/{den} is not an integer")
    return q


def _binom(a: int, k: int) -> int:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k!.

    For k < 0 the symmetric form C(a, a-k) is used when a-k >= 0, else 0.
    Needed at boundary arguments of the bipolar formulas, where e.g.
    C(-1, 0) = 1 and C(-1, -1) = 1 make the counts correct; validated
    against brute-force orientation enumeration."""
    if k < 0:
        if a - k < 0:
            return 0
        k = a - k
    num = 1
    for s in range(k):
        num *= a - s
    return _exact_div(num, factorial(k))


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def odd_double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; empty product (n <= 0) is 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def maps_count(n: int) -> int:
    """Rooted planar maps with n edges: 2 * 3^n C(2n,n) / ((n+1)(n+2))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _exact_div(2 * 3 ** n * comb(2 * n, n), (n + 1) * (n + 2))


def four_valent_count(n: int) -> int:
    """Rooted 4-valent maps with n vertices (n >= 1); same count as rooted
    maps with n edges."""
    if n < 1:
        raise ValueError("a 4-valent map has at least one vertex")
    return maps_count(n)


def blossoming_count(n: int) -> int:
    """Blossoming trees with n inner nodes: 3^n C(2n,n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3 ** n * catalan(n)


def balanced_blossoming_count(n: int) -> int:
    """Balanced blossoming trees with n inner nodes: 2 t_n / (n+2)."""
    return _exact_div(2 * blossoming_count(n), n + 2)


def labelled_tree_count(n: int) -> int:
    """Labelled trees with n edges: 3^n C_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3 ** n * catalan(n)


def quadrangulation_count(n: int) -> int:
    """Rooted quadrangulations with n faces (n >= 1): 2 * 3^n C_n / (n+2)."""
    if n < 1:
        raise ValueError("a quadrangulation has at least one face")
    return _exact_div(2 * labelled_tree_count(n), n + 2)


def nt1_count(n: int) -> int:
    """Near-triangulations of outer degree 1 with 3n+2 edges:
    2 * 4^n (3n)!! / (n!! (n+2)!)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _exact_div(2 * 4 ** n * odd_double_factorial(3 * n),
                      odd_double_factorial(n) * factorial(n + 2))


def spanning_tree_series_coeff(n: int) -> int:
    """Maps with n edges weighted by spanning-tree count:
    C(2n,n) C(2n+2,n+1) / ((n+1)(n+2))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _exact_div(comb(2 * n, n) * comb(2 * n + 2, n + 1),
                      (n + 1) * (n + 2))


def tree_rooted_count(i: int, j: int) -> int:
    """Tree-rooted maps with i+1 vertices and j+1 faces:
    (2i+2j)! / (i!(i+1)!j!(j+1)!)."""
    if i < 0 or j < 0:
        raise ValueError("i and j must be nonnegative")
    return _exact_div(factorial(2 * i + 2 * j),
                      factorial(i) * factorial(i + 1)
                      * factorial(j) * factorial(j + 1))


def shuffle_count(i: int, j: int) -> int:
    """Shuffles of a Dyck word of length 2i with one of length 2j:
    C(2i+2j, 2i) C_i C_j (equals tree_rooted_count(i, j))."""
    if i < 0 or j < 0:
        raise ValueError("i and j must be nonnegative")
    return comb(2 * i + 2 * j, 2 * i) * catalan(i) * catalan(j)


def tree_rooted_tri_count(i: int, d: int) -> int:
    """Tree-rooted near-triangulations with i+1 vertices and root-face
    degree d: d / ((i+1)(4i-d)) * C(3i-d, i) C(4i-d, i), for 1 <= d <= 2i."""
    if i < 1 or not 1 <= d <= 2 * i:
        raise ValueError("need i >= 1 and 1 <= d <= 2i")
    return _exact_div(d * comb(3 * i - d, i) * comb(4 * i - d, i),
                      (i + 1) * (4 * i - d))


def tree_rooted_tri_dual_count(i: int, d: int) -> int:
    """Tree-rooted maps with root-vertex degree d and 2i-d non-root vertices
    of degree 3: d (4i-d-1)! / (i!(i+1)!(2i-d)!)."""
    if i < 1 or not 1 <= d <= 2 * i:
        raise ValueError("need i >= 1 and 1 <= d <= 2i")
    return _exact_div(d * factorial(4 * i - d - 1),
                      factorial(i) * factorial(i + 1) * factorial(2 * i - d))


def bipolar_count(n: int, m: int, i: int = None, j: int = None) -> int:
    """Bipolar orientations of planar maps with n edges and m+1 vertices,
    optionally refined by root-face degree j and root-vertex degree i.

    (n, m):       2/((n-1)n^2) C(n,m-1) C(n,m) C(n,m+1),  1 <= m < n
    (n, m, j):    j(j-1)/((n-1)n^2) C(n,m) C(n,m+1) C(n-j-1, m-j+1),
                  additionally 2 <= j <= m+1
    (n, m, i, j): (i-1)(j-1)/((n-1)n) C(n,m) [C(n-j-1,n-m-2)C(n-i-1,m-2)
                  - C(n-j-1,n-m-1)C(n-i-1,m-1)],
                  additionally n >= 3 and 2 <= i <= n-m+1
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if i is None and j is None:
        return _exact_div(2 * comb(n, m - 1) * comb(n, m) * comb(n, m + 1),
                          (n - 1) * n * n)
    if j is None or not 2 <= j <= m + 1:
        raise ValueError("need 2 <= j <= m+1")
    if i is None:
        return _exact_div(j * (j - 1) * comb(n, m) * comb(n, m + 1)
                          * _binom(n - j - 1, m - j + 1),
                          (n - 1) * n * n)
    if n < 3 or not 2 <= i <= n - m + 1:
        raise ValueError("need n >= 3 and 2 <= i <= n-m+1")
    bracket = (_binom(n - j - 1, n - m - 2) * _binom(n - i - 1, m - 2)
               - _binom(n - j - 1, n - m - 1) * _binom(n - i - 1, m - 1))
    return _exact_div((i - 1) * (j - 1) * comb(n, m) * bracket, (n - 1) * n)


def bipolar_tri_count(m: int, j: int = None, i: int = None) -> int:
    """Bipolar orientations of near-triangulations with m+1 vertices,
    optionally refined by root-face degree j and root-vertex degree i.

    (m):       (3m)! / ((4m^2-1) m!^2 (m+1)!),  m >= 1
    (m, j):    j(j-1)(3m-j-1)! / (m!(m+1)!(m-j+1)!),  2 <= j <= m+1
    (m, j, i): (i-1)(j-1)(2m-j-2)!(3m-i-j-1)! / ((m-1)!m!(m-j+1)!(2m-i-j+1)!)
               * ((2j+i-6)m + i + 3j - j^2 - ij),  m >= 2
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if j is None and i is None:
        return _exact_div(factorial(3 * m),
                          (4 * m * m - 1) * factorial(m) ** 2 * factorial(m + 1))
    if j is None or not 2 <= j <= m + 1:
        raise ValueError("need 2 <= j <= m+1")
    if i is None:
        return _exact_div(j * (j - 1) * factorial(3 * m - j - 1),
                          factorial(m) * factorial(m + 1) * factorial(m - j + 1))
    if m < 2 or i < 2:
        raise ValueError("need m >= 2 and i >= 2")
    if (m, j, i) == (2, 3, 2):
        # Removable singularity: the polynomial factor vanishes identically
        # while (2m-j-2)! poles; the limit value is 1 (confirmed by direct
        # orientation enumeration).
        return 1
    if 3 * m - i - j - 1 < 0 or 2 * m - i - j + 1 < 0 or 2 * m - j - 2 < 0:
        return 0
    num = ((i - 1) * (j - 1) * factorial(2 * m - j - 2)
           * factorial(3 * m - i - j - 1)
           * ((2 * j + i - 6) * m + i + 3 * j - j * j - i * j))
    den = (factorial(m - 1) * factorial(m) * factorial(m - j + 1)
           * factorial(2 * m - i - j + 1))
    return _exact_div(num, den)


_BY_NAME = {
    "maps": (maps_count, 1),
    "four_valent": (four_valent_count, 1),
    "blossoming": (blossoming_count, 1),
    "balanced_blossoming": (balanced_blossoming_count, 1),
    "labelled_trees": (labelled_tree_count, 1),
    "quadrangulations": (quadrangulation_count, 1),
    "nt1": (nt1_count, 1),
    "spanning_tree_series": (spanning_tree_series_coeff, 1),
    "tree_rooted": (tree_rooted_count, 2),
    "shuffles": (shuffle_count, 2),
    "tree_rooted_tri": (tree_rooted_tri_count, 2),
    "tree_rooted_tri_dual": (tree_rooted_tri_dual_count, 2),
    "bipolar": (bipolar_count, None),
    "bipolar_tri": (bipolar_tri_count, None),
    "catalan": (catalan, 1),
}


def closed_form(name: str, *args: int) -> int:
    """Evaluate a named counting formula on integer arguments."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown formula {name!r}")
    fn, arity = _BY_NAME[name]
    if arity is not None and len(args) != arity:
        raise ValueError(f"{name} takes {arity} argument(s)")
    return fn(*args)

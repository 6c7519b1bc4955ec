"""Output checks, run by the parent after each child exits (never timed).

Each check returns one ``(ok, message)`` per operation the child attempted,
so a wrong result and a raised exception both count in ``failed``.  The
references are independent of the code under test wherever one exists:
closed-form counts, specialisations with known values, a second equation
for the same family, the subset expansion of the Potts polynomial, and the
Potts-Tutte relation.  A digest recorded at the seed commit is used only
for TUTTE_NONSEP_TRI, which has no such reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial

import workloads

EXPECTED_VERIFY_ROWS = 118

#: symbolic orders whose value at the drawn point must be a prefix of the
#: numeric expansion
PREFIX_ORDERS = {"POTTS_MAPS": 4, "TUTTE_MAPS": 4, "POTTS_QUASI_TRI": 5,
                 "TUTTE_QUASI_TRI": 5, "TUTTE_NONSEP_TRI": 6,
                 "BIPOLAR_MAPS": 8}

#: fixed point at which series coefficients are evaluated for a digest
DIGEST_POINT = {"x": Fraction(2, 3), "y": Fraction(-3, 5), "q": Fraction(5, 7)}

#: sha256 of ``series_digest_text`` at the seed commit, by (equation, order)
DIGESTS = {
    ("TUTTE_NONSEP_TRI", 9):
        "f47d69117583830d1d88a20cb80e75168f6249b3ab4ea86a23873f40633ac472",
}


def bipartite_count(n: int) -> int:
    """Rooted bipartite maps with n edges, which also count rooted Eulerian
    triangulations with 2n faces: 3 2^(n-1) (2n)! / (n! (n+2)!) (Tutte,
    "A census of planar maps", 1963)."""
    if n == 0:
        return 1
    return 3 * 2 ** (n - 1) * factorial(2 * n) // (factorial(n)
                                                   * factorial(n + 2))


def series_digest_text(series) -> str:
    return "\n".join(f"{n}: {series.coeff(n).eval(DIGEST_POINT)}"
                     for n in range(series.order + 1))


def _digest(series) -> str:
    return hashlib.sha256(series_digest_text(series).encode()).hexdigest()


class Context:
    """Parent-side references for one run, built on first use."""

    def __init__(self, seed):
        self.seed = seed
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def expansion(self, name, order):
        from tuttelab.equations import EquationId, expand
        return self._get(("expand", name, order),
                         lambda: expand(EquationId[name], order))

    def potts_inputs(self):
        """(6-edge maps, sampled maps, tutte indices, oracle indices)."""
        def build():
            from tuttelab.generate import all_maps
            sample, census_idx, sample_idx = \
                workloads.PottsCensus().prepare(self.seed)
            census = all_maps(workloads.CENSUS_EDGES)
            rng = random.Random(self.seed + 2)
            oracle = (sorted(rng.sample(range(len(census)), 20)),
                      sorted(rng.sample(range(len(sample)), 10)))
            return census, sample, (census_idx, sample_idx), oracle
        return self._get("potts", build)

    def numeric_inputs(self):
        return self._get("numeric", lambda: workloads.SeriesNumeric()
                         .prepare(self.seed))


# -- verify_all ---------------------------------------------------------------


def check_verify(exit_code, stdout: bytes):
    try:
        rows = json.loads(stdout)
    except ValueError:
        return [(False, "verify output is not JSON")]
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return [(False, "verify output is not a list of rows")]
    bad = [r.get("case") for r in rows if r.get("pass") is not True]
    if exit_code != 0 or len(rows) != EXPECTED_VERIFY_ROWS or bad:
        return [(False, f"verify: exit {exit_code}, {len(rows)} rows, "
                        f"failing {bad[:3]}")]
    return [(True, "")]


# -- series -------------------------------------------------------------------


def symbolic_reference(name, order, series, ctx):
    """None when the series passes its reference, else a message."""
    from tuttelab import closed_forms as cf
    from tuttelab.poly import MultiPoly
    x, y, w, q, nu = (MultiPoly.var(v) for v in ("x", "y", "w", "q", "nu"))

    def at(n, values):
        return series.coeff(n).subs(values)

    checks = []
    if name == "MAPS_1CAT":
        checks.append(lambda n: at(n, {"y": 1}) == cf.maps_count(n))
    elif name == "POTTS_MAPS":
        checks.append(lambda n: at(n, {"x": 1, "y": 1, "q": 1, "w": 1})
                      == cf.maps_count(n) * nu ** n)
        checks.append(lambda n: at(n, {"x": 1, "y": 1, "nu": 1})
                      .subs({"w": q.monomial_inverse()}) == cf.maps_count(n))
    elif name == "TUTTE_MAPS":
        one = {"x": 1, "y": 1, "w": 1, "z": 1}
        checks.append(lambda n: at(n, {**one, "mu": 1, "nu": 1})
                      == cf.spanning_tree_series_coeff(n))
        checks.append(lambda n: at(n, {**one, "mu": 2, "nu": 2})
                      == 2 ** n * cf.maps_count(n))
    elif name in ("NT", "NQ"):
        # plane trees are both; outer-degree-1 near-triangulations and
        # quadrangulations have closed forms
        checks.append(lambda n: series.coeff(n).coeff("y", 2 * n)
                      == cf.catalan(n))
        if name == "NT":
            checks.append(lambda n: n % 3 != 2 or series.coeff(n).coeff(
                "y", 1) == cf.nt1_count(n // 3))
        else:
            checks.append(lambda n: n % 2 or n == 0 or series.coeff(n).coeff(
                "y", 4) == cf.quadrangulation_count(n // 2))
    elif name == "BIP":
        checks.append(lambda n: at(n, {"y": 1}) == bipartite_count(n))
    elif name == "EULER_NT":
        checks.append(lambda n: series.coeff(n).coeff("y", 1)
                      == (bipartite_count(n) if n else 0))
    elif name in ("POTTS_QUASI_TRI", "TUTTE_QUASI_TRI"):
        # the x = 0 slice weighs near-triangulations: compare with NT
        nt = ctx.expansion("NT", order)
        if name == "POTTS_QUASI_TRI":
            values, scale = {"x": 0, "q": 1, "nu": 1, "z": 1}, 1
        else:
            values, scale = {"x": 0, "mu": 2, "nu": 2, "z": 1}, 2
        checks.append(lambda n: at(n, values) == scale ** n * nt.coeff(n))
    elif name == "BIPOLAR_MAPS":
        checks.append(lambda n: at(n, {"x": 1, "y": 1})
                      == bipolar_maps_coeff(n, w))
    elif name == "BIPOLAR_TRI":
        checks.append(lambda n: at(n, {"x": 1}) == sum(
            (cf.bipolar_tri_count((n + j) // 2, j) * y ** j
             for j in range(2, n + 3) if (n + j) % 2 == 0
             and j <= (n + j) // 2 + 1), MultiPoly.zero()))
    else:
        want = DIGESTS.get((name, order))
        if want is None:
            return f"no reference for {name} at order {order}"
        got = _digest(series)
        return None if got == want else f"digest {got[:12]} != {want[:12]}"
    for check in checks:
        for n in range(order + 1):
            if not check(n):
                return f"coefficient {n} fails its reference"
    return None


def bipolar_maps_coeff(n, w):
    """Bipolar orientations of n-edge maps by vertex count: the t^n
    coefficient of BIPOLAR_MAPS at x = y = 1, in w (R. Baxter's formula)."""
    from tuttelab import closed_forms as cf
    from tuttelab.poly import MultiPoly
    if n < 2:
        return MultiPoly.zero() + (w if n == 1 else 0)
    return sum((cf.bipolar_count(n, m) * w ** m for m in range(1, n)),
               MultiPoly.zero())


def check_series(workload, outputs, ctx):
    numeric = workload == "series_numeric"
    inputs = ctx.numeric_inputs() if numeric else None
    mix = workloads.NUMERIC_MIX if numeric else workloads.SYMBOLIC_MIX
    if outputs is None or len(outputs) != len(mix):
        return [(False, "missing outputs")] * len(mix)
    out = []
    for i, ((name, order), (label, series, err)) in enumerate(zip(mix, outputs)):
        if err is not None:
            out.append((False, f"{label}: raised {err}"))
            continue
        if numeric:
            msg = numeric_reference(name, order, inputs[i][2], series, ctx)
        else:
            msg = symbolic_reference(name, order, series, ctx)
        out.append((msg is None, f"{label}: {msg}"))
    return out


def numeric_reference(name, order, point, series, ctx):
    """The symbolic prefix, evaluated at the point, must match; BIPOLAR_MAPS
    is also checked to full order against the bipolar-orientation formula."""
    from tuttelab.poly import MultiPoly
    k = PREFIX_ORDERS[name]
    sym = ctx.expansion(name, k)
    for n in range(min(k, order) + 1):
        if sym.coeff(n).subs(point) != series.coeff(n):
            return f"coefficient {n} differs from the symbolic prefix"
    if name == "BIPOLAR_MAPS":
        w = MultiPoly.const(point["w"])
        for n in range(order + 1):
            if series.coeff(n).subs({"x": 1, "y": 1}) != bipolar_maps_coeff(n, w):
                return f"coefficient {n} fails the bipolar count"
    return None


# -- potts_census ---------------------------------------------------------------


def check_potts(outputs, ctx):
    from tuttelab.poly import MultiPoly
    from tuttelab.potts import potts_subset_oracle
    census_maps, sample_maps, (census_idx, sample_idx), oracle = \
        ctx.potts_inputs()
    n_ops = len(census_maps) + len(sample_maps) + len(census_idx) + len(sample_idx)
    if outputs is None:
        return [(False, "missing outputs")] * n_ops
    Q, NU = MultiPoly.var("q"), MultiPoly.var("nu")
    identities = {}

    def potts_ok(m, p):
        # P(1, nu) = nu^e and P(q, 1) = q^v; equal results are shared
        # objects, so each distinct one is checked once per (e, v)
        key = (id(p), m.n_edges, m.n_vertices)
        if key not in identities:
            identities[key] = (p.subs({"q": 1}) == NU ** m.n_edges
                               and p.subs({"nu": 1}) == Q ** m.n_vertices)
        return identities[key]

    out = []
    parts = (("census", census_maps, outputs.get("census"), oracle[0]),
             ("sample", sample_maps, outputs.get("sample"), oracle[1]))
    for part, maps, results, oracle_idx in parts:
        if results is None or len(results) != len(maps):
            out += [(False, f"{part}: wrong result count")] * len(maps)
            continue
        base = len(out)
        for i, (m, (p, err)) in enumerate(zip(maps, results)):
            if err is not None:
                out.append((False, f"{part} {i}: raised {err}"))
            elif not potts_ok(m, p):
                out.append((False, f"{part} {i}: P(1,nu) or P(q,1) wrong"))
            else:
                out.append((True, ""))
        for i in oracle_idx:
            p = results[i][0]
            if p is not None and p != potts_subset_oracle(maps[i]):
                out[base + i] = (False, f"{part} {i}: differs from the "
                                        "subset expansion")
    # T is checked against the subset expansion of P, computed here, so a
    # wrong or missing potts result does not decide a tutte check
    subjects = ([census_maps[i] for i in census_idx]
                + [sample_maps[i] for i in sample_idx])
    tuttes = outputs.get("tutte") or []
    if len(tuttes) != len(subjects):
        return out + [(False, "tutte: wrong result count")] * len(subjects)
    rng = random.Random(ctx.seed + 3)
    for m, (t, err) in zip(subjects, tuttes):
        if err is not None:
            out.append((False, f"tutte raised {err}"))
            continue
        p = potts_subset_oracle(m)
        ok = True
        for _ in range(2):
            mu, nu = (workloads.draw_point(rng, ("mu", "nu"))).values()
            ok = ok and (p.eval({"q": (mu - 1) * (nu - 1), "nu": nu})
                         == (mu - 1) * (nu - 1) ** m.n_vertices
                         * t.eval({"mu": mu, "nu": nu}))
        out.append((ok, "" if ok else "tutte: P != (mu-1)(nu-1)^v T"))
    return out


def check(workload, exit_code, stdout, outputs, ctx):
    """[(ok, message)] for each operation of one child."""
    if workload == "verify_all":
        return check_verify(exit_code, stdout)
    if workload == "potts_census":
        verdicts = check_potts(outputs, ctx)
    else:
        verdicts = check_series(workload, outputs, ctx)
    if exit_code != 0:
        verdicts = [(False, f"child exit {exit_code}")] * len(verdicts)
    return verdicts

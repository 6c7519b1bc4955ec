"""Deterministic verification suites: every cross-check in the package,
aggregated into a pass/fail report.

Each case compares two independent derivation paths (closed formula vs
brute force, equation iteration vs generation, bijection round trips,
differential systems vs series iteration) with exact arithmetic.  The
report is a list of (suite, case, expected, got, pass) rows in a fixed
order, so its rendering is byte-deterministic.

A suite is a generator that yields its rows in report order.  A row is
(case, expected, got), which passes when the two print the same, or
(case, ok) for a case that passes or fails, so adding a row is adding one
`yield`.  SUITES wraps each suite's rows in CaseResults.  The kernels and
algebraic suites name a row for each check function of `tuttelab.kernels`
and `tuttelab.algebraic`.

Each cross-check is written once.  The bijection round trips are
shared with the `bijection roundtrip` command; the cvs one inverts each
tree by its closure.  The brute-force work that two suites read is
memoised, so it runs once per process: the four closed-formula vs
brute-force checks (closed_forms and kernels) and the brute-force series
of MAPS_1CAT to t^6 (counts reads the number of maps of each size off it,
equations compares expand with it), whose 5- and 6-edge maps come from
one pass and are never held.  The bipolar maps and spanning-tree series
checks, like the bijections suite's Ising identity, read rows of
brute_force_gf; the other closed-formula checks keep their own
enumerator, and each says why.

`run` uses two processes.  One worker process runs closed_forms, kernels,
desystems and bijections (WORKER_SUITES) while the calling process runs
algebraic, then counts, potts and equations; the rows are merged in the
order of the names.  The split follows the memos: the suites that share a
memo sit on the same side, so each memo is still computed once.  The
generated lists that both sides hold are those of all_maps with at most
4 edges, of bipartite_maps with at most 3 and of near_angulations(e, 3)
with at most 5.  bipartite_maps(4) and near_angulations(6, 3) are built on
both sides but held only by the worker: the calling side streams them.
algebraic builds no generated list and fills no memo of verify, potts or
desystems, so it may run on either side.  It runs on the calling side,
whose half is the shorter, and first there, so that its short-lived peak
comes before that process holds any generated list.  A run whose suites
all sit on one side starts no worker.

The worker is a bare os.fork, after stdout and stderr are flushed: it
inherits the imported modules and memos, runs its suites, writes its rows
(or its exception and traceback text) to one pipe with pickle and leaves
through os._exit.  The calling process runs its own suites, then reads the
pipe to EOF and reaps the worker, also when its own suites raise.  A worker
exception is raised again in the calling process with its type and message;
a worker that ends without a result raises RuntimeError.  Where os.fork does
not exist, every suite runs in the calling process.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import pickle
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, partial

from tuttelab import algebraic, kernels
from tuttelab import closed_forms as cf
from tuttelab.bijections import (BijectionError, _distances,
                                 canonical_edges, cvs_backward, cvs_forward,
                                 ising_erase, ising_series_identity,
                                 ising_subdivide, mullin_decode,
                                 mullin_decompose, mullin_encode, phi_bar,
                                 phi_close, psi_open, tprime_degrees,
                                 tree_root_key, unbalanced_join,
                                 unbalanced_split)
from tuttelab.desystems import check_de_maps, check_de_tri, check_tutte_ode
from tuttelab.equations import EquationId, brute_force_gf, expand
from tuttelab.generate import (all_bipolar_orientations, all_maps,
                               all_maps_oracle, all_spanning_trees,
                               four_valent, near_angulations, quadrangulations)
from tuttelab.maps import MapError
from tuttelab.poly import MultiPoly
from tuttelab.potts import (potts, potts_by_interpolation, potts_from_tutte,
                            potts_subset_oracle)
from tuttelab.trees import BlossomingTree, DyckShuffle


class CaseResult:
    __slots__ = ("suite", "case", "expected", "got", "ok")

    def __init__(self, suite, case, expected, got):
        self.suite = suite
        self.case = case
        self.expected = str(expected)
        self.got = str(got)
        self.ok = self.expected == self.got

    def row(self):
        return {"suite": self.suite, "case": self.case,
                "expected": self.expected, "got": self.got,
                "pass": self.ok}


# -- bijection round trips ----------------------------------------------------
# Each runs over the objects of one size and returns (number of objects,
# first counterexample or None).


def roundtrip_psi(n):
    """phi(psi(m)) = m on the 4-valent maps with n vertices."""
    maps = four_valent(n)
    bad = next((m for m in maps if phi_close(psi_open(m)) != m), None)
    return len(maps), bad and f"4-valent map {bad.to_json()}"


def roundtrip_cvs(n):
    """cvs_backward inverts cvs_forward on the quadrangulations with n faces.
    cvs_forward runs once on each pointed quadrangulation and must apply at
    exactly the pointed vertices nearer the origin of the root edge than
    its end (those are counted); the tree pointed at the root vertex must
    be well labelled.  The closure of each tree must give back the
    quadrangulation, by ==, and its pointing, compared through canonical
    labels because the closure numbers the darts its own way.  A closure
    that raises, or builds no planar map, is a counterexample."""
    checked, bad = 0, None
    for q in quadrangulations(n):
        trees = {}
        for v0 in range(q.n_vertices):
            try:
                trees[v0] = cvs_forward(q, v0)
            except BijectionError:
                pass
        checked += len(trees)
        if bad is None:
            bad = _cvs_counterexample(q, trees)
    return checked, bad


def _pointing(m, v0, label):
    """The least canonical label (label = m.bfs_labels()) of a dart at v0,
    which names the pointed vertex however the darts of m are numbered."""
    return min(label[d] for d in m.vertices[v0])


def _cvs_counterexample(q, trees):
    """What is wrong with the trees {v0: tree} that cvs_forward drew on the
    quadrangulation q, or None."""
    u, w = q.vertex_of[q.root], q.vertex_of[q.alpha[q.root]]
    du, dw = _distances(q, u), _distances(q, w)
    nearer = [v for v in range(q.n_vertices) if du[v] < dw[v]]
    if list(trees) != nearer:
        return (f"quadrangulation {q.to_json()}, trees at {list(trees)},"
                f" not at {nearer}")
    if not trees[u].is_valid(well=True):
        return f"quadrangulation {q.to_json()}, root tree not well labelled"
    label = q.bfs_labels()
    for v0, tree in trees.items():
        try:
            m, v = cvs_backward(tree)
            ok = m == q and (_pointing(m, v, m.bfs_labels())
                             == _pointing(q, v0, label))
        except (BijectionError, MapError):  # no closure, or no planar one
            ok = False
        if not ok:
            return f"quadrangulation {q.to_json()}, v0={v0}"
    return None


def roundtrip_mullin(n):
    """Dyck-shuffle decoding inverts encoding on the tree-rooted maps with n
    edges."""
    checked, bad = 0, None
    for m in all_maps(n):
        edges = canonical_edges(m)  # once for all the trees of m
        for tr in [()] if m.is_atomic else all_spanning_trees(m):
            checked += 1
            w = mullin_encode(m, tr)
            m2, tr2 = mullin_decode(w)
            if bad is None and (tree_root_key(m2, tr2)
                                != tree_root_key(m, tr, edges)
                                or mullin_encode(m2, tr2) != w):
                bad = f"map {m.to_json()}, tree {tr}"
    return checked, bad


def roundtrip_ising(n):
    """Subdividing the edges of a 2-coloured map with n edges gives a
    bipartite map, and erasing the square vertices gives the map back."""
    checked, bad = 0, None
    for m in all_maps(n):
        vo = m.vertex_of
        edges = m.edges()
        for col in itertools.product((0, 1), repeat=m.n_vertices):
            base = [1 if col[vo[d1]] == col[vo[d2]] else 0
                    for d1, d2 in edges]
            for extra in itertools.product((0, 2), repeat=len(edges)):
                counts = [b + e for b, e in zip(base, extra)]
                checked += 1
                m2, _, squares = ising_subdivide(m, col, counts)
                if bad is None and not (m2.is_bipartite()
                                        and ising_erase(m2, squares) == m):
                    bad = (f"map {m.to_json()}, colouring {col},"
                           f" counts {counts}")
    return checked, bad


def ising_identity(order):
    """Both sides of the bipartite series identity agree to t^order."""
    lhs, rhs = ising_series_identity(order)
    return 1, None if lhs == rhs else "series identity mismatch"


ROUNDTRIPS = {
    "psi": roundtrip_psi,
    "cvs": roundtrip_cvs,
    "mullin": roundtrip_mullin,
    "ising": roundtrip_ising,
}


# -- closed formulas vs brute force -------------------------------------------
# The closed_forms and kernels suites both report these, hence the memo.


@cache
def bipolar_formula_vs_brute_force() -> bool:
    """Bipolar orientations of maps with n <= 4 edges and m+1 vertices: the
    whole BIPOLAR_MAPS brute-force series at x = y = 1, as a polynomial in t
    and w, is t w (the link) plus bipolar_count(n, m) t^n w^m."""
    brute = brute_force_gf(EquationId.BIPOLAR_MAPS, 4)
    table = {(n, m): cf.bipolar_count(n, m) for n in range(2, 5)
             for m in range(1, n)}
    return (brute.as_poly().subs({"x": 1, "y": 1})
            == MultiPoly(("t", "w"), {(1, 1): 1, **table}))


@cache
def bipolar_tri_formula_vs_brute_force() -> bool:
    """Sum of bipolar orientations over near-triangulations with m+1
    vertices, m <= 3, in one pass over the maps.  Maps with more than 7
    edges all have outer degree 1 (a root loop) and hence no bipolar
    orientation, so the 7-edge generation cap is exhaustive.  It sums here
    rather than reading the BIPOLAR_TRI brute-force series: the case m = 3
    needs 4 inner faces, over the cap of the non-separable
    near-triangulations."""
    got = Counter()
    for e in range(1, 8):
        for mm in near_angulations(e, 3):
            if mm.n_vertices <= 4:
                got[mm.n_vertices - 1] += len(all_bipolar_orientations(mm))
    return got == Counter({m: cf.bipolar_tri_count(m) for m in range(1, 4)})


@cache
def tree_rooted_formula_vs_brute_force() -> bool:
    """Spanning trees of maps with i+1 vertices and j+1 faces, i+j <= 4, in
    one pass over the maps.  They are enumerated by all_spanning_trees
    rather than read off the TUTTE_MAPS brute-force series, which reads
    `tutte`, the subset walk that the Potts checks already share; this and
    its near-triangulation twin are the only refined checks of that second
    enumerator."""
    got = Counter()
    for n in range(1, 5):
        for mm in all_maps(n):
            got[mm.n_vertices - 1, mm.n_faces - 1] += len(all_spanning_trees(mm))
    return got == Counter({(i, n - i): cf.tree_rooted_count(i, n - i)
                           for n in range(1, 5) for i in range(n + 1)})


@cache
def tree_rooted_tri_formula_vs_brute_force() -> bool:
    """Spanning trees of near-triangulations with i+1 vertices, i <= 3, by
    root-face degree d, in one pass over the maps; such a map carries 3i-d
    edges.  The only case beyond the 7-edge generation cap is
    (i, d) = (3, 1); a near-triangulation of outer degree 1 is a root loop
    drawn around one of outer degree 2 with the same spanning trees, so that
    case reduces to (3, 2).  Like tree_rooted_formula_vs_brute_force, it
    checks all_spanning_trees."""
    got = Counter()
    for e in range(1, 8):
        for mm in near_angulations(e, 3):
            if mm.n_vertices <= 4:
                got[mm.n_vertices - 1, mm.root_face_degree] += len(
                    all_spanning_trees(mm))
    got[3, 1] = got[3, 2]
    return got == Counter({(i, d): cf.tree_rooted_tri_count(i, d)
                           for i in range(1, 4) for d in range(1, 2 * i + 1)})


# -- general maps by brute force ----------------------------------------------
# The counts and equations suites both read this series, hence the memo.

MAPS_ORDER = 6


@cache
def maps_brute_force_gf():
    """brute_force_gf(MAPS_1CAT, MAPS_ORDER): the maps with n edges summed
    as y^(root face degree), for n up to the order, whose maps are
    streamed."""
    return brute_force_gf(EquationId.MAPS_1CAT, MAPS_ORDER)


# -- suites --------------------------------------------------------------------
# Each suite is a generator of rows in report order: (case, expected, got),
# or (case, ok) for a case that passes or fails.


def suite_counts():
    maps = maps_brute_force_gf()
    for n in range(MAPS_ORDER + 1):
        want = cf.maps_count(n)
        yield f"maps({n}) generator", want, maps.coeff(n).eval({"y": 1})
        if n <= 4:
            yield f"maps({n}) oracle", want, len(all_maps_oracle(n))


def suite_potts():
    for n in range(5):
        yield f"triple equivalence, {n} edges", all(
            potts(m) == potts_subset_oracle(m) == potts_by_interpolation(m)
            == potts_from_tutte(m) for m in all_maps(n))


# expand vs brute-force caps: symbolic coefficients throughout
_EQ_CAPS = (
    ("MAPS_1CAT", MAPS_ORDER),
    ("NT", 6),
    ("NQ", 5),
    ("BIP", 5),
    ("EULER_NT", 2),
    ("POTTS_MAPS", 4),
    ("TUTTE_MAPS", 4),
    ("TUTTE_NONSEP_TRI", 3),
    ("POTTS_QUASI_TRI", 5),
    ("TUTTE_QUASI_TRI", 5),
    ("BIPOLAR_MAPS", 5),
    ("BIPOLAR_TRI", 3),
)


def suite_equations():
    for name, cap in _EQ_CAPS:
        eq = EquationId[name]
        lhs = expand(eq, cap)
        if name.endswith("QUASI_TRI"):
            lhs = lhs.subs({"x": 0})
        brute = (maps_brute_force_gf() if eq is EquationId.MAPS_1CAT
                 else brute_force_gf(eq, cap))
        yield f"{name} vs brute force (order {cap})", lhs == brute
    lo = expand(EquationId.MAPS_1CAT, 4)
    hi = expand(EquationId.MAPS_1CAT, 8)
    yield "prefix stability (MAPS_1CAT 4 vs 8)", all(
        lo.coeff(k) == hi.coeff(k) for k in range(5))


def suite_closed_forms():
    yield "maps(2)", 9, cf.maps_count(2)
    yield "tree_rooted(1,1)", 6, cf.tree_rooted_count(1, 1)
    yield ("bipolar maps formulas, <= 4 edges",
           bipolar_formula_vs_brute_force())
    yield ("bipolar near-triangulations, m <= 3",
           bipolar_tri_formula_vs_brute_force())
    yield "tree-rooted maps, i+j <= 4", tree_rooted_formula_vs_brute_force()
    yield ("tree-rooted near-triangulations, i <= 3",
           tree_rooted_tri_formula_vs_brute_force())
    nt = brute_force_gf(EquationId.NT, 5)
    for n in range(2):
        yield (f"outer-degree-1 near-triangulations, n={n}", cf.nt1_count(n),
               nt.coeff(3 * n + 2).coeff("y", 1).constant_value())
    # T_M(1, 1) counts the spanning trees of M
    trees = brute_force_gf(EquationId.TUTTE_MAPS, 3,
                           {"mu": 1, "nu": 1, "w": 1, "z": 1})
    for n in range(4):
        yield (f"spanning-tree series coefficient t^{n}",
               cf.spanning_tree_series_coeff(n),
               trees.coeff(n).eval({"x": 1, "y": 1}))
    for n in range(1, 5):
        yield (f"four_valent({n}) generator", cf.four_valent_count(n),
               len(four_valent(n)))
    for n in range(5):
        yield (f"shuffle count = tree-rooted count, i+j={n}",
               sum(cf.shuffle_count(i, n - i) for i in range(n + 1)),
               sum(cf.tree_rooted_count(i, n - i) for i in range(n + 1)))


def suite_kernels():
    yield "bipolar six_pair_invariance", kernels.kernel_six_pair_invariance()
    yield "bipolar trinomial_expansion", kernels.trinomial_expansion_check()
    yield ("bipolar bipolar_tri_positive_part",
           kernels.bipolar_tri_positive_part_check())
    yield "bipolar gbt_closed_form", kernels.gbt_closed_form_check()
    yield ("bipolar bipolar_maps_nonneg_part",
           kernels.bipolar_maps_nonneg_part_check())
    yield ("bipolar bipolar_formula_vs_brute_force",
           bipolar_formula_vs_brute_force())
    yield ("bipolar bipolar_tri_formula_vs_brute_force",
           bipolar_tri_formula_vs_brute_force())
    yield "tree_rooted x_of_u_inverts", kernels.x_of_u_inverts(6)
    yield "tree_rooted maps_extraction", kernels.tree_rooted_extraction_check()
    yield ("tree_rooted tri_extraction",
           kernels.tree_rooted_tri_extraction_check())
    yield "tree_rooted lagrange_V", kernels.lagrange_V_spot_checks()
    yield "tree_rooted lagrange_U", kernels.lagrange_U_spot_checks()
    yield "tree_rooted tri_q0_closed_form", kernels.tri_q0_closed_form()
    yield ("tree_rooted formula_vs_brute_force",
           tree_rooted_formula_vs_brute_force())
    yield ("tree_rooted tri_formula_vs_brute_force",
           tree_rooted_tri_formula_vs_brute_force())


def suite_algebraic():
    yield "maps_quadratic", algebraic.check_maps_quadratic()
    yield "blossoming_system", algebraic.check_blossoming_system()
    yield "nt1_cubic", algebraic.check_nt1_cubic()
    yield "nt1_parametrisation", algebraic.check_nt1_parametrisation()
    yield "ising_parametrisation", algebraic.check_ising_parametrisation()
    yield ("three_colour_parametrisation",
           algebraic.check_three_colour_parametrisation())
    yield ("tutte_potts_change_of_variables",
           algebraic.check_tutte_potts_change_of_variables())
    yield ("potts_nu1_reduces_to_maps",
           algebraic.check_potts_nu1_reduces_to_maps())


def suite_desystems():
    for q, nu, w in ((2, 2, 1), (3, 2, 1), (Fraction(5, 2), 3, 1)):
        yield (f"maps system reconstructs M(1,1) at (q,nu,w)=({q},{nu},{w})",
               check_de_maps(Fraction(q), Fraction(nu), Fraction(w), 6))
    for q in (2, 3):
        yield (f"triangulation system T2 at q={q}, order 20",
               check_de_tri(Fraction(q), 20))
        yield (f"Tutte ODE residual at q={q}, order 20",
               check_tutte_ode(Fraction(q), 20))


def suite_bijections():
    """One pass walks the blossoming trees with 1-3 nodes: one that phi_close
    closes must reopen by psi_open (else its size's count reads -1 for good),
    any other must round-trip through unbalanced_split and unbalanced_join,
    and each gives phi_bar its two images."""
    for n in range(1, 5):
        yield (f"phi(psi(m)) = m, 4-valent, {n} vertices",
               roundtrip_psi(n)[1] is None)
    balanced, images, split_ok = [], [], True
    for n in range(1, 4):
        bal, seen = 0, set()
        for t in BlossomingTree.all_trees(n):
            try:
                m = phi_close(t)
            except BijectionError:
                if unbalanced_join(*unbalanced_split(t)) != t:
                    split_ok = False
            else:
                bal = -1 if bal < 0 or psi_open(m) != t else bal + 1
            for s in ("+", "-"):
                cm, fi = phi_bar(t, s)
                seen.add((cm.code, fi))
        balanced.append((f"balanced trees with {n} nodes (psi(phi)=id)",
                         cf.balanced_blossoming_count(n), bal))
        images.append((f"phi_bar image size, {n} nodes",
                       2 * cf.blossoming_count(n), len(seen)))
    yield from balanced
    yield from images
    for n in range(1, 5):
        yield (f"(n+2)m_n = 2t_n at n={n}", 2 * cf.blossoming_count(n),
               sum(m.n_faces for m in four_valent(n)))
    yield "unbalanced split/join round trips, <= 3 nodes", split_ok

    for n in range(1, 5):
        cnt, bad = roundtrip_cvs(n)
        yield f"cvs round trips, {n} faces", bad is None
        yield f"3^n C_n = (n+2)q_n/2 at n={n}", cf.labelled_tree_count(n), cnt

    for n in range(5):
        cnt, bad = roundtrip_mullin(n)
        yield f"mullin round trips, {n} edges", bad is None
        yield (f"tree-rooted maps with {n} edges",
               sum(cf.shuffle_count(i, n - i) for i in range(n + 1)), cnt)
    m, tr = mullin_decode(DyckShuffle("bbaaBBAbBA"))
    yield "fig-word re-encodes", "bbaaBBAbBA", mullin_encode(m, tr).word
    yield "decomposition degree multisets, <= 3 edges", all(
        tprime_degrees(mullin_decompose(m, tr)[1]) == m.vertex_degrees()
        for n in range(1, 4) for m in all_maps(n)
        for tr in all_spanning_trees(m))

    yield "subdivide/erase round trips, <= 3 edges", all(
        roundtrip_ising(n)[1] is None for n in range(1, 4))
    yield "bipartite series identity to t^4", ising_identity(4)[1] is None


def _results(suite, rows):
    """The CaseResults of the rows that the generator function `rows`
    yields, in order."""
    out = []
    for case, *values in rows():
        if len(values) == 1:  # (case, ok)
            values = (True, bool(values[0]))
        out.append(CaseResult(suite, case, *values))
    return out


#: Each value runs its suite and returns its list of CaseResults.
SUITES = {name: partial(_results, name, rows) for name, rows in (
    ("counts", suite_counts),
    ("potts", suite_potts),
    ("equations", suite_equations),
    ("closed_forms", suite_closed_forms),
    ("kernels", suite_kernels),
    ("algebraic", suite_algebraic),
    ("desystems", suite_desystems),
    ("bijections", suite_bijections),
)}


#: The suites that `run` hands to its worker process, whose half takes
#: longer.  Suites that share a memo must sit on the same side of this set,
#: or the memo is computed in both processes.  algebraic shares nothing and
#: holds no generated list, so it runs on the shorter, calling side, first.
WORKER_SUITES = frozenset({"closed_forms", "kernels", "desystems",
                           "bijections"})


def _run_suites(names):
    """{name: rows} for the named suites, run in this process."""
    return {name: SUITES[name]() for name in names}


def _worker(remote, read_fd, write_fd):
    """The forked worker: run the remote suites, write (True, rows) or
    (False, (exception, traceback text)) to the pipe with pickle, and leave
    through os._exit, with status 0 once the result is written and 1
    otherwise.  It never returns, so it runs none of the calling process's
    teardown and never flushes the stdio buffers it inherited."""
    status = 1
    try:
        os.close(read_fd)
        try:
            result = True, _run_suites(remote)
        except BaseException as err:  # raised again by the calling process
            import traceback  # only a failed worker reads it
            result = False, (err, traceback.format_exc())
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_split(remote, local):
    """{name: rows} for the suites of both lists: a forked worker runs the
    remote ones while this process runs the local ones.  The worker is
    drained and reaped even when a local suite raises."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # text written before the fork is written once
            stream.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _worker(remote, read_fd, write_fd)  # never returns
    os.close(write_fd)
    try:
        rows = _run_suites(local)
    finally:
        try:
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
    try:
        ok, value = pickle.loads(data)
    except Exception as err:
        raise RuntimeError(
            "the verify worker process ended without a result (exit status"
            f" {os.waitstatus_to_exitcode(status)})") from err
    if not ok:
        error, trace = value
        raise error from RuntimeError(
            f"in the verify worker process:\n{trace}")
    rows.update(value)
    return rows


def run(names=None):
    """Run the named suites (all by default, in catalog order) and return
    their rows in the order of the names.  'all' anywhere in the names means
    every suite once; a name given twice repeats its rows, computed once.

    When the names fall on both sides of WORKER_SUITES, a worker forked from
    this process runs the worker-side suites while this process runs the
    rest, algebraic first.  Without os.fork, this process runs them all."""
    for name in names or ():
        if name != "all" and name not in SUITES:
            raise KeyError(f"unknown verification suite {name!r}")
    if names is None or "all" in names:
        names = list(SUITES)
    unique = list(dict.fromkeys(names))
    remote = [name for name in unique if name in WORKER_SUITES]
    local = [name for name in unique if name not in WORKER_SUITES]
    if remote and local and hasattr(os, "fork"):
        # algebraic first: its peak comes before the generated lists are held
        local.sort(key="algebraic".__ne__)
        rows = _run_split(remote, local)
    else:
        rows = _run_suites(unique)
    return [r for name in names for r in rows[name]]


def all_pass(results) -> bool:
    return all(r.ok for r in results)


def format_report(results, fmt: str = "plain") -> str:
    """Render a result list as plain text, JSON or CSV (deterministic)."""
    if fmt == "json":
        return json.dumps([r.row() for r in results], indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "case", "expected", "got", "pass"])
        for r in results:
            writer.writerow([r.suite, r.case, r.expected, r.got,
                             "pass" if r.ok else "FAIL"])
        return buf.getvalue()
    if fmt != "plain":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        detail = "" if r.expected == "True" and r.got in ("True", "False") \
            else f" (expected {r.expected}, got {r.got})"
        lines.append(f"[{status}] {r.suite}: {r.case}{detail}")
    n_ok = sum(1 for r in results if r.ok)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

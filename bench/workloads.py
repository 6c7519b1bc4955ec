"""The four benchmark workloads: seeded inputs and the operation a child runs.

Every workload is a closed loop with one caller: each operation starts when
the previous one returns.  ``prepare`` runs during the child's set-up (it
does the imports and builds the seeded inputs); ``run`` is the timed part.
Nothing here imports tuttelab at module import time, so those imports are
counted as set-up.

Each operation's result is recorded as ``(value, error)`` (the series
workloads add a label in front); an operation that raises is recorded with
its error instead of stopping the workload.  ``verify_all`` is the
exception: its single operation is the CLI command, whose output is the
process's standard output and exit code.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import nullcontext
from fractions import Fraction

#: (equation, order) expanded with every parameter symbolic, above the
#: verify caps.
SYMBOLIC_MIX = (
    ("POTTS_MAPS", 5),
    ("POTTS_QUASI_TRI", 8),
    ("MAPS_1CAT", 16),
    ("TUTTE_MAPS", 5),
    ("TUTTE_NONSEP_TRI", 9),
    ("NT", 24),
    ("BIPOLAR_MAPS", 12),
    ("TUTTE_QUASI_TRI", 8),
    ("BIP", 12),
    ("NQ", 12),
    ("EULER_NT", 8),
    ("BIPOLAR_TRI", 9),
)

#: (equation, order) expanded at a seeded rational point; only the
#: catalytic variables stay symbolic.
NUMERIC_MIX = (
    ("POTTS_MAPS", 10),
    ("TUTTE_MAPS", 7),
    ("POTTS_QUASI_TRI", 12),
    ("TUTTE_QUASI_TRI", 12),
    ("TUTTE_NONSEP_TRI", 14),
    ("BIPOLAR_MAPS", 16),
)

#: |numerator|, denominator pairs of the drawn parameter values.  Both are
#: nonzero (TUTTE_NONSEP_TRI divides by q), the value is never 0 or +-1
#: (which would cancel terms), and all have about the same height, so the
#: cost of a point varies little between seeds.
POINT_PAIRS = tuple((a, b) for a in range(2, 6) for b in range(2, 6)
                    if a != b and math.gcd(a, b) == 1)

CENSUS_EDGES = 6
SAMPLE_EDGES = 7
SAMPLE_PER_TREE_SIZE = 4
TUTTE_FROM_CENSUS = 40
TUTTE_FROM_SAMPLE = 10


def draw_point(rng, names):
    """A rational value for each parameter name."""
    out = {}
    for name in names:
        a, b = rng.choice(POINT_PAIRS)
        out[name] = Fraction(rng.choice((-1, 1)) * a, b)
    return out


def _attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as err:  # a failed operation is counted, not fatal
        return None, f"{type(err).__name__}: {err}"


# -- verify_all ---------------------------------------------------------------


class VerifyAll:
    """The CLI command users run: ``verify all --json``."""
    name = "verify_all"

    def prepare(self, seed):
        import tuttelab.cli  # what `python -m tuttelab.cli` imports first
        return None

    def run(self, inputs, tracer=None):
        """Print the JSON report and return the exit code."""
        from tuttelab import cli
        if tracer is None:
            return cli.main(["verify", "all", "--json"])
        # traced: drive the suites in-process, one span per suite
        from tuttelab import verify
        results = []
        for name, suite in verify.SUITES.items():
            with tracer.span(f"verify.{name}"):
                results.extend(suite())
        sys.stdout.write(verify.format_report(results, "json"))
        return cli.EXIT_OK if verify.all_pass(results) else cli.EXIT_FAIL


# -- series -------------------------------------------------------------------


class SeriesSymbolic:
    """``expand`` of SYMBOLIC_MIX with every parameter symbolic."""
    name = "series_symbolic"

    def prepare(self, seed):
        from tuttelab.equations import EquationId
        return [(EquationId[name], order, None) for name, order in SYMBOLIC_MIX]

    def run(self, inputs, tracer=None):
        from tuttelab import equations
        return [(f"{eq.value} order {order}",)
                + _attempt(equations.expand, eq, order, params)
                for eq, order, params in inputs]


class SeriesNumeric(SeriesSymbolic):
    """``expand`` of NUMERIC_MIX at a rational point drawn from the seed."""
    name = "series_numeric"

    def prepare(self, seed):
        from tuttelab.equations import PARAM_VARS, EquationId
        rng = random.Random(seed)
        out = []
        for name, order in NUMERIC_MIX:
            eq = EquationId[name]
            out.append((eq, order, draw_point(rng, PARAM_VARS[eq])))
        return out


# -- potts_census ---------------------------------------------------------------


def _dyck(rng, k, up, down):
    """A uniform Dyck word with k pairs (rejection from uniform shuffles)."""
    letters = [up] * k + [down] * k
    while True:
        rng.shuffle(letters)
        depth = 0
        for ch in letters:
            depth += 1 if ch == up else -1
            if depth < 0:
                break
        else:
            return "".join(letters)


def sample_words(seed):
    """Random shuffles of two Dyck words with SAMPLE_EDGES pairs in total,
    SAMPLE_PER_TREE_SIZE for each number i of tree edges (a-pairs), uniform
    among the shuffles with that i.

    Equal counts per i give every seed the same mix of vertex counts
    v = i + 1, from 1 to SAMPLE_EDGES + 1, and the cost of ``potts`` grows
    like v!.  A sample uniform over all tree-rooted maps would hold almost
    no maps with 7 or 8 vertices, the ones canonicalisation is slow on."""
    n = SAMPLE_EDGES
    rng = random.Random(seed)
    words = []
    for i in range(n + 1):
        for _ in range(SAMPLE_PER_TREE_SIZE):
            a = _dyck(rng, i, "a", "A")
            b = _dyck(rng, n - i, "b", "B")
            slots = set(rng.sample(range(2 * n), 2 * i))
            ia, ib = iter(a), iter(b)
            words.append("".join(next(ia) if k in slots else next(ib)
                                 for k in range(2 * n)))
    rng.shuffle(words)
    return words


class PottsCensus:
    """``potts`` over a seeded 7-edge sample and every 6-edge map, then
    ``tutte`` on a seeded subset."""
    name = "potts_census"

    def prepare(self, seed):
        from tuttelab import bijections
        from tuttelab.closed_forms import maps_count
        import tuttelab.generate  # noqa: F401  (imports are set-up)
        import tuttelab.potts  # noqa: F401
        sample = [bijections.mullin_decode(w)[0] for w in sample_words(seed)]
        rng = random.Random(seed + 1)
        census_idx = sorted(rng.sample(range(maps_count(CENSUS_EDGES)),
                                       TUTTE_FROM_CENSUS))
        sample_idx = sorted(rng.sample(range(len(sample)), TUTTE_FROM_SAMPLE))
        return sample, census_idx, sample_idx

    def run(self, inputs, tracer=None):
        from tuttelab import generate, potts
        span = tracer.span if tracer else _no_span
        sample, census_idx, sample_idx = inputs
        # the sample runs first, on an empty memo, so it is miss heavy; the
        # census then mostly hits (24,057 maps, about 512 classes)
        with span("potts.sample"):
            sampled = [_attempt(potts.potts, m) for m in sample]
        maps = generate.all_maps(CENSUS_EDGES)
        with span("potts.census"):
            census = [_attempt(potts.potts, m) for m in maps]
        with span("potts.tutte"):
            tuttes = ([_attempt(potts.tutte, maps[i]) for i in census_idx]
                      + [_attempt(potts.tutte, sample[i]) for i in sample_idx])
        return {"census": census, "sample": sampled, "tutte": tuttes}


def _no_span(name):
    return nullcontext()


WORKLOADS = {w.name: w for w in (VerifyAll(), SeriesSymbolic(),
                                  SeriesNumeric(), PottsCensus())}

"""Self-test of the benchmark itself (not of tuttelab).

    python3 bench/selftest.py

It shows that:

1. every checker counts a wrong result in ``failed``: a perturbed
   coefficient of each symbolic and numeric expansion, a wrong Potts
   polynomial (caught by the specialisations, and one caught only by the
   subset expansion), a wrong Tutte polynomial, an operation that raised,
   a FAIL row, a missing row, a non-zero exit and a child that died;
2. ``BENCHMARK.json`` names exactly the metrics the runner prints;
3. in two traced runs each of ``series_numeric`` and ``potts_census`` the
   traced and untraced outputs are identical (the runner counts any
   difference as failed) and every exact count repeats;
4. without ``src/`` the runner exits non-zero and prints no result.

The checker tests use small orders and sizes, set here, so they run in
seconds; parts 3 and 4 run the real runner and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from tuttelab.poly import MultiPoly  # noqa: E402
from tuttelab.series import TSeries  # noqa: E402

SEED = 5
Y = MultiPoly.var("y")
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def n_failed(verdicts):
    return sum(1 for ok, _ in verdicts if not ok)


def perturbed(series, n, delta):
    coeffs = [series.coeff(k) for k in range(series.order + 1)]
    coeffs[n] = coeffs[n] + delta
    return TSeries(series.var, series.order, coeffs)


def check_series_checkers():
    small = {"POTTS_MAPS": 3, "TUTTE_MAPS": 3, "MAPS_1CAT": 6, "NT": 8,
             "NQ": 6, "BIP": 6, "EULER_NT": 4, "POTTS_QUASI_TRI": 4,
             "TUTTE_QUASI_TRI": 4, "BIPOLAR_MAPS": 6, "BIPOLAR_TRI": 5,
             "TUTTE_NONSEP_TRI": 9}   # the digest is recorded at order 9
    for workload, attr in (("series_symbolic", "SYMBOLIC_MIX"),
                           ("series_numeric", "NUMERIC_MIX")):
        mix = tuple((name, small[name]) for name, _ in getattr(workloads, attr))
        setattr(workloads, attr, mix)
        ctx = checks.Context(SEED)
        wl = workloads.WORKLOADS[workload]
        outputs = wl.run(wl.prepare(SEED))
        good = checks.check(workload, 0, b"", outputs, ctx)
        expect(n_failed(good) == 0 and len(good) == len(mix),
               f"{workload}: correct expansions pass ({len(good)} ops)")
        for i, (name, order) in enumerate(mix):
            label, series, err = outputs[i]
            # a change every reference of this equation looks at
            n = min(order, 2)
            delta = {"NT": Y ** (2 * n), "NQ": Y ** (2 * n),
                     "EULER_NT": Y}.get(name, 1)
            bad = list(outputs)
            bad[i] = (label, perturbed(series, n, delta), None)
            verdicts = checks.check(workload, 0, b"", bad, ctx)
            expect(n_failed(verdicts) == 1 and not verdicts[i][0],
                   f"{workload}: perturbed coefficient {n} of {name} counted")
        bad = list(outputs)
        bad[0] = (outputs[0][0], None, "SeriesError: did not stabilize")
        expect(n_failed(checks.check(workload, 0, b"", bad, ctx)) == 1,
               f"{workload}: a raised operation is counted")


def check_potts_checkers():
    workloads.CENSUS_EDGES, workloads.SAMPLE_EDGES = 3, 4
    workloads.SAMPLE_PER_TREE_SIZE = 2
    workloads.TUTTE_FROM_CENSUS, workloads.TUTTE_FROM_SAMPLE = 5, 3
    wl = workloads.WORKLOADS["potts_census"]
    ctx = checks.Context(SEED)
    outputs = wl.run(wl.prepare(SEED))
    good = checks.check("potts_census", 0, b"", outputs, ctx)
    expect(n_failed(good) == 0 and len(good) == 54 + 10 + 8,
           f"potts_census: correct results pass ({len(good)} ops)")
    q, nu, mu = (MultiPoly.var(v) for v in ("q", "nu", "mu"))
    oracle_census = ctx.potts_inputs()[3][0]

    def with_change(part, i, change):
        bad = {k: list(v) for k, v in outputs.items()}
        value, err = bad[part][i]
        bad[part][i] = change(value)
        return n_failed(checks.check("potts_census", 0, b"", bad, ctx))

    expect(with_change("census", 7, lambda p: (p + nu, None)) == 1,
           "potts_census: a wrong potts polynomial is counted")
    i = oracle_census[0]
    expect(with_change("census", i, lambda p: (p + (q - 1) * (nu - 1), None))
           == 1, "potts_census: a polynomial only the subset expansion "
                 "rejects is counted")
    expect(with_change("sample", 3, lambda p: (None, "ValueError: cap")) == 1,
           "potts_census: a raised potts call is counted")
    expect(with_change("tutte", 2, lambda t: (t + mu, None)) == 1,
           "potts_census: a wrong tutte polynomial is counted")


def check_verify_checker():
    rows = [{"suite": "s", "case": f"c{i}", "expected": "1", "got": "1",
             "pass": True} for i in range(checks.EXPECTED_VERIFY_ROWS)]

    def count(exit_code, rows):
        return n_failed(checks.check("verify_all", exit_code,
                                     json.dumps(rows).encode(), None, None))

    expect(count(0, rows) == 0, "verify_all: a passing report passes")
    bad = [dict(r) for r in rows]
    bad[40]["pass"] = False
    expect(count(1, bad) == 1, "verify_all: a FAIL row is counted")
    expect(count(0, bad) == 1, "verify_all: a FAIL row with exit 0 is counted")
    expect(count(0, rows[:-1]) == 1, "verify_all: a missing row is counted")
    expect(count(1, rows) == 1, "verify_all: a non-zero exit is counted")
    dead = run.ChildRun(setup_s=0.1, wall_s=None, speed=None, exit_s=None,
                        lifetime_s=1,
                        rss_mib=1, cpu_s=1, exit_code=-9, stdout=b"",
                        payload=None, stderr="Killed")
    expect(n_failed(run.verdicts_of("series_symbolic", dead,
                                    checks.Context(SEED)))
           == len(workloads.SYMBOLIC_MIX),
           "a child that died counts all its operations")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end_to_end = runner")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == list(tracing.LAYER_METRICS), "BENCHMARK.json per_layer = tracer")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads = runner")


def bench(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, "bench/run.py", *args],
                         capture_output=True, text=True, cwd=cwd, timeout=600)
    return res, res.stdout.strip().splitlines()


def check_traced_runs():
    units = dict(tracing.LAYER_METRICS)
    for workload in ("series_numeric", "potts_census"):
        runs = []
        for _ in range(2):
            res, lines = bench("--workload", workload, "--seed", str(SEED),
                               "--seconds", "1", "--trace", "1")
            result = json.loads(lines[-1]) if res.returncode == 0 else None
            expect(result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{workload}: traced run correct, traced output = "
                   "untraced output")
            runs.append(result["metrics"] if result else {})
        exact = [k for k, u in units.items() if u == "count"]
        exact.append("potts.memo_hit_ratio")
        differ = [k for k in exact
                  if runs[0].get(k) != runs[1].get(k)]
        expect(not differ, f"{workload}: exact counts repeat {differ or ''}")


def check_needs_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res, lines = bench("--workload", "series_symbolic", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=tmp)
        expect(res.returncode != 0 and not any(l.startswith("{")
                                               for l in lines),
               "without src/ the runner fails and prints no result")


def main():
    check_verify_checker()
    check_benchmark_json()
    check_series_checkers()
    check_potts_checkers()
    check_needs_sources()
    check_traced_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

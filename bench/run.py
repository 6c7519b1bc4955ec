"""Run one benchmark workload (or all four) and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh, single-threaded child process
(``child.py``), one child at a time, with ``TUTTELAB_CACHE`` unset, a fixed
``PYTHONHASHSEED`` and ``src/`` of this checkout as the import path.  A
fresh child is needed because ``all_maps`` and ``_potts_of_key`` memoize at
module level and would otherwise hide the generation and
canonicalisation cost.

With ``--trace 0`` the run starts children until the next one would end
after ``--seconds`` of child time (at least one), adds set-up-only children
until there are SETUP_SAMPLES set-up times, and reports the end-to-end
metrics as medians.  ``wall_norm_s`` is the wall time times the core speed
the child's probe measured (see ``child.py``), so that it does not move
when the shared host speeds up or slows down.  With ``--trace 1`` it runs one untraced and one traced
child and reports the per-layer metrics (see ``tracing.py``), including the
tracing overhead; the two children's outputs must be identical.

Outputs are checked after each child exits, never inside the timing (see
``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table with quartiles, sample counts and the run's
environment (Python version, CPUs, commit, load average, and the share of
child wall time spent on a CPU, which falls when other processes compete).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pickle
import pkgutil
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
#: seconds the child's speed probe loop takes on the reference core (the
#: fast state of the 2-core shared VM the baseline was recorded on)
PROBE_REF_S = 200e-6

END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(RuntimeError):
    pass


@dataclass
class ChildRun:
    setup_s: float
    wall_s: float | None     # end of set-up to exit, minus the payload dump
    speed: float | None      # core speed during the operation, reference 1
    exit_s: float | None     # teardown: last output to exit
    lifetime_s: float
    rss_mib: float
    cpu_s: float
    exit_code: int
    stdout: bytes
    payload: dict | None
    stderr: str


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("TUTTELAB_CACHE", "PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload, seed, mode, tmp: Path) -> ChildRun:
    """Run one child to completion and time it from its control lines."""
    payload_path = tmp / "payload.pickle"
    payload_path.unlink(missing_ok=True)
    marks = {}
    read_fd, write_fd = os.pipe()
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        start = perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), workload, str(seed), mode,
                 str(write_fd), str(payload_path)],
                stdout=out, stderr=err, pass_fds=(write_fd,), env=child_env(),
                cwd=ROOT)
        finally:
            os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb", buffering=0) as ctrl:
                for line in iter(ctrl.readline, b""):
                    name, *data = line.decode().split()
                    marks[name] = perf_counter()
                    marks[name + "_data"] = data
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if "ready" not in marks:
        raise BenchError(f"{workload} child ({mode}) failed during set-up, "
                         f"exit {proc.returncode}:\n{stderr}")
    ready, done, dumped = marks["ready"], marks.get("done"), marks.get("dumped")
    probe_mean, peak_kib = (float(marks["done_data"][0]),
                            int(marks["done_data"][1])) if done else (0.0, 0)
    payload = None
    if dumped is not None:
        with open(payload_path, "rb") as fh:
            payload = pickle.load(fh)
    return ChildRun(
        setup_s=ready - start,
        wall_s=(end - ready - (dumped - done)) if dumped else None,
        speed=PROBE_REF_S / probe_mean if probe_mean else None,
        exit_s=(end - dumped) if dumped else None,
        lifetime_s=end - start,
        rss_mib=(peak_kib or usage.ru_maxrss) / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        exit_code=proc.returncode,
        stdout=stdout,
        payload=payload,
        stderr=stderr)


def verdicts_of(workload, run: ChildRun, ctx):
    import checks
    outputs = run.payload["outputs"] if run.payload else None
    verdicts = checks.check(workload, run.exit_code, run.stdout, outputs, ctx)
    if run.wall_s is None:  # the child died before finishing
        verdicts = [(False, f"child exit {run.exit_code}: "
                            f"{run.stderr.strip()[-300:]}")] * len(verdicts)
    return verdicts


def summarize(values):
    """(median, q1, q3, count) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def measure(workload, seed, seconds, tmp, ctx):
    """Untraced run: the end-to-end metrics."""
    ops, setups, verdicts = [], [], []
    child_time = 0.0
    while not ops or child_time + ops[-1].lifetime_s <= seconds:
        run = spawn(workload, seed, "op", tmp)
        ops.append(run)
        setups.append(run.setup_s)
        child_time += run.lifetime_s
        verdicts += verdicts_of(workload, run, ctx)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", tmp).setup_s)
    walls = [r.wall_s if r.wall_s is not None else r.lifetime_s - r.setup_s
             for r in ops]
    speeds = [r.speed or 1.0 for r in ops]
    stats = {"wall_norm_s": summarize([w * v for w, v in zip(walls, speeds)]),
             "wall_s": summarize(walls), "core_speed": summarize(speeds),
             "setup_s": summarize(setups),
             "peak_rss_mib": summarize([r.rss_mib for r in ops])}
    cpu_share = sum(r.cpu_s for r in ops) / sum(r.lifetime_s for r in ops)
    return stats, verdicts, cpu_share


def measure_traced(workload, seed, tmp, ctx):
    """Traced run: one untraced and one traced child; per-layer metrics."""
    import tracing
    base = spawn(workload, seed, "op", tmp)
    traced = spawn(workload, seed, "traced", tmp)
    verdicts = verdicts_of(workload, base, ctx)
    traced_verdicts = verdicts_of(workload, traced, ctx)
    same = (base.stdout == traced.stdout and base.payload is not None
            and traced.payload is not None
            and base.payload["outputs"] == traced.payload["outputs"])
    if not same:
        traced_verdicts = [(False, "traced and untraced outputs differ")] \
            * len(traced_verdicts)
    verdicts += traced_verdicts
    if base.wall_s is None or traced.wall_s is None:
        raise BenchError(f"{workload}: a child of the traced run died:\n"
                         f"{base.stderr}{traced.stderr}")
    trace = traced.payload["trace"]
    overhead = (traced.wall_s * (traced.speed or 1.0)) / (
        base.wall_s * (base.speed or 1.0))
    values, notes = tracing.layer_metrics(trace, base.exit_s, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": values,
                   "untraced_wall_s": base.wall_s,
                   "traced_wall_s": traced.wall_s, **trace}, fh)
    cpu_share = (base.cpu_s + traced.cpu_s) / (base.lifetime_s
                                                + traced.lifetime_s)
    return values, notes, verdicts, cpu_share


# -- environment -----------------------------------------------------------------


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[0]
    except OSError:
        return "n/a"


def commit():
    if not (ROOT / ".git").exists():
        return "n/a"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return res.stdout.strip() or "n/a"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tuttelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# -- main ------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, tmp):
    """Print one workload's table; return (metrics, attempted, failed)."""
    import checks
    import tracing
    ctx = checks.Context(seed)
    load_before = loadavg()
    if trace:
        values, notes, verdicts, cpu_share = measure_traced(workload, seed,
                                                            tmp, ctx)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in tracing.LAYER_METRICS}
    else:
        stats, verdicts, cpu_share = measure(workload, seed, seconds, tmp, ctx)
        metrics = {k: {"value": stats[k][0], "unit": u} for k, u in END_TO_END}
    failed = [msg for ok, msg in verdicts if not ok]
    nproc = os.cpu_count() or 1
    under_load = cpu_share < 0.9 or (load_before != "n/a"
                                     and float(load_before) > nproc - 0.5)
    print(f"workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"env python={platform.python_version()} nproc={nproc} "
          f"commit={commit()} src_sha256={src_digest()} "
          f"loadavg_before={load_before} loadavg_after={loadavg()} "
          f"cpu_share={cpu_share:.3f} under_load={'yes' if under_load else 'no'}")
    print(f"{'metric':58} {'median':>14} {'q1':>12} {'q3':>12} unit   n")
    if trace:
        for k, unit in tracing.LAYER_METRICS:
            print(f"{k:58} {values[k]:>14.6g} {'':>12} {'':>12} {unit:6} 1")
        for k, note in notes.items():
            print(f"note {k}: {note}")
    else:
        for k, unit in (*END_TO_END, ("wall_s", "s"), ("core_speed", "1")):
            med, q1, q3, n = stats[k]
            print(f"{k:58} {med:>14.6g} {q1:>12.6g} {q3:>12.6g} {unit:6} {n}")
    print(f"{'fail_ratio':58} {len(failed) / len(verdicts):>14.6g} "
          f"{'':>12} {'':>12} {'1':6} {len(verdicts)}")
    for msg in failed[:5]:
        print(f"FAILED {msg}")
    return metrics, len(verdicts), len(failed)


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tuttelab" / "__init__.py").is_file():
        print(f"error: no tuttelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # import (and byte-compile) the library once, so no child pays for it
    import tuttelab
    for info in pkgutil.iter_modules(tuttelab.__path__):
        importlib.import_module(f"tuttelab.{info.name}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds, args.trace,
                                   tmp)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

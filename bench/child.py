"""One benchmark child process: set up, run one operation, exit.

    python3 child.py WORKLOAD SEED MODE CTRL_FD PAYLOAD_PATH

MODE is ``setup`` (set up and exit), ``op`` (set up and run the workload
operation) or ``traced`` (the same with the tracer installed before set-up).
The child writes ``ready``, ``done`` and ``dumped`` lines to the control
file descriptor; the parent timestamps them as they arrive.  The ``done``
line also carries the speed probe's mean loop time and the child's peak
resident set size.  Between
``done`` and ``dumped`` the outputs (and, when traced, the trace) are
pickled to PAYLOAD_PATH, which the parent excludes from the timing.  The
process then exits normally, so interpreter teardown of what the operation
built is part of the measured time.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 3000


class SpeedProbe:
    """Times a fixed arithmetic loop every PROBE_INTERVAL_S while the
    operation runs, in the same thread, so it sees the core speed the
    operation sees.  On a shared host that speed changes by up to half
    within seconds; the parent divides it out of the wall time."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        self.samples.append(perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        n = len(self.samples)
        return sum(self.samples) / n if n else 0.0


def peak_rss_kib() -> int:
    """This process's own peak RSS (VmHWM).  ``ru_maxrss`` is no use here:
    a child spawned by vfork and exec starts from its parent's peak."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    workload, seed, mode, ctrl_fd, payload_path = argv
    ctrl = int(ctrl_fd)
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    inputs = wl.prepare(int(seed))
    import tuttelab
    if Path(tuttelab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"tuttelab imported from {tuttelab.__file__}, "
                         f"not from {SRC}")
    os.write(ctrl, b"ready\n")
    if mode == "setup":
        return 0
    probe = SpeedProbe()
    probe.start()
    try:
        if tracer is None:
            outputs = wl.run(inputs)
        else:
            with tracer.span("op", workload=workload):
                outputs = wl.run(inputs, tracer)
    finally:
        probe_mean = probe.stop()
    sys.stdout.flush()
    os.write(ctrl, f"done {probe_mean!r} {peak_rss_kib()}\n".encode())
    exit_code = 0
    if isinstance(outputs, int):  # verify_all: the CLI's exit code
        exit_code, outputs = outputs, None
    payload = {"outputs": outputs,
               "trace": tracer.export() if tracer else None}
    with open(payload_path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(ctrl, b"dumped\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One cold repetition of one workload, in the interpreter this script starts.

Usage: python3 bench/child.py WORKLOAD SEED TRACE SELFTEST

run.py starts one of these per repetition, so every memo table in mtv
(``_st_cache``, ``_word_cache``, the ``lru_cache``s, ``NumEnv._sums``)
starts empty, as it does for every ``mtv`` invocation.  The script
records the monotonic clock when it starts, after the imports and at the
first call (run.py subtracts its launch time), times each operation in
wall and CPU time, then checks the outputs outside the timed span.
While the operations run, a SIGALRM handler times one call of
``reference()``, a fixed pure-Python loop that does not touch mtv, after
every REF_INTERVAL_S of program time, also in the middle of a long
operation.  Each operation's time excludes the handler's; run.py divides
by the samples to take out the host's changing speed.  With
SELFTEST=1 it also feeds each checker a perturbed copy of the outputs,
which the checker must reject.  The last line of its standard output
is one JSON object.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_t = time.perf_counter()
import mtv  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

T_IMPORTED = time.monotonic()

REF_INTERVAL_S = 0.02
REF_TRIPS = 8000
_REF_TABLE = dict.fromkeys(range(64), 0)


def reference() -> int:
    """Integer arithmetic and dict updates, about 2 ms.  It allocates no
    container, so it never triggers a garbage collection and its time does
    not depend on how much mtv has allocated."""
    table, acc = _REF_TABLE, 0
    for i in range(REF_TRIPS):
        k = i & 63
        table[k] = (table[k] + i) & 0xFFFF
        acc = (acc * 31 + i) % 1000003
    return acc


class Sampler:
    """Times reference() from a SIGALRM handler after every REF_INTERVAL_S
    of program time.  The handler runs between two bytecodes of whatever
    is running, so samples fall evenly in time, inside long operations
    too.  ``wall`` and ``cpu`` hold the reference times; ``spent_wall`` and
    ``spent_cpu`` add up the handler's own time so that operations can
    leave it out."""

    def __init__(self):
        self.wall, self.cpu = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._resumed = 0.0
        self._running = False

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S)

    def stop(self) -> None:
        # an alarm that arrived just before the timer was cleared may still
        # run its handler later; it must not re-arm, and SIGALRM's default
        # action would end the process
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample(rearm=False)  # a repetition shorter than the interval gets one too

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._sample(rearm=True)

    def _sample(self, rearm: bool) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.wall.append(t1 - t0)
        self.cpu.append(time.process_time() - c0)
        self._resumed = time.perf_counter()
        self.spent_wall += self._resumed - t0
        self.spent_cpu += time.process_time() - c0
        if rearm:  # last, so that a late alarm finds the bookkeeping done
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S)


def main(name: str, seed: int, trace: bool, selftest: bool) -> dict:
    wl = WORKLOADS[name](seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    outputs = {}
    failed = 0
    op_wall, op_cpu = [], []
    sampler = Sampler()
    first_call = time.monotonic()
    sampler.start()
    for label, fn in wl.ops:
        h_wall, h_cpu = sampler.spent_wall, sampler.spent_cpu
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs[label] = fn()
        except Exception:  # one failed operation must not stop the repetition
            failed += 1
            traceback.print_exc(file=sys.stderr)
        op_wall.append(time.perf_counter() - t0 - (sampler.spent_wall - h_wall))
        op_cpu.append(time.process_time() - c0 - (sampler.spent_cpu - h_cpu))
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "start": T_START,
        "imported": T_IMPORTED,
        "first_call": first_call,
        "import_s": IMPORT_S,
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "ref_wall_s": sampler.wall,
        "ref_cpu_s": sampler.cpu,
        "sampler_wall_s": sampler.spent_wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wl.ops),
        "failed": failed,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans()
        tracer.uninstall()

    if wl.finish is not None:
        outputs.update(wl.finish(outputs))
    problems, missed = {}, []
    for i, check in enumerate(wl.checks):
        try:
            bad = check.run(outputs)
            caught = not selftest or bool(check.run(check.perturb(outputs, random.Random(seed * 1009 + i))))
        except KeyError:
            if not failed:
                raise
            bad, caught = [], True  # the operation that would have produced the output failed
        if bad:
            problems[check.name] = bad[:5]
        if not caught:
            missed.append(check.name)
    result["problems"] = problems
    result["selftest_missed"] = missed
    return result


if __name__ == "__main__":
    workload, seed, trace, selftest = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    print(json.dumps(main(workload, seed, trace, selftest)))

"""Shared plumbing: run context, the timed loop, set-up timing, memory.

A workload is a module under :mod:`perfbench.workloads` with a
``run(ctx, pins)`` function returning an :class:`Outcome`.  The harness
owns everything that is the same for all workloads: where scratch files
go (always inside the checkout), how long to measure, how set-up time is
taken, how times are scaled for the machine's speed, and how peak
memory is read.
"""

from __future__ import annotations

import heapq
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.stats import Tally, median

#: the checkout root (parent of the ``perfbench`` directory)
ROOT = Path(__file__).resolve().parents[1]
#: scratch space for stores, caches and trace exports; removed after a run
WORK_DIR = ROOT / ".perfbench_work"
#: where traced runs write their span tables
OUT_DIR = ROOT / ".perfbench_out"
#: fresh-interpreter set-ups measured per run; set_up_s is their median
SETUP_REPEATS = 5
#: :func:`calibrate`'s time on the reference machine (2-vCPU x86-64 VM
#: at 2.1 GHz, CPython 3.11); reported times are in its seconds
REFERENCE_CALIBRATION_S = 0.0212


@dataclass
class Context:
    """What one benchmark invocation was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    tally: Tally = field(default_factory=Tally)
    #: human-readable lines printed before the result line
    notes: List[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)


@dataclass
class Outcome:
    """A workload's measured numbers for one invocation."""

    #: end-to-end metrics (untraced runs): name -> (value, unit)
    end_to_end: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer metrics (traced runs): name -> (value, unit)
    per_layer: Dict[str, tuple] = field(default_factory=dict)
    #: workload-specific figures printed but not part of the result line
    extra: Dict[str, tuple] = field(default_factory=dict)


#: BLAS threads.  One thread keeps the exact solve from competing with
#: itself and with the other workloads' single-threaded work on a small,
#: shared machine; set before NumPy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources first,
    temporary files inside the checkout."""
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(WORK_DIR)
    env.pop("REPRO_SANITIZE", None)
    return env


def make_work_dir() -> Path:
    """A fresh scratch directory under the checkout for this run."""
    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run's directory is still there


def time_fresh_setup(code: str) -> float:
    """CPU seconds for a fresh interpreter to run ``code``.

    Import and input construction happen once per process, so set-up is
    measured in a child interpreter, from process start to exit.  Its
    user plus system time is what the set-up costs; its wall time adds
    the machine's process-start and file-system delays, which on a
    shared machine vary more than the set-up itself.  A child that fails
    raises, which fails the run.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up child exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    return (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime)


def _ring_program(rank: int, ranks: int, steps: int):
    """One rank of the calibration simulation: compute, send, receive."""
    for step in range(steps):
        yield ("compute", 1e-3 * (1 + (rank * step) % 7))
        yield ("send", (rank + 1) % ranks)
        yield ("recv", (rank - 1) % ranks)


def calibrate(ranks: int = 32, steps: int = 8) -> float:
    """Wall seconds of a fixed miniature discrete-event simulation.

    Generator rank programs, an event heap, per-channel mailboxes and
    per-rank accounting: the same kind of interpreter work the
    simulator, the analytic model and the campaign code do, but written
    here, so a change to the program never changes it; only the
    machine's speed does.
    """
    t0 = time.perf_counter()
    progs = [_ring_program(r, ranks, steps) for r in range(ranks)]
    heap = [(0.0, r) for r in range(ranks)]
    mailbox: Dict[tuple, deque] = defaultdict(deque)
    busy: List[Dict[str, float]] = [defaultdict(float) for _ in range(ranks)]
    values: List[object] = [None] * ranks
    pending: List[object] = [None] * ranks
    while heap:
        clock, r = heapq.heappop(heap)
        op = pending[r]
        if op is None:
            try:
                op = progs[r].send(values[r])
            except StopIteration:
                continue
            values[r] = None
        kind, arg = op
        pending[r] = None
        if kind == "compute":
            busy[r]["compute"] += arg
            heapq.heappush(heap, (clock + arg, r))
        elif kind == "send":
            mailbox[(r, arg)].append(clock)
            heapq.heappush(heap, (clock + 1e-6, r))
        else:
            queue = mailbox[(arg, r)]
            if queue:
                values[r] = queue.popleft()
                heapq.heappush(heap, (clock, r))
            else:  # not sent yet: look again a little later
                pending[r] = op
                busy[r]["wait"] += 1e-5
                heapq.heappush(heap, (clock + 1e-5, r))
    return time.perf_counter() - t0


class SpeedProbe:
    """Converts measured seconds into reference-machine seconds.

    On a 2-vCPU VM shared with other tenants, CPU speed switches between
    a fast and a slow state (about 1.7x apart) every second or so, which
    would swamp any change to the program.  So a piece of work is timed right after one
    :func:`calibrate` and followed by another, and its time is scaled by
    ``REFERENCE_CALIBRATION_S`` over the mean of the two.  A change to
    the program moves a scaled time exactly as it moves the measured
    one; the machine's speed moves both the time and the calibrations
    around it, and cancels.  The pairing must be close: over repeated
    60-job sweeps, the sweep time scaled job by job varied by 2%
    (standard deviation over mean), and scaled as a whole by the median
    of calibrations taken every six jobs, by 8-12%.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def scale(self, seconds: float) -> float:
        """``seconds`` of work timed since the last calibration, in
        reference seconds; takes the next calibration."""
        self.samples.append(calibrate())
        return seconds * 2 * REFERENCE_CALIBRATION_S / sum(self.samples[-2:])

    def describe(self) -> str:
        return (f"{len(self.samples)} calibrations, median "
                f"{median(self.samples):.4f} s (reference "
                f"{REFERENCE_CALIBRATION_S:g} s)")


def timed_loop(seconds: float, unit: Callable[[], float],
               min_units: int = 1) -> List[float]:
    """Run ``unit`` (returning its wall seconds) for about ``seconds``.

    A further unit starts only if, at the median unit time so far, it
    would end inside the window, so a run overshoots by at most one unit
    when even the first is longer than the window.
    """
    t_end = time.perf_counter() + seconds
    walls: List[float] = []
    while True:
        walls.append(unit())
        if len(walls) >= min_units and (
            time.perf_counter() + median(walls) > t_end
        ):
            return walls


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process (or of a live child ``pid``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


#: one unit of work: returns (wall_s, simulation wall_s, facts or None
#: when the unit failed)
Unit = Callable[[], Tuple[float, float, Optional[dict]]]


def measure(ctx: Context, unit: Unit, setup_code: str) -> Outcome:
    """Set-up samples, then untraced or traced units for ``ctx.seconds``.

    Untraced, the end-to-end metrics are the median set-up and unit
    times and the peak memory.  Traced, the window alternates untraced
    and traced units: the untraced ones are the reference for
    ``trace_overhead_ratio`` and ``events_per_s``, and the per-layer
    metrics are medians over the traced ones.
    """
    from perfbench import layers
    from perfbench.trace import SpanRecorder

    out = Outcome()
    if not ctx.trace:
        probe = SpeedProbe()
        setup = [probe.scale(time_fresh_setup(setup_code))
                 for _ in range(SETUP_REPEATS)]
        scaled: List[float] = []

        def timed_unit() -> float:
            wall = unit()[0]
            scaled.append(probe.scale(wall))
            return wall

        walls = timed_loop(ctx.seconds, timed_unit)
        out.end_to_end = {
            "setup_s": (median(setup), "s"),
            "run_wall_s": (median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        ctx.note(f"{len(walls)} unit(s), measured wall "
                 + ", ".join(f"{w:.3f}" for w in walls) + " s")
        ctx.note(probe.describe())
        return out
    rec = SpanRecorder()
    plain: List[Tuple[float, float]] = []
    walls: List[float] = []
    facts: Optional[dict] = None

    def pair() -> float:
        """One untraced unit, then one traced unit; returns both walls."""
        nonlocal facts
        wall, sim, unit_facts = unit()
        plain.append((wall, sim))
        rec.current_unit = len(walls) + 1
        patcher = layers.install(rec)
        try:
            traced, _sim, traced_facts = unit()
        finally:
            patcher.undo()
            rec.current_unit = 0
        walls.append(traced)
        facts = traced_facts or unit_facts or facts
        return wall + traced

    timed_loop(ctx.seconds, pair)
    if facts is None:
        raise RuntimeError("no unit of work succeeded")
    # The first untraced unit also pays one-time warm-up; leave it out
    # of the reference when there is another.
    ref = plain[1:] or plain
    facts = dict(facts)
    facts["simulate.events_per_s"] = (
        facts["simulate.events"] / median([sim for _w, sim in ref])
    )
    facts["trace_overhead_ratio"] = (
        median(walls) / median([w for w, _sim in ref])
    )
    out.per_layer = layers.layer_metrics(
        layers.unit_table(rec, len(walls)), range(1, len(walls) + 1), facts
    )
    path = rec.write(OUT_DIR / f"spans-{ctx.workload}-{ctx.seed}.npz",
                     f"{ctx.workload}/{ctx.seed}")
    ctx.note(f"{len(rec)} spans over {len(walls)} traced unit(s) -> {path}")
    return out

"""What every workload shares: the run's bookkeeping, the time-bounded
loop, percentiles and memory readings."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from typing import Dict, Iterator, List, Sequence

from perfbench.tracing import NullTracer, Tracer

#: How many times a run repeats its cheap set-up steps; ``setup_s``
#: reports their median.
SETUP_REPEATS = 3


class Bench:
    """One benchmark run: arguments, scratch directory, tracer, the
    operation tally and the metrics the workload reports."""

    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.arena_dir = os.path.join(workdir, "arena")
        self.tracer = Tracer() if args.trace else NullTracer()
        self.untraced = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.context: Dict[str, object] = {"seed": args.seed}
        #: The analyzer's import time (set by the runner) and the
        #: workload's own set-up time, in wall seconds.
        self.import_s = 0.0
        self.setup_s = 0.0

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a wrong output is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def rounds(self) -> Iterator[int]:
        """Round indices until ``--seconds`` have passed (at least one)."""
        deadline = time.perf_counter() + self.args.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            yield index
            index += 1

    def arena_leftovers(self) -> int:
        return sum(
            1 for name in os.listdir(self.arena_dir)
            if name.startswith("repro-arena-")
        )

    def layer_medians(self) -> Dict[str, float]:
        """Per span name, the median over traced rounds of its self
        time, as ``<name>_s``."""
        samples: Dict[str, List[float]] = {}
        for names in self.tracer.self_times().values():
            for name, seconds in names.items():
                samples.setdefault(name, []).append(seconds)
        return {
            f"{name}_s": statistics.median(values)
            for name, values in samples.items()
        }


def median_setup(function, *args):
    """Run a set-up step :data:`SETUP_REPEATS` times; returns the median
    seconds and the last result."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = function(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def self_peak_mb() -> float:
    """High-water resident memory of this process (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_mb(pid: int) -> float:
    """``VmHWM`` of a live process, or 0 when it has already exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def rounded(values: Sequence[float], digits: int = 4) -> List[float]:
    return [round(value, digits) for value in values]

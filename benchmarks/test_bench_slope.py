"""Complexity slope guard: doubling the program must not much more than
double the analysis time.

Linear work gives t(4k)/t(2k) close to 2; a hidden quadratic — such as
a scan of the whole return-function map once per procedure — pushes the
ratio towards 4. The gate is 2.3 on the median of three CPU-time
ratios, for the plain serial pipeline and for ``Engine(jobs=1)`` (the path
``--cache``, ``--profile``, ``batch`` and ``serve`` run), on the layered
scale generator. It is a CI benchmark step, not part of tier-1.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.memo import clear_memos
from repro.ipcp.driver import analyze_source
from repro.suite.generator import ScaleConfig, generate_scaled_program

SIZES = (2000, 4000)
REPEATS = 3
MAX_RATIO = 2.3


def cpu_seconds(text: str, with_engine: bool) -> float:
    """CPU time of one analysis, with the cyclic garbage collector off.

    CPU time, because on a shared host the time a process spends
    descheduled would otherwise show up as a slope. The collector is
    off because its passes scan the whole live heap, which doubles with
    the program: on a 2-CPU host it alone lifted the plain pipeline's
    ratio from about 2.0 to 2.1-2.6, run to run, hiding any slope this
    guard is meant to see."""
    clear_memos()
    gc.collect()
    engine = Engine(jobs=1) if with_engine else None
    gc.disable()
    start = time.process_time()
    try:
        analyze_source(text, AnalysisConfig(), engine=engine)
        return time.process_time() - start
    finally:
        gc.enable()
        if engine is not None:
            engine.close()


@pytest.fixture(scope="module")
def programs():
    return {
        size: generate_scaled_program(7, ScaleConfig(procedures=size))
        for size in SIZES
    }


@pytest.mark.parametrize("with_engine", [False, True], ids=["plain", "engine-serial"])
def test_doubling_the_program_at_most_doubles_the_time(programs, with_engine):
    # Each ratio times the two sizes back to back, so a host that
    # drifts between fast and slow states slows both sides of a ratio
    # alike instead of one size more than the other.
    ratios = []
    for _ in range(REPEATS):
        small, large = (cpu_seconds(programs[size], with_engine) for size in SIZES)
        ratios.append(large / small)
    ratio = statistics.median(ratios)
    print(
        f"\n{'engine-serial' if with_engine else 'plain'}: "
        f"t({SIZES[1]})/t({SIZES[0]}) = "
        f"{', '.join(f'{r:.2f}' for r in ratios)}; median {ratio:.2f} "
        f"(gate <= {MAX_RATIO})"
    )
    assert ratio <= MAX_RATIO, (
        f"t({SIZES[1]})/t({SIZES[0]}) = {ratio:.2f} > {MAX_RATIO}: "
        f"super-linear analysis cost"
    )

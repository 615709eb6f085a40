"""Host speed, sampled beside a pass on the CPU the pass runs on.

    python3 perfbench/probe.py --cpu 0 > samples.txt

Other tenants of a shared host slow each of its CPUs separately, by up
to half and for seconds at a time, and CPU time grows with them.  So a
probed pass and its pool workers run pinned to one CPU, and this
process, pinned to the same CPU, times a fixed two-part task every
``INTERVAL_S`` until it is terminated or its parent exits.  Each line
it prints is ``time interpreter_s faults_s`` (``time.perf_counter``,
which every process on the host shares).  ``scale`` turns the CPU time an op spent
into the CPU time it would take at the task's nominal speed, using the
samples taken while the op ran.
"""

from __future__ import annotations

import argparse
import mmap
import os
import random
import signal
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: CPU seconds the two parts of ``task`` take on the host the benchmark
#: was written on (two-vCPU Xeon VM, CPython 3.11) when no other tenant
#: slows them: interpreter work, then page faults.
NOMINAL_S = (0.0013, 0.0014)

#: Seconds between the end of one sample and the start of the next.
INTERVAL_S = 0.05

#: Fresh pages the page-fault part of ``task`` touches.
PAGES = 512

#: One sample: (time, interpreter seconds, page-fault seconds).
Sample = Tuple[float, float, float]


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: float, rank: int):
        self.key = key
        self.rank = rank


def task() -> Tuple[float, float]:
    """CPU seconds of two fixed tasks that use none of the repo's code.

    The first does what the simulators do most -- allocate small objects,
    read their attributes, group them in dicts, sort -- and is nearly all
    user time.  The second touches fresh pages, as forked pool workers and
    cache writes do, and is nearly all system time.
    """
    start = time.process_time()
    rng = random.Random(5)
    items = [_Item(rng.random(), i) for i in range(2000)]
    groups: Dict[int, List[float]] = {}
    for item in items:
        groups.setdefault(item.rank % 211, []).append(item.key)
    for keys in groups.values():
        keys.sort()
    items.sort(key=lambda item: item.key)
    ",".join(str(item.rank) for item in items[:1000])
    middle = time.process_time()
    pages = mmap.mmap(-1, PAGES * mmap.PAGESIZE)
    pages.madvise(mmap.MADV_NOHUGEPAGE)
    for offset in range(0, len(pages), mmap.PAGESIZE):
        pages[offset] = 1
    pages.close()
    return middle - start, time.process_time() - middle


def parse(text: str) -> List[Sample]:
    samples = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 3:
            samples.append((float(fields[0]), float(fields[1]), float(fields[2])))
    return samples


def scale(
    spent: Sequence[float], start: float, end: float, samples: List[Sample]
) -> float:
    """CPU seconds that *spent* would take at the nominal speed.

    *spent* is (time scaled by the interpreter part, time scaled by the
    page-fault part); each part is multiplied by its nominal time over
    the mean of the samples taken between *start* and *end*, or of the
    two nearest samples when none was.
    """
    within = [s for s in samples if start <= s[0] <= end]
    if not within:
        within = sorted(samples, key=lambda s: abs(s[0] - (start + end) / 2))[:2]
    return sum(
        seconds * nominal * len(within) / sum(s[part + 1] for s in within)
        for part, (seconds, nominal) in enumerate(zip(spent, NOMINAL_S))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    task()
    while os.getppid() == parent:  # never outlive the run
        start = time.perf_counter()
        interpreter, faults = task()
        middle = (start + time.perf_counter()) / 2
        print(f"{middle:.6f} {interpreter:.9f} {faults:.9f}", flush=True)
        time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tables_cold --seed 0 --seconds 16 --trace 0

Run from the root of a checkout.  A run is a fixed number of passes of
the workload (``--seconds`` divided by ``workloads.PASS_SHARE_S``), each
in a fresh process (``passes.py``).  ``--trace 0`` reports the
end-to-end metrics of untraced passes, run pinned to one CPU beside
``probe.py`` with their CPU times scaled to its nominal host speed;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall, plus the
tracing overhead.  Every op is checked against its reference, and the
simulated outputs of every pass, traced or not, must be identical.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Longest one pass may take before the run is abandoned.
PASS_TIMEOUT_S = 150

#: Extra processes per run that only set up, so setup_s is a median of
#: more starts than there are passes.
SETUP_SAMPLES = 2



class PassFailed(RuntimeError):
    pass


def run_pass(
    workload: str, seed: int, work: Path, store: Path, *,
    trace=False, cpu=None, count=False, setup_only=False,
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON record."""
    python_path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        python_path.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(store),
        PYTHONPATH=os.pathsep.join(python_path),
    )
    command = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    command += ["--count"] * count + ["--setup-only"] * setup_only
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    spans = work / f"spans-{time.monotonic_ns()}"
    if trace:
        spans.mkdir(parents=True)
        command += ["--trace", "--workdir", str(spans)]
    launched = time.perf_counter()
    proc = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    shutil.rmtree(spans, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(
            f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup"]["launched"] = launched
    return record


@contextlib.contextmanager
def probing(work: Path, cpu: int):
    """Run ``probe.py`` on *cpu* for the duration; yields the file it
    writes its samples to, complete once the block has ended."""
    samples = work / "probe.txt"
    work.mkdir(parents=True, exist_ok=True)
    with samples.open("w") as sink:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--cpu", str(cpu)],
            stdout=sink, cwd=ROOT,
        )
    try:
        deadline = time.monotonic() + 30
        while not samples.read_text():
            if proc.poll() is not None or time.monotonic() > deadline:
                raise PassFailed("probe.py printed no sample")
            time.sleep(0.01)
        yield samples
    finally:
        proc.terminate()
        proc.wait()


def scale_times(record: Dict[str, Any], samples) -> None:
    """Add the pass's set-up and op CPU times at the probe's nominal speed."""
    setup = record["setup"]
    record["setup_s"] = probe.scale(
        setup["spent"], setup["launched"], setup["ready"], samples
    )
    for op in record.get("ops", []):
        op["cpu_ms"] = 1000 * probe.scale(
            op["spent"], op["start"], op["end"], samples
        )
    record["cpu_s"] = sum(op["cpu_ms"] for op in record.get("ops", [])) / 1000


def tail(values: List[float]):
    """(value, percentile, samples): the highest percentile with at
    least ten samples beyond it, or the maximum below eleven samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, len(ordered)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def measure(args, work: Path) -> Dict[str, Any]:
    workload, seed = args.workload, args.seed
    passes = max(2, int(args.seconds / workloads.PASS_SHARE_S[workload]))
    store = work / "store"
    instructions: Dict[str, int] = {}
    if workload == "tables_warm":
        instructions = run_pass(
            "tables_cold", seed, work, store, count=True
        )["instructions"]

    # End-to-end passes run on one CPU, beside the probe (probe.py).
    cpu = None if args.trace else min(os.sched_getaffinity(0))

    def one(index: int, traced: bool) -> Dict[str, Any]:
        pass_store = store if workload != "tables_cold" else work / f"store-{index}"
        # Every pass of a run has the same inputs: count instructions once.
        record = run_pass(
            workload, seed, work, pass_store, trace=traced, cpu=cpu,
            count=not traced and not instructions,
        )
        if workload == "tables_cold":
            shutil.rmtree(pass_store, ignore_errors=True)
        instructions.update(record.get("instructions", {}))
        record["traced"] = traced
        return record

    if args.trace:
        records = [one(i, traced=i % 2 == 1) for i in range(2 * max(1, passes // 2))]
    else:
        with probing(work, cpu) as sample_file:
            records = [one(i, traced=False) for i in range(passes)]
            setup_only = [
                run_pass(workload, seed, work, store, cpu=cpu, setup_only=True)
                for _ in range(SETUP_SAMPLES)
            ]
        speeds = probe.parse(sample_file.read_text())
        for record in records + setup_only:
            scale_times(record, speeds)

    # An op fails on its own check; every op of a pass fails when the
    # pass's simulated outputs differ from the first pass's, or when its
    # outside counts differ from the program's counters.
    ops = [op for record in records for op in record["ops"]]
    errors = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    failed = sum(1 for op in ops if op["error"])
    for record in records:
        problems = [f"cross-check: {m}" for m in record.get("mismatches", [])]
        if record["digest"] != records[0]["digest"]:
            problems.append("simulated outputs differ from the first pass")
        if problems:
            errors += problems
            failed += sum(1 for op in record["ops"] if not op["error"])

    untraced = [r for r in records if not r["traced"]]
    details = {"passes": len(records), "ops": len(ops)}
    if args.trace:
        traced = sorted((r for r in records if r["traced"]), key=lambda r: r["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        metrics = dict(chosen["layers"])
        metrics["tracing.traced_wall_s"] = chosen["wall_s"]
        metrics["tracing.untraced_wall_s"] = untraced_wall
        metrics["tracing.overhead_s"] = chosen["wall_s"] - untraced_wall
    else:
        rates = [
            sum(instructions.get(op["name"], 0) for op in r["ops"]) / r["cpu_s"]
            for r in untraced
        ]
        op_ms = [op["cpu_ms"] for r in untraced for op in r["ops"]]
        tail_ms, percentile, samples = tail(op_ms)
        # The median op, each op taken at its median over the passes: the
        # ops of a pass differ in cost, and the median of all samples
        # falls between two of them, on the noisiest sample of each.
        per_op: Dict[str, List[float]] = {}
        for op in (op for r in untraced for op in r["ops"]):
            per_op.setdefault(op["name"], []).append(op["cpu_ms"])
        setups = [r["setup_s"] for r in untraced + setup_only]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "sim_instr_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(
                statistics.median(times) for times in per_op.values()
            ),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": max([own] + [r["rss_mb"] for r in untraced]),
        }
        details.update(
            op_tail_percentile=round(percentile, 2), op_samples=samples,
            unscaled_cpu_s=statistics.median(
                sum(sum(op["spent"]) for op in r["ops"]) for r in untraced
            ),
            probe_samples=len(speeds),
        )
    declared = {
        metric["name"]: metric["unit"]
        for metric in BENCHMARK["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} are not both "
            "measured and declared in BENCHMARK.json"
        )
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "details": details,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = [str(p) for p in workloads.required_files() if not p.is_file()]
    if missing:
        print(f"error: not a repro checkout, missing {missing}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        result = measure(args, work)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for error in result.pop("errors"):
        print(f"FAILED {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(result.pop('details'))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""hotpath — what this repository's own machinery costs, end to end and
layer by layer.

    python benchmarks/hotpath/run.py                       # all five workloads
    python benchmarks/hotpath/run.py --workload live-null --trace 1
    python benchmarks/hotpath/run.py --quick               # smoke-sized
    python benchmarks/hotpath/run.py --compare A.json B.json

One process pins itself to one CPU, then runs every workload in a fresh
child (so ``peak_rss_mb`` belongs to that workload alone) and its
set-up a few more times in further children (so ``setup_s`` includes the
interpreter and the imports, and is the best of ten). It prints one line per
(workload, metric), writes the whole document to ``--out``, and ends
with one JSON line for the driver described in BENCHMARK.json.
README.md, next to this file, explains every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Fresh-process set-ups per workload, half before its child runs and
#: half after, so one slow spell of the host cannot cover them all;
#: ``setup_s`` is the fastest.
SETUP_PROBES = 10
#: The driver allows a run 180 s; a child that takes longer is stuck.
CHILD_TIMEOUT_S = 170


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and every child it starts) to one CPU.

    The live harness is GIL-bound: with shaper and worker on different
    cores they fight over the lock and the null-app flood drops from
    ~50k to ~12k req/s, so unpinned numbers are bimodal. The highest
    numbered CPU allowed is the least likely to serve interrupts.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def spin_at_idle_priority() -> int:
    """Body of the ``--spin`` child: keep the pinned CPU from ever halting.

    On a virtual CPU, a thread that wakes from ``time.sleep`` first
    waits for the hypervisor to schedule the halted vCPU again, and
    then runs on a core that has clocked down: the fixed calibration
    loop takes 21-34 ms when run every 100 ms against 18.5 ms run back
    to back, and the light phase's median moves by 20 % between
    identical runs. A ``SCHED_IDLE`` task that only ever calls
    ``sched_yield`` is preempted the instant anything else on the CPU
    becomes runnable, takes no time from the benchmark, and keeps the
    vCPU awake (calibration 19 ms +-3 %, light-phase median +-2 %). A
    busy loop in user space does the same for the clock but delays the
    shaper's wake-ups by hundreds of microseconds; the yield is what
    keeps it harmless. It ends when its parent does.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 0  # no idle class here: no spinner beats a competing one
    parent = os.getppid()
    give_way = os.sched_yield
    while os.getppid() == parent:
        for _ in range(1000):
            give_way()
    return 0


def calibrate_ms() -> float:
    """A fixed pure-Python loop, timed: the host's speed right now.

    Taken before and after each workload, so a set of numbers measured
    during a noisy minute can be recognised as such afterwards.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1e3


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def spawn(mode: str, workload: str, args: argparse.Namespace) -> str:
    """Run this file again as a child; return the last line it printed."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), mode,
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"{mode} child for {workload} exited with {done.returncode}"
        )
    return done.stdout.strip().splitlines()[-1]


def measure_workload(name: str, args: argparse.Namespace, metric) -> dict:
    calibrate_ms()  # the first pass after idling is 30-50 % slow: not host noise
    calib_before = calibrate_ms()
    setups = []

    def probe_setup() -> None:
        started = time.monotonic()
        # CLOCK_MONOTONIC is one clock for every process on the host,
        # so the child's reading minus ours spans the interpreter start.
        setups.append(float(spawn("--probe", name, args)) - started)

    for _ in range(SETUP_PROBES // 2):
        probe_setup()
    doc = json.loads(spawn("--child", name, args))
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe_setup()
    doc["metrics"].insert(
        0, metric("setup_s", setups, "s", SETUP_PROBES, pick=min, kind="end_to_end")
    )
    doc["calib_ms_before"] = calib_before
    doc["calib_ms_after"] = calibrate_ms()
    return doc


def print_workload(doc: dict) -> None:
    for m in doc["metrics"]:
        print(
            f"{doc['workload']:<14} {m['name']:<34} {m['value']:>14.4f} "
            f"{m['unit']:<12} n={m['n']:<7} spread={m['spread'] * 100:5.1f}% "
            f"gap={m['gap'] * 100:4.1f}%"
        )
    flags = [
        f"calib_ms={doc['calib_ms_before']:.1f}->{doc['calib_ms_after']:.1f}",
        f"repetitions={doc['repetitions']}",
        f"requests={doc['phase_requests']}",
    ]
    if doc.get("generator_late"):
        flags.append("generator_late")
    print(f"{doc['workload']:<14} # " + " ".join(flags))
    for failure in doc["checks"]:
        print(f"{doc['workload']:<14} ! {failure}")


def driver_line(docs: Dict[str, dict], benchmark: dict, trace: int) -> str:
    """The contract's last line: exactly the metrics BENCHMARK.json names.

    A per-layer metric a workload does not define (a simulator span on a
    live workload) is reported as 0: that layer did no work there.
    """
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {}
    for workload, doc in docs.items():
        have = {m["name"]: m for m in doc["metrics"]}
        for spec in wanted:
            key = spec["name"] if len(docs) == 1 else f"{workload}/{spec['name']}"
            if spec["name"] in have:
                value = have[spec["name"]]["value"]
            elif trace:
                value = 0.0
            else:
                raise KeyError(f"{workload} did not report {spec['name']}")
            metrics[key] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": all(doc["correct"] for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    })


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """B against A, one row per (workload, end-to-end metric).

    ``worse``: B is beyond the metric's bound on the wrong side of A.
    ``unresolved``: within the bound, but in either set the best
    repetition is further than the bound from the runner-up, so
    "unchanged" cannot be claimed.
    """
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    worse = 0
    print(f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12}  "
          f"{'B/A':>6} (base A)  bound     gap  verdict")
    for workload in a:
        if workload not in b:
            continue
        in_a = {m["name"]: m for m in a[workload]["metrics"]}
        in_b = {m["name"]: m for m in b[workload]["metrics"]}
        for spec in benchmark["end_to_end"]:
            ma, mb = in_a[spec["name"]], in_b[spec["name"]]
            ratio = mb["value"] / ma["value"]
            worse_by = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            gap = max(ma["gap"], mb["gap"])
            if worse_by > spec["bound"]:
                verdict = "worse"
                worse += 1
            elif gap > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:<14} {spec['name']:<16} {ma['value']:>12.4f} "
                f"{mb['value']:>12.4f}  {ratio:>6.3f} ({ma['value']:.6g} "
                f"{spec['unit']})  {spec['bound']:.0%}  {gap:6.1%}  {verdict}"
            )
    return 1 if worse else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="arrival schedules, payload streams and "
                             "SimConfig.seed all derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time one run aims for; request "
                             "counts scale with it (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the per-layer metrics and one traced "
                             "repetition per workload")
    parser.add_argument("--quick", action="store_true",
                        help="same as --seconds 2: every code path, no precision")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"),
                        help="where the full JSON document goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out documents and exit")
    parser.add_argument("--pin-expected", action="store_true",
                        help="rewrite expected.json from a default-seed run of "
                             "the simulator workloads")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--spin", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"hotpath: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(args.compare[0], args.compare[1], benchmark)
    if args.spin:
        return spin_at_idle_priority()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"hotpath: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(workloads.CANONICAL_SECONDS)
    if args.seconds <= 0:
        print("hotpath: --seconds must be positive", file=sys.stderr)
        return 2

    if args.probe:
        print(repr(workloads.setup_probe(args.workload, args.seed, args.seconds)))
        return 0
    if args.child:
        OUT_DIR.mkdir(exist_ok=True)
        doc = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR
        )
        print(json.dumps(doc))
        return 0

    if args.pin_expected:
        args.seed = workloads.DEFAULT_SEED
        args.seconds = float(workloads.CANONICAL_SECONDS)
        names = [w.name for w in workloads.WORKLOADS if w.kind == "sim"]
    elif args.workload == "all":
        names = [w.name for w in workloads.WORKLOADS]
    elif args.workload in workloads.BY_NAME:
        names = [args.workload]
    else:
        print(f"hotpath: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "switch_interval_s": sys.getswitchinterval(),
        "loadavg": list(os.getloadavg()),
        "setup_probes": SETUP_PROBES,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("hotpath # " + " ".join(f"{k}={v}" for k, v in meta.items()))
    docs = {}
    spinner = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--spin"])
    time.sleep(0.3)  # until then it is an interpreter starting up on our CPU
    try:
        for name in names:
            docs[name] = measure_workload(name, args, workloads.metric)
            print_workload(docs[name])
    finally:
        spinner.terminate()
        spinner.wait()
    meta["loadavg_after"] = list(os.getloadavg())

    if args.pin_expected:
        pinned = {
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {n: docs[n]["fingerprints"] for n in names},
        }
        (HERE / "expected.json").write_text(json.dumps(pinned, indent=2) + "\n")
        print(f"hotpath # pinned {names} in expected.json")
        return 0

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "workloads": docs}, indent=1) + "\n")
    print(driver_line(docs, benchmark, args.trace))
    return 0 if all(doc["correct"] for doc in docs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

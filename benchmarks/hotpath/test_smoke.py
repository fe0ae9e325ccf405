"""Smoke test of the hotpath benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/hotpath -q

One ``--quick --trace 1`` run of all five workloads (~40 s) checks that
what BENCHMARK.json declares is what ``run.py`` prints; the numbers
themselves mean nothing at that size.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import trace as spans  # noqa: E402  (the benchmark's trace.py, not the stdlib's)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Per-layer names carry their module as prefix; these say which family
#: of workload exercises the module at all.
LIVE_LAYERS = ("traffic.", "transport.", "queueing.", "server.", "collector.",
               "clock.", "stats.", "apps.")
SIM_LAYERS = ("sim.", "resilience.", "faults.", "balancer.")
EVERYWHERE = ("runtime.", "trace.", "light_p50_us")


def defines(workload: workloads.Workload, name: str) -> bool:
    if name.startswith(EVERYWHERE):
        return True
    if name.startswith("obs."):
        return workload.name == "live-null"
    return name.startswith(LIVE_LAYERS if workload.kind == "live" else SIM_LAYERS)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("hotpath") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "1",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0, [line for line in lines if " ! " in line] or lines[-5:]
    return lines, json.loads(out.read_text()), out


def test_benchmark_json_names_the_gated_workloads():
    declared = [(w["name"], w["why"]) for w in BENCHMARK["workloads"]]
    assert declared == [(w.name, w.why) for w in workloads.WORKLOADS if w.gated]
    assert BENCHMARK["run_seconds"] == workloads.CANONICAL_SECONDS
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(spec["name"]), spec
        assert spec["unit"] and spec["better"] in ("lower", "higher"), spec


def test_every_declared_metric_is_printed_where_it_is_defined(quick):
    lines, doc, _ = quick
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in workloads.BY_NAME and parts[1] not in "#!":
            assert NAME.match(parts[1]), line
            assert parts[3] and not parts[3].startswith("n="), f"no unit: {line}"
            float(parts[2])
            printed[parts[0], parts[1]] = parts[3]
    units = {s["name"]: s["unit"]
             for s in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for workload in workloads.WORKLOADS:
        assert doc["workloads"][workload.name]["correct"]
        for spec in BENCHMARK["end_to_end"]:
            assert printed[workload.name, spec["name"]] == spec["unit"]
        for spec in BENCHMARK["per_layer"]:
            expected = defines(workload, spec["name"])
            assert ((workload.name, spec["name"]) in printed) == expected, (
                workload.name, spec["name"])
    # Nothing measured under a name or unit BENCHMARK.json does not declare.
    for (workload, name), unit in printed.items():
        kind = next(m["kind"] for m in doc["workloads"][workload]["metrics"]
                    if m["name"] == name)
        if kind != "info":
            assert units[name] == unit, (workload, name, unit)


def test_last_line_is_the_drivers_json(quick):
    lines, _, _ = quick
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    wanted = {f"{w.name}/{s['name']}"
              for w in workloads.WORKLOADS for s in BENCHMARK["per_layer"]}
    assert set(last["metrics"]) == wanted
    assert all(isinstance(m["value"], (int, float)) and m["unit"]
               for m in last["metrics"].values())


def test_compare_of_a_set_with_itself_finds_nothing_worse(quick):
    _, _, out = quick
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(out), str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    rows = [line for line in done.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(workloads.WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert all(row.split()[-1] in ("ok", "unresolved") for row in rows)
    assert all(" 1.000 " in row for row in rows)


def test_self_time_on_a_three_level_tree():
    # root 0..100 has children a 10..40 and b 50..90; b has child c 60..75.
    tree = [
        (0, "root", "p", 0, 100, -1, -1),
        (1, "a", "p", 10, 40, 0, 7),
        (2, "b", "p", 50, 90, 0, 7),
        (3, "c", "p", 60, 75, 2, 7),
    ]
    assert spans.self_times(tree) == {0: 30, 1: 30, 2: 25, 3: 15}
    log = spans.SpanLog()
    log.spans.extend(tree)
    assert log.self_totals("p") == {"root": 30, "a": 30, "b": 25, "c": 15}
    assert log.durations("b", "p") == [40]


def test_wrappers_nest_and_unpatch():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    log = spans.SpanLog()
    log.phase = "p"
    log.patch(Layer, "outer", log.timed("outer", Layer.outer))
    log.patch(Layer, "inner", log.timed("inner", Layer.inner))
    assert Layer().outer(3) == 7
    log.unpatch_all()
    assert Layer().outer(3) == 7 and len(log.spans) == 2
    inner, outer = log.spans  # the child ends, and is appended, first
    assert (inner[1], outer[1]) == ("inner", "outer")
    assert inner[5] == outer[0] and outer[5] == -1
    own = spans.self_times(log.spans)
    assert own[outer[0]] == (outer[4] - outer[3]) - (inner[4] - inner[3])

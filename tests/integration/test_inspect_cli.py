"""``tailbench trace`` / ``tailbench tail``: two reports, one module."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from repro.experiments.cli import main
from repro.obs.exporters import validate_trace_file

#: The flags both commands take, each spelled once in ``--help``.
SHARED_FLAGS = (
    "--duration", "--qps", "--threads", "--servers", "--balancer",
    "--config", "--seed", "--live", "--from-jsonl",
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One exported run: ``(stdout of the trace command, trace path)``."""
    path = str(tmp_path_factory.mktemp("inspect") / "trace.jsonl")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["trace", "masstree", "--duration", "0.5",
                     "--jsonl", path]) == 0
    return out.getvalue(), path


def test_trace_prints_bands_and_exports_a_valid_trace(traced):
    out, path = traced
    assert out.startswith("== masstree [sim] qps=1000 servers=1 ==")
    assert "latency decomposition by sojourn percentile band:" in out
    for band in ("p0-p50", "p50-p90", "p90-p99", "p99-p100"):
        assert band in out
    assert "metrics snapshot:" in out
    # 500 measured + 100 warmup requests, six lifecycle events each.
    assert f"wrote 3600 trace events to {path}" in out
    assert validate_trace_file(path) == 3600


def test_both_commands_render_an_exported_trace(traced, capsys):
    _, path = traced
    assert main(["trace", "--from-jsonl", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"== {path} ==")
    assert "attempts_reconstructed=600" in out
    assert main(["tail", "--from-jsonl", path, "--pct", "95"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tail attribution (p95): 30 of 600 requests")
    assert "SLO:" not in out  # the burn-rate engine is not replayable


def test_tail_ranks_causes_and_summarises_the_slo(capsys):
    assert main(["tail", "masstree", "--duration", "0.5",
                 "--servers", "2", "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tail attribution (p99): 5 of 500 requests")
    ranked = [line.split() for line in out.splitlines()[2:4]]
    assert [row[0] for row in ranked] == ["1", "2"]
    assert {row[1] for row in ranked} <= {"queue", "service"}
    assert "SLO: 99.0% of requests under 100.0 ms" in out
    assert "x 0.25s, sent=500 completed=500 good=500 bad=0" in out
    assert "alerts: none fired" in out


@pytest.mark.parametrize("command", ["trace", "tail"])
def test_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as missing:
        main([command])
    assert missing.value.code == 2
    assert "app is required unless --from-jsonl" in capsys.readouterr().err
    with pytest.raises(SystemExit) as unknown:
        main([command, "no-such-app"])
    assert "no calibrated profile for 'no-such-app'" in str(unknown.value)
    assert "--live" in str(unknown.value)


@pytest.mark.parametrize(
    "command, own",
    [("trace", ("--warmup", "--capacity", "--jsonl", "--series", "--prom")),
     ("tail", ("--pct", "--top", "--target", "--objective", "--window",
               "--exemplars"))],
)
def test_help_lists_every_flag_once(command, own, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: tailbench {command} ")
    for flag in SHARED_FLAGS + own:  # an option's own line, not the usage
        assert out.count(f"\n  {flag}") == 1, flag


def test_module_form_runs_without_runtime_warning():
    # What CI's fig-*, trace and tail steps spell: the package must not
    # have imported ``cli`` before runpy executes it.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.cli", "fig2", "--fast"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Fig. 2" in done.stdout
    assert "RuntimeWarning" not in done.stderr

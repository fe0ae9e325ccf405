"""Tests for the experiment drivers (fast sample sizes)."""

import pytest

from repro.experiments.cli import (
    _FAST_KWARGS,
    EXPERIMENTS,
    EXTENSIONS,
    main,
    run_experiment,
)
from repro.experiments.fig2 import run_fig2, run_fig2_live
from repro.experiments.fig3 import sweep_app
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig8 import run_fig8
from repro.experiments.reporting import ascii_table, to_csv
from repro.experiments.table1 import PAPER_TABLE1, render_table1, run_table1


class TestReporting:
    def test_ascii_table(self):
        text = ascii_table(["a", "b"], [[1, 2], [30, 40]], title="T")
        assert "T" in text and "30" in text
        assert text.count("\n") == 4

    def test_ascii_table_validates(self):
        with pytest.raises(ValueError):
            ascii_table([], [])
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_to_csv(self):
        csv = to_csv(["x", "y"], [[1, 2]])
        assert csv.splitlines() == ["x,y", "1,2"]


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(measure_requests=2500, n_instructions=60_000)

    def test_covers_all_eight_apps(self, rows):
        assert [r.name for r in rows] == [
            "xapian", "masstree", "moses", "sphinx",
            "img-dnn", "specjbb", "silo", "shore",
        ]

    def test_latency_monotone_in_load(self, rows):
        for row in rows:
            assert row.p95_by_load[0.2] < row.p95_by_load[0.5] < row.p95_by_load[0.7]

    def test_values_within_3x_of_paper(self, rows):
        # Shape criterion: reproduce magnitudes, not exact numbers.
        for row in rows:
            paper = PAPER_TABLE1[row.name]
            for j, load in enumerate((0.2, 0.5, 0.7)):
                ours, theirs = row.p95_by_load[load], paper[5 + j]
                assert theirs / 3 < ours < theirs * 3, (row.name, load)

    def test_render(self, rows):
        text = render_table1(rows)
        assert "Table I" in text
        assert "xapian" in text and "95th" in text


class TestFig2:
    def test_simulated_cdfs(self):
        cdfs = run_fig2(n_samples=3000)
        assert len(cdfs) == 8
        sphinx = cdfs["sphinx"].quantiles()
        silo = cdfs["silo"].quantiles()
        assert sphinx[0.5] > 1000 * silo[0.5]  # seconds vs microseconds

    def test_cdf_points_monotone(self):
        cdfs = run_fig2(n_samples=1000)
        points = cdfs["shore"].cdf_points(50)
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)

    def test_near_constant_apps_tight(self):
        cdfs = run_fig2(n_samples=5000)
        for name in ("masstree", "img-dnn"):
            q = cdfs[name].quantiles()
            assert q[0.95] / q[0.05] < 3.0
        # xapian is broad: >5x spread between p5 and p95 (Fig. 2).
        q = cdfs["xapian"].quantiles()
        assert q[0.95] / q[0.05] > 5.0

    def test_live_mode_measures_real_apps(self):
        cdfs = run_fig2_live(
            n_samples=30,
            apps=("masstree",),
            app_kwargs={"masstree": {"n_records": 300}},
        )
        assert cdfs["masstree"].quantiles()[0.5] > 0


class TestFig5AndFig6:
    def test_fig5_saturation_drops_match_paper(self):
        results = run_fig5(measure_requests=1500, apps=("silo", "specjbb", "xapian"))
        # Fig. 5 annotations: silo -39%, specjbb -23%; long-request
        # apps lose almost nothing.
        assert results["silo"].saturation_drop("networked") == pytest.approx(
            0.39, abs=0.08
        )
        assert results["specjbb"].saturation_drop("networked") == pytest.approx(
            0.23, abs=0.08
        )
        assert results["xapian"].saturation_drop("networked") < 0.05

    def test_fig5_simulation_speedup(self):
        results = run_fig5(measure_requests=1500, apps=("shore",))
        # Simulated system is faster: negative saturation "drop".
        assert results["shore"].saturation_drop("simulation") < -0.2

    def test_fig6_curves_collapse_vs_load(self):
        results = run_fig6(measure_requests=2500)
        for name, curves in results.items():
            # At equal load, setups differ by bounded constant factors
            # (network adds us-scale shifts; sim is a speed factor) —
            # nothing like the unbounded near-saturation divergence
            # seen at equal QPS.
            assert curves.max_relative_spread() < 0.6


class TestFig8:
    @pytest.fixture(scope="class")
    def results(self):
        return run_fig8(measure_requests=6000)

    def test_reproduces_case_study_conclusions(self, results):
        # Sec. VII: moses is memory-bound, silo is sync-bound.
        assert results["moses"].ideal_tracks_mgn(4)
        assert not results["silo"].ideal_tracks_mgn(4)

    def test_mg4_beats_mg1(self, results):
        for result in results.values():
            mg1 = result.series["M/G/1"]
            mg4 = result.series["M/G/4"]
            # At equal per-thread load, pooling wins at moderate+ loads.
            assert mg4[5] < mg1[5]


class TestSweeps:
    def test_sweep_app_returns_monotone_qps(self):
        curve = sweep_app("masstree", measure_requests=1000,
                          load_points=(0.2, 0.5, 0.8))
        assert list(curve.qps) == sorted(curve.qps)
        assert len(curve.p95) == 3

    def test_saturation_onset_detects_knee(self):
        curve = sweep_app("masstree", measure_requests=2500)
        onset = curve.saturation_onset()
        # Knee must be in the upper half of the sweep.
        assert onset > 0.5 * curve.qps[-1]


class TestCli:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"
        }

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cli_fig2_fast(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out


class TestCliSave:
    def test_save_writes_output_files(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out_dir = tmp_path / "artifacts"
        assert main(["fig2", "--fast", "--save", str(out_dir)]) == 0
        saved = (out_dir / "fig2.txt").read_text()
        assert "Fig. 2" in saved
        assert saved.rstrip("\n") in capsys.readouterr().out


class TestFig4Units:
    def test_measured_capacity_from_utilization(self):
        from repro.experiments.fig3 import LatencyCurve

        curve = LatencyCurve(
            "x", qps=(100.0, 200.0, 300.0), mean=(1, 1, 1),
            p95=(1, 1, 1), p99=(1, 1, 1), utilization=(0.25, 0.5, 0.75),
        )
        assert curve.measured_capacity() == pytest.approx(400.0)
        assert curve.measured_capacity(index=0) == pytest.approx(400.0)

    def test_measured_capacity_requires_utilization(self):
        from repro.experiments.fig3 import LatencyCurve

        curve = LatencyCurve("x", (1.0,), (1,), (1,), (1,))
        with pytest.raises(ValueError):
            curve.measured_capacity()

    def test_fig4_thread_scaling_signals(self):
        from repro.experiments.fig4 import run_fig4

        results = run_fig4(measure_requests=2000, apps=("silo", "moses"))
        silo = results["silo"]
        assert silo.per_thread_saturation(4) < silo.per_thread_saturation(2)
        assert silo.per_thread_saturation(2) < silo.per_thread_saturation(1)
        moses = results["moses"]
        assert (
            moses.per_thread_saturation(4)
            < 0.75 * moses.per_thread_saturation(1)
        )

    def test_fig4_common_grid_across_thread_counts(self):
        from repro.experiments.fig4 import run_fig4

        results = run_fig4(measure_requests=800, apps=("masstree",))
        curves = results["masstree"].curves
        grids = [tuple(c.qps) for c in curves.values()]
        assert len(set(grids)) == 1  # identical per-thread QPS axis


class TestExtensions:
    def test_extension_registry_disjoint_from_paper(self):
        from repro.experiments.cli import EXPERIMENTS, EXTENSIONS

        assert set(EXTENSIONS) == {
            "ext-colocation",
            "ext-energy",
            "fig-topology",
            "fig-control",
            "fig-batching",
            "fig-resilience",
            "fig-live",
            "fig-fanout",
            "fig-cache",
        }
        assert not set(EXTENSIONS) & set(EXPERIMENTS)

    def test_ext_colocation_runs(self):
        out = run_experiment("ext-colocation", fast=True)
        assert "Colocation" in out
        assert "max safe batch share" in out

    def test_ext_energy_runs(self):
        out = run_experiment("ext-energy", fast=True)
        assert "Energy policies" in out
        assert "queue-boost" in out

    def test_colocation_monotone_in_share(self):
        from repro.experiments.extensions import run_ext_colocation

        data = run_ext_colocation(measure_requests=2000)
        p95s = [p95 for _, p95, _ in data["sweep"]]
        assert p95s == sorted(p95s)
        safe_shares = [share for _, share in data["safe"]]
        assert safe_shares == sorted(safe_shares, reverse=True)


class TestExtensionFigures:
    @pytest.mark.parametrize(
        "name", ["fig-fanout", "fig-cache", "fig-resilience", "fig-live"]
    )
    def test_sim_only_figure_claims_hold(self, name):
        # The four figures whose --fast run is simulator-only: seeded,
        # so every judged claim must hold at the default seed.
        runner, _ = EXTENSIONS[name]
        report = runner(**_FAST_KWARGS[name])
        assert any(ok for ok, _ in report.claims)
        assert report.ok, report.render()

    def test_failed_claim_exits_1(self, monkeypatch, capsys):
        from repro.experiments import fig_resilience

        assert main(["fig-resilience", "--fast"]) == 0
        # A storm too mild to start the retry spiral: the undefended
        # arm recovers, so the metastable-collapse claim fails.
        monkeypatch.setattr(fig_resilience, "_STORM_PAUSE", 1e-6)
        assert main(["fig-resilience", "--fast"]) == 1
        assert "\nWARNING: " in capsys.readouterr().out

    def test_only_judged_claims_set_the_status(self):
        from repro.experiments.figure import Report

        claims = ((True, "held"), (None, "reported"), (False, "failed"))
        report = Report("T", (), {}, claims)
        assert not report.ok
        assert report.render().splitlines()[-3:] == [
            "held", "reported", "WARNING: failed",
        ]
        assert Report("T", (), {}, claims[:2]).ok

"""Streaming SLO engine: windows, burn-rate alerting, exemplars."""

import pytest

from repro.core.config import ObservabilityConfig, SloConfig
from repro.core.request import Request
from repro.obs.exporters import (
    export_trace_jsonl,
    load_trace_jsonl,
    prometheus_text,
)
from repro.obs.live import BurnRateMonitor, LiveObs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _slo(**overrides) -> SloConfig:
    kwargs = dict(
        enabled=True,
        target=0.1,
        objective=0.9,
        window=1.0,
        fast_windows=2,
        slow_windows=6,
        fast_burn=2.5,
        slow_burn=1.0,
        clear_factor=0.5,
        exemplars_per_window=3,
    )
    kwargs.update(overrides)
    return SloConfig(**kwargs)


def _request(gen, sojourn, server_id=0, **kw):
    """A completed request with an evenly spaced timestamp chain."""
    step = sojourn / 5.0
    return Request(
        payload=None,
        generated_at=gen,
        sent_at=gen + step,
        enqueued_at=gen + 2 * step,
        service_start_at=gen + 3 * step,
        service_end_at=gen + 4 * step,
        response_received_at=gen + sojourn,
        server_id=server_id,
        **kw,
    )


def _feed(obs, request):
    obs.observe_sent(request.sent_at)
    obs.observe(request)


class TestLiveObs:
    def test_disabled_config_rejected(self):
        with pytest.raises(ValueError):
            LiveObs(SloConfig())

    def test_window_rotation_counts_and_quantiles(self):
        obs = LiveObs(_slo())
        obs.set_origin(0.0)
        # Three completions per window across four windows, sojourns
        # 10/20/30 ms — p50 falls on the middle observation.
        for w in range(4):
            for i, sojourn in enumerate((0.010, 0.020, 0.030)):
                _feed(obs, _request(w * 1.0 + 0.1 * (i + 1), sojourn))
        report = obs.finish(4.0)
        assert len(report.windows) == 4
        assert all(not w.partial for w in report.windows)
        assert [w.index for w in report.windows] == [0, 1, 2, 3]
        for w in report.windows:
            assert w.sent == 3
            assert w.completed == 3
            assert w.good == 3
            assert w.bad == 0
            assert w.quantiles["p50"] == pytest.approx(0.020, rel=0.15)
        assert report.sent == 12
        assert report.completed == 12
        assert report.attainment == 1.0

    def test_unfinished_sends_burn_budget(self):
        # Send-anchored accounting: requests that never complete are
        # bad in their send window — a stalled replica can't hide.
        obs = LiveObs(_slo())
        obs.set_origin(0.0)
        for i in range(10):
            obs.observe_sent(0.05 * (i + 1))
        report = obs.finish(2.0)
        window = report.windows[0]
        assert window.sent == 10
        assert window.good == 0
        assert window.bad == 10
        assert report.attainment == 0.0

    def test_over_target_completion_is_bad(self):
        obs = LiveObs(_slo(target=0.05))
        obs.set_origin(0.0)
        _feed(obs, _request(0.1, sojourn=0.010))
        _feed(obs, _request(0.2, sojourn=0.200))  # blows the target
        report = obs.finish(1.0)
        assert report.windows[0].good == 1
        assert report.windows[0].bad == 1

    def test_trailing_partial_window_reported_not_alerted(self):
        obs = LiveObs(_slo())
        obs.set_origin(0.0)
        _feed(obs, _request(0.2, sojourn=0.010))
        _feed(obs, _request(1.2, sojourn=0.010))  # half-open window 1
        report = obs.finish(1.5)
        assert len(report.windows) == 2
        assert not report.windows[0].partial
        assert report.windows[1].partial
        assert report.windows[1].end == pytest.approx(1.5)

    def test_origin_set_once(self):
        obs = LiveObs(_slo())
        obs.set_origin(0.0)
        with pytest.raises(RuntimeError):
            obs.set_origin(1.0)


class TestBurnRateMonitor:
    # With objective=0.9 the error budget is 0.1: a window tally of
    # (good, bad) = (670, 330) burns at 3.3x, (990, 10) at 0.1x.
    _HOT = (670, 330, 1000)
    _COLD = (990, 10, 1000)

    def _push_n(self, monitor, tally, n, start_index=0):
        good, bad, total = tally
        for i in range(n):
            idx = start_index + i
            monitor.push(good, bad, total, idx, float(idx + 1))
        return start_index + n

    def test_fires_after_fast_horizon_of_hot_windows(self):
        monitor = BurnRateMonitor(_slo())
        idx = self._push_n(monitor, self._COLD, 6)
        assert not monitor.log.fires()
        # One hot window: fast burn = (330+10)/2000/0.1 = 1.7 < 2.5.
        idx = self._push_n(monitor, self._HOT, 1, idx)
        assert not monitor.log.fires()
        # Second hot window: fast = 3.3 >= 2.5, slow >= 1.0 -> fire.
        self._push_n(monitor, self._HOT, 1, idx)
        fires = monitor.log.fires()
        assert len(fires) == 1
        assert fires[0].ts == pytest.approx(8.0)
        assert fires[0].fast_burn >= 2.5

    def test_clears_with_hysteresis(self):
        monitor = BurnRateMonitor(_slo())
        idx = self._push_n(monitor, self._HOT, 2)
        assert monitor.active
        # Cold windows must flush both horizons below clear_factor x
        # threshold before the alert clears.
        self._push_n(monitor, self._COLD, 6, idx)
        clears = monitor.log.clears()
        assert len(clears) == 1
        assert monitor.log.fires()[-1].ts < clears[0].ts
        assert not monitor.active

    def test_no_flapping_in_the_dead_zone(self):
        # Burn hovering between clear_factor x threshold and the
        # threshold itself must neither re-fire nor clear: exactly one
        # transition no matter how long the hover lasts.
        monitor = BurnRateMonitor(_slo())
        idx = self._push_n(monitor, self._HOT, 2)
        assert len(monitor.log) == 1
        # (good, bad) = (800, 200): burn 2.0 — above the 1.25 clear
        # line (0.5 x 2.5), below the 2.5 fire line.
        self._push_n(monitor, (800, 200, 1000), 20, idx)
        assert len(monitor.log) == 1
        assert monitor.active

    def test_threshold_boundary_does_not_refire(self):
        # A burn sitting exactly on the fire threshold after an alert
        # already fired adds no second fire event.
        monitor = BurnRateMonitor(_slo())
        idx = self._push_n(monitor, self._HOT, 2)
        self._push_n(monitor, (750, 250, 1000), 20, idx)  # 2.5x
        assert len(monitor.log.fires()) == 1

    def test_emits_trace_markers(self):
        tracer = Tracer(capacity=64)
        monitor = BurnRateMonitor(_slo(), tracer=tracer)
        idx = self._push_n(monitor, self._HOT, 2)
        self._push_n(monitor, self._COLD, 6, idx)
        kinds = [e.kind for e in tracer.events()]
        assert kinds.count("slo_burn") == 1
        assert kinds.count("slo_clear") == 1


class TestExemplars:
    def _run(self, seed, sojourns=None):
        obs = LiveObs(_slo(), seed=seed)
        obs.set_origin(0.0)
        sojourns = sojourns or [0.001 * (i % 7 + 1) for i in range(40)]
        for i, sojourn in enumerate(sojourns):
            _feed(obs, _request(0.02 * i, sojourn, server_id=i % 3))
        return obs.finish(1.0)

    @staticmethod
    def _keys(report):
        return [
            (e.window_index, e.sojourn, e.server_id, e.generated_at)
            for e in report.exemplars
        ]

    def test_same_seed_same_exemplars(self):
        assert self._keys(self._run(7)) == self._keys(self._run(7))

    def test_reservoir_keeps_the_slowest(self):
        report = self._run(0, sojourns=[0.001 * (i + 1) for i in range(10)])
        kept = sorted(e.sojourn for e in report.exemplars)
        assert kept == pytest.approx([0.008, 0.009, 0.010])

    def test_capacity_respected_per_window(self):
        report = self._run(0)
        for window in report.windows:
            assert len(window.exemplars) <= 3


class TestMetricsExport:
    def test_hdr_sketch_prometheus_buckets(self):
        registry = MetricsRegistry()
        sketch = registry.hdr("tb_latency_live_seconds", help="live latency")
        for v in (0.001, 0.002, 0.004, 0.100):
            sketch.observe(v)
        text = prometheus_text(registry)
        assert "# TYPE tb_latency_live_seconds histogram" in text
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("tb_latency_live_seconds_bucket")
        ]
        assert bucket_lines, text
        assert bucket_lines[-1].startswith(
            'tb_latency_live_seconds_bucket{le="+Inf"} 4'
        )
        # Cumulative: counts never decrease along the bucket ladder.
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert "tb_latency_live_seconds_count 4" in text

    def test_register_metrics_exposes_burn_gauges(self):
        obs = LiveObs(_slo())
        registry = MetricsRegistry()
        obs.register_metrics(registry)
        obs.set_origin(0.0)
        _feed(obs, _request(0.1, sojourn=0.010))
        obs.finish(1.0)
        text = prometheus_text(registry)
        assert "tb_slo_fast_burn" in text
        assert "tb_slo_alert_active" in text
        assert "tb_latency_live_seconds" in text


class TestTraceJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        tracer = Tracer(capacity=64)
        request = _request(0.0, sojourn=0.010, server_id=1)
        tracer.record_request(request)
        tracer.emit("slo_burn", 1.0, value=3.3)
        path = str(tmp_path / "trace.jsonl")
        n = export_trace_jsonl(tracer.events(), path)
        events = load_trace_jsonl(path)
        assert len(events) == n == len(tracer.events())
        for original, loaded in zip(tracer.events(), events):
            assert loaded.kind == original.kind
            assert loaded.ts == pytest.approx(original.ts)
            assert loaded.server_id == original.server_id

    def test_invalid_line_names_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "sent", "ts": 0.0}\n{"event": "nope"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2:"):
            load_trace_jsonl(str(path))


class TestSimIntegration:
    def _config(self, slo):
        from repro.sim import SimConfig

        return SimConfig(
            configuration="integrated",
            n_threads=1,
            n_servers=2,
            balancer="round_robin",
            seed=3,
            qps=400.0,
            warmup_requests=0,
            measure_requests=400,
            observability=ObservabilityConfig(tracing=True, slo=slo),
        )

    def _profile(self):
        from repro.sim.calibration import AppProfile
        from repro.stats import LogNormal

        return AppProfile(
            name="unit-live", service=LogNormal(mean=1e-3, sigma=0.3)
        )

    def test_enabled_run_is_deterministic(self):
        from repro.sim import simulate_load

        slo = _slo(window=0.25)
        a = simulate_load(self._profile(), self._config(slo))
        b = simulate_load(self._profile(), self._config(slo))
        ka = [
            (e.window_index, e.sojourn, e.server_id, e.generated_at)
            for e in a.obs.live.exemplars
        ]
        kb = [
            (e.window_index, e.sojourn, e.server_id, e.generated_at)
            for e in b.obs.live.exemplars
        ]
        assert ka == kb
        assert [
            (w.index, w.sent, w.good, w.bad) for w in a.obs.live.windows
        ] == [(w.index, w.sent, w.good, w.bad) for w in b.obs.live.windows]

    def test_slo_layer_does_not_perturb_the_simulation(self):
        # Same seed, SLO engine off vs on: the simulated requests
        # themselves must be bit-identical — observation only.
        from repro.sim import simulate_load

        off = simulate_load(self._profile(), self._config(SloConfig()))
        on = simulate_load(self._profile(), self._config(_slo(window=0.25)))
        assert off.fingerprint() == on.fingerprint()
        assert off.obs.live is None
        assert on.obs.live is not None

    def test_fig_live_sim_arm_reproduces(self):
        from repro.experiments.fig_live import run_fig_live

        report = run_fig_live(time_scale=0.2, modes=("sim",))
        assert report.ok, report.render()
        row = report.rows["sim"]["slow_replica"]
        # The fast horizon is two SLO windows of 0.5 s x time_scale.
        assert row.fire_offset <= 2 * 0.5 * 0.2 + 1e-9
        assert row.top_cause[0] == "queue"

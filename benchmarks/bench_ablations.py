"""Ablations of the methodology's design choices.

Each test removes one element of the TailBench methodology (open-loop
arrivals, Poisson interarrivals, warmup, HDR precision, DRRIP, the
interrupt-steering assumption in the network model) and quantifies how
much the measured result would change — the evidence for why the
methodology is built the way it is.
"""

import random

from repro.core import ArrivalSchedule, PoissonArrivals, StatsCollector
from repro.core.traffic import service_stream
from repro.queueing import fcfs_sojourns, mm1_sojourn_percentile
from repro.sim import (
    AppProfile,
    Engine,
    ServiceTimeModel,
    SimConfig,
    SimulatedServer,
    simulate_app,
    simulate_load,
)
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import (
    Exponential,
    HdrHistogram,
    LatencySummary,
    RunController,
    percentile,
)


def test_ablation_closed_loop_underestimates_tail(benchmark, save_result):
    """Coordinated omission: closed-loop load testing vs open-loop."""
    service_mean = 1e-3
    profile = AppProfile(name="ab", service=Exponential.from_mean(service_mean))

    def run_both():
        open_result = simulate_load(
            profile,
            SimConfig(qps=0.8 / service_mean, measure_requests=20_000,
                      warmup_requests=2000),
        )
        # Closed loop: 1 client, next request only after the response.
        engine = Engine()
        collector = StatsCollector()
        state = {"sent": 0}

        def send_next():
            if state["sent"] < 20_000:
                state["sent"] += 1
                server.submit(engine.now)

        def on_response(request):
            collector.add(request.finish())
            send_next()

        server = SimulatedServer(
            engine, ServiceTimeModel(profile.service),
            NETWORK_MODELS["integrated"], 1, random.Random(0), on_response,
        )
        send_next()
        engine.run()
        closed_p99 = collector.snapshot().summary("sojourn").p99
        return open_result.sojourn.p99, closed_p99

    open_p99, closed_p99 = benchmark.pedantic(run_both, rounds=1, iterations=1)
    error = open_p99 / closed_p99
    text = (
        f"open-loop p99: {open_p99 * 1e3:.2f} ms\n"
        f"closed-loop p99: {closed_p99 * 1e3:.2f} ms\n"
        f"closed loop underestimates by {error:.1f}x"
    )
    print("\n" + text)
    save_result("ablation_closed_loop", text)
    # Prior work reports orders-of-magnitude errors; at 80% load the
    # factor must be large.
    assert error > 3.0


def test_ablation_deterministic_arrivals_hide_queueing(benchmark, save_result):
    """Poisson vs fixed interarrivals: burstiness drives tails."""

    def run_both():
        poisson = simulate_app(
            "masstree", SimConfig(qps=4000, measure_requests=15_000)
        )
        uniform = simulate_app(
            "masstree",
            SimConfig(qps=4000, measure_requests=15_000,
                      deterministic_arrivals=True),
        )
        return poisson.sojourn.p99, uniform.sojourn.p99

    poisson_p99, uniform_p99 = benchmark.pedantic(run_both, rounds=1, iterations=1)
    text = (
        f"Poisson p99: {poisson_p99 * 1e6:.0f} us\n"
        f"deterministic p99: {uniform_p99 * 1e6:.0f} us\n"
        f"evenly-spaced arrivals hide {poisson_p99 / uniform_p99:.2f}x of the tail"
    )
    print("\n" + text)
    save_result("ablation_arrivals", text)
    assert poisson_p99 > 1.3 * uniform_p99


def test_ablation_hdr_precision(benchmark, save_result):
    """HDR histogram vs exact samples: error stays within the 1% claim."""

    def run():
        rng = random.Random(0)
        import math

        samples = [rng.lognormvariate(math.log(1e-3), 1.0) for _ in range(100_000)]
        hist = HdrHistogram()
        hist.record_many(samples)
        errors = {}
        for pct in (50.0, 95.0, 99.0, 99.9):
            exact = percentile(samples, pct)
            approx = hist.percentile(pct)
            errors[pct] = abs(approx - exact) / exact
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"p{pct:g}: relative error {err:.4%}" for pct, err in errors.items()
    ) + f"\nbuckets used: 900 vs {100_000} raw samples"
    print("\n" + text)
    save_result("ablation_hdr", text)
    # Bucket midpoint reporting: worst-case half-bucket error ~4.5%,
    # typical well under the 1%-of-value bucket resolution.
    assert all(err < 0.05 for err in errors.values())


def test_ablation_skipping_warmup_biases_tail(benchmark, save_result):
    """Cold-start contamination without the warmup discard, over seeds.

    M/M/1 with 5 000 measured requests, measured from the first request
    and after discarding 1 000, on 200 seeded sample paths per load:
    the simulator's arrival schedule and service stream through the
    exact FCFS recursion, which reproduces a simulated run sample for
    sample. Each arm's mean p95 and the paired per-seed difference carry
    a 95 % t-interval over seeds (the Sec. IV-C method); the closed form
    is the truth. Only what an interval resolves is asserted.
    """
    service_mean, measured, warmup, seeds = 1e-3, 5000, 1000, 200
    service = Exponential.from_mean(service_mean)

    def p95(qps, seed, skip):
        arrivals = ArrivalSchedule.generate(
            PoissonArrivals(qps), skip + measured, seed=seed
        ).times
        rng = service_stream(seed, 0)
        windows = fcfs_sojourns(
            arrivals, [service.sample(rng) for _ in arrivals], 1
        )
        # One worker completes in arrival order.
        sojourns = [end - at for at, (_, end) in zip(arrivals, windows)]
        return percentile(sojourns[skip:], 95.0)

    def run():
        estimates, lower = {}, {}
        for qps in (900.0, 950.0):  # 90% and 95% load
            runs = RunController(max_runs=seeds)
            lower[qps] = 0
            for seed in range(seeds):
                biased, clean = p95(qps, seed, 0), p95(qps, seed, warmup)
                lower[qps] += biased < clean
                runs.add_run(
                    {"biased": biased, "clean": clean, "effect": clean - biased}
                )
            estimates[qps] = runs.estimates()
        return estimates, lower

    estimates, lower = benchmark.pedantic(run, rounds=1, iterations=1)
    truth = {
        qps: mm1_sojourn_percentile(qps, service_mean, 95.0)
        for qps in estimates
    }

    def ms(estimate, sign=""):
        lo, hi = estimate.interval
        return (
            f"{estimate.mean * 1e3:{sign}.2f} "
            f"[{lo * 1e3:{sign}.2f}, {hi * 1e3:{sign}.2f}]"
        )

    rows = [
        f"{qps * service_mean:.0%}  | {truth[qps] * 1e3:11.2f} | "
        f"{ms(e['biased'])} | {ms(e['clean'])} | {ms(e['effect'], '+')}"
        for qps, e in estimates.items()
    ]
    text = "\n".join(
        [
            f"M/M/1, {measured} measured requests, {seeds} seeds per load:",
            "mean p95 in ms with its 95% t-interval over seeds",
            f"load | closed form | {'no warmup':20s} | "
            f"{f'{warmup} warmup':20s} | warmup effect (paired)",
            *rows,
            f"skipping warmup gave the lower p95 on {lower[900.0]}/{seeds} "
            "seeds at 90% load",
            "90%: neither arm is resolvably off the closed form, and the",
            "     paired effect of warmup is not resolved (it spans zero).",
            "95%: skipping warmup resolvably under-estimates p95, but both",
            "     arms fall short of the closed form by more than warmup",
            "     moves them: run length, not warmup, dominates there.",
        ]
    )
    print("\n" + text)
    save_result("ablation_warmup", text)
    at90, at95 = estimates[900.0], estimates[950.0]
    for arm in ("biased", "clean"):
        lo, hi = at90[arm].interval
        assert lo < truth[900.0] < hi
    lo, hi = at90["effect"].interval
    assert lo < 0.0 < hi
    assert at95["effect"].interval[0] > 0.0
    for arm in ("biased", "clean"):
        assert at95[arm].interval[1] < truth[950.0]
    shortfall = truth[950.0] - at95["clean"].interval[1]
    assert shortfall > at95["effect"].interval[1]


def test_ablation_drrip_vs_lru_on_scans(benchmark, save_result):
    """DRRIP's scan resistance vs plain LRU in the L3."""
    from repro.archsim import DrripPolicy, LruPolicy, SetAssociativeCache

    def run_policy(policy):
        cache = SetAssociativeCache(
            256 * 1024, ways=16, line_bytes=64, policy=policy
        )
        hot = [i * 64 for i in range(2048)]  # 128 KB hot set
        scan_ptr = 0x4000_0000
        for _ in range(30):
            for addr in hot:
                cache.access(addr)
            for i in range(8192):  # 512 KB scan >> cache
                cache.access(scan_ptr)
                scan_ptr += 64
        cache.reset_stats()
        for addr in hot:
            cache.access(addr)
        return cache.hits / len(hot)

    def run_both():
        return run_policy(LruPolicy()), run_policy(DrripPolicy())

    lru_hit, drrip_hit = benchmark.pedantic(run_both, rounds=1, iterations=1)
    text = (
        f"hot-set hit rate after scans: LRU {lru_hit:.1%}, "
        f"DRRIP {drrip_hit:.1%}"
    )
    print("\n" + text)
    save_result("ablation_drrip", text)
    assert drrip_hit > lru_hit


def test_ablation_interrupt_steering(benchmark, save_result):
    """What if NIC interrupts ran on application cores? (Sec. VI-A)

    The paper steers interrupts away from app cores; our networked
    model therefore charges only ~12 us of stack work to the worker.
    Charging the full per-end 25 us instead (no steering) roughly
    doubles silo's capacity loss.
    """
    from repro.sim import paper_profile

    def run_both():
        profile = paper_profile("silo")
        steered = profile.service_model(added_occupancy=12e-6)
        unsteered = profile.service_model(added_occupancy=25e-6)
        base = profile.service_model()
        drop_steered = 1 - steered.saturation_qps() / base.saturation_qps()
        drop_unsteered = 1 - unsteered.saturation_qps() / base.saturation_qps()
        return drop_steered, drop_unsteered

    drop_steered, drop_unsteered = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    text = (
        f"silo saturation loss with interrupt steering:    {drop_steered:.0%}\n"
        f"silo saturation loss without interrupt steering: {drop_unsteered:.0%}"
    )
    print("\n" + text)
    save_result("ablation_interrupts", text)
    assert drop_unsteered > drop_steered * 1.4


def test_ablation_cpi_memory_boundness(benchmark, save_result):
    """Trace-grounded cross-check of the Fig. 8 case study.

    The CPI timing model over the synthetic traces independently ranks
    apps by memory-boundness: moses (and img-dnn) near the top, silo
    at the bottom — agreeing with the simulator's ideal-memory
    experiment without sharing any calibration with it.
    """
    from repro.archsim import estimate_cpi

    def run():
        return {
            name: estimate_cpi(name, n_instructions=120_000)
            for name in ("moses", "img-dnn", "silo", "xapian", "masstree")
        }

    estimates = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"{name:9s} CPI {e.cpi:5.2f}  memory-bound {e.memory_boundness:4.0%}  "
        f"ideal-memory speedup {e.ideal_memory_speedup:4.2f}x"
        for name, e in estimates.items()
    )
    print("\n" + text)
    save_result("ablation_cpi", text)
    assert estimates["moses"].memory_boundness > 0.7
    assert estimates["silo"].memory_boundness < 0.5
    assert (
        estimates["moses"].ideal_memory_speedup
        > 2 * estimates["silo"].ideal_memory_speedup
    )


def test_ablation_energy_policies(benchmark, save_result):
    """Extension study: power-management policies vs. tail latency.

    The canonical shape: reactive DVFS dominates static-low on latency
    at comparable energy; deep sleep saves power but shifts its wakeup
    latency into the tail.
    """
    from repro.energy import (
        DeepSleep,
        NoSleep,
        QueueBoost,
        StaticFrequency,
        simulate_energy,
    )
    from repro.sim import paper_profile

    def run():
        profile = paper_profile("masstree")
        qps = 0.3 / profile.service.mean
        results = {}
        for label, freq, sleep in (
            ("max", StaticFrequency(1.0), NoSleep()),
            ("low", StaticFrequency(0.6), NoSleep()),
            ("boost", QueueBoost(low=0.6, high=1.0), NoSleep()),
            ("sleep", StaticFrequency(1.0), DeepSleep()),
        ):
            results[label] = simulate_energy(
                profile.service, qps, frequency_policy=freq,
                sleep_policy=sleep, measure_requests=8000,
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"{label:6s} p95 {r.sojourn.p95 * 1e6:7.1f} us  "
        f"avg power {r.average_power:.3f}x"
        for label, r in results.items()
    )
    print("\n" + text)
    save_result("ablation_energy", text)
    assert results["low"].average_power < results["max"].average_power
    assert results["boost"].sojourn.p95 < results["low"].sojourn.p95
    assert results["boost"].average_power < results["max"].average_power
    assert results["sleep"].average_power < results["max"].average_power
    assert results["sleep"].sojourn.p95 > results["max"].sojourn.p95


def test_ablation_shared_vs_partitioned_queue(benchmark, save_result):
    """Why the harness uses one shared request queue (Fig. 1).

    Random per-worker dispatch strands requests behind busy workers
    while others idle; the shared queue is work-conserving. Same
    offered load, several-fold tail difference.
    """
    from repro.sim import SimConfig, compare_dispatch, paper_profile

    def run():
        profile = paper_profile("masstree")
        config = SimConfig(
            qps=0.7 * 4 / profile.service.mean,
            n_threads=4,
            measure_requests=15_000,
        )
        return compare_dispatch(profile, config)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    shared, partitioned = results["shared"], results["random"]
    text = (
        f"shared queue:    p95 {shared.sojourn.p95 * 1e6:7.1f} us, "
        f"p99 {shared.sojourn.p99 * 1e6:7.1f} us\n"
        f"random dispatch: p95 {partitioned.sojourn.p95 * 1e6:7.1f} us, "
        f"p99 {partitioned.sojourn.p99 * 1e6:7.1f} us"
    )
    print("\n" + text)
    save_result("ablation_dispatch", text)
    assert shared.sojourn.p95 < 0.6 * partitioned.sojourn.p95


def test_ablation_bursty_traffic(benchmark, save_result):
    """Tails under MMPP burst traffic vs Poisson at equal offered load."""
    from repro.core import BurstyArrivals

    service = Exponential.from_mean(1e-3)
    qps = 600.0

    def measure(process):
        arrivals = ArrivalSchedule.generate(process, 30_000, seed=4).times
        rng = random.Random(1)
        windows = fcfs_sojourns(
            arrivals, [service.sample(rng) for _ in arrivals], 1
        )
        # One worker completes in arrival order: the first 2000 warm up.
        sojourns = [end - at for at, (_, end) in zip(arrivals, windows)]
        return LatencySummary.from_samples(sojourns[2000:])

    def run():
        return (
            measure(PoissonArrivals(qps)),
            measure(BurstyArrivals(qps=qps, burstiness=6.0, burst_fraction=0.15)),
        )

    poisson, bursty = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        f"Poisson @600qps: p99 {poisson.p99 * 1e3:.2f} ms\n"
        f"MMPP    @600qps: p99 {bursty.p99 * 1e3:.2f} ms\n"
        f"burstiness inflates p99 by {bursty.p99 / poisson.p99:.1f}x at "
        f"equal offered load"
    )
    print("\n" + text)
    save_result("ablation_bursty", text)
    assert bursty.p99 > 1.5 * poisson.p99

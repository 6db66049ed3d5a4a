/**
 * @file
 * sim-clean-4096: one serial NetworkSim, N=4096, fault-free, uniform
 * traffic at 0.35, tsdt-dynamic.  The per-stage service kernel and
 * the Packet slab do almost all the work.
 *
 * A run repeats one fixed unit — construct, warm up, step a fixed
 * number of measured cycles — until the time budget is spent.  Every
 * unit of a seed simulates the same cycles, so their digests must
 * agree, and set-up is sampled once per unit.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace iadm;

constexpr Label kNetSize = 4096;
constexpr double kRate = 0.35;
constexpr sim::Cycle kWarmupCycles = 200;
constexpr sim::Cycle kMeasureCycles = 1000;

struct Unit
{
    bool traced = false;
    double constructS = 0;
    double warmupS = 0;
    std::vector<double> stepUs;
    double stepSumS = 0;
    std::uint64_t hops = 0;   //!< measured cycles only
    std::uint64_t stalls = 0; //!< measured cycles only
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    bool conserved = false;
    Digest digest;
    LayerStats counts; //!< whole-unit counters for the traced table
};

Unit
runUnit(const Options &opt, bool traced, SpanLog &spans,
        std::uint64_t unit_id)
{
    Unit u;
    u.traced = traced;
    sim::SimConfig cfg;
    cfg.netSize = kNetSize;
    cfg.scheme = sim::RoutingScheme::TsdtDynamic;
    cfg.injectionRate = kRate;
    cfg.seed = mixSeed(opt.seed);

    const auto t0 = Clock::now();
    const std::int32_t unit_span =
        traced ? spans.open("sim.unit", t0, -1, unit_id) : -1;
    sim::NetworkSim net(cfg, sim::TrafficSpec{}.make(kNetSize));
    const auto t1 = Clock::now();
    for (sim::Cycle c = 0; c < kWarmupCycles; ++c)
        net.step();
    const auto t2 = Clock::now();
    u.constructS = secondsBetween(t0, t1);
    u.warmupS = secondsBetween(t1, t2);
    if (traced) {
        spans.add("sim.construct", t0, t1, unit_span, unit_id);
        spans.add("sim.warmup", t1, t2, unit_span, unit_id);
    }

    const std::uint64_t hops0 = net.metrics().totalHops();
    const std::uint64_t stalls0 = net.metrics().totalStalls();
    u.stepUs.reserve(kMeasureCycles);
    for (sim::Cycle c = 0; c < kMeasureCycles; ++c) {
        const auto a = Clock::now();
        net.step();
        const auto b = Clock::now();
        u.stepUs.push_back(
            std::chrono::duration<double, std::micro>(b - a).count());
        if (traced)
            spans.add("sim.step", a, b, unit_span, net.now() - 1);
    }
    if (traced)
        spans.close(unit_span, Clock::now());
    for (const double us : u.stepUs)
        u.stepSumS += us * 1e-6;

    const sim::Metrics &m = net.metrics();
    u.hops = m.totalHops() - hops0;
    u.stalls = m.totalStalls() - stalls0;
    u.offered = m.injected() + m.throttled() + m.unroutable();
    u.delivered = m.delivered();
    u.conserved =
        m.injected() == m.delivered() + m.dropped() + net.inFlight();
    u.digest.addMetrics(m);
    u.digest.add(net.inFlight());
    u.digest.add(net.now());

    LayerStats &l = u.counts;
    l.hopsPerCycle = static_cast<double>(u.hops) / kMeasureCycles;
    l.stallsPerHop = u.hops != 0 ? static_cast<double>(u.stalls) /
                                       static_cast<double>(u.hops)
                                 : 0;
    double depth = 0;
    for (unsigned s = 0; s < m.stages(); ++s)
        depth += m.avgQueueDepth(s);
    l.queueDepthMean = depth / m.stages();
    l.throttled = static_cast<double>(m.throttled());
    l.droppedUnroutable = static_cast<double>(
        m.droppedFor(sim::DropReason::Unroutable));
    l.droppedExpired =
        static_cast<double>(m.droppedFor(sim::DropReason::Expired));
    l.droppedLegacy =
        static_cast<double>(m.droppedFor(sim::DropReason::Legacy));
    const double probes = static_cast<double>(m.routeCacheHits() +
                                              m.routeCacheMisses());
    l.cacheProbes = probes;
    l.cacheHitRatio =
        probes != 0 ? static_cast<double>(m.routeCacheHits()) / probes
                    : 0;
    l.cacheEvictions = static_cast<double>(m.routeCacheEvictions());
    l.reroutesPerPacket =
        m.injected() != 0 ? static_cast<double>(m.totalReroutes()) /
                                static_cast<double>(m.injected())
                          : 0;
    l.backtrackHops = static_cast<double>(m.backtrackHops());
    l.faultTransitions =
        static_cast<double>(m.faultDowns() + m.faultUps());
    return u;
}

/**
 * Hops per host second at the median step() time: the units' hops
 * per measured cycle over the median of their step times.  The
 * median keeps the rate steady when the host stalls the thread for
 * a few steps; hops per cycle keeps it normalized by work.
 */
double
opsPerS(const std::vector<const Unit *> &units)
{
    double hops = 0, cycles = 0;
    std::vector<double> steps;
    for (const Unit *u : units) {
        hops += static_cast<double>(u->hops);
        cycles += static_cast<double>(u->stepUs.size());
        steps.insert(steps.end(), u->stepUs.begin(), u->stepUs.end());
    }
    const double step_us = median(steps);
    return step_us > 0 ? hops / cycles / (step_us * 1e-6) : 0;
}

} // namespace

Result
runSimClean(const Options &opt, SpanLog &spans)
{
    Result res;
    std::vector<Unit> units;
    const auto start = Clock::now();
    // Traced runs alternate untraced and traced units, so the same
    // process measures its own tracing overhead.
    while (units.empty() || (opt.trace && units.size() < 2) ||
           secondsBetween(start, Clock::now()) < opt.seconds) {
        const bool traced = opt.trace && units.size() % 2 == 1;
        units.push_back(runUnit(opt, traced, spans, units.size()));
        const Unit &u = units.back();
        std::printf("unit %zu%s: setup %.4f s, %zu steps, %.0f hops/s "
                    "at the median step, digest %s\n",
                    units.size() - 1, traced ? " (traced)" : "",
                    u.constructS + u.warmupS, u.stepUs.size(),
                    opsPerS({&u}), u.digest.hex().c_str());
    }

    const Unit &first = units.front();
    std::vector<const Unit *> plain, traced;
    std::vector<double> setups, constructs, warmups, plain_steps,
        traced_steps;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const Unit &u = units[i];
        res.attempted += u.stepUs.size();
        if (!u.conserved) {
            res.failed += u.stepUs.size();
            res.fail("unit " + std::to_string(i) +
                     ": injected != delivered + dropped + inFlight");
        }
        if (!(u.digest == first.digest)) {
            res.failed += u.stepUs.size();
            res.fail("unit " + std::to_string(i) + " digest " +
                     u.digest.hex() + " != unit 0 digest " +
                     first.digest.hex() +
                     (u.traced ? " (traced vs untraced)" : ""));
        }
        setups.push_back(u.constructS + u.warmupS);
        constructs.push_back(u.constructS);
        warmups.push_back(u.warmupS);
        auto &steps = u.traced ? traced_steps : plain_steps;
        steps.insert(steps.end(), u.stepUs.begin(), u.stepUs.end());
        (u.traced ? traced : plain).push_back(&u);
    }

    res.e2e.opsPerS = opsPerS(plain);
    res.e2e.latencyP50Us = median(plain_steps);
    res.e2e.setupS = median(setups);
    res.e2e.okFrac = first.offered != 0
                         ? static_cast<double>(first.delivered) /
                               static_cast<double>(first.offered)
                         : 0;
    std::printf("digest sim-clean-4096: %s (delivered %llu of %llu "
                "offered, fail_frac %.6f)\n",
                first.digest.hex().c_str(),
                static_cast<unsigned long long>(first.delivered),
                static_cast<unsigned long long>(first.offered),
                1.0 - res.e2e.okFrac);

    if (opt.trace) {
        LayerStats &l = res.layer;
        l = first.counts;
        double hops = 0, secs = 0;
        for (const Unit *u : traced) {
            hops += static_cast<double>(u->hops);
            secs += u->stepSumS;
        }
        l.nsPerHop = hops > 0 ? secs * 1e9 / hops : 0;
        l.stepCount = static_cast<double>(traced_steps.size());
        l.stepP50Us = quantile(traced_steps, 0.50);
        l.stepP99Us = quantile(traced_steps, 0.99);
        l.constructS = median(constructs);
        l.warmupS = median(warmups);
        l.opsPerSTraced = opsPerS(traced);
        l.opsPerSUntraced = opsPerS(plain);
        l.traceOverheadFrac =
            l.opsPerSUntraced > 0
                ? 1.0 - l.opsPerSTraced / l.opsPerSUntraced
                : 0;
    }
    return res;
}

} // namespace perfbench

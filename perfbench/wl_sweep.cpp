/**
 * @file
 * sweep-faulted-1024: runSweep over all five schemes x rates
 * {0.2, 0.35} x links:96 x churn {none, geometric:400:80} at N=1024,
 * health monitor on, workers = nproc (at most 4), default max-age 0,
 * report written.  Injection-time REROUTE, the route cache, churn,
 * health scans, the worker pool and the JSON writer all do real work.
 *
 * A pass sweeps the grid once for each of kGridsPerPass master seeds
 * drawn from the workload seed, so its statistics average over that
 * many independent fault placements: whether a static-fault cell
 * wedges depends on where the faults fell.  A run repeats the fixed
 * pass until the time budget is spent; a short untimed pass warms the
 * allocator first.
 *
 * Timing comes from the sweep's own hooks: a cell runs from its
 * `setup` hook to `onCellDone` on its worker thread, and a worker's
 * set-up is the gap between its previous `onCellDone` (or sweep
 * start) and its next `setup`.  The `setup` hook also steps each
 * cell's warm-up itself (the grid's own warm-up is 0): runSweep resets
 * the metrics after its warm-up with no hook at that point, and the
 * conservation check needs the packets in flight there.  Nothing is
 * put on the event calendar, since a pending event makes the
 * simulator treat its faults as transient.  Traced passes attach a
 * small TraceSink so that `onReplicateTrace` hands back each finished
 * NetworkSim for the conservation check, and time every warm-up step.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/reroute.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace iadm;

constexpr Label kNetSize = 1024;
constexpr sim::Cycle kWarmupCycles = 300;
constexpr sim::Cycle kMeasureCycles = 500;
/** Grids (independent fault placements) swept per pass. */
constexpr std::uint64_t kGridsPerPass = 6;
/** Inject pairs kept per traced cell for the REROUTE replay. */
constexpr std::size_t kReplayPairs = 256;

sim::SweepGrid
makeGrid(std::uint64_t seed, sim::Cycle measure)
{
    sim::SweepGrid g;
    g.netSizes = {kNetSize};
    g.schemes = {sim::RoutingScheme::SsdtStatic,
                 sim::RoutingScheme::SsdtBalanced,
                 sim::RoutingScheme::TsdtSender,
                 sim::RoutingScheme::DistanceTag,
                 sim::RoutingScheme::TsdtDynamic};
    g.injectionRates = {0.2, 0.35};
    g.faults = {*sim::FaultScenario::parse("links:96")};
    g.churns = {sim::ChurnSpec{},
                *sim::ChurnSpec::parse("geometric:400:80")};
    g.replicates = 1;
    g.warmupCycles = 0; // stepped by the setup hook instead
    g.measureCycles = measure;
    g.masterSeed = seed;
    g.maxPacketAge = 0; // the default: keeps the static-fault wedge
    return g;
}

unsigned
workerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

/** Host timestamps of one cell, written from its worker thread. */
struct CellTiming
{
    Clock::time_point constructFrom; //!< previous onCellDone / start
    Clock::time_point setupAt;
    Clock::time_point doneAt;
    Clock::time_point warmedAt; //!< end of the warm-up in the hook
    /** Traced: start of every warm-up step, then the end of the last. */
    std::vector<Clock::time_point> stepAt;
    std::size_t inFlightAtWarmup = 0;
    bool conserved = false; //!< traced: set by onReplicateTrace
    fault::FaultSet faults; //!< traced: fault map at the end of the run
    std::vector<std::pair<Label, Label>> pairs; //!< traced: injections
};

/** Everything one pass measured. */
struct Pass
{
    bool traced = false;
    double wallS = 0;
    double reportS = 0;
    double constructSumS = 0;
    std::vector<double> cellS;
    std::vector<double> constructS;
    std::vector<double> warmupS;
    std::vector<double> stepUs;    //!< traced only, warm-up steps
    double measuredSumS = 0;       //!< cell time after warm-up
    std::uint64_t hops = 0;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::vector<std::string> zeroCells;
    std::vector<std::string> unconserved;
    Digest digest;
    LayerStats counts;
    std::vector<sim::CellResult> results;
    std::vector<CellTiming> timing;
};

std::string
cellName(const sim::SweepCell &c)
{
    char rate[16];
    std::snprintf(rate, sizeof(rate), "%g", c.injectionRate);
    return std::string(sim::routingSchemeName(c.scheme)) + "/" + rate +
           "/" + c.fault.name() + "/" + c.churn.name();
}

/** Start, end of runSweep, end of the report write. */
struct SweepTimes
{
    Clock::time_point start, swept, written;
};

/**
 * One runSweep call over @p grid, each cell warmed up for @p warmup
 * cycles by the setup hook and timed through the hooks into @p timing
 * (one slot per cell), plus the report write.
 */
SweepTimes
sweepOnce(const sim::SweepGrid &grid, sim::Cycle warmup,
          const Options &opt, bool traced,
          CellTiming *timing, std::vector<sim::CellResult> &results,
          bool write_report, unsigned grid_id)
{
    SweepTimes st;
    std::mutex mu; // guards lastDone
    std::map<std::thread::id, Clock::time_point> lastDone;

    sim::SweepOptions so;
    so.workers = workerCount();
    so.health = true;
    so.setup = [&](sim::NetworkSim &net, const sim::SweepCell &cell,
                   Rng &) {
        CellTiming &t = timing[cell.cellIndex];
        t.setupAt = Clock::now();
        {
            std::lock_guard<std::mutex> lk(mu);
            const auto it = lastDone.find(std::this_thread::get_id());
            t.constructFrom = it == lastDone.end() ? st.start : it->second;
        }
        if (traced) {
            t.stepAt.reserve(warmup + 1);
            t.stepAt.push_back(Clock::now());
            for (sim::Cycle c = 0; c < warmup; ++c) {
                net.step();
                t.stepAt.push_back(Clock::now());
            }
        } else {
            net.run(warmup);
        }
        t.inFlightAtWarmup = net.inFlight();
        t.warmedAt = Clock::now();
    };
    so.onCellDone = [&](const sim::CellResult &r, std::size_t,
                        std::size_t) {
        const auto now = Clock::now();
        timing[r.cell.cellIndex].doneAt = now;
        std::lock_guard<std::mutex> lk(mu);
        lastDone[std::this_thread::get_id()] = now;
    };
    if (traced) {
        so.traceCapacity = 8192;
        so.onReplicateTrace = [&](const sim::SweepCell &cell, unsigned,
                                  const obs::TraceSink &sink,
                                  const sim::NetworkSim &net) {
            CellTiming &t = timing[cell.cellIndex];
            const sim::Metrics &m = net.metrics();
            // Metrics were reset after the warm-up: the packets then
            // in flight must show up as delivered, dropped or still in
            // flight by the end.
            t.conserved = m.injected() + t.inFlightAtWarmup ==
                          m.delivered() + m.dropped() + net.inFlight();
            t.faults = net.faults();
            for (const auto &e : sink.snapshot()) {
                if (e.kind != obs::EventKind::Inject)
                    continue;
                t.pairs.emplace_back(e.sw, e.aux);
                if (t.pairs.size() == kReplayPairs)
                    break;
            }
        };
    }

    st.start = Clock::now();
    results = sim::runSweep(grid, so);
    st.swept = Clock::now();
    if (write_report) {
        sim::ReportOptions ro;
        ro.buildType = bench::buildType();
        const std::string doc = sim::sweepReportJson(grid, results, ro);
        std::ofstream of(opt.outDir + "/sweep-report-" +
                         std::to_string(grid_id) + ".json");
        of << doc << "\n";
    }
    st.written = Clock::now();
    return st;
}

/** One pass: every grid of @p grids swept in turn. */
Pass
runPass(const std::vector<sim::SweepGrid> &grids, sim::Cycle warmup,
        const Options &opt, bool traced, SpanLog *spans,
        std::uint64_t pass_id, bool write_report)
{
    Pass p;
    p.traced = traced;
    const sim::SweepGrid &grid = grids.front();
    const std::size_t per_grid = grid.cellCount();
    const std::size_t cells = per_grid * grids.size();
    p.timing.resize(cells);
    std::vector<SweepTimes> times;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        std::vector<sim::CellResult> results;
        times.push_back(sweepOnce(grids[g], warmup, opt, traced,
                                  &p.timing[g * per_grid], results,
                                  write_report,
                                  static_cast<unsigned>(g)));
        for (auto &r : results)
            p.results.push_back(std::move(r));
        p.reportS += secondsBetween(times.back().swept,
                                    times.back().written);
    }
    p.wallS = secondsBetween(times.front().start, times.back().written);

    const std::int32_t pass_span =
        spans != nullptr ? spans->add("sweep.pass", times.front().start,
                                      times.back().written, -1, pass_id)
                         : -1;
    if (spans != nullptr)
        for (std::size_t g = 0; g < times.size(); ++g) {
            spans->add("sweep.run", times[g].start, times[g].swept,
                       pass_span, g);
            spans->add("sweep.report_write", times[g].swept,
                       times[g].written, pass_span, g);
        }

    // Per-cell outcomes, digest and counters.
    LayerStats &l = p.counts;
    double depth = 0;
    std::uint64_t injected = 0, reroutes = 0, hits = 0, misses = 0;
    for (std::size_t ci = 0; ci < cells; ++ci) {
        const sim::CellResult &cr = p.results[ci];
        const sim::ReplicateResult &rr = cr.replicates.front();
        const sim::Metrics &m = rr.metrics;
        const CellTiming &t = p.timing[ci];
        const double cell_s = secondsBetween(t.setupAt, t.doneAt);
        const double construct_s =
            secondsBetween(t.constructFrom, t.setupAt);
        p.cellS.push_back(cell_s);
        p.constructS.push_back(construct_s);
        p.constructSumS += construct_s;
        p.hops += m.totalHops();
        p.offered += m.injected() + m.throttled() + m.unroutable();
        p.delivered += m.delivered();
        if (m.delivered() == 0)
            p.zeroCells.push_back(cellName(cr.cell));
        if (traced && !t.conserved)
            p.unconserved.push_back(cellName(cr.cell));

        p.digest.addMetrics(m);
        p.digest.add(rr.health.scans);
        p.digest.add(rr.health.deadlocks);
        p.digest.add(rr.health.progressViolations);
        p.digest.add(rr.health.maxHeadStall);
        p.digest.add(rr.health.lastProgressCycle);

        injected += m.injected();
        reroutes += m.totalReroutes();
        hits += m.routeCacheHits();
        misses += m.routeCacheMisses();
        l.cacheEvictions += static_cast<double>(m.routeCacheEvictions());
        l.throttled += static_cast<double>(m.throttled());
        l.droppedUnroutable += static_cast<double>(
            m.droppedFor(sim::DropReason::Unroutable));
        l.droppedExpired += static_cast<double>(
            m.droppedFor(sim::DropReason::Expired));
        l.droppedLegacy += static_cast<double>(
            m.droppedFor(sim::DropReason::Legacy));
        l.backtrackHops += static_cast<double>(m.backtrackHops());
        l.faultTransitions +=
            static_cast<double>(m.faultDowns() + m.faultUps());
        l.stallsPerHop += static_cast<double>(m.totalStalls());
        l.healthScans += static_cast<double>(rr.health.scans);
        l.healthDeadlocks += static_cast<double>(rr.health.deadlocks);
        l.healthProgressViolations +=
            static_cast<double>(rr.health.progressViolations);
        double cell_depth = 0;
        for (unsigned s = 0; s < m.stages(); ++s)
            cell_depth += m.avgQueueDepth(s);
        depth += cell_depth / m.stages();

        std::int32_t cell_span = -1; // parent of the warm-up steps
        if (spans != nullptr) {
            spans->add("sweep.construct", t.constructFrom, t.setupAt,
                       pass_span, ci);
            cell_span =
                spans->add("sweep.cell", t.setupAt, t.doneAt, pass_span,
                           ci);
            cell_span = spans->add("sweep.warmup", t.setupAt, t.warmedAt,
                                   cell_span, ci);
        }
        p.warmupS.push_back(secondsBetween(t.setupAt, t.warmedAt));
        p.measuredSumS += secondsBetween(t.warmedAt, t.doneAt);
        for (std::size_t c = 0; c + 1 < t.stepAt.size(); ++c) {
            p.stepUs.push_back(std::chrono::duration<double, std::micro>(
                                   t.stepAt[c + 1] - t.stepAt[c])
                                   .count());
            if (spans != nullptr)
                spans->add("sim.step", t.stepAt[c], t.stepAt[c + 1],
                           cell_span, c);
        }
    }
    l.stallsPerHop =
        p.hops != 0 ? l.stallsPerHop / static_cast<double>(p.hops) : 0;
    l.queueDepthMean = depth / static_cast<double>(cells);
    l.hopsPerCycle = static_cast<double>(p.hops) /
                     static_cast<double>(cells * grid.measureCycles);
    l.cacheProbes = static_cast<double>(hits + misses);
    l.cacheHitRatio =
        hits + misses != 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0;
    l.reroutesPerPacket = injected != 0 ? static_cast<double>(reroutes) /
                                              static_cast<double>(injected)
                                        : 0;
    l.sweepCells = static_cast<double>(cells);
    l.sweepZeroDeliveryCells = static_cast<double>(p.zeroCells.size());
    double busy = 0;
    for (const double s : p.cellS)
        busy += s;
    l.sweepWorkerBusyFrac = busy / (workerCount() * p.wallS);
    l.sweepCellMaxS = *std::max_element(p.cellS.begin(), p.cellS.end());
    l.sweepReportWriteS = p.reportS;
    return p;
}

/** REROUTE replayed on the traced cells' own pairs and fault maps. */
void
replayReroute(const Pass &p, LayerStats &l)
{
    const topo::IadmTopology net(kNetSize);
    std::uint64_t calls = 0;
    unsigned ok = 0;
    const auto t0 = Clock::now();
    for (const CellTiming &t : p.timing)
        for (const auto &[src, dst] : t.pairs) {
            ok += core::universalRouteCompact(net, t.faults, src, dst).ok;
            ++calls;
        }
    const auto t1 = Clock::now();
    l.rerouteCalls = static_cast<double>(calls);
    l.rerouteNsPerCall =
        calls != 0 ? secondsBetween(t0, t1) * 1e9 /
                         static_cast<double>(calls)
                   : 0;
    std::printf("reroute replay: %llu calls, %u ok\n",
                static_cast<unsigned long long>(calls), ok);
}

/** Per-cell outcome table of one pass. */
void
printCells(const Pass &p)
{
    for (std::size_t ci = 0; ci < p.results.size(); ++ci) {
        const sim::CellResult &cr = p.results[ci];
        const sim::Metrics &m = cr.replicates.front().metrics;
        const std::uint64_t offered =
            m.injected() + m.throttled() + m.unroutable();
        std::printf("cell %2zu %-40s offered %8llu delivered %8llu "
                    "hops %9llu dropped %llu/%llu/%llu "
                    "(unroutable/expired/legacy) latency p50 %llu",
                    ci, cellName(cr.cell).c_str(),
                    static_cast<unsigned long long>(offered),
                    static_cast<unsigned long long>(m.delivered()),
                    static_cast<unsigned long long>(m.totalHops()),
                    static_cast<unsigned long long>(
                        m.droppedFor(sim::DropReason::Unroutable)),
                    static_cast<unsigned long long>(
                        m.droppedFor(sim::DropReason::Expired)),
                    static_cast<unsigned long long>(
                        m.droppedFor(sim::DropReason::Legacy)),
                    static_cast<unsigned long long>(
                        m.latencyPercentile(0.5)));
        // A wedged cell's hops/s is the speed of an idle network,
        // not throughput: never publish it.
        if (m.delivered() == 0)
            std::printf("  ZERO DELIVERY: hops/s not published\n");
        else
            std::printf("  %.0f hops/s\n",
                        static_cast<double>(m.totalHops()) /
                            p.cellS[ci]);
    }
}

double
opsPerS(const Pass &p)
{
    return p.wallS > 0 ? static_cast<double>(p.hops) / p.wallS : 0;
}

} // namespace

Result
runSweepFaulted(const Options &opt, SpanLog &spans)
{
    Result res;
    // Independent fault placements per pass, master seeds drawn from
    // the workload seed.
    std::vector<sim::SweepGrid> grids, warm;
    for (std::uint64_t g = 0; g < kGridsPerPass; ++g) {
        const std::uint64_t master = mixSeed(opt.seed * 16 + g);
        grids.push_back(makeGrid(master, kMeasureCycles));
        warm.push_back(makeGrid(master, 100));
    }
    // Untimed warm pass: a shorter run of the same grids, so the
    // allocator and page cache reach their steady state first.
    runPass(warm, 50, opt, false, nullptr, 0, false);

    std::vector<Pass> passes;
    const auto start = Clock::now();
    while (passes.empty() || (opt.trace && passes.size() < 2) ||
           secondsBetween(start, Clock::now()) < opt.seconds) {
        const bool traced = opt.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(grids, kWarmupCycles, opt, traced,
                                 traced ? &spans : nullptr,
                                 passes.size(), true));
        Pass &p = passes.back();
        std::printf("pass %zu%s: wall %.4f s, set-up %.4f s, %.0f "
                    "hops/s, digest %s\n",
                    passes.size() - 1, traced ? " (traced)" : "",
                    p.wallS, p.constructSumS, opsPerS(p),
                    p.digest.hex().c_str());
        if (passes.size() == 1)
            printCells(p);
        // Each cell's Metrics copy holds per-link hop counters: keep
        // them for one pass only, so that peak RSS does not grow with
        // the number of passes a run fits in.
        p.results = {};
    }

    const Pass &first = passes.front();
    for (const auto &name : first.zeroCells)
        std::printf("zero-delivery cell: %s\n", name.c_str());

    std::vector<double> ops, cell_s;
    std::vector<std::vector<double>> construct(first.cellS.size());
    const Pass *traced_pass = nullptr;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        res.attempted += p.cellS.size();
        for (const auto &name : p.unconserved) {
            ++res.failed;
            res.fail("pass " + std::to_string(i) + " cell " + name +
                     ": injected + in-flight at warmup != delivered + "
                     "dropped + inFlight");
        }
        if (!(p.digest == first.digest)) {
            res.failed += p.cellS.size();
            res.fail("pass " + std::to_string(i) + " digest " +
                     p.digest.hex() + " != pass 0 digest " +
                     first.digest.hex() +
                     (p.traced ? " (traced vs untraced)" : ""));
        }
        if (p.traced) {
            traced_pass = traced_pass ? traced_pass : &p;
            continue;
        }
        ops.push_back(opsPerS(p));
        cell_s.insert(cell_s.end(), p.cellS.begin(), p.cellS.end());
        for (std::size_t ci = 0; ci < p.constructS.size(); ++ci)
            construct[ci].push_back(p.constructS[ci]);
    }
    res.e2e.opsPerS = median(ops);
    res.e2e.latencyP50Us = median(cell_s) * 1e6;
    // Set-up of a pass: each cell's construction, as the median over
    // the run's passes, summed over the cells.
    for (const auto &c : construct)
        res.e2e.setupS += median(c);
    res.e2e.okFrac = first.offered != 0
                         ? static_cast<double>(first.delivered) /
                               static_cast<double>(first.offered)
                         : 0;
    std::printf("digest sweep-faulted-1024: %s (delivered %llu of %llu "
                "offered, fail_frac %.6f, %zu zero-delivery cells)\n",
                first.digest.hex().c_str(),
                static_cast<unsigned long long>(first.delivered),
                static_cast<unsigned long long>(first.offered),
                1.0 - res.e2e.okFrac, first.zeroCells.size());

    if (opt.trace && traced_pass != nullptr) {
        const Pass &tp = *traced_pass;
        LayerStats &l = res.layer;
        l = tp.counts;
        std::vector<double> steps = tp.stepUs;
        l.stepCount = static_cast<double>(steps.size());
        l.stepP50Us = quantile(steps, 0.50);
        l.stepP99Us = quantile(steps, 0.99);
        l.nsPerHop = tp.hops != 0 ? tp.measuredSumS * 1e9 /
                                        static_cast<double>(tp.hops)
                                  : 0;
        l.constructS = median(tp.constructS);
        l.warmupS = median(tp.warmupS);
        l.sweepConstructSPerCell = l.constructS;
        replayReroute(tp, l);
        std::vector<double> traced_ops;
        for (const Pass &p : passes)
            if (p.traced)
                traced_ops.push_back(opsPerS(p));
        l.opsPerSTraced = median(traced_ops);
        l.opsPerSUntraced = res.e2e.opsPerS;
        l.traceOverheadFrac =
            l.opsPerSUntraced > 0
                ? 1.0 - l.opsPerSTraced / l.opsPerSUntraced
                : 0;
    }
    return res;
}

} // namespace perfbench

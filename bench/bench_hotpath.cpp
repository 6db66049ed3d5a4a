/**
 * @file
 * Hot-path microbenchmark for the cycle-level simulator.
 *
 * Drives NetworkSim::step() for every routing scheme at
 * N in {64, 256, 1024} and reports cycles/sec, hops/sec and the
 * p50/p99 per-step wall time.  The numbers land in an
 * iadm-bench-hotpath-v1 JSON document (default BENCH_hotpath.json)
 * tagged with the build type, so unoptimized runs cannot silently
 * enter the perf trajectory; docs/PERF.md describes the schema and
 * how to compare runs.
 *
 * Usage:
 *   bench_hotpath [--cycles N] [--net-size N] [--rate R]
 *                 [--faults K] [--no-cache] [--out FILE]
 *                 [--traffic SPEC]
 *                 [--trace-overhead] [--health-overhead]
 *                 [--churn-overhead] [--cache-pairs]
 *
 * --trace-overhead runs every configuration twice in a paired
 * A/B — trace sink detached (the normal production setting) and
 * attached — and reports the relative cycles/sec cost of each.
 * Configs gain a "trace_mode" field ("off"/"on"); without the flag
 * the field is absent and the document is unchanged.  The paired
 * run is how the <=2% disabled-hook budget in docs/PERF.md is
 * measured: compare a --trace-overhead "off" rung of an IADM_TRACE
 * build against a plain run of a trace-off build.
 *
 * --health-overhead is the same paired A/B for the IADM_HEALTH
 * monitor hooks: every configuration runs with no monitor attached
 * and again with a HealthMonitor watching ("health_mode"
 * "off"/"on").  The "on" rung is the acceptance gate for the <=2%
 * monitor-on budget (docs/OBSERVABILITY.md); the "off" rung checks
 * the detached hook costs a plain run nothing.
 *
 * --churn-overhead is the same paired A/B for fault churn: every
 * configuration runs without churn and with a geometric MTBF/MTTR
 * process attached ("churn_mode" "off"/"on").  The "off" rung is
 * the acceptance gate that the churn machinery costs a churn-free
 * run nothing — its cycles/sec must stay within the run-to-run
 * noise band (±2%) of a plain BENCH_hotpath.json rung.
 *
 * --cache-pairs is the paired A/B for the fault-epoch route cache:
 * every configuration runs cache-on and again with the cache
 * force-disabled (the rungs are told apart by the existing
 * "route_cache" field, so the document schema is unchanged).  The
 * cache is routing-neutral by construction, so the paired rungs
 * must agree on delivered/hops exactly — the binary fails if they
 * diverge — and the cycles/sec ratio is the speedup the compressed
 * 16-byte entries buy (docs/PERF.md quotes these numbers).
 *
 * --traffic takes any traffic scenario spec (docs/SIMULATOR.md,
 * "Spec grammar"); the default is uniform.  Every numeric flag is
 * read strictly (common/spec_reader.hpp) and a bad value exits 2.
 *
 * --net-size 0 (default) runs the full {64, 256, 1024} ladder; a
 * specific size runs only that one (the perf-smoke ctest uses
 * --cycles 2000 --net-size 64).  By default every (size, scheme)
 * pair runs twice — fault-free and with 6 * (N / 64) random static
 * link blockages — so the faulted injection path (where the
 * fault-epoch route cache earns its keep) is always on the perf
 * trajectory; --faults K pins a single blockage count instead, and
 * --no-cache disables the route cache for an uncached baseline of
 * the same binary.  The binary re-reads and schema-checks its own
 * report before exiting, so a malformed document fails the run.
 *
 * A row that delivered nothing measured an idle (wedged) network,
 * whose cycles/sec is not throughput: it gains "wedged": true in the
 * report and a warning on stderr, and the table prints no rates
 * for it.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "common/spec_reader.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace iadm;
using namespace iadm::sim;
using Clock = std::chrono::steady_clock;

struct Options
{
    Cycle cycles = 8000;
    Label netSize = 0; //!< 0 = the full {64, 256, 1024} ladder
    double rate = 0.35;
    std::optional<std::size_t> faults; //!< unset = {0, 6 * N / 64}
    bool noCache = false;
    bool cachePairs = false;
    bool traceOverhead = false;
    bool healthOverhead = false;
    bool churnOverhead = false;
    TrafficSpec traffic; //!< uniform unless --traffic
    std::string out = "BENCH_hotpath.json";
};

struct ConfigResult
{
    Label netSize;
    RoutingScheme scheme;
    Cycle cycles;
    std::size_t faultLinks;
    bool routeCache;
    double elapsedSec;
    double cyclesPerSec;
    double hopsPerSec;
    std::uint64_t stepP50Ns;
    std::uint64_t stepP99Ns;
    std::uint64_t delivered;
    std::uint64_t hops;
    std::uint64_t cacheHits;
    std::uint64_t cacheMisses;
    const char *traceMode = nullptr; //!< "off"/"on" in paired mode
    const char *healthMode = nullptr; //!< "off"/"on" in paired mode
    const char *churnMode = nullptr; //!< "off"/"on" in paired mode

    /** Nothing delivered: the rates time an idle network. */
    bool wedged() const { return delivered == 0; }
};

/** Flag a wedged row on stderr (its rates are not throughput). */
void
warnIfWedged(const ConfigResult &r)
{
    if (!r.wedged())
        return;
    std::fprintf(stderr,
                 "warning: N=%u %s faults=%zu cache=%s delivered 0 "
                 "packets in %llu cycles: wedged, its cycles/sec and "
                 "hops/sec are not throughput\n",
                 r.netSize, routingSchemeName(r.scheme), r.faultLinks,
                 r.routeCache ? "on" : "off",
                 static_cast<unsigned long long>(r.cycles));
}

std::uint64_t
percentileNs(std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

ConfigResult
runConfig(Label n_size, RoutingScheme scheme, std::size_t fault_links,
          const Options &opt, obs::TraceSink *sink = nullptr,
          bool churn = false, bool force_no_cache = false,
          bool health = false)
{
    SimConfig cfg;
    cfg.netSize = n_size;
    cfg.scheme = scheme;
    cfg.injectionRate = opt.rate;
    cfg.seed = 97;
    cfg.routeCache = !opt.noCache && !force_no_cache;

    // Static random-link blockages, deterministically derived from
    // (N, count) so reruns and cached/uncached pairs see identical
    // fault sets.
    fault::FaultSet faults;
    if (fault_links != 0) {
        const topo::IadmTopology topo(n_size);
        Rng frng(0x8088 + n_size);
        faults = FaultScenario{FaultScenario::Kind::RandomLinks,
                               fault_links}
                     .make(topo, frng);
    }
    NetworkSim s(cfg, opt.traffic.make(n_size),
                 std::move(faults));
    if (sink != nullptr) {
        sink->clear();
        s.setTraceSink(sink);
    }
    if (churn)
        // Mild, size-independent churn: enough transitions to keep
        // the epoch machinery hot without drowning the routing work.
        s.addFaultProcess(std::make_unique<fault::GeometricChurn>(
            s.topology(), 2000.0, 200.0, 0xbe11));

    s.run(opt.cycles / 10); // warm the queues into steady state
    s.resetMetrics();
    obs::HealthMonitor monitor; // must outlive the stepped loop
    if (health)
        s.setHealthMonitor(&monitor); // after warmup: watch the
                                      // measured cycles only
    const std::uint64_t hops0 = s.metrics().totalHops();

    std::vector<std::uint64_t> stepNs;
    stepNs.reserve(opt.cycles);
    std::uint64_t totalNs = 0;
    for (Cycle c = 0; c < opt.cycles; ++c) {
        const auto t0 = Clock::now();
        s.step();
        const auto t1 = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        stepNs.push_back(ns);
        totalNs += ns;
    }
    std::sort(stepNs.begin(), stepNs.end());

    ConfigResult r;
    r.netSize = n_size;
    r.scheme = scheme;
    r.cycles = opt.cycles;
    r.faultLinks = fault_links;
    r.routeCache = s.routeCacheEnabled();
    r.cacheHits = s.metrics().routeCacheHits();
    r.cacheMisses = s.metrics().routeCacheMisses();
    r.elapsedSec = static_cast<double>(totalNs) * 1e-9;
    r.cyclesPerSec = r.elapsedSec > 0
                         ? static_cast<double>(opt.cycles) /
                               r.elapsedSec
                         : 0.0;
    r.hops = s.metrics().totalHops() - hops0;
    r.hopsPerSec = r.elapsedSec > 0
                       ? static_cast<double>(r.hops) / r.elapsedSec
                       : 0.0;
    r.stepP50Ns = percentileNs(stepNs, 0.50);
    r.stepP99Ns = percentileNs(stepNs, 0.99);
    r.delivered = s.metrics().delivered();
    return r;
}

void
writeReport(std::ostream &os, const Options &opt,
            const std::vector<ConfigResult> &results)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("iadm-bench-hotpath-v1");
    w.key("build_type");
    w.value(iadm::bench::buildType());
    w.key("injection_rate");
    w.value(opt.rate);
    w.key("traffic");
    w.value(opt.traffic.name());
    w.key("configs");
    w.beginArray();
    for (const auto &r : results) {
        w.beginObject();
        w.key("net_size");
        w.value(static_cast<std::uint64_t>(r.netSize));
        w.key("scheme");
        w.value(routingSchemeName(r.scheme));
        w.key("cycles");
        w.value(r.cycles);
        w.key("fault_links");
        w.value(static_cast<std::uint64_t>(r.faultLinks));
        w.key("route_cache");
        w.value(r.routeCache);
        w.key("route_cache_hits");
        w.value(r.cacheHits);
        w.key("route_cache_misses");
        w.value(r.cacheMisses);
        w.key("elapsed_sec");
        w.value(r.elapsedSec);
        w.key("cycles_per_sec");
        w.value(r.cyclesPerSec);
        w.key("hops_per_sec");
        w.value(r.hopsPerSec);
        w.key("step_p50_ns");
        w.value(r.stepP50Ns);
        w.key("step_p99_ns");
        w.value(r.stepP99Ns);
        w.key("delivered");
        w.value(r.delivered);
        w.key("hops");
        w.value(r.hops);
        if (r.wedged()) {
            w.key("wedged");
            w.value(true);
        }
        if (r.traceMode != nullptr) {
            w.key("trace_mode");
            w.value(r.traceMode);
        }
        if (r.healthMode != nullptr) {
            w.key("health_mode");
            w.value(r.healthMode);
        }
        if (r.churnMode != nullptr) {
            w.key("churn_mode");
            w.value(r.churnMode);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

/** Minimal schema check of the emitted report (perf-smoke gate). */
bool
reportIsSchemaValid(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string doc = buf.str();
    for (const char *needle :
         {"\"schema\": \"iadm-bench-hotpath-v1\"", "\"build_type\"",
          "\"configs\"", "\"cycles_per_sec\"", "\"hops_per_sec\"",
          "\"step_p50_ns\"", "\"step_p99_ns\"", "\"fault_links\"",
          "\"route_cache\"", "\"route_cache_hits\"",
          "\"route_cache_misses\""}) {
        if (doc.find(needle) == std::string::npos) {
            std::cerr << "schema check failed: missing " << needle
                      << " in " << path << "\n";
            return false;
        }
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string_view {
            return i + 1 < argc ? argv[++i] : "";
        };
        bool ok = true;
        if (flag == "--cycles") {
            ok = spec::readNumber(next(), opt.cycles);
        } else if (flag == "--net-size") {
            ok = spec::readNumber(next(), opt.netSize) &&
                 (opt.netSize == 0 ||
                  (opt.netSize >= 2 && isPowerOfTwo(opt.netSize)));
        } else if (flag == "--rate") {
            ok = spec::readNumber(next(), opt.rate, 0.0, 1.0);
        } else if (flag == "--faults") {
            std::size_t k = 0;
            ok = spec::readNumber(next(), k);
            opt.faults = k;
        } else if (flag == "--no-cache") {
            opt.noCache = true;
        } else if (flag == "--cache-pairs") {
            opt.cachePairs = true;
        } else if (flag == "--trace-overhead") {
            opt.traceOverhead = true;
        } else if (flag == "--health-overhead") {
            opt.healthOverhead = true;
        } else if (flag == "--churn-overhead") {
            opt.churnOverhead = true;
        } else if (flag == "--traffic") {
            const auto t = TrafficSpec::parse(std::string(next()));
            ok = t.has_value();
            if (t)
                opt.traffic = *t;
        } else if (flag == "--out") {
            opt.out = next();
            ok = !opt.out.empty();
        } else {
            std::cerr << "unknown flag: " << flag << "\n";
            return false;
        }
        if (!ok) {
            std::cerr << "bad value for " << flag << "\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    iadm::bench::guardBuildType();

    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << "usage: bench_hotpath [--cycles N] "
                     "[--net-size N] [--rate R] [--faults K] "
                     "[--no-cache] [--traffic SPEC] "
                     "[--trace-overhead] [--health-overhead] "
                     "[--churn-overhead] [--cache-pairs] "
                     "[--out FILE]\n";
        return 2;
    }

    const std::vector<Label> sizes =
        opt.netSize != 0 ? std::vector<Label>{opt.netSize}
                         : std::vector<Label>{64, 256, 1024};
    const std::vector<RoutingScheme> schemes{
        RoutingScheme::SsdtStatic, RoutingScheme::SsdtBalanced,
        RoutingScheme::TsdtSender, RoutingScheme::DistanceTag,
        RoutingScheme::TsdtDynamic};
    for (const Label n_size : sizes) {
        const FaultScenario pinned{FaultScenario::Kind::RandomLinks,
                                   opt.faults.value_or(0)};
        auto err = opt.traffic.validate(n_size);
        if (!err)
            err = pinned.validate(n_size);
        if (err) {
            std::cerr << "bench_hotpath: " << *err << "\n";
            return 2;
        }
    }

    std::vector<ConfigResult> results;
    const auto record = [&results](const ConfigResult &r) {
        warnIfWedged(r);
        results.push_back(r);
    };
    std::cout << "  N  scheme         faults  cache   cycles/sec"
                 "      hops/sec    p50(ns)    p99(ns)\n";
    for (const Label n_size : sizes) {
        // Default ladder: fault-free plus a size-proportional
        // faulted row (6 blockages per 64 nodes); --faults K pins
        // one row.
        const std::vector<std::size_t> fault_counts =
            opt.faults ? std::vector<std::size_t>{*opt.faults}
                       : std::vector<std::size_t>{
                             0, static_cast<std::size_t>(6) *
                                    (n_size / 64)};
        for (const std::size_t fault_links : fault_counts) {
            for (const RoutingScheme scheme : schemes) {
                if (opt.traceOverhead) {
                    // Paired A/B: identical config, sink detached
                    // then attached.  Both rungs share one sink
                    // allocation so the "on" rung measures
                    // recording, not first-touch page faults.
                    static obs::TraceSink sink;
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.traceMode = "off";
                    auto on = runConfig(n_size, scheme, fault_links,
                                        opt, &sink);
                    on.traceMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "trace on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    record(off);
                    record(on);
                    continue;
                }
                if (opt.healthOverhead) {
                    // Paired A/B: identical config, monitor detached
                    // then attached.  The "on" rung carries the
                    // <=2% monitor budget (docs/OBSERVABILITY.md).
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.healthMode = "off";
                    auto on =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, false, true);
                    on.healthMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "health on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    record(off);
                    record(on);
                    continue;
                }
                if (opt.cachePairs) {
                    // Paired A/B: identical config, cache on then
                    // force-disabled.  Routing neutrality makes
                    // delivered/hops a built-in cross-check.
                    const auto on =
                        runConfig(n_size, scheme, fault_links, opt);
                    const auto off =
                        runConfig(n_size, scheme, fault_links, opt,
                                  nullptr, false, true);
                    if (on.delivered != off.delivered ||
                        on.hops != off.hops) {
                        std::cerr << "cached run diverged from "
                                     "uncached (routing-neutrality "
                                     "bug)\n";
                        return 1;
                    }
                    const double speedup =
                        off.cyclesPerSec > 0
                            ? on.cyclesPerSec / off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  cache %12.0f  %12.0f  "
                        "no-cache: %12.0f  (x%.2f)\n",
                        on.netSize, routingSchemeName(on.scheme),
                        on.faultLinks, on.cyclesPerSec,
                        on.hopsPerSec, off.cyclesPerSec, speedup);
                    record(on);
                    record(off);
                    continue;
                }
                if (opt.churnOverhead) {
                    auto off =
                        runConfig(n_size, scheme, fault_links, opt);
                    off.churnMode = "off";
                    auto on = runConfig(n_size, scheme, fault_links,
                                        opt, nullptr, true);
                    on.churnMode = "on";
                    const double pct =
                        off.cyclesPerSec > 0
                            ? 100.0 * (off.cyclesPerSec -
                                       on.cyclesPerSec) /
                                  off.cyclesPerSec
                            : 0.0;
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  "
                        "churn on: %12.0f  (%+.1f%%)\n",
                        off.netSize, routingSchemeName(off.scheme),
                        off.faultLinks,
                        off.routeCache ? "on" : "off",
                        off.cyclesPerSec, off.hopsPerSec,
                        on.cyclesPerSec, pct);
                    record(off);
                    record(on);
                    continue;
                }
                const auto r =
                    runConfig(n_size, scheme, fault_links, opt);
                if (r.wedged())
                    std::printf("%5u  %-13s %6zu  %5s  wedged: 0 "
                                "delivered, no rates\n",
                                r.netSize,
                                routingSchemeName(r.scheme),
                                r.faultLinks,
                                r.routeCache ? "on" : "off");
                else
                    std::printf(
                        "%5u  %-13s %6zu  %5s %12.0f  %12.0f  %9llu  "
                        "%9llu\n",
                        r.netSize, routingSchemeName(r.scheme),
                        r.faultLinks, r.routeCache ? "on" : "off",
                        r.cyclesPerSec, r.hopsPerSec,
                        static_cast<unsigned long long>(r.stepP50Ns),
                        static_cast<unsigned long long>(r.stepP99Ns));
                record(r);
            }
        }
    }

    std::ofstream os(opt.out, std::ios::binary);
    if (!os) {
        std::cerr << "cannot write " << opt.out << "\n";
        return 1;
    }
    writeReport(os, opt, results);
    os.close();

    if (!reportIsSchemaValid(opt.out))
        return 1;
    std::cout << "report: " << opt.out << " (build_type="
              << iadm::bench::buildType() << ")\n";
    return 0;
}

#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include <cpuid.h>
#include <sys/resource.h>

#include "bench_common.hpp"
#include "obs/health.hpp"
#include "obs/trace_sink.hpp"

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::addMetrics(const iadm::sim::Metrics &m)
{
    using iadm::sim::DropReason;
    add(m.injected());
    add(m.delivered());
    add(m.throttled());
    add(m.unroutable());
    add(m.dropped());
    for (const DropReason r : {DropReason::Unroutable,
                               DropReason::Expired, DropReason::Legacy})
        add(m.droppedFor(r));
    add(m.totalHops());
    add(m.totalStalls());
    add(m.totalReroutes());
    add(m.backtrackHops());
    add(m.faultDowns());
    add(m.faultUps());
    const auto &hist = m.latencyHistogram();
    for (std::size_t c = 0; c < hist.size(); ++c)
        if (hist[c] != 0) {
            add(c);
            add(hist[c]);
        }
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

const std::vector<LayerMetricDef> &
layerMetricTable()
{
    using L = LayerStats;
    static const std::vector<LayerMetricDef> table = {
        {"sim.network_sim.ns_per_hop", "ns", "lower",
         "sim.network_sim.step_count", &L::nsPerHop},
        {"sim.network_sim.step_p50_us", "us", "lower",
         "sim.network_sim.step_count", &L::stepP50Us},
        {"sim.network_sim.step_p99_us", "us", "lower",
         "sim.network_sim.step_count", &L::stepP99Us},
        {"sim.network_sim.step_count", "count", "higher", "",
         &L::stepCount},
        {"sim.network_sim.hops_per_cycle", "hops/cycle", "higher",
         "sim.network_sim.step_count", &L::hopsPerCycle},
        {"sim.network_sim.stalls_per_hop", "ratio", "lower",
         "hops", &L::stallsPerHop},
        {"sim.network_sim.queue_depth_mean", "packets", "lower",
         "queue samples", &L::queueDepthMean},
        {"sim.network_sim.construct_s", "s", "lower",
         "median over set-ups", &L::constructS},
        {"sim.network_sim.warmup_s", "s", "lower",
         "median over set-ups", &L::warmupS},
        {"sim.network_sim.throttled", "count", "lower",
         "packets offered", &L::throttled},
        {"sim.network_sim.dropped_unroutable", "count", "lower",
         "packets offered", &L::droppedUnroutable},
        {"sim.network_sim.dropped_expired", "count", "lower",
         "packets offered", &L::droppedExpired},
        {"sim.network_sim.dropped_legacy", "count", "lower",
         "packets offered", &L::droppedLegacy},
        {"sim.route_cache.hit_ratio", "ratio", "higher",
         "sim.route_cache.probes", &L::cacheHitRatio},
        {"sim.route_cache.probes", "count", "higher", "",
         &L::cacheProbes},
        {"sim.route_cache.evictions", "count", "lower",
         "sim.route_cache.probes", &L::cacheEvictions},
        {"core.reroute_ns_per_call", "ns", "lower",
         "core.reroute_calls", &L::rerouteNsPerCall},
        {"core.reroute_calls", "count", "higher", "",
         &L::rerouteCalls},
        {"core.reroutes_per_packet", "ratio", "lower",
         "packets injected", &L::reroutesPerPacket},
        {"core.backtrack_hops", "count", "lower", "",
         &L::backtrackHops},
        {"fault.transitions", "count", "higher", "",
         &L::faultTransitions},
        {"obs.health.scans", "count", "higher", "",
         &L::healthScans},
        {"obs.health.deadlocks", "count", "lower", "obs.health.scans",
         &L::healthDeadlocks},
        {"obs.health.progress_violations", "count", "lower",
         "obs.health.scans", &L::healthProgressViolations},
        {"sim.sweep.cell_max_s", "s", "lower", "sim.sweep.cells",
         &L::sweepCellMaxS},
        {"sim.sweep.worker_busy_frac", "frac", "higher",
         "workers x wall", &L::sweepWorkerBusyFrac},
        {"sim.sweep.construct_s_per_cell", "s", "lower",
         "sim.sweep.cells", &L::sweepConstructSPerCell},
        {"sim.sweep.report_write_s", "s", "lower", "per pass",
         &L::sweepReportWriteS},
        {"sim.sweep.zero_delivery_cells", "count", "lower",
         "sim.sweep.cells", &L::sweepZeroDeliveryCells},
        {"sim.sweep.cells", "count", "higher", "", &L::sweepCells},
        {"serve.wire.parse_ns_per_req", "ns", "lower",
         "serve.client.requests", &L::parseNsPerReq},
        {"serve.server_core.resolve_ns_per_req", "ns", "lower",
         "serve.client.requests", &L::resolveNsPerReq},
        {"serve.server_core.batches", "count", "lower", "",
         &L::serveBatches},
        {"serve.server_core.mean_batch", "req/batch", "higher",
         "serve.server_core.batches", &L::serveMeanBatch},
        {"serve.server_core.errors", "count", "lower",
         "serve.client.requests", &L::serveErrors},
        {"serve.server_core.epoch_torn", "count", "lower",
         "serve.server_core.batches", &L::serveEpochTorn},
        {"serve.server.socket_residual_us", "us", "lower",
         "serve.client.requests", &L::socketResidualUs},
        {"serve.client.generator_late_p50_us", "us", "lower",
         "serve.client.requests", &L::generatorLateP50Us},
        {"serve.client.generator_late_max_us", "us", "lower",
         "serve.client.requests", &L::generatorLateMaxUs},
        {"serve.client.latency_p99_us", "us", "lower",
         "serve.client.latency_p99_samples", &L::clientLatencyP99Us},
        {"serve.client.latency_p99_samples", "count", "higher",
         "samples above p99", &L::clientLatencyP99Samples},
        {"serve.client.requests", "count", "higher", "",
         &L::clientRequests},
        {"trace.ops_per_s_traced", "1/s", "higher", "traced units",
         &L::opsPerSTraced},
        {"trace.ops_per_s_untraced", "1/s", "higher",
         "untraced units", &L::opsPerSUntraced},
        {"trace.overhead_frac", "frac", "lower",
         "trace.ops_per_s_untraced", &L::traceOverheadFrac},
    };
    return table;
}

void
Result::fail(const std::string &why)
{
    problems.push_back(why);
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int64_t
SpanLog::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - origin_)
        .count();
}

std::int32_t
SpanLog::add(const char *name, Clock::time_point start,
             Clock::time_point end, std::int32_t parent,
             std::uint64_t id)
{
    spans_.push_back({name, ns(start), ns(end), parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tid\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRIu64
                        "\n",
                     i, s.name, s.startNs, s.endNs, s.parent, s.id);
    }
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

/** CPU brand string via CPUID (no file reads). */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

} // namespace

std::string
hostFingerprint(const Options &opt)
{
    std::string s = "{\"nproc\": ";
    s += std::to_string(std::thread::hardware_concurrency());
    s += ", \"cpu\": \"" + cpuModel() + "\"";
    s += ", \"build_type\": \"" +
         std::string(iadm::bench::buildType()) + "\"";
    s += ", \"IADM_TRACE\": ";
    s += iadm::obs::traceCompiledIn() ? "1" : "0";
    s += ", \"IADM_HEALTH\": ";
    s += iadm::obs::healthCompiledIn() ? "1" : "0";
    s += ", \"workload\": \"" + opt.workload + "\"";
    s += ", \"seed\": " + std::to_string(opt.seed);
    s += ", \"trace\": ";
    s += opt.trace ? "1" : "0";
    s += "}";
    return s;
}

} // namespace perfbench

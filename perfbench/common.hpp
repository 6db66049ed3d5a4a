/**
 * @file
 * Shared pieces of the benchmark executable: options, the result line,
 * the per-layer metric table, the simulated-statistics digest,
 * in-memory spans and the host fingerprint.
 *
 * Every timing here is host time (std::chrono::steady_clock).
 * Simulated statistics (delivered, hops, latency in cycles) are
 * outputs the benchmark checks and digests, never performance
 * metrics: a speed-only change must leave them identical.
 */

#ifndef IADM_PERFBENCH_COMMON_HPP
#define IADM_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options (see README.md). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Run artifacts (spans, sweep report, socket), relative path. */
    std::string outDir = ".bench_build/out";
};

/** splitmix64 finalizer: derives independent streams from a seed. */
std::uint64_t mixSeed(std::uint64_t x);

/** FNV-1a over 64-bit words: the simulated-statistics digest. */
class Digest
{
  public:
    void add(std::uint64_t v);
    /** delivered, hops, drops by reason, latency histogram, ... */
    void addMetrics(const iadm::sim::Metrics &m);
    std::uint64_t value() const { return h_; }
    std::string hex() const;
    bool operator==(const Digest &) const = default;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Per-layer counters and timings of one run.  Every field is printed
 * by the traced run for every workload, in the order of
 * layerMetricTable(); a layer a workload leaves idle reads 0.
 */
struct LayerStats
{
    // sim.network_sim
    double nsPerHop = 0;
    double stepP50Us = 0;
    double stepP99Us = 0;
    double stepCount = 0;
    double hopsPerCycle = 0;
    double stallsPerHop = 0;
    double queueDepthMean = 0;
    double constructS = 0;
    double warmupS = 0;
    double throttled = 0;
    double droppedUnroutable = 0;
    double droppedExpired = 0;
    double droppedLegacy = 0;
    // sim.route_cache
    double cacheHitRatio = 0;
    double cacheProbes = 0;
    double cacheEvictions = 0;
    // core
    double rerouteNsPerCall = 0;
    double rerouteCalls = 0;
    double reroutesPerPacket = 0;
    double backtrackHops = 0;
    // fault, obs.health
    double faultTransitions = 0;
    double healthScans = 0;
    double healthDeadlocks = 0;
    double healthProgressViolations = 0;
    // sim.sweep
    double sweepCellMaxS = 0;
    double sweepWorkerBusyFrac = 0;
    double sweepConstructSPerCell = 0;
    double sweepReportWriteS = 0;
    double sweepZeroDeliveryCells = 0;
    double sweepCells = 0;
    // serve
    double parseNsPerReq = 0;
    double resolveNsPerReq = 0;
    double serveBatches = 0;
    double serveMeanBatch = 0;
    double serveErrors = 0;
    double serveEpochTorn = 0;
    double socketResidualUs = 0;
    double generatorLateP50Us = 0;
    double generatorLateMaxUs = 0;
    double clientLatencyP99Us = 0;
    double clientLatencyP99Samples = 0;
    double clientRequests = 0;
    // tracing overhead: the same run's untraced and traced units
    double opsPerSTraced = 0;
    double opsPerSUntraced = 0;
    double traceOverheadFrac = 0;
};

/** One row of the per-layer table. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    const char *base; //!< denominator / sample count, "" if none
    double LayerStats::*field;
};

const std::vector<LayerMetricDef> &layerMetricTable();

/** End-to-end metrics of one timed run. */
struct EndToEnd
{
    double opsPerS = 0;
    double latencyP50Us = 0;
    double setupS = 0;
    double peakRssMb = 0;
    double okFrac = 0;
};

/** Outcome of one workload run: checks plus metrics. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; //!< failed correctness gates
    EndToEnd e2e;
    LayerStats layer;

    void fail(const std::string &why);
    bool correct() const { return problems.empty(); }
};

/** A timed interval recorded by the traced run. */
struct Span
{
    const char *name;
    std::int64_t startNs; //!< relative to the SpanLog origin
    std::int64_t endNs;
    std::int32_t parent;  //!< index of the enclosing span, -1 = root
    std::uint64_t id;     //!< step, cell or request id
};

/**
 * Spans kept in memory and written once at the end of the run
 * (one tab-separated line per span).
 */
class SpanLog
{
  public:
    SpanLog();
    std::int64_t ns(Clock::time_point t) const;
    /** Record a finished span; returns its index. */
    std::int32_t add(const char *name, Clock::time_point start,
                     Clock::time_point end, std::int32_t parent,
                     std::uint64_t id);
    /** Start a span whose children are recorded before it ends. */
    std::int32_t open(const char *name, Clock::time_point start,
                      std::int32_t parent, std::uint64_t id)
    {
        return add(name, start, start, parent, id);
    }
    void close(std::int32_t span, Clock::time_point end)
    {
        spans_[static_cast<std::size_t>(span)].endNs = ns(end);
    }
    std::size_t size() const { return spans_.size(); }
    /** Write every span to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** q-quantile (q in [0, 1]) by nearest rank; reorders @p v. */
double quantile(std::vector<double> &v, double q);

/** Median of a copy of @p v. */
double median(std::vector<double> v);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** nproc, CPU model, build type, compile gates and the seed. */
std::string hostFingerprint(const Options &opt);

} // namespace perfbench

#endif // IADM_PERFBENCH_COMMON_HPP

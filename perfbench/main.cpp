/**
 * @file
 * Benchmark executable: runs one workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Workloads: sim-clean-4096, sweep-faulted-1024, serve-openloop-1024.
 * With --trace 0 the last stdout line carries the end-to-end metrics;
 * with --trace 1 it carries the per-layer metrics, and the spans of
 * the run are written to DIR.  Any failed correctness gate prints
 * "correct": false and exits 1.  Builds that are not optimized are
 * refused (exit 3) before any work.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/stat.h>

#include "bench_common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

/** mkdir -p for a relative path. */
bool
makeDirs(const std::string &path)
{
    for (std::size_t i = 1; i <= path.size(); ++i) {
        if (i != path.size() && path[i] != '/')
            continue;
        const std::string part = path.substr(0, i);
        if (::mkdir(part.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

/** Shortest round-trip rendering: every measured digit is kept. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
addMetric(std::string &json, bool &first, const char *name, double v,
          const char *unit)
{
    json += first ? "\"" : ", \"";
    first = false;
    json.append(name).append("\": {\"value\": ").append(num(v));
    json.append(", \"unit\": \"").append(unit).append("\"}");
}

} // namespace

int
main(int argc, char **argv)
{
    iadm::bench::guardBuildType();
    if (!iadm::bench::optimizedBuild()) {
        std::fprintf(stderr, "perfbench: refusing to record a %s "
                             "build\n",
                     iadm::bench::buildType());
        return 3;
    }

    Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
            have_trace = true;
        } else if (a == "--out-dir")
            opt.outDir = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (opt.workload.empty() || !have_trace || !(opt.seconds > 0))
        usage("--workload, --seconds > 0 and --trace are required");

    Result (*run)(const Options &, SpanLog &) = nullptr;
    if (opt.workload == "sim-clean-4096")
        run = runSimClean;
    else if (opt.workload == "sweep-faulted-1024")
        run = runSweepFaulted;
    else if (opt.workload == "serve-openloop-1024")
        run = runServeOpenLoop;
    else
        usage(("unknown workload " + opt.workload).c_str());
    if (!makeDirs(opt.outDir)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     opt.outDir.c_str());
        return 1;
    }

    std::printf("host: %s\n", hostFingerprint(opt).c_str());
    std::fflush(stdout);
    SpanLog spans;
    Result res = run(opt, spans);
    if (opt.trace) {
        const std::string path =
            opt.outDir + "/spans-" + opt.workload + ".tsv";
        if (!spans.write(path))
            res.fail("cannot write " + path);
        else
            std::printf("spans: %zu written to %s\n", spans.size(),
                        path.c_str());
    }
    for (const auto &p : res.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    std::string metrics;
    bool first = true;
    if (opt.trace) {
        std::printf("%-40s %18s %-10s %s\n", "per-layer metric", "value",
                    "unit", "base");
        for (const auto &d : layerMetricTable()) {
            const double v = res.layer.*d.field;
            std::printf("%-40s %18.6g %-10s %s\n", d.name, v, d.unit,
                        d.base);
            addMetric(metrics, first, d.name, v, d.unit);
        }
    } else {
        const EndToEnd &e = res.e2e;
        addMetric(metrics, first, "ops_per_s", e.opsPerS, "1/s");
        addMetric(metrics, first, "latency_p50_us", e.latencyP50Us,
                  "us");
        addMetric(metrics, first, "setup_s", e.setupS, "s");
        addMetric(metrics, first, "peak_rss_mb", peakRssMb(), "MiB");
        addMetric(metrics, first, "ok_frac", e.okFrac, "frac");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                res.correct() ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                metrics.c_str());
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
}

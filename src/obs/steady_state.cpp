#include "obs/steady_state.hpp"

#include <cmath>

namespace iadm::obs {

namespace {

struct SuffixStats
{
    double mean = 0;
    double var = 0; // population variance
};

/**
 * Mean/variance of windows[d..n-1] in one backward pass would need
 * O(n) storage anyway, so keep it simple: suffix sums of x and x^2
 * are computed incrementally by the caller.
 */
SuffixStats
suffixStats(double sum, double sum_sq, std::size_t count)
{
    SuffixStats s;
    const double n = static_cast<double>(count);
    s.mean = sum / n;
    const double v = sum_sq / n - s.mean * s.mean;
    s.var = v > 0 ? v : 0;
    return s;
}

} // namespace

SteadyStateTracker::Result
SteadyStateTracker::analyze() const
{
    Result r;
    r.windows = windows_.size();

    // Whole-run aggregates (latency weighted by deliveries: windows
    // have equal width, so throughput is proportional to deliveries).
    double tp_sum = 0;
    double lat_wsum = 0;
    for (const SteadyWindow &w : windows_) {
        tp_sum += w.throughput;
        lat_wsum += w.avgLatency * w.throughput;
    }
    if (!windows_.empty()) {
        r.wholeThroughput = tp_sum / static_cast<double>(r.windows);
        r.wholeAvgLatency = tp_sum > 0 ? lat_wsum / tp_sum : 0;
    }

    if (r.windows < kMinWindows) {
        r.steadyThroughput = r.wholeThroughput;
        r.steadyAvgLatency = r.wholeAvgLatency;
        return r;
    }

    // MSER: minimize SE(d) = sqrt(var(x_d..x_{n-1}) / (n - d)) over
    // d in [0, n/2].  Scan d from n/2 down to 0, growing suffix sums
    // as the retained prefix extends; ties prefer the smaller d
    // (delete less).
    const std::size_t n = r.windows;
    const std::size_t d_max = n / 2;
    double sum = 0;
    double sum_sq = 0;
    for (std::size_t i = n; i-- > d_max;) {
        const double x = windows_[i].throughput;
        sum += x;
        sum_sq += x * x;
    }
    std::size_t best_d = d_max;
    double best_se = suffixStats(sum, sum_sq, n - d_max).var
                     / static_cast<double>(n - d_max);
    for (std::size_t d = d_max; d-- > 0;) {
        const double x = windows_[d].throughput;
        sum += x;
        sum_sq += x * x;
        const double se = suffixStats(sum, sum_sq, n - d).var
                          / static_cast<double>(n - d);
        if (se <= best_se) {
            best_se = se;
            best_d = d;
        }
    }

    r.truncatedWindows = best_d;
    double s_tp = 0;
    double s_lat = 0;
    for (std::size_t i = best_d; i < n; ++i) {
        s_tp += windows_[i].throughput;
        s_lat += windows_[i].avgLatency * windows_[i].throughput;
    }
    // A suffix that delivered nothing has zero variance, so MSER
    // happily "converges" on it — but a dead series is a wedge, not
    // a steady state.
    r.stable = s_tp > 0;
    r.steadyThroughput = s_tp / static_cast<double>(n - best_d);
    r.steadyAvgLatency = s_tp > 0 ? s_lat / s_tp : 0;
    return r;
}

} // namespace iadm::obs

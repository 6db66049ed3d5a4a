/**
 * @file
 * Steady-state detection over windowed time-series rollups.
 *
 * Long-horizon churn runs pollute whole-run averages with their
 * warmup transient: queues fill, the route cache warms, SSDT switch
 * states settle.  The tracker collects fixed-width windows of
 * (throughput, avg latency) and finds the truncation point with the
 * MSER rule (Marginal Standard Error Rule, the batch-means variant
 * of White's heuristic): choose the prefix-deletion point d that
 * minimizes the standard error of the retained suffix,
 *
 *     SE(d) = stddev(x_d .. x_{n-1}) / sqrt(n - d),
 *
 * restricted to the first half of the series so the rule cannot
 * "converge" by deleting almost everything.  Steady-state statistics
 * are then the aggregates over the retained windows, reported
 * separately from (never instead of) the whole-run numbers.
 *
 * The tracker is pure arithmetic over the window series — it knows
 * nothing about simulators or daemons, so the same code serves the
 * sweep's per-replicate rollups and any future online consumer.
 */

#ifndef IADM_OBS_STEADY_STATE_HPP
#define IADM_OBS_STEADY_STATE_HPP

#include <cstddef>
#include <vector>

namespace iadm::obs {

/** One rollup window's aggregates. */
struct SteadyWindow
{
    double throughput = 0; //!< deliveries per cycle in this window
    double avgLatency = 0; //!< mean delivery latency in this window
};

/** MSER warmup detector over a window series. */
class SteadyStateTracker
{
  public:
    /**
     * Below this many windows the MSER statistic is noise; analyze()
     * reports the whole-run aggregates with stable == false.
     */
    static constexpr std::size_t kMinWindows = 8;

    struct Result
    {
        /**
         * True when enough windows exist for the MSER rule and the
         * retained suffix delivered something.
         */
        bool stable = false;
        std::size_t windows = 0;          //!< total windows collected
        std::size_t truncatedWindows = 0; //!< MSER deletion point d*
        double steadyThroughput = 0;  //!< mean over retained windows
        double steadyAvgLatency = 0;  //!< delivery-weighted mean
        double wholeThroughput = 0;   //!< mean over every window
        double wholeAvgLatency = 0;
    };

    void
    addWindow(double throughput, double avg_latency)
    {
        windows_.push_back({throughput, avg_latency});
    }

    std::size_t windowCount() const { return windows_.size(); }
    const std::vector<SteadyWindow> &windows() const
    {
        return windows_;
    }
    void clear() { windows_.clear(); }

    /** Run MSER over the throughput series collected so far. */
    Result analyze() const;

  private:
    std::vector<SteadyWindow> windows_;
};

} // namespace iadm::obs

#endif // IADM_OBS_STEADY_STATE_HPP

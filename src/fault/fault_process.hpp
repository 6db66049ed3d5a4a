/**
 * @file
 * Deterministic fault-churn processes: live link failure/repair.
 *
 * The paper's robustness claims (SSDT "self-repair", the universal
 * BACKTRACK+REROUTE procedure) are about networks whose blockage set
 * *changes while packets are in flight*.  A FaultProcess is a
 * seed-derived generator of such changes: it owns a private Rng and
 * a set of outstanding blockage claims on a FaultSet, fires
 * down/up transitions at deterministic cycle times, and composes
 * with static faults and transient windows through the FaultSet's
 * refcounted blockage model (its repairs release only its own
 * claims).
 *
 * Layering: fault/ sits below sim/, so cycle times are plain
 * std::uint64_t here; the simulator drives processes from its event
 * loop and forwards transitions to tracing/metrics via Observer.
 */

#ifndef IADM_FAULT_FAULT_PROCESS_HPP
#define IADM_FAULT_FAULT_PROCESS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "topology/topology.hpp"

namespace iadm::fault {

/**
 * Abstract seed-derived failure/repair process over a topology's
 * links.  Drive it by polling nextTransition() and calling
 * runUntil(now) whenever the horizon is reached; runUntil applies
 * every transition with time <= now, in deterministic order, to the
 * given FaultSet.
 */
class FaultProcess
{
  public:
    /** Sentinel: the process will never fire again. */
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    /**
     * Transition callback: (cycle, link, down).  down = true for a
     * failure (blockLink), false for a repair (unblockLink).  The
     * FaultSet mutation has already happened when this is called.
     */
    using Observer = std::function<void(
        std::uint64_t cycle, const topo::Link &link, bool down)>;

    virtual ~FaultProcess() = default;

    /** Earliest cycle at which a transition may fire (or kNever). */
    virtual std::uint64_t nextTransition() const = 0;

    /**
     * Apply all transitions with time <= @p now to @p faults, in a
     * deterministic order, invoking @p obs (if set) per transition.
     */
    virtual void runUntil(std::uint64_t now, FaultSet &faults,
                          const Observer &obs) = 0;

    /** Human-readable process description for diagnostics. */
    virtual std::string name() const = 0;
};

/**
 * Memoryless per-cycle churn: every cycle, each healthy link fails
 * with probability pFail and each failed link is repaired with
 * probability pRepair.  Expected steady-state outage fraction is
 * pFail / (pFail + pRepair).
 */
class BernoulliChurn final : public FaultProcess
{
  public:
    BernoulliChurn(const topo::MultistageTopology &topo, double p_fail,
                   double p_repair, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    std::vector<topo::Link> links_;
    std::vector<std::uint8_t> down_;
    double pFail_;
    double pRepair_;
    Rng rng_;
    std::uint64_t ranThrough_ = 0; //!< cycles [1, ranThrough_] done
};

/**
 * Per-link renewal churn with geometric up/down times: each link
 * alternates healthy-for-~MTBF / failed-for-~MTTR, with holding
 * times drawn independently per link (discretized exponential,
 * mean = the respective parameter, minimum 1 cycle).  Unlike
 * BernoulliChurn this skips ahead: pending transitions sit on a
 * calendar wheel of kWheelSpan one-cycle buckets, so runUntil()
 * visits only the buckets it drains and costs O(active
 * transitions), not O(links) per cycle.
 */
class GeometricChurn final : public FaultProcess
{
  public:
    /**
     * Buckets on the calendar wheel (a power of two).  A link whose
     * next transition is a lap or more away stays in its bucket and
     * is skipped until its lap comes round.
     */
    static constexpr std::uint64_t kWheelSpan = 4096;

    GeometricChurn(const topo::MultistageTopology &topo, double mtbf,
                   double mttr, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    std::uint64_t holdingTime(double mean);

    /** Push link @p i onto the bucket of nextAt_[i]. */
    void
    schedule(std::uint32_t i)
    {
        std::uint32_t &h = head_[nextAt_[i] & (kWheelSpan - 1)];
        next_[i] = h;
        h = i;
    }

    /** Exact earliest nextAt_ over all links, scanning from @p now. */
    std::uint64_t earliestAfter(std::uint64_t now) const;

    std::vector<topo::Link> links_;
    std::vector<std::uint8_t> down_;
    std::vector<std::uint64_t> nextAt_;
    //! Calendar: bucket t % kWheelSpan heads an intrusive list of
    //! the links whose nextAt_ is t (this lap or a later one),
    //! chained through next_; kNil ends a list.
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> due_; //!< runUntil scratch
    double mtbf_;
    double mttr_;
    Rng rng_;
    std::uint64_t cachedNext_ = kNever;
};

/**
 * Regional burst outages: every @p interval cycles a random stage
 * and a contiguous run of @p span switches lose all their output
 * links for @p duration cycles.  Bursts overlap freely — each owns
 * its blocked-link list, and the refcounted FaultSet unwinds them
 * independently.
 */
class BurstChurn final : public FaultProcess
{
  public:
    BurstChurn(const topo::MultistageTopology &topo,
               std::uint64_t interval, std::uint64_t duration,
               Label span, std::uint64_t seed);

    std::uint64_t nextTransition() const override;
    void runUntil(std::uint64_t now, FaultSet &faults,
                  const Observer &obs) override;
    std::string name() const override;

  private:
    struct Burst
    {
        std::uint64_t endsAt;
        std::vector<topo::Link> links;
    };

    void startBurst(std::uint64_t when, FaultSet &faults,
                    const Observer &obs);

    unsigned stages_;
    Label n_;
    //! Out-links per switch, flat [stage * N + j] (no topo ref kept).
    std::vector<std::vector<topo::Link>> outLinks_;
    std::uint64_t interval_;
    std::uint64_t duration_;
    Label span_;
    Rng rng_;
    std::uint64_t nextStart_;
    std::vector<Burst> active_; //!< sorted by endsAt (FIFO: equal durations)
};

} // namespace iadm::fault

#endif // IADM_FAULT_FAULT_PROCESS_HPP

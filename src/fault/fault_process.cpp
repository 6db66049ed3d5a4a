#include "fault/fault_process.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace iadm::fault {

// --- BernoulliChurn -------------------------------------------------

BernoulliChurn::BernoulliChurn(const topo::MultistageTopology &topo,
                               double p_fail, double p_repair,
                               std::uint64_t seed)
    : links_(topo.allLinks()), down_(links_.size(), 0),
      pFail_(p_fail), pRepair_(p_repair), rng_(seed)
{
    IADM_ASSERT(p_fail >= 0.0 && p_fail <= 1.0 &&
                    p_repair >= 0.0 && p_repair <= 1.0,
                "churn probabilities must be in [0,1]");
}

std::uint64_t
BernoulliChurn::nextTransition() const
{
    // One Bernoulli draw per link per cycle: the process "may fire"
    // every cycle after the last one it covered.
    return ranThrough_ + 1;
}

void
BernoulliChurn::runUntil(std::uint64_t now, FaultSet &faults,
                         const Observer &obs)
{
    // Fixed (cycle, link-index) draw order is the determinism
    // contract: the same seed always yields the same outage history.
    for (std::uint64_t cycle = ranThrough_ + 1; cycle <= now; ++cycle) {
        for (std::size_t i = 0; i < links_.size(); ++i) {
            if (down_[i]) {
                if (!rng_.chance(pRepair_))
                    continue;
                down_[i] = 0;
                faults.unblockLink(links_[i]);
                if (obs)
                    obs(cycle, links_[i], false);
            } else {
                if (!rng_.chance(pFail_))
                    continue;
                down_[i] = 1;
                faults.blockLink(links_[i]);
                if (obs)
                    obs(cycle, links_[i], true);
            }
        }
    }
    ranThrough_ = std::max(ranThrough_, now);
}

std::string
BernoulliChurn::name() const
{
    std::ostringstream os;
    os << "bernoulli(pFail=" << pFail_ << ",pRepair=" << pRepair_
       << ")";
    return os.str();
}

// --- GeometricChurn -------------------------------------------------

GeometricChurn::GeometricChurn(const topo::MultistageTopology &topo,
                               double mtbf, double mttr,
                               std::uint64_t seed)
    : links_(topo.allLinks()), down_(links_.size(), 0),
      nextAt_(links_.size()), head_(kWheelSpan, kNil),
      next_(links_.size()), mtbf_(mtbf), mttr_(mttr), rng_(seed)
{
    IADM_ASSERT(mtbf >= 1.0 && mttr >= 1.0,
                "mean holding times must be >= 1 cycle");
    IADM_ASSERT(links_.size() < kNil, "too many links for the wheel");
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
        nextAt_[i] = holdingTime(mtbf_);
        schedule(i);
    }
    cachedNext_ = links_.empty()
                      ? kNever
                      : *std::min_element(nextAt_.begin(),
                                          nextAt_.end());
}

std::uint64_t
GeometricChurn::holdingTime(double mean)
{
    // Discretized exponential with the requested mean, floored at
    // one cycle so a link is never down-and-up within one step.
    const double u = rng_.uniformReal();
    return 1 + static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

std::uint64_t
GeometricChurn::nextTransition() const
{
    return cachedNext_;
}

std::uint64_t
GeometricChurn::earliestAfter(std::uint64_t now) const
{
    // Every pending time is > now.  The first bucket holding a link
    // due on this lap gives the answer; if none of the next
    // kWheelSpan buckets does, the scan has seen every link and
    // keeps their minimum.
    std::uint64_t best = kNever;
    for (std::uint64_t c = now + 1; c <= now + kWheelSpan; ++c) {
        for (std::uint32_t i = head_[c & (kWheelSpan - 1)]; i != kNil;
             i = next_[i]) {
            if (nextAt_[i] == c)
                return c;
            best = std::min(best, nextAt_[i]);
        }
    }
    return best;
}

void
GeometricChurn::runUntil(std::uint64_t now, FaultSet &faults,
                         const Observer &obs)
{
    if (cachedNext_ > now)
        return;
    // Unlink every link due by `now` from the buckets of cycles
    // [cachedNext_, now] (the whole wheel on a jump of a lap or
    // more); links due on a later lap stay where they are.
    due_.clear();
    const std::uint64_t buckets =
        std::min(now - cachedNext_ + 1, kWheelSpan);
    for (std::uint64_t c = cachedNext_; c < cachedNext_ + buckets;
         ++c) {
        std::uint32_t *prev = &head_[c & (kWheelSpan - 1)];
        while (*prev != kNil) {
            const std::uint32_t i = *prev;
            if (nextAt_[i] <= now) {
                *prev = next_[i];
                due_.push_back(i);
            } else {
                prev = &next_[i];
            }
        }
    }
    // Links are independent renewal processes, so draining each
    // due link's transitions in turn (links in ascending index
    // order, each link's transitions in time order) is
    // deterministic; it is the order a scan over all links takes.
    std::sort(due_.begin(), due_.end());
    for (const std::uint32_t i : due_) {
        while (nextAt_[i] <= now) {
            const std::uint64_t t = nextAt_[i];
            if (down_[i]) {
                down_[i] = 0;
                faults.unblockLink(links_[i]);
                if (obs)
                    obs(t, links_[i], false);
                nextAt_[i] = t + holdingTime(mtbf_);
            } else {
                down_[i] = 1;
                faults.blockLink(links_[i]);
                if (obs)
                    obs(t, links_[i], true);
                nextAt_[i] = t + holdingTime(mttr_);
            }
        }
        schedule(i);
    }
    cachedNext_ = earliestAfter(now);
}

std::string
GeometricChurn::name() const
{
    std::ostringstream os;
    os << "geometric(mtbf=" << mtbf_ << ",mttr=" << mttr_ << ")";
    return os.str();
}

// --- BurstChurn -----------------------------------------------------

BurstChurn::BurstChurn(const topo::MultistageTopology &topo,
                       std::uint64_t interval, std::uint64_t duration,
                       Label span, std::uint64_t seed)
    : stages_(topo.stages()), n_(topo.size()), interval_(interval),
      duration_(duration), span_(std::min<Label>(span, topo.size())),
      rng_(seed), nextStart_(interval)
{
    IADM_ASSERT(interval > 0 && duration > 0 && span > 0,
                "burst interval, duration and span must be positive");
    outLinks_.reserve(static_cast<std::size_t>(stages_) * n_);
    for (unsigned stage = 0; stage < stages_; ++stage)
        for (Label j = 0; j < n_; ++j)
            outLinks_.push_back(topo.outLinks(stage, j));
}

std::uint64_t
BurstChurn::nextTransition() const
{
    std::uint64_t next = nextStart_;
    if (!active_.empty())
        next = std::min(next, active_.front().endsAt);
    return next;
}

void
BurstChurn::runUntil(std::uint64_t now, FaultSet &faults,
                     const Observer &obs)
{
    // Chronological merge of burst ends (repairs) and starts; on a
    // tie the ending burst releases its links before the new one
    // claims.  Constant duration keeps active_ sorted by endsAt.
    for (;;) {
        const std::uint64_t end =
            active_.empty() ? kNever : active_.front().endsAt;
        if (std::min(end, nextStart_) > now)
            return;
        if (end <= nextStart_) {
            for (const topo::Link &l : active_.front().links) {
                faults.unblockLink(l);
                if (obs)
                    obs(end, l, false);
            }
            active_.erase(active_.begin());
        } else {
            startBurst(nextStart_, faults, obs);
            nextStart_ += interval_;
        }
    }
}

void
BurstChurn::startBurst(std::uint64_t when, FaultSet &faults,
                       const Observer &obs)
{
    const auto stage = static_cast<unsigned>(rng_.uniform(stages_));
    const auto first = static_cast<Label>(rng_.uniform(n_));
    Burst b;
    b.endsAt = when + duration_;
    for (Label k = 0; k < span_; ++k) {
        const Label j = (first + k) % n_;
        const auto &out =
            outLinks_[static_cast<std::size_t>(stage) * n_ + j];
        for (const topo::Link &l : out) {
            faults.blockLink(l);
            if (obs)
                obs(when, l, true);
            b.links.push_back(l);
        }
    }
    active_.push_back(std::move(b));
}

std::string
BurstChurn::name() const
{
    std::ostringstream os;
    os << "burst(interval=" << interval_ << ",duration=" << duration_
       << ",span=" << span_ << ")";
    return os.str();
}

} // namespace iadm::fault

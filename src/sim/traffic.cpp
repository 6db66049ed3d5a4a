#include "sim/traffic.hpp"

namespace iadm::sim {

Label
UniformTraffic::pick(Label, Rng &rng)
{
    return static_cast<Label>(rng.uniform(nSize_));
}

Label
PermutationTraffic::pick(Label src, Rng &)
{
    return perm_(src);
}

Label
HotspotTraffic::pick(Label, Rng &rng)
{
    if (rng.chance(hotFraction_))
        return hot_;
    return static_cast<Label>(rng.uniform(nSize_));
}

BurstyTraffic::BurstyTraffic(Label n_size, double burst_len,
                             double idle_len)
    : nSize_(n_size), pOnToOff_(1.0 / burst_len),
      pOffToOn_(1.0 / idle_len), on_(n_size, 0)
{
}

Label
BurstyTraffic::pick(Label, Rng &rng)
{
    return static_cast<Label>(rng.uniform(nSize_));
}

bool
BurstyTraffic::gate(Label src, Rng &rng)
{
    // Exactly one draw per call on both branches: the draw count per
    // (cycle, source) is constant, so the downstream rate/pick
    // stream never shifts with the chain state.
    const bool was_on = on_[src] != 0;
    if (was_on) {
        if (rng.chance(pOnToOff_))
            on_[src] = 0;
    } else if (rng.chance(pOffToOn_)) {
        on_[src] = 1;
    }
    return was_on;
}

double
BurstyTraffic::dutyCycle() const
{
    // Stationary distribution of the two-state chain.
    return pOffToOn_ / (pOffToOn_ + pOnToOff_);
}

} // namespace iadm::sim

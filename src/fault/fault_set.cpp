#include "fault/fault_set.hpp"

#include <algorithm>
#include <sstream>

namespace iadm::fault {

const char *
blockageKindName(BlockageKind k)
{
    switch (k) {
      case BlockageKind::None: return "none";
      case BlockageKind::Nonstraight: return "nonstraight";
      case BlockageKind::Straight: return "straight";
      case BlockageKind::DoubleNonstraight: return "double-nonstraight";
    }
    return "?";
}

void
FaultSet::blockLink(const topo::Link &l)
{
    add(l.key(), 1);
    ++version_;
}

void
FaultSet::unblockLink(const topo::Link &l)
{
    const std::size_t i = size_ != 0 ? find(l.key()) : kNone;
    if (i == kNone)
        return; // no outstanding claim: nothing to release
    if (--slots_[i].claims == 0)
        erase(i);
    ++version_;
}

void
FaultSet::blockSwitch(const topo::MultistageTopology &topo,
                      unsigned stage, Label j)
{
    if (stage == 0) {
        // An input switch has no network input links; blocking it
        // blocks all of its output links instead, which is the only
        // way its unavailability manifests.
        for (const topo::Link &l : topo.outLinks(0, j))
            blockLink(l);
        return;
    }
    for (const topo::Link &l : topo.inLinks(stage, j))
        blockLink(l);
}

void
FaultSet::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    ++version_;
}

void
FaultSet::merge(const FaultSet &other)
{
    // Self-merge is safe: every key is already present, so add()
    // only bumps claims in place and never grows mid-iteration.
    other.forEach([this](std::uint64_t key, std::uint32_t claims) {
        add(key, claims);
    });
    ++version_;
}

std::uint32_t
FaultSet::refcount(const topo::Link &l) const
{
    const std::size_t i = size_ != 0 ? find(l.key()) : kNone;
    return i == kNone ? 0 : slots_[i].claims;
}

void
FaultSet::add(std::uint64_t key, std::uint32_t claims)
{
    if (size_ != 0) {
        const std::size_t i = find(key);
        if (i != kNone) {
            slots_[i].claims += claims;
            return;
        }
    }
    if (2 * (size_ + 1) > slots_.size())
        grow();
    place({key, claims});
    ++size_;
}

void
FaultSet::place(const Slot &s)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(s.key);
    while (slots_[i].claims != 0)
        i = (i + 1) & mask;
    slots_[i] = s;
}

void
FaultSet::erase(std::size_t i)
{
    // Backward-shift deletion: walk the probe run after the gap and
    // pull back every entry whose home does not lie cyclically in
    // (gap, j], so every remaining key stays reachable from its home
    // without tombstones.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (i + 1) & mask; slots_[j].claims != 0;
         j = (j + 1) & mask) {
        const std::size_t dist = (j - home(slots_[j].key)) & mask;
        if (dist >= ((j - i) & mask)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i] = Slot{};
    --size_;
}

void
FaultSet::grow()
{
    constexpr std::size_t kMinSlots = 16;
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap =
        old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(cap, Slot{});
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cap));
    for (const Slot &s : old)
        if (s.claims != 0)
            place(s);
}

std::string
FaultSet::str() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(size_);
    forEach([&keys](std::uint64_t key, std::uint32_t) {
        keys.push_back(key);
    });
    std::sort(keys.begin(), keys.end());
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < keys.size(); ++i)
        os << (i ? "," : "") << keys[i];
    os << "}";
    return os.str();
}

} // namespace iadm::fault

/**
 * @file
 * Blockage model for multistage networks (Section 3 of the paper).
 *
 * A blockage is a link that is faulty or busy; the routing theory
 * treats both identically.  A switch blockage "has the same effect
 * as blocking all of the switch's input links and can be transformed
 * into a link blockage problem accordingly" — blockSwitch() performs
 * exactly that transformation.
 */

#ifndef IADM_FAULT_FAULT_SET_HPP
#define IADM_FAULT_FAULT_SET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace iadm::fault {

/**
 * Classification of the blockage situation at one switch for one
 * routing problem (Section 3): the participating output links of a
 * switch are either its straight link or both nonstraight links,
 * never all three, so exactly these cases can affect a path.
 */
enum class BlockageKind : std::uint8_t
{
    None,               //!< link on the path is not blocked
    Nonstraight,        //!< one nonstraight output link blocked
    Straight,           //!< the straight output link blocked
    DoubleNonstraight,  //!< both nonstraight output links blocked
};

/** Human-readable name for a BlockageKind. */
const char *blockageKindName(BlockageKind k);

/**
 * A set of blocked links, with switch blockage support.
 *
 * Blockages are refcounted: independent sources of blockage (a
 * static fault, an overlapping transient window, a churn process)
 * each call blockLink() and later unblockLink(), and the link stays
 * blocked until every source has released it.  An unblockLink() with
 * no matching blockLink() is a no-op, so releasing a blockage can
 * never erase someone else's.
 *
 * Storage is one flat open-addressing table of (link key, claims)
 * slots: multiplicative hash of topo::Link::key(), linear probing,
 * backward-shift deletion (no tombstones) and doubling at half
 * load.  A claim on an already-sized table allocates nothing, and
 * isBlocked() is one or two cache-line probes.
 */
class FaultSet
{
  public:
    FaultSet() = default;

    /** Add one blockage claim on a link (faulty or busy). */
    void blockLink(const topo::Link &l);

    /**
     * Release one blockage claim; the link unblocks only when the
     * last claim is released.  No-op if the link is not blocked.
     */
    void unblockLink(const topo::Link &l);

    /**
     * Block a switch: blocks all input links of switch @p j of
     * stage @p stage in @p topo (the paper's transformation).
     */
    void blockSwitch(const topo::MultistageTopology &topo,
                     unsigned stage, Label j);

    /** True iff the link is blocked. */
    bool
    isBlocked(const topo::Link &l) const
    {
        return size_ != 0 && find(l.key()) != kNone;
    }

    /** Remove all blockages. */
    void clear();

    /** Add every blockage claim of @p other to this set. */
    void merge(const FaultSet &other);

    /** Number of blocked links (not claims). */
    std::size_t count() const { return size_; }

    bool empty() const { return size_ == 0; }

    /**
     * Mutation counter, bumped by every block/clear/merge and by
     * every unblock that releases a claim.  RouteCache entries and
     * the daemon's EpochGuard are stamped with it; the simulator's
     * FaultView does not read it (it is updated per transition).
     */
    std::uint64_t version() const { return version_; }

    /** Outstanding claims on link @p l (0 when unblocked). */
    std::uint32_t refcount(const topo::Link &l) const;

    /**
     * Call @p visit(key, claims) once per blocked link, with the
     * stored link key (stage/from/kind encoded, topo::Link::key())
     * and its outstanding claim count, in unspecified order.
     */
    template <class Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &s : slots_)
            if (s.claims != 0)
                visit(s.key, s.claims);
    }

    /** Render as a sorted list of link keys for diagnostics. */
    std::string str() const;

  private:
    /** One table slot; claims == 0 marks it empty. */
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t claims = 0;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Home slot of @p key: the top log2(capacity) hash bits. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Slot holding @p key, or kNone.  Requires a nonempty table. */
    std::size_t
    find(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            if (slots_[i].claims == 0)
                return kNone;
            if (slots_[i].key == key)
                return i;
        }
    }

    /** Add @p claims to @p key, inserting it if absent. */
    void add(std::uint64_t key, std::uint32_t claims);

    /** Store @p s in the first empty slot of its probe run. */
    void place(const Slot &s);

    /** Empty slot @p i, shifting its probe run back over the gap. */
    void erase(std::size_t i);

    /** Double the table (first use: allocate it) and rehash. */
    void grow();

    std::vector<Slot> slots_; //!< power-of-two size, or empty
    std::size_t size_ = 0;    //!< occupied slots (blocked links)
    unsigned shift_ = 64;     //!< 64 - log2(slots_.size())
    std::uint64_t version_ = 0;
};

} // namespace iadm::fault

#endif // IADM_FAULT_FAULT_SET_HPP

/**
 * @file
 * Flat precomputed routing data for the simulator hot path.
 *
 * The paper's whole premise is that the link a switch takes is a
 * pure function of (switch parity, state, tag bit) — so the
 * simulator should never re-derive link endpoints with modular
 * arithmetic, or touch the topology object at all, while packets
 * are moving.  LinkTable freezes the entire IADM link graph into
 * one contiguous [stage][switch][kind] array of destination labels
 * at construction; FaultView mirrors a FaultSet into a bitset over
 * the same flat index so the per-hop blockage test is one word
 * load.  Both are built once per NetworkSim; after construction the
 * view follows the set one link transition at a time (churn and
 * transient blockage events), never by a full rebuild.
 */

#ifndef IADM_SIM_LINK_TABLE_HPP
#define IADM_SIM_LINK_TABLE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault_set.hpp"
#include "topology/iadm.hpp"

namespace iadm::sim {

/**
 * Contiguous [stage][switch][kind] table of IADM link destinations.
 *
 * Flat index: (stage * N + j) * 3 + kind, with kind in
 * {Straight = 0, Plus = 1, Minus = 2} (the only IADM link kinds).
 */
class LinkTable
{
  public:
    explicit LinkTable(const topo::IadmTopology &topo);

    unsigned stages() const { return stages_; }
    Label size() const { return n_; }

    /** Flat index of link (stage, j, kind). */
    std::size_t
    index(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return (static_cast<std::size_t>(stage) * n_ + j) * 3 +
               static_cast<std::size_t>(kind);
    }

    /** Destination label of link (stage, j, kind); no arithmetic. */
    Label
    to(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return to_[index(stage, j, kind)];
    }

    /** Materialize the Link struct straight from the table. */
    topo::Link
    link(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return {stage, j, to(stage, j, kind), kind};
    }

    /** The oppositely-signed nonstraight link (Theorem 3.2 spare). */
    static topo::LinkKind
    oppositeKind(topo::LinkKind kind)
    {
        return kind == topo::LinkKind::Plus ? topo::LinkKind::Minus
                                            : topo::LinkKind::Plus;
    }

  private:
    unsigned stages_;
    Label n_;
    std::vector<Label> to_; //!< [(stage * N + j) * 3 + kind]
};

/**
 * Bitset-backed O(1) view of a FaultSet, indexed like LinkTable.
 *
 * refresh() decodes the set's stored link keys
 * ((stage << 40) | (from << 8) | kind, see topo::Link::key()) into
 * the flat bitset once, at construction of the owner; from then on
 * the owner calls set() for every link whose blockage changes.
 * Keys that are not IADM links of this network are ignored.
 */
class FaultView
{
  public:
    FaultView(unsigned stages, Label n_size)
        : stages_(stages), n_(n_size),
          words_((static_cast<std::size_t>(stages) * n_size * 3 +
                  63) /
                 64)
    {
    }

    /** Rebuild the bitset from @p faults (O(faults + words)). */
    void
    refresh(const fault::FaultSet &faults)
    {
        std::fill(words_.begin(), words_.end(), 0);
        blocked_ = 0;
        faults.forEach([this](std::uint64_t key, std::uint32_t) {
            set(static_cast<unsigned>(key >> 40),
                static_cast<Label>((key >> 8) & 0xffffffffu),
                static_cast<unsigned>(key & 0xffu), true);
        });
    }

    /** Mark link @p l blocked or clear, e.g. after a transition. */
    void
    set(const topo::Link &l, bool blocked)
    {
        set(l.stage, l.from, static_cast<unsigned>(l.kind), blocked);
    }

    /** True iff the link at flat index @p idx is blocked. */
    bool
    isBlocked(std::size_t idx) const
    {
        return (words_[idx >> 6] >> (idx & 63)) & 1u;
    }

    bool
    isBlocked(unsigned stage, Label j, topo::LinkKind kind) const
    {
        return isBlocked(
            (static_cast<std::size_t>(stage) * n_ + j) * 3 +
            static_cast<std::size_t>(kind));
    }

    /** False iff the whole view is blockage-free. */
    bool anyBlocked() const { return blocked_ != 0; }

  private:
    void
    set(unsigned stage, Label from, unsigned kind, bool blocked)
    {
        if (stage >= stages_ || from >= n_ || kind > 2)
            return; // not an IADM link of this network
        const std::size_t idx =
            (static_cast<std::size_t>(stage) * n_ + from) * 3 + kind;
        std::uint64_t &w = words_[idx >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
        if (((w & bit) != 0) == blocked)
            return;
        w ^= bit;
        blocked ? ++blocked_ : --blocked_;
    }

    unsigned stages_;
    Label n_;
    std::vector<std::uint64_t> words_;
    std::size_t blocked_ = 0; //!< set bits in words_
};

} // namespace iadm::sim

#endif // IADM_SIM_LINK_TABLE_HPP

/**
 * @file
 * Packets for the packet-switched IADM simulation (the MIMD
 * environment Section 4 targets).
 *
 * Packet is the unit the hot path copies between ring-buffer queue
 * slots every hop, so its layout is pinned: 8-byte fields first,
 * then the tag and 4-byte fields, then the epoch stamp and flags.
 * sizeof(Packet) is static_assert'ed below (and re-checked in
 * tests/sim_test.cpp) so accidental growth of the hot struct fails
 * loudly instead of silently dilating every queue operation.
 *
 * A packet carries no copy of its path: by Theorem 3.1 and
 * Lemma A1.1, (src, tag) *is* the path, and core::tsdtSwitchAt()
 * replays any stage of it in O(stage) integer ops.
 */

#ifndef IADM_SIM_PACKET_HPP
#define IADM_SIM_PACKET_HPP

#include <cstdint>

#include "common/bits.hpp"
#include "core/tsdt.hpp"

namespace iadm::sim {

/** Simulation time in cycles. */
using Cycle = std::uint64_t;

/** One message moving through the network. */
struct Packet
{
    std::uint64_t id = 0;
    Cycle injected = 0;   //!< cycle the packet entered stage 0
    Cycle movedAt = ~Cycle{0}; //!< cycle of the last hop (move guard)
    core::TsdtTag tag;     //!< routing tag (TSDT/dynamic schemes)
    Label src = 0;
    Label dst = 0;
    unsigned reroutes = 0; //!< spare-link / tag repairs experienced
    unsigned resumeStage = 0; //!< stage to resume forward motion at

    /**
     * Truncated FaultSet::version() stamp of the last fault-epoch
     * this packet's routing verdict was computed against: set at
     * injection for sender-routed packets and refreshed on every
     * in-flight re-resolution / BACKTRACK failure.  A stalled or
     * undeliverable head retries only when the live (truncated)
     * version differs — a 16-bit wraparound collision merely delays
     * the retry to the next mutation, it never causes a wrong route.
     */
    std::uint16_t lastEpoch = 0;

    bool hasTag = false;
    bool goingBack = false;   //!< dynamic scheme: walking backward
    bool undeliverable = false; //!< dynamic scheme: BACKTRACK failed
};

// The hot-struct pin: growing Packet dilates every slab copy the
// simulator makes, so growth must be a conscious decision here (and
// in the matching test), never a side effect.  At 64 bytes a hop
// copies one cache line's worth of data; the slab is not 64-byte
// aligned, so a slot may straddle two lines, never three.
static_assert(sizeof(Packet) == 64, "Packet grew: re-budget the "
                                    "hot path before raising this");

} // namespace iadm::sim

#endif // IADM_SIM_PACKET_HPP

/**
 * @file
 * The cycle-accurate trace record (src/obs observability layer).
 *
 * One TraceEvent is emitted per observable simulator action: packet
 * injection, every forward/backward hop, stalls, reroutes (Corollary
 * 4.1 flips and BACKTRACK rewrites), SSDT switch-state flips,
 * deliveries, drops and route-cache probes.  The record is a fixed
 * 24-byte POD so a sink is a flat ring of slots (no allocation, no
 * pointers) and the binary trace format is a straight memory image
 * (docs/OBSERVABILITY.md).
 *
 * The tag snapshot (tagDest/tagState) mirrors core::TsdtTag at the
 * moment of the event, truncated to 16 bits per word — the same
 * N <= 2^16 bound the route cache's 16-bit path delta already
 * imposes (sim::RouteCache::kMaxStages).
 */

#ifndef IADM_OBS_TRACE_EVENT_HPP
#define IADM_OBS_TRACE_EVENT_HPP

#include <cstdint>
#include <type_traits>

#include "common/bits.hpp"

namespace iadm::obs {

/** What happened.  Values are frozen: they appear in binary traces. */
enum class EventKind : std::uint8_t
{
    Inject = 0,       //!< packet entered its stage-0 queue
    Hop = 1,          //!< forward move across one link
    Stall = 2,        //!< head packet could not move this cycle
    Reroute = 3,      //!< tag repair (Corollary 4.1 / BACKTRACK) or
                      //!< spare-link substitution
    BacktrackHop = 4, //!< one physical backward hop (dynamic TSDT)
    StateFlip = 5,    //!< an SSDT switch toggled C <-> Cbar
    Deliver = 6,      //!< packet left the output column
    Drop = 7,         //!< packet left the network undelivered
    CacheHit = 8,     //!< injection route resolved from the cache
    CacheMiss = 9,    //!< injection route computed and cached
    FaultDown = 10,   //!< a link went down (churn or transient);
                      //!< packet field is 0, sw/stage/link identify
                      //!< the link, aux is its destination switch
    FaultUp = 11,     //!< the link was repaired (same field layout)
};

/** Number of distinct EventKind values. */
inline constexpr unsigned kEventKinds = 12;

const char *eventKindName(EventKind k);

/** One observable simulator action.  Trivially copyable, 24 bytes. */
struct TraceEvent
{
    /** Drop/Inject flag: the packet never occupied a queue (it was
     *  refused at injection), so occupancy reconstruction must skip
     *  it. */
    static constexpr std::uint8_t kFlagNotEnqueued = 1;
    /** Drop flag: REROUTE/BACKTRACK proved no blockage-free path. */
    static constexpr std::uint8_t kFlagUnroutable = 2;

    /** Link field value when no link is involved in the event. */
    static constexpr std::uint8_t kNoLink = 0xff;

    std::uint64_t packet = 0;   //!< simulator packet id
    std::uint32_t cycle = 0;    //!< cycle the event happened
    std::uint16_t sw = 0;       //!< switch label at the event
    /**
     * Kind-specific companion value: destination switch for
     * Hop/Deliver/BacktrackHop, packet destination for
     * Inject/Drop/Cache*, state bits rewritten for Reroute, the new
     * state (0 = C, 1 = Cbar) for StateFlip.
     */
    std::uint16_t aux = 0;
    std::uint16_t tagDest = 0;  //!< tag snapshot: destination bits
    std::uint16_t tagState = 0; //!< tag snapshot: state bits
    EventKind kind = EventKind::Inject;
    std::uint8_t stage = 0;     //!< link stage of the event
    std::uint8_t link = kNoLink; //!< topo::LinkKind, or kNoLink
    std::uint8_t flags = 0;     //!< kFlagNotEnqueued | kFlagUnroutable
};

static_assert(sizeof(TraceEvent) == 24,
              "TraceEvent is a pinned binary-format record");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must be memcpy-safe (binary trace format)");

} // namespace iadm::obs

#endif // IADM_OBS_TRACE_EVENT_HPP

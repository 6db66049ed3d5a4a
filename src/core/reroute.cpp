#include "core/reroute.hpp"

#include <sstream>
#include <unordered_set>

#include "common/logging.hpp"
#include "obs/trace_sink.hpp"

namespace iadm::core {

namespace {

/**
 * The REROUTE loop shared by every entry point: iterates Corollary
 * 4.1 / BACKTRACK from the lowest blocked stage upward, leaving the
 * final tag and path in @p tag / @p path and the work counters in
 * @p res (res.path is NOT filled — the caller decides whether the
 * Path payload is wanted).  Returns true iff a blockage-free path
 * was found.
 */
bool
rerouteCore(const topo::IadmTopology &topo,
            const fault::FaultSet &faults, Label src, TsdtTag &tag,
            Path &path, RerouteResult &res)
{
    const Label n_size = topo.size();
    const unsigned n = topo.stages();

    // Each iteration leaves the path blockage-free through a
    // strictly higher stage, so n+1 iterations always suffice; the
    // guard only trips on an implementation bug.
    const unsigned guard = 4 * n + 8;
    for (unsigned iter = 0; iter < guard; ++iter) {
        ++res.iterations;

        // Step 1: smallest blocked stage on the current path.
        const int blocked = path.firstBlockedStage(faults);
        if (blocked < 0)
            return true;
        const auto i = static_cast<unsigned>(blocked);
        const topo::Link link = path.linkAt(i);

        std::optional<TsdtTag> next;
        [[maybe_unused]] unsigned bits_changed = 1;
        if (link.kind != topo::LinkKind::Straight &&
            !faults.isBlocked(topo.oppositeNonstraight(link))) {
            // Step 2 / Corollary 4.1: complement one state bit.
            next = rerouteNonstraight(tag, i);
            ++res.corollary41;
        } else {
            // Step 3: straight or double-nonstraight blockage.
            const auto kind =
                link.kind == topo::LinkKind::Straight
                    ? fault::BlockageKind::Straight
                    : fault::BlockageKind::DoubleNonstraight;
            const unsigned before = res.backtrackStats.bitsChanged;
            next = backtrack(topo, faults, path, i, kind, tag,
                             &res.backtrackStats);
            ++res.backtracks;
            bits_changed = res.backtrackStats.bitsChanged - before;
        }
        if (!next)
            return false;

#if IADM_TRACE
        // A simulator running REROUTE on a packet's behalf parks the
        // packet identity in the thread-local bridge; outside that
        // window the sink is null and this is a dead branch.
        if (const obs::RouteTraceContext &ctx =
                obs::routeTraceContext();
            ctx.sink != nullptr) {
            ctx.sink->record(
                obs::EventKind::Reroute, ctx.packet, ctx.cycle, i,
                link.from, static_cast<std::uint8_t>(link.kind),
                bits_changed, static_cast<Label>(next->destination()),
                static_cast<Label>(next->stateBits()));
        }
#endif

        // Step 4: adopt the rerouting path and iterate.
        tag = *next;
        path = tsdtTrace(src, tag, n_size);
    }
    IADM_PANIC("REROUTE failed to converge within ", guard,
               " iterations (src=", src, ", dest=",
               tag.destination(), ")");
}

} // namespace

RerouteResult
reroute(const topo::IadmTopology &topo, const fault::FaultSet &faults,
        Label src, const TsdtTag &initial)
{
    RerouteResult res;
    TsdtTag tag = initial;
    Path path = tsdtTrace(src, tag, topo.size());
    res.ok = rerouteCore(topo, faults, src, tag, path, res);
    res.tag = tag;
    res.path = std::move(path);
    return res;
}

RerouteResult
universalRoute(const topo::IadmTopology &topo,
               const fault::FaultSet &faults, Label src, Label dest)
{
    return reroute(topo, faults, src, initialTag(topo.stages(), dest));
}

CompactRoute
universalRouteCompact(const topo::IadmTopology &topo,
                      const fault::FaultSet &faults, Label src,
                      Label dest)
{
    const unsigned n = topo.stages();
    RerouteResult work;
    TsdtTag tag = initialTag(n, dest);
    Path path = tsdtTrace(src, tag, topo.size());

    CompactRoute res;
    res.ok = rerouteCore(topo, faults, src, tag, path, work);
    res.tag = tag;
    res.reroutes = work.corollary41 + work.backtrackStats.bitsChanged;
#ifdef IADM_SANITIZE_BUILD
    // The delta encoding must be lossless: the path REROUTE settled
    // on is exactly what decodeDelta() reconstructs from the tag.
    if (res.ok) {
        std::uint16_t sw[17];
        IADM_ASSERT(n + 1 <= 17, "decode scratch too small");
        decodeDelta(src, dest, tag.stateBits(), n, sw);
        for (unsigned i = 0; i <= n; ++i)
            IADM_ASSERT(sw[i] == path.switchAt(i),
                        "delta decode diverged from REROUTE path at "
                        "stage ",
                        i, " for ", src, "->", dest);
    }
#endif
    return res;
}

unsigned
decodeDelta(Label src, Label dest, Label state_bits,
            unsigned n_stages, std::uint16_t *path_sw) noexcept
{
    const Label mask = (Label{1} << n_stages) - 1;
    Label j = src;
    path_sw[0] = static_cast<std::uint16_t>(j);
    for (unsigned i = 0; i < n_stages; ++i) {
        j = tsdtStep(j, i, dest, state_bits, mask);
        path_sw[i + 1] = static_cast<std::uint16_t>(j);
    }
    return n_stages + 1;
}

std::optional<TsdtTag>
rerouteFromSwitch(const topo::IadmTopology &topo,
                  const fault::FaultSet &faults, unsigned stage,
                  Label j, const TsdtTag &tag)
{
    const unsigned n = topo.stages();
    IADM_ASSERT(stage < n, "rerouteFromSwitch past the last stage");
    TsdtTag out = tag;

    // Dead-end memo over (stage, switch): whether a blockage-free
    // continuation exists from a switch is independent of how the
    // DFS reached it, so each pair is expanded at most once.
    std::unordered_set<std::uint64_t> dead;
    const auto key = [&](unsigned i, Label sw) {
        return static_cast<std::uint64_t>(i) * topo.size() + sw;
    };

    const auto dfs = [&](auto &&self, unsigned i, Label sw) -> bool {
        if (i == n)
            return true;
        if (dead.count(key(i, sw)) != 0)
            return false;
        if (out.destBit(i) == bit(sw, i)) {
            // Straight link forced (Theorem 3.3): the nonstraight
            // links of this switch cannot appear on a path to the
            // destination from here.
            const topo::Link l = topo.straightLink(i, sw);
            if (!faults.isBlocked(l) && self(self, i + 1, l.to))
                return true;
        } else {
            // Try the link the current state bit selects first, so a
            // clear continuation perturbs the tag minimally.
            const unsigned preferred =
                out.stateBit(i) == bit(sw, i) ? bit(sw, i)
                                              : 1 - bit(sw, i);
            for (const unsigned v : {preferred, 1 - preferred}) {
                const topo::Link l = v == bit(sw, i)
                                         ? topo.plusLink(i, sw)
                                         : topo.minusLink(i, sw);
                if (faults.isBlocked(l))
                    continue;
                out.setStateBit(i, v);
                if (self(self, i + 1, l.to))
                    return true;
            }
        }
        dead.insert(key(i, sw));
        return false;
    };

    if (!dfs(dfs, stage, j))
        return std::nullopt;
    return out;
}

std::string
explainReroute(const topo::IadmTopology &topo,
               const fault::FaultSet &faults, Label src, Label dest)
{
    // A narrated re-run of algorithm REROUTE (kept in sync with
    // reroute() above; the outcome is asserted identical).
    const Label n_size = topo.size();
    const unsigned n = topo.stages();
    std::ostringstream os;

    TsdtTag tag = initialTag(n, dest);
    Path path = tsdtTrace(src, tag, n_size);
    os << "route " << src << " -> " << dest << " (N=" << n_size
       << ")\n";
    os << "  initial tag " << tag.str() << " : " << path.str()
       << "\n";

    const unsigned guard = 4 * n + 8;
    for (unsigned iter = 0; iter < guard; ++iter) {
        const int blocked = path.firstBlockedStage(faults);
        if (blocked < 0) {
            os << "  => blockage-free; final tag " << tag.str()
               << "\n";
            IADM_ASSERT(universalRoute(topo, faults, src, dest).ok,
                        "narration diverged from REROUTE");
            return os.str();
        }
        const auto i = static_cast<unsigned>(blocked);
        const topo::Link link = path.linkAt(i);
        os << "  blocked: " << link.str() << "\n";

        std::optional<TsdtTag> next;
        if (link.kind != topo::LinkKind::Straight &&
            !faults.isBlocked(topo.oppositeNonstraight(link))) {
            next = rerouteNonstraight(tag, i);
            os << "    corollary 4.1: complement state bit b_"
               << n + i << " -> tag " << next->str() << "\n";
        } else {
            const auto kind =
                link.kind == topo::LinkKind::Straight
                    ? fault::BlockageKind::Straight
                    : fault::BlockageKind::DoubleNonstraight;
            BacktrackStats stats;
            next = backtrack(topo, faults, path, i, kind, tag,
                             &stats);
            if (next) {
                os << "    BACKTRACK ("
                   << fault::blockageKindName(kind) << "): walked "
                   << stats.stagesVisited << " stage(s) back over "
                   << stats.iterations << " iteration(s), rewrote "
                   << stats.bitsChanged << " state bit(s) -> tag "
                   << next->str() << "\n";
            } else {
                os << "    BACKTRACK ("
                   << fault::blockageKindName(kind)
                   << "): FAIL — no blockage-free path exists\n";
            }
        }
        if (!next) {
            IADM_ASSERT(!universalRoute(topo, faults, src, dest).ok,
                        "narration diverged from REROUTE");
            return os.str();
        }
        tag = *next;
        path = tsdtTrace(src, tag, n_size);
        os << "    new path : " << path.str() << "\n";
    }
    IADM_PANIC("explainReroute failed to converge");
}

} // namespace iadm::core

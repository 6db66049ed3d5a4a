/**
 * @file
 * serve-openloop-1024: an in-process RouteServer on a real Unix
 * socket, N=1024, tsdt, static links:96, no churn ticker.  A uniform
 * request log is sent open loop over one connection on a fixed
 * schedule of kRate requests per second, with no window: each
 * request is due at start + k / kRate whatever the daemon does, and
 * its latency runs from that intended time to the receipt of its
 * response, so a stall is charged to every request it delays.  The
 * route cache is warm, so the wire, resolve and socket layers do the
 * work while the simulator is idle.
 *
 * Every response is byte-compared with a line rebuilt from
 * core::universalRouteCompact, as bench_serve's oracle does.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "core/reroute.hpp"
#include "serve/server.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/route_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace iadm;

constexpr Label kNetSize = 1024;
constexpr const char *kFaults = "links:96";
constexpr double kRate = 100000; //!< offered requests per second
constexpr std::size_t kLogLines = std::size_t{1} << 18;
constexpr unsigned kSetups = 9;  //!< set-up repeats (median reported)
constexpr double kLeadInS = 0.5; //!< per phase, checked but not timed
constexpr std::size_t kWarmBatch = 256;

/** The request log plus the oracle's expected response lines. */
struct Log
{
    std::string blob;              //!< request lines, back to back
    std::vector<std::size_t> off;  //!< line i = blob[off[i], off[i+1])
    std::vector<serve::Request> reqs;
    std::vector<std::string> want; //!< expected response per line
    std::vector<std::uint64_t> wantHash;
    double rerouteNs = 0;          //!< oracle REROUTE time per call
    double reroutesPerReq = 0;
};

Log
makeLog(std::uint64_t seed, const topo::IadmTopology &net,
        const fault::FaultSet &faults)
{
    Log log;
    Rng rng(mixSeed(seed ^ 0x5e7e0be11ull));
    log.off.push_back(0);
    for (std::size_t i = 0; i < kLogLines; ++i) {
        const auto src = static_cast<Label>(rng.uniform(kNetSize));
        const auto dst = static_cast<Label>(rng.uniform(kNetSize));
        log.blob += "{\"id\":" + std::to_string(i + 1) +
                    ",\"op\":\"route\",\"src\":" + std::to_string(src) +
                    ",\"dst\":" + std::to_string(dst) + "}\n";
        log.off.push_back(log.blob.size());
        log.reqs.push_back(serve::parseRequest(std::string_view(
            log.blob.data() + log.off[i], log.off[i + 1] - log.off[i] - 1)));
    }
    // Oracle: direct REROUTE against the same static fault set and
    // epoch, formatted with the daemon's own response writer.
    std::vector<core::CompactRoute> routes(kLogLines);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kLogLines; ++i)
        routes[i] = core::universalRouteCompact(
            net, faults, log.reqs[i].src, log.reqs[i].dst);
    log.rerouteNs = secondsBetween(t0, Clock::now()) * 1e9 / kLogLines;
    std::uint64_t reroutes = 0;
    for (std::size_t i = 0; i < kLogLines; ++i) {
        const core::CompactRoute &c = routes[i];
        std::string line;
        serve::ResponseWriter w(line, log.reqs[i].id);
        w.field("op", std::string_view("route"));
        w.field("epoch", faults.version());
        w.field("ok", c.ok);
        if (c.ok) {
            w.field("tag", c.tag.str());
            w.field("reroutes", static_cast<std::uint64_t>(c.reroutes));
            reroutes += c.reroutes;
        }
        w.finish();
        Digest d;
        for (const char ch : line)
            d.add(static_cast<unsigned char>(ch));
        log.wantHash.push_back(d.value());
        log.want.push_back(std::move(line));
    }
    log.reroutesPerReq = static_cast<double>(reroutes) / kLogLines;
    return log;
}

/** Count of response lines in @p out that differ from the oracle. */
std::size_t
countMismatches(const std::string &out, const Log &log,
                std::size_t first, std::size_t n)
{
    std::size_t bad = 0, pos = 0;
    for (std::size_t i = first; i < first + n; ++i) {
        const std::string &want = log.want[i];
        if (out.compare(pos, want.size(), want) != 0)
            ++bad;
        const auto nl = out.find('\n', pos);
        pos = nl == std::string::npos ? out.size() : nl + 1;
    }
    return bad;
}

/** What one open-loop phase observed. */
struct Phase
{
    bool traced = false;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t sendErrors = 0;
    double achievedPerS = 0;
    std::vector<double> latUs;  //!< measured requests only
    std::vector<double> lateUs; //!< generator lateness, measured only
    serve::ServerCore::Stats before, after;
    std::string firstBad;
};

/**
 * Send requests [k0, k1) of the global schedule open loop on @p fd
 * and collect their responses.  One thread does both, in a spin loop
 * that never sleeps: it writes every request that is due by now (a
 * late loop catches up in one burst, never by moving the schedule),
 * then reads whatever responses have arrived.
 */
Phase
runPhase(int fd, const Log &log, serve::ServerCore &core,
         std::uint64_t k0, std::uint64_t k1, bool traced, SpanLog &spans,
         std::uint64_t phase_id, Digest &stream)
{
    Phase ph;
    ph.traced = traced;
    ph.before = core.statsSnapshot();
    const std::uint64_t q = k1 - k0;
    const double period_ns = 1e9 / kRate;
    // Short phases still time four fifths of their requests.
    const auto lead_in = std::min(
        static_cast<std::uint64_t>(kLeadInS * kRate), q / 5);
    std::vector<Clock::time_point> due(q);
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::uint64_t i = 0; i < q; ++i)
        due[i] = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          static_cast<double>(i) * period_ns));
    const auto deadline = due.back() + std::chrono::seconds(10);
    ph.latUs.reserve(q);
    ph.lateUs.reserve(q);
    const std::int32_t phase_span =
        traced ? spans.open("serve.phase", t0, -1, phase_id) : -1;

    std::uint64_t next = 0;     //!< first request not yet written
    const char *pend = nullptr; //!< unwritten bytes of the current run
    std::size_t pend_len = 0;
    std::uint64_t seen = 0;     //!< responses received
    std::string buf;
    std::size_t scan = 0;
    char chunk[1 << 16];
    Clock::time_point last_rx = t0;
    bool failed = false;
    while (seen < q && !failed) {
        const auto now = Clock::now();
        if (now > deadline)
            break;
        if (pend_len == 0 && next < q && due[next] <= now) {
            // Every request due by now, up to the log's wrap point.
            const std::size_t line = (k0 + next) % kLogLines;
            std::uint64_t end = next + 1;
            while (end < q && due[end] <= now &&
                   line + (end - next) < kLogLines)
                ++end;
            for (std::uint64_t m = next; m < end; ++m)
                if (m >= lead_in)
                    ph.lateUs.push_back(
                        std::chrono::duration<double, std::micro>(
                            now - due[m])
                            .count());
            pend = log.blob.data() + log.off[line];
            pend_len = log.off[line + (end - next)] - log.off[line];
            next = end;
        }
        if (pend_len > 0) {
            const ssize_t w =
                ::send(fd, pend, pend_len, MSG_DONTWAIT | MSG_NOSIGNAL);
            if (w > 0) {
                pend += w;
                pend_len -= static_cast<std::size_t>(w);
            } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
                ph.sendErrors = 1;
                failed = true;
            }
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n == 0 ||
            (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            failed = true;
            continue;
        }
        if (n < 0)
            continue;
        const auto rx = Clock::now();
        buf.append(chunk, static_cast<std::size_t>(n));
        for (;;) {
            const auto nl = buf.find('\n', scan);
            if (nl == std::string::npos)
                break;
            const std::size_t line = (k0 + seen) % kLogLines;
            const std::string &want = log.want[line];
            if (nl + 1 - scan != want.size() ||
                std::memcmp(buf.data() + scan, want.data(),
                            want.size()) != 0) {
                if (ph.mismatches++ == 0)
                    ph.firstBad = buf.substr(scan, nl + 1 - scan) +
                                  "  want " + want;
            }
            stream.add(log.wantHash[line]);
            if (seen >= lead_in) {
                ph.latUs.push_back(
                    std::chrono::duration<double, std::micro>(rx -
                                                              due[seen])
                        .count());
                if (traced)
                    spans.add("serve.request", due[seen], rx, phase_span,
                              k0 + seen);
            }
            ++seen;
            scan = nl + 1;
            last_rx = rx;
        }
        buf.erase(0, scan);
        scan = 0;
    }
    if (traced)
        spans.close(phase_span, Clock::now());
    ph.sent = q; // open loop: every scheduled request counts
    ph.received = seen;
    ph.after = core.statsSnapshot();
    if (seen > lead_in)
        ph.achievedPerS = static_cast<double>(seen - lead_in) /
                          secondsBetween(due[lead_in], last_rx);
    return ph;
}

} // namespace

Result
runServeOpenLoop(const Options &opt, SpanLog &spans)
{
    Result res;
    serve::ServeConfig cfg;
    cfg.netSize = kNetSize;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    cfg.seed = opt.seed;
    const topo::IadmTopology net(kNetSize);
    fault::FaultSet faults;
    std::string err;
    if (!serve::ServerCore::parseFaultArg(net, kFaults, opt.seed, faults,
                                          err)) {
        res.fail(err);
        return res;
    }
    // Request-log generation and the oracle are not set-up: the
    // program only ever receives the generated bytes.
    const Log log = makeLog(opt.seed, net, faults);
    const std::string sock = opt.outDir + "/serve.sock";

    // Set-up, repeated: ServerCore construction, socket bind, and an
    // in-process warm pass of the whole log through resolveBatch.
    std::unique_ptr<serve::ServerCore> core;
    std::unique_ptr<serve::RouteServer> server;
    std::vector<double> setups;
    std::string out;
    for (unsigned s = 0; s < kSetups; ++s) {
        server.reset();
        core.reset();
        const auto t0 = Clock::now();
        core = std::make_unique<serve::ServerCore>(cfg, faults);
        server = std::make_unique<serve::RouteServer>(*core, sock);
        if (!server->start(&err)) {
            res.fail("daemon start: " + err);
            return res;
        }
        std::size_t bad = 0;
        for (std::size_t i = 0; i < kLogLines; i += kWarmBatch) {
            const std::size_t n = std::min(kWarmBatch, kLogLines - i);
            out.clear();
            core->resolveBatch(&log.reqs[i], n, out);
            bad += countMismatches(out, log, i, n);
        }
        const auto t1 = Clock::now();
        setups.push_back(secondsBetween(t0, t1));
        if (opt.trace)
            spans.add("serve.setup", t0, t1, -1, s);
        if (bad != 0)
            res.fail("warm pass: " + std::to_string(bad) +
                     " responses differ from direct REROUTE");
    }
    std::printf("set-up: median %.4f s over %u (core + bind + warm "
                "pass of %zu requests)\n",
                median(setups), kSetups, kLogLines);

    std::thread loop([&] { server->run(); });
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    std::vector<Phase> phases;
    // Digest of the verified response stream, request by request: a
    // timed and a traced run of one seed answer the same schedule.
    Digest digest;
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        res.fail("connect " + sock + " failed");
    } else {
        // Traced runs send the same schedule in two halves, untraced
        // then traced, so the run measures its own tracing overhead.
        const auto total =
            static_cast<std::uint64_t>(opt.seconds * kRate);
        if (opt.trace) {
            phases.push_back(runPhase(fd, log, *core, 0, total / 2,
                                      false, spans, 0, digest));
            phases.push_back(runPhase(fd, log, *core, total / 2, total,
                                      true, spans, 1, digest));
        } else {
            phases.push_back(runPhase(fd, log, *core, 0, total, false,
                                      spans, 0, digest));
        }
    }
    server->stop();
    loop.join();
    if (fd >= 0)
        ::close(fd);

    std::uint64_t requests = 0, bad = 0;
    for (const Phase &ph : phases) {
        requests += ph.sent;
        const std::uint64_t unanswered = ph.sent - ph.received;
        bad += ph.mismatches + unanswered;
        if (ph.mismatches != 0)
            res.fail(std::to_string(ph.mismatches) +
                     " responses differ from direct REROUTE, first: " +
                     ph.firstBad);
        if (unanswered != 0)
            res.fail(std::to_string(unanswered) +
                     " requests unanswered" +
                     (ph.sendErrors != 0 ? " (send failed)" : ""));
        if (ph.after.epochTorn != 0)
            res.fail("epoch_torn = " +
                     std::to_string(ph.after.epochTorn));
        std::printf("phase%s: sent %llu, answered %llu, offered %.0f/s, "
                    "achieved %.1f/s\n",
                    ph.traced ? " (traced)" : "",
                    static_cast<unsigned long long>(ph.sent),
                    static_cast<unsigned long long>(ph.received), kRate,
                    ph.achievedPerS);
    }
    res.attempted = requests;
    res.failed = bad;
    if (phases.empty())
        return res;

    Phase &plain = phases.front();
    res.e2e.opsPerS = plain.achievedPerS;
    res.e2e.latencyP50Us = median(plain.latUs);
    res.e2e.setupS = median(setups);
    res.e2e.okFrac = requests != 0
                         ? 1.0 - static_cast<double>(bad) /
                                     static_cast<double>(requests)
                         : 0;
    std::printf("digest serve-openloop-1024: %s (%llu responses, "
                "fail_frac %.6f)\n",
                digest.hex().c_str(),
                static_cast<unsigned long long>(requests),
                1.0 - res.e2e.okFrac);

    if (opt.trace && phases.size() == 2) {
        Phase &tp = phases.back();
        LayerStats &l = res.layer;
        const auto &a = tp.after;
        const auto &b = tp.before;
        const double batches = static_cast<double>(a.batches - b.batches);
        const double reqs = static_cast<double>(a.requests - b.requests);
        l.serveBatches = batches;
        l.serveMeanBatch = batches > 0 ? reqs / batches : 0;
        l.serveErrors = static_cast<double>(a.errors - b.errors);
        l.serveEpochTorn = static_cast<double>(a.epochTorn);
        const double hits = static_cast<double>(a.routeHits - b.routeHits);
        const double probes =
            hits + static_cast<double>(a.routeMisses - b.routeMisses);
        l.cacheProbes = probes;
        l.cacheHitRatio = probes > 0 ? hits / probes : 0;
        l.clientRequests = static_cast<double>(tp.latUs.size());
        const double p50 = median(tp.latUs);
        l.clientLatencyP99Us = quantile(tp.latUs, 0.99);
        l.clientLatencyP99Samples = static_cast<double>(std::count_if(
            tp.latUs.begin(), tp.latUs.end(),
            [&](double v) { return v >= l.clientLatencyP99Us; }));
        l.generatorLateP50Us = median(tp.lateUs);
        l.generatorLateMaxUs =
            tp.lateUs.empty()
                ? 0
                : *std::max_element(tp.lateUs.begin(), tp.lateUs.end());
        l.rerouteNsPerCall = log.rerouteNs;
        l.rerouteCalls = static_cast<double>(kLogLines);
        l.reroutesPerPacket = log.reroutesPerReq;

        // Wire parse, replayed in-process over the same log.
        constexpr int kReps = 4;
        std::uint64_t sink = 0;
        auto t0 = Clock::now();
        for (int r = 0; r < kReps; ++r)
            for (std::size_t i = 0; i < kLogLines; ++i)
                sink += serve::parseRequest(
                            std::string_view(log.blob.data() + log.off[i],
                                             log.off[i + 1] - log.off[i] -
                                                 1))
                            .src;
        auto t1 = Clock::now();
        l.parseNsPerReq =
            secondsBetween(t0, t1) * 1e9 / (kReps * kLogLines);
        spans.add("serve.wire.parse_replay", t0, t1, -1, sink & 1);

        // Resolve, replayed on the warm core at the observed batch size.
        const auto batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(l.serveMeanBatch + 0.5));
        std::size_t mism = 0;
        t0 = Clock::now();
        for (std::size_t i = 0; i < kLogLines; i += batch) {
            const std::size_t n = std::min(batch, kLogLines - i);
            out.clear();
            core->resolveBatch(&log.reqs[i], n, out);
            mism += countMismatches(out, log, i, n);
        }
        t1 = Clock::now();
        l.resolveNsPerReq = secondsBetween(t0, t1) * 1e9 / kLogLines;
        spans.add("serve.server_core.resolve_replay", t0, t1, -1, batch);
        if (mism != 0)
            res.fail("resolve replay: " + std::to_string(mism) +
                     " responses differ from direct REROUTE");
        l.socketResidualUs =
            p50 - (l.parseNsPerReq + l.resolveNsPerReq) * 1e-3;

        // Evictions: the daemon does not export its cache's eviction
        // counter, so a RouteCache of the same capacity replays the
        // probe sequence the serving core saw (warm pass, then the
        // served stream).
        sim::RouteCache model(kNetSize, cfg.cacheCapacity);
        for (std::size_t i = 0; i < kLogLines; ++i)
            model.resolveUniversal(net, faults, log.reqs[i].src,
                                   log.reqs[i].dst);
        for (std::uint64_t k = 0; k < requests; ++k) {
            const auto &r = log.reqs[k % kLogLines];
            model.resolveUniversal(net, faults, r.src, r.dst);
        }
        l.cacheEvictions = static_cast<double>(model.stats().evictions);

        l.opsPerSUntraced = plain.achievedPerS;
        l.opsPerSTraced = tp.achievedPerS;
        l.traceOverheadFrac =
            l.opsPerSUntraced > 0
                ? 1.0 - l.opsPerSTraced / l.opsPerSUntraced
                : 0;
    }
    return res;
}

} // namespace perfbench

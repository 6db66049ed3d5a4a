/**
 * @file
 * Fault model tests: FaultSet semantics, the switch-to-link blockage
 * transformation, and the injection policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_set.hpp"
#include "fault/injection.hpp"
#include "topology/iadm.hpp"

namespace iadm {
namespace {

using fault::FaultSet;
using topo::IadmTopology;
using topo::Link;
using topo::LinkKind;

/** Every blocked link's key mapped to its claim count. */
std::map<std::uint64_t, std::uint32_t>
claimsOf(const FaultSet &fs)
{
    std::map<std::uint64_t, std::uint32_t> m;
    fs.forEach([&m](std::uint64_t key, std::uint32_t cnt) {
        EXPECT_TRUE(m.emplace(key, cnt).second)
            << "forEach visited key " << key << " twice";
        EXPECT_GT(cnt, 0u) << "forEach visited an unclaimed key";
    });
    return m;
}

TEST(FaultSet, BlockUnblock)
{
    IadmTopology t(8);
    FaultSet fs;
    const Link l = t.plusLink(1, 3);
    EXPECT_FALSE(fs.isBlocked(l));
    fs.blockLink(l);
    EXPECT_TRUE(fs.isBlocked(l));
    EXPECT_EQ(fs.count(), 1u);
    fs.unblockLink(l);
    EXPECT_FALSE(fs.isBlocked(l));
    EXPECT_TRUE(fs.empty());
}

TEST(FaultSet, DistinguishesParallelLastStageLinks)
{
    // The two physical +-2^{n-1} links share endpoints but block
    // independently.
    IadmTopology t(8);
    FaultSet fs;
    fs.blockLink(t.plusLink(2, 0));
    EXPECT_TRUE(fs.isBlocked(t.plusLink(2, 0)));
    EXPECT_FALSE(fs.isBlocked(t.minusLink(2, 0)));
    EXPECT_EQ(t.plusLink(2, 0).to, t.minusLink(2, 0).to);
}

TEST(FaultSet, BlockSwitchBlocksAllInputs)
{
    IadmTopology t(16);
    FaultSet fs;
    fs.blockSwitch(t, 2, 5);
    for (const Link &l : t.inLinks(2, 5))
        EXPECT_TRUE(fs.isBlocked(l));
    EXPECT_EQ(fs.count(), 3u);
}

TEST(FaultSet, BlockInputSwitchBlocksItsOutputs)
{
    IadmTopology t(16);
    FaultSet fs;
    fs.blockSwitch(t, 0, 5);
    for (const Link &l : t.outLinks(0, 5))
        EXPECT_TRUE(fs.isBlocked(l));
}

TEST(FaultSet, ClearAndStr)
{
    IadmTopology t(8);
    FaultSet fs;
    fs.blockLink(t.straightLink(0, 1));
    fs.blockLink(t.minusLink(1, 2));
    EXPECT_EQ(fs.count(), 2u);
    EXPECT_NE(fs.str(), "{}");
    fs.clear();
    EXPECT_TRUE(fs.empty());
    EXPECT_EQ(fs.str(), "{}");
}

TEST(FaultSet, MergeUnionsBlockages)
{
    IadmTopology t(8);
    FaultSet a, b;
    a.blockLink(t.plusLink(0, 1));
    b.blockLink(t.minusLink(1, 2));
    b.blockLink(t.plusLink(0, 1)); // overlap
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_TRUE(a.isBlocked(t.plusLink(0, 1)));
    EXPECT_TRUE(a.isBlocked(t.minusLink(1, 2)));
}

TEST(FaultSet, RefcountedClaimsComposeAndUnwind)
{
    // Two independent blockage sources on the same link: releasing
    // one must not unblock it (the transient-overlap bug class).
    IadmTopology t(8);
    FaultSet fs;
    const Link l = t.straightLink(1, 3);
    fs.blockLink(l); // e.g. a static fault
    fs.blockLink(l); // e.g. an overlapping transient window
    EXPECT_EQ(fs.refcount(l), 2u);
    EXPECT_EQ(fs.count(), 1u); // links, not claims
    fs.unblockLink(l);
    EXPECT_TRUE(fs.isBlocked(l)) << "first release cleared a claim "
                                    "it did not own";
    EXPECT_EQ(fs.refcount(l), 1u);
    fs.unblockLink(l);
    EXPECT_FALSE(fs.isBlocked(l));
    EXPECT_EQ(fs.refcount(l), 0u);
    EXPECT_TRUE(fs.empty());
}

TEST(FaultSet, UnmatchedUnblockIsANoOp)
{
    IadmTopology t(8);
    FaultSet fs;
    const Link l = t.plusLink(0, 2);
    const std::uint64_t v0 = fs.version();
    fs.unblockLink(l); // nothing to release
    EXPECT_EQ(fs.version(), v0) << "no-op release bumped version";
    fs.blockLink(t.minusLink(2, 4));
    fs.unblockLink(l); // still not blocked
    EXPECT_TRUE(fs.isBlocked(t.minusLink(2, 4)));
    EXPECT_EQ(fs.count(), 1u);
}

TEST(FaultSet, EveryMutationBumpsVersion)
{
    // RouteCache epochs key off version(): any blocked-set change
    // must move it, including claim releases that keep the link
    // blocked (a spurious invalidation is safe; a missed one is
    // not... and claim counts are not observable by routing).
    IadmTopology t(8);
    FaultSet fs;
    const Link l = t.straightLink(0, 1);
    std::uint64_t v = fs.version();
    fs.blockLink(l);
    EXPECT_NE(fs.version(), v);
    v = fs.version();
    fs.blockLink(l); // second claim, link already blocked
    EXPECT_NE(fs.version(), v);
    v = fs.version();
    fs.unblockLink(l); // release, link stays blocked
    EXPECT_NE(fs.version(), v);
    v = fs.version();
    fs.unblockLink(l); // last release, link unblocks
    EXPECT_NE(fs.version(), v);
}

TEST(FaultSet, MergeAddsClaimCounts)
{
    IadmTopology t(8);
    FaultSet a, b;
    const Link l = t.plusLink(0, 1);
    a.blockLink(l);
    b.blockLink(l);
    a.merge(b);
    EXPECT_EQ(a.refcount(l), 2u);
    a.unblockLink(l);
    EXPECT_TRUE(a.isBlocked(l)) << "merged claim was not additive";
    a.unblockLink(l);
    EXPECT_TRUE(a.empty());
}

TEST(Injection, RandomLinkFaultsCount)
{
    IadmTopology t(16);
    Rng rng(1);
    for (std::size_t count : {0u, 1u, 5u, 20u}) {
        const FaultSet fs = fault::randomLinkFaults(t, count, rng);
        EXPECT_EQ(fs.count(), count);
    }
}

TEST(Injection, RandomNonstraightOnly)
{
    IadmTopology t(16);
    Rng rng(2);
    const FaultSet fs = fault::randomNonstraightFaults(t, 25, rng);
    EXPECT_EQ(fs.count(), 25u);
    for (const Link &l : t.allLinks()) {
        if (l.kind == LinkKind::Straight) {
            EXPECT_FALSE(fs.isBlocked(l)) << l.str();
        }
    }
}

TEST(Injection, BernoulliExtremes)
{
    IadmTopology t(8);
    Rng rng(3);
    EXPECT_TRUE(fault::bernoulliLinkFaults(t, 0.0, rng).empty());
    const FaultSet all = fault::bernoulliLinkFaults(t, 1.0, rng);
    EXPECT_EQ(all.count(), t.allLinks().size());
}

TEST(Injection, SwitchFaultsBlockTriples)
{
    IadmTopology t(16);
    Rng rng(4);
    const FaultSet fs = fault::randomSwitchFaults(t, 3, rng);
    // Distinct switches have disjoint input link triples.
    EXPECT_EQ(fs.count(), 9u);
}

TEST(Injection, DoubleNonstraightFaults)
{
    IadmTopology t(16);
    Rng rng(5);
    const FaultSet fs =
        fault::randomDoubleNonstraightFaults(t, 4, rng);
    EXPECT_EQ(fs.count(), 8u);
    for (const Link &l : t.allLinks())
        if (l.kind == LinkKind::Straight) {
            EXPECT_FALSE(fs.isBlocked(l));
        }
    // Blocked links come in per-switch pairs.
    unsigned pairs = 0;
    for (unsigned i = 0; i < t.stages(); ++i) {
        for (Label j = 0; j < t.size(); ++j) {
            const bool p = fs.isBlocked(t.plusLink(i, j));
            const bool m = fs.isBlocked(t.minusLink(i, j));
            EXPECT_EQ(p, m) << "stage " << i << " switch " << j;
            pairs += (p && m) ? 1 : 0;
        }
    }
    EXPECT_EQ(pairs, 4u);
}

/**
 * FaultSet against a std::map reference: claims per key, the
 * version-bump rule, and str().  The key pool is chosen so the keys'
 * multiplicative hashes (the table's, see fault_set.hpp) land in
 * the few home slots around the wrap point of every table size up
 * to 1024 slots, so probe runs collide, wrap and are shifted back
 * by deletions all the time.
 */
TEST(FaultSet, FlatTableMatchesMapReference)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
    std::vector<Link> pool;
    for (std::uint32_t c = 0; pool.size() < 48; ++c) {
        const Link l{c % 13, c / 3, 0, static_cast<LinkKind>(c % 3)};
        const std::uint64_t top10 = (l.key() * kMul) >> 54;
        if (top10 < 4 || top10 >= 1020)
            pool.push_back(l);
    }
    const IadmTopology t(8);
    for (const Link &l : t.allLinks())
        pool.push_back(l); // what blockSwitch claims, plus spread keys

    FaultSet fs;
    std::map<std::uint64_t, std::uint32_t> ref;
    std::uint64_t refVersion = fs.version();
    const auto refAdd = [&](const Link &l, std::uint32_t n) {
        ref[l.key()] += n;
    };
    const auto check = [&](long op) {
        ASSERT_EQ(fs.count(), ref.size()) << "op " << op;
        ASSERT_EQ(fs.empty(), ref.empty()) << "op " << op;
        ASSERT_EQ(fs.version(), refVersion) << "op " << op;
    };

    Rng rng(2024);
    constexpr long kOps = 120000;
    for (long op = 0; op < kOps; ++op) {
        const unsigned r = static_cast<unsigned>(rng.uniform(1000));
        const Link &l = pool[rng.uniform(pool.size())];
        if (r < 470) {
            fs.blockLink(l);
            refAdd(l, 1);
            ++refVersion;
        } else if (r < 970) {
            fs.unblockLink(l);
            const auto it = ref.find(l.key());
            if (it != ref.end()) {
                if (--it->second == 0)
                    ref.erase(it);
                ++refVersion;
            }
        } else if (r < 985) {
            const auto stage =
                static_cast<unsigned>(rng.uniform(t.stages()));
            const auto j = static_cast<Label>(rng.uniform(t.size()));
            fs.blockSwitch(t, stage, j);
            const auto links =
                stage == 0 ? t.outLinks(0, j) : t.inLinks(stage, j);
            for (const Link &b : links) {
                refAdd(b, 1);
                ++refVersion;
            }
        } else if (r < 998) {
            FaultSet other;
            std::vector<Link> added;
            const auto k = rng.uniform(8);
            for (std::uint64_t i = 0; i < k; ++i) {
                added.push_back(pool[rng.uniform(pool.size())]);
                other.blockLink(added.back());
            }
            std::uint32_t maxClaims = 0;
            for (const auto &[key, cnt] : ref)
                maxClaims = std::max(maxClaims, cnt);
            if (maxClaims < 64 && rng.uniform(4) == 0) {
                fs.merge(fs); // self-merge doubles every claim
                for (auto &[key, cnt] : ref)
                    cnt *= 2;
                ++refVersion;
            }
            fs.merge(other);
            for (const Link &b : added)
                refAdd(b, 1);
            ++refVersion;
        } else {
            fs.clear();
            ref.clear();
            ++refVersion;
        }
        const auto it = ref.find(l.key());
        ASSERT_EQ(fs.refcount(l), it == ref.end() ? 0u : it->second)
            << "op " << op;
        ASSERT_EQ(fs.isBlocked(l), it != ref.end()) << "op " << op;
        check(op);
        if (op % 997 == 0) {
            for (const Link &p : pool) {
                const auto pit = ref.find(p.key());
                ASSERT_EQ(fs.refcount(p),
                          pit == ref.end() ? 0u : pit->second)
                    << "op " << op << " key " << p.key();
                ASSERT_EQ(fs.isBlocked(p), pit != ref.end());
            }
            ASSERT_EQ(claimsOf(fs), ref) << "op " << op;
            std::ostringstream os;
            os << "{";
            for (auto k = ref.begin(); k != ref.end(); ++k)
                os << (k == ref.begin() ? "" : ",") << k->first;
            os << "}";
            ASSERT_EQ(fs.str(), os.str()) << "op " << op;
        }
    }

    // Copies are independent tables with the same contents.
    FaultSet copy = fs;
    EXPECT_EQ(claimsOf(copy), claimsOf(fs));
    copy.clear();
    EXPECT_EQ(claimsOf(fs), ref);
}

TEST(Injection, Deterministic)
{
    IadmTopology t(32);
    Rng a(77), b(77);
    const FaultSet fa = fault::randomLinkFaults(t, 10, a);
    const FaultSet fb = fault::randomLinkFaults(t, 10, b);
    EXPECT_EQ(claimsOf(fa), claimsOf(fb));
}

TEST(BlockageKind, Names)
{
    EXPECT_STREQ(fault::blockageKindName(fault::BlockageKind::None),
                 "none");
    EXPECT_STREQ(
        fault::blockageKindName(fault::BlockageKind::Straight),
        "straight");
    EXPECT_STREQ(
        fault::blockageKindName(fault::BlockageKind::Nonstraight),
        "nonstraight");
    EXPECT_STREQ(fault::blockageKindName(
                     fault::BlockageKind::DoubleNonstraight),
                 "double-nonstraight");
}

} // namespace
} // namespace iadm

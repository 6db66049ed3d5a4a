/**
 * @file
 * Scenario-grammar suite (`ctest -L scenario`): parse round-trips
 * and rejection regressions for the composable traffic subsystem,
 * statistical checks of every destination source and shaper, the
 * closed-loop feedback contract, and sweep determinism for the new
 * scenario axis — byte-identical reports across worker counts,
 * pinned by a dedicated golden fixture
 * (tests/data/golden_sweep_scenarios_n64.json).
 *
 * Regenerating the fixture (only after an *intentional* behaviour
 * change):
 *   IADM_REGEN_GOLDEN=1 ./scenario_test
 * and commit the updated file with an explanation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/spec_reader.hpp"
#include "serve/wire.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace iadm {
namespace {

using namespace sim;

#ifndef IADM_TEST_DATA_DIR
#error "IADM_TEST_DATA_DIR must point at tests/data"
#endif

// --- parse round-trips --------------------------------------------

TEST(ScenarioParse, CanonicalNameReparsesToEqualSpec)
{
    for (const std::string spec : {
             "uniform",
             "hotspot:0:0.2",
             "dst:hotspot:0+5+9:0.3",
             "dst:perm:shift:4",
             "bitrev",
             "transpose",
             "dst:perm:complement:63",
             "dst:perm:shuffle",
             "dst:perm:exchange:2",
             "dst:adversarial",
             "dst:mcast:4:8",
             "shape:bursty:16:64/dst:uniform",
             "shape:ramp:0.1:0.9:2000/dst:uniform",
             "shape:closed:4/dst:uniform",
             "shape:ramp:0.1:0.9:2000/over:bursty:16:64/"
             "dst:hotspot:0:0.2",
             "shape:bursty:8:32/over:closed:2/dst:perm:bitrev",
         }) {
        const auto s = ScenarioSpec::parse(spec);
        ASSERT_TRUE(s.has_value()) << spec;
        EXPECT_EQ(s->name(), spec) << "non-canonical input? " << spec;
        const auto again = ScenarioSpec::parse(s->name());
        ASSERT_TRUE(again.has_value()) << s->name();
        EXPECT_TRUE(*again == *s)
            << "round trip changed the spec: " << spec;
    }
}

TEST(ScenarioParse, SugarAtomsNormalizeToCanonicalClauses)
{
    const auto canon = [](const std::string &spec) {
        const auto s = ScenarioSpec::parse(spec);
        EXPECT_TRUE(s.has_value()) << spec;
        return s ? s->name() : std::string("<unparsed>");
    };
    EXPECT_EQ(canon("uniform"), "uniform");
    EXPECT_EQ(canon("hotspot:0:0.2"), "hotspot:0:0.2");
    EXPECT_EQ(canon("bitrev"), "bitrev");
    EXPECT_EQ(canon("transpose"), "transpose");
    EXPECT_EQ(canon("shift:5"), "dst:perm:shift:5");
    EXPECT_EQ(canon("bursty:16:64"), "shape:bursty:16:64/dst:uniform");
    // over: and shape: are interchangeable on input.
    EXPECT_EQ(canon("over:bursty:16:64/dst:uniform"),
              "shape:bursty:16:64/dst:uniform");
    // Clause order is free on input; the name is shapers-then-dst.
    EXPECT_EQ(canon("dst:uniform/shape:closed:4"),
              "shape:closed:4/dst:uniform");
}

TEST(ScenarioParse, TrafficSpecRoundTripsThroughScenarioKind)
{
    // TrafficSpec is ScenarioSpec.  The frozen alias table keeps the
    // four legacy spellings (golden fixtures bake them into report
    // JSON): an unshaped uniform, single-node hotspot, bitrev or
    // transpose source prints as the legacy atom, whichever way it
    // was written.
    for (const auto &[spec, alias] :
         std::vector<std::pair<std::string, std::string>>{
             {"uniform", "uniform"},
             {"dst:uniform", "uniform"},
             {"bitrev", "bitrev"},
             {"dst:perm:bitrev", "bitrev"},
             {"transpose", "transpose"},
             {"dst:perm:transpose", "transpose"},
             {"hotspot:0:0.2", "hotspot:0:0.2"},
             {"hotspot", "hotspot:0:0.2"},
             {"dst:hotspot:7:0.5", "hotspot:7:0.5"},
         }) {
        const auto t = TrafficSpec::parse(spec);
        ASSERT_TRUE(t.has_value()) << spec;
        EXPECT_EQ(t->name(), alias) << spec;
    }
    EXPECT_EQ(TrafficSpec{}.name(), "uniform");
    // Shaped, multi-node and non-legacy sources keep the scenario
    // grammar's canonical clauses.
    for (const auto &[spec, canonical] :
         std::vector<std::pair<std::string, std::string>>{
             {"shift:5", "dst:perm:shift:5"},
             {"bursty:16:64", "shape:bursty:16:64/dst:uniform"},
             {"dst:adversarial", "dst:adversarial"},
             {"dst:hotspot:0+5:0.3", "dst:hotspot:0+5:0.3"},
             {"shape:closed:4/bitrev",
              "shape:closed:4/dst:perm:bitrev"},
         }) {
        const auto t = TrafficSpec::parse(spec);
        ASSERT_TRUE(t.has_value()) << spec;
        EXPECT_EQ(t->name(), canonical) << spec;
        const auto again = TrafficSpec::parse(t->name());
        ASSERT_TRUE(again.has_value()) << t->name();
        EXPECT_TRUE(*again == *t) << spec;
    }
}

// --- rejection regressions ----------------------------------------

TEST(ScenarioParse, RejectsMalformedSpecs)
{
    for (const std::string spec : {
             "",                        //
             "lava",                    // unknown atom
             "uniform:1",               // excess args
             "hotspot:a",               // non-numeric node
             "hotspot:0:-0.1",          // fraction < 0
             "hotspot:0:1.5",           // fraction > 1
             "hotspot:0:nan",           // non-finite via stod
             "hotspot:0:inf",           //
             "hotspot:0:0.2:9",         // excess args
             "hotspot:3+3:0.2",         // duplicate hot node
             "shift",                   // missing distance
             "shift:0",                 // identity typo
             "shift:x",                 //
             "bursty:16",               // missing idle length
             "bursty:0.5:64",           // burst < 1
             "bursty:16:0.5",           // idle < 1
             "dst:perm:complement",     // missing mask
             "dst:perm:complement:0",   // identity typo
             "dst:perm:exchange",       // missing dimension
             "dst:perm:lava",           // unknown family
             "dst:mcast:0:8",           // zero groups
             "dst:mcast:4:1",           // fanout < 2
             "dst:mcast:4",             // missing fanout
             "shape:ramp:0.1:1.5:100",  // factor > 1
             "shape:ramp:-0.1:0.9:100", // factor < 0
             "shape:ramp:0.1:0.9:0",    // zero ramp window
             "shape:ramp:0.1:0.9",      // missing window
             "shape:closed:0",          // zero window
             "shape:closed",            //
             "shape:lava:1",            // unknown shaper
             "dst:uniform/dst:uniform", // two destination sources
             "dst:uniform/uniform",     // ditto, via sugar
         }) {
        EXPECT_FALSE(TrafficSpec::parse(spec).has_value())
            << "should have been rejected: " << spec;
    }
}

TEST(ScenarioValidate, RejectsOutOfRangeSpecsAtN)
{
    const auto diag = [](const std::string &spec, Label n) {
        const auto t = TrafficSpec::parse(spec);
        EXPECT_TRUE(t.has_value()) << spec;
        if (!t)
            return std::string("<unparsed>");
        const auto err = t->validate(n);
        return err.value_or("");
    };
    // The original bug: hotspot:9999:0.2 at N=64 injected label 9999
    // straight into the link tables.
    EXPECT_NE(diag("hotspot:9999:0.2", 64), "");
    EXPECT_NE(diag("hotspot:64:0.2", 64), "");  // boundary
    EXPECT_EQ(diag("hotspot:63:0.2", 64), "");
    EXPECT_NE(diag("dst:hotspot:0+64:0.2", 64), ""); // in a hot set
    EXPECT_NE(diag("shift:64", 64), "");
    EXPECT_EQ(diag("shift:63", 64), "");
    EXPECT_NE(diag("dst:perm:complement:64", 64), "");
    EXPECT_NE(diag("dst:perm:exchange:6", 64), ""); // 6 bits: 0..5
    EXPECT_EQ(diag("dst:perm:exchange:5", 64), "");
    EXPECT_NE(diag("transpose", 32), ""); // 5 label bits, odd
    EXPECT_EQ(diag("transpose", 64), "");
    EXPECT_NE(diag("dst:perm:transpose", 32), "");
    EXPECT_NE(diag("dst:mcast:4:65", 64), ""); // fanout > N
    EXPECT_NE(diag("dst:mcast:128:8", 64), ""); // groups > N
    EXPECT_EQ(diag("dst:mcast:4:8", 64), "");
}

TEST(ScenarioValidate, FaultCountsMustFitTheirPoolAtN)
{
    // N=64, n=6: 384 switches of 3 links each; whole-switch faults
    // hit the 5 inner columns only.
    const Label n = 64;
    const topo::IadmTopology topo(n);
    for (const auto &[spec, pool] :
         std::vector<std::pair<std::string, std::size_t>>{
             {"links", 1152},
             {"nonstraight", 768},
             {"double", 384},
             {"switches", 320},
         }) {
        const auto full =
            FaultScenario::parse(spec + ":" + std::to_string(pool));
        ASSERT_TRUE(full.has_value()) << spec;
        EXPECT_FALSE(full->validate(n).has_value()) << spec;
        Rng rng(1);
        (void)full->make(topo, rng); // the boundary draws, no abort
        const auto over = FaultScenario::parse(
            spec + ":" + std::to_string(pool + 1));
        ASSERT_TRUE(over.has_value()) << spec;
        EXPECT_TRUE(over->validate(n).has_value()) << spec;
    }
    for (const std::string spec :
         {"links:5000", "nonstraight:5000", "switches:999",
          "double:999"}) {
        EXPECT_TRUE(FaultScenario::parse(spec)->validate(n))
            << "should not fit N=64: " << spec;
    }
    EXPECT_FALSE(FaultScenario{}.validate(2).has_value());
}

// --- hostile input, every spec grammar ----------------------------

/**
 * Forms every grammar must reject: trailing or doubled separators,
 * signs, whitespace, trailing junk, exponent and hex spellings of
 * integers, non-finite reals and values that overflow their field
 * (docs/SIMULATOR.md, "Spec grammar").
 */
const std::vector<std::string> kHostileTraffic = {
    "uniform:", "dst:uniform/", "/dst:uniform",
    "dst:uniform//shape:closed:4", "shape:closed: -1",
    "shape:closed:-1", "shape:closed:+4", "shape:closed:4 ",
    "shape:closed:4294967296", "shape:ramp:0.1:0.9:1e3",
    "shape:ramp:0.1:0.9:2000:", "bursty:16:nan", "bursty:16:inf",
    "bursty:16:64x", "bursty: 16:64", "hotspot:0:0.2:",
    "hotspot:+1:0.2", "hotspot:1x:0.2", "hotspot:0:0x2",
    "hotspot:0:-0", "dst:hotspot:0+:0.2", "dst:hotspot:+0:0.2",
    "dst:hotspot:4294967296:0.2", "dst:mcast:4:8x",
    "dst:mcast:4294967300:8",
};
const std::vector<std::string> kHostilePerm = {
    "shift:x", "shift:4x", "shift:4:", "dst:perm:shift:x",
    "dst:perm:shift:-4", "dst:perm:shift:4294967297",
    "dst:perm:exchange:-1", "dst:perm:complement:1e3",
    "dst:perm:bitrev:", "dst:perm:shuffle:0",
};
const std::vector<std::string> kHostileFault = {
    "links:4x", "switches:1e3", "links:-1", "links:4:", "links:",
    "links: 4", "links:+4", "links:18446744073709551616", "none:",
    "", "nonstraight:0x10", "double:4.0",
};
const std::vector<std::string> kHostileChurn = {
    "geometric:400x:80", "burst:10:5:-1", "geometric:nan:80",
    "bernoulli:nan:0.1", "bernoulli:0.1:nan", "geometric:inf:80",
    "geometric:1e999:80", "geometric:400:80:", "geometric: 400:80",
    "bernoulli:-0:0.1", "burst:10:5:4294967296", "burst:10:5:2x",
    "none:", "",
};
const std::vector<std::string> kHostileLink = {
    "1:0:sx", "1:0:s:9", " 1:0:s", "1:0:s ", "1::s", "-1:0:s",
    "+1:0:s", "1:-0:s", "1:0:", "1:4294967296:s", "1:0:S",
    "1e0:0:s", "1:0x1:s", "1:0:s,2:0:s",
};

TEST(ScenarioParse, HostileInputIsRejectedByEveryGrammar)
{
    for (const auto *table : {&kHostileTraffic, &kHostilePerm})
        for (const auto &spec : *table)
            EXPECT_FALSE(TrafficSpec::parse(spec).has_value())
                << "traffic grammar accepted: '" << spec << "'";
    for (const auto &spec : kHostileFault)
        EXPECT_FALSE(FaultScenario::parse(spec).has_value())
            << "fault grammar accepted: '" << spec << "'";
    for (const auto &spec : kHostileChurn)
        EXPECT_FALSE(ChurnSpec::parse(spec).has_value())
            << "churn grammar accepted: '" << spec << "'";
    const topo::IadmTopology net(16);
    for (const auto &spec : kHostileLink) {
        topo::Link l{};
        EXPECT_FALSE(serve::parseLinkSpec(net, spec, l))
            << "link grammar accepted: '" << spec << "'";
    }
}

TEST(ScenarioParse, NumberReadersAreStrict)
{
    EXPECT_EQ(spec::split("a::b:", ':'),
              (std::vector<std::string>{"a", "", "b", ""}));
    EXPECT_EQ(spec::split("", ':'), std::vector<std::string>{""});

    std::uint64_t u = 7;
    for (const std::string bad :
         {"", "abc", "2x0", "-1", "+1", " 1", "1 ", "1e3", "0x10",
          "1.0", "18446744073709551616"})
        EXPECT_FALSE(spec::readUnsigned(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u) << "a failed read must not touch its output";
    Label label = 0;
    EXPECT_FALSE(spec::readUnsigned("4294967296", label));
    EXPECT_TRUE(spec::readUnsigned("4294967295", label));
    EXPECT_EQ(label, 4294967295u);

    double d = 0.5;
    for (const std::string bad :
         {"", "abc", "nan", "inf", "-inf", "-1", "-0", "+1", " 1",
          "1 ", "1e999", "0.2x", "1,5"})
        EXPECT_FALSE(spec::readReal(bad, d)) << "'" << bad << "'";
    EXPECT_EQ(d, 0.5);
    EXPECT_TRUE(spec::readReal("1e-05", d));
    EXPECT_EQ(d, 1e-05);

    // The CLI's numeric arguments: rate in [0, 1], cycle counts,
    // worker counts.
    EXPECT_FALSE(spec::readNumber("1.7", d, 0.0, 1.0));
    EXPECT_TRUE(spec::readNumber("1", d, 0.0, 1.0));
    unsigned workers = 0;
    EXPECT_FALSE(spec::readNumber("4x", workers));
    EXPECT_FALSE(spec::readNumber("4294967296", workers));
    EXPECT_FALSE(spec::readNumber("0", workers, 1u));
}

/** Whatever a grammar accepts, its name() must print without a
 *  panic and re-parse to an equal spec. */
template <class Spec>
void
expectAcceptedNamesRoundTrip(const std::vector<std::string> &inputs)
{
    for (const auto &in : inputs) {
        const auto s = Spec::parse(in);
        if (!s)
            continue;
        const std::string name = s->name();
        const auto again = Spec::parse(name);
        ASSERT_TRUE(again.has_value()) << in << " -> " << name;
        EXPECT_TRUE(*again == *s) << in << " -> " << name;
    }
}

TEST(ScenarioParse, EveryAcceptedSpecNameReparsesToEqualSpec)
{
    std::vector<std::string> traffic = {
        "uniform", "dst:uniform", "hotspot", "hotspot:3",
        "hotspot:0:0.2", "dst:hotspot:0+5+9:0.3", "bitrev",
        "transpose", "dst:perm:transpose", "shift:5",
        "dst:perm:complement:63", "dst:perm:shuffle",
        "dst:perm:exchange:0", "dst:adversarial", "dst:mcast:4:8",
        "bursty:16:64", "over:bursty:16:64/dst:uniform",
        "dst:uniform/shape:closed:4", "shape:closed:4294967295",
        "shape:ramp:0.1:0.9:2000/over:bursty:16:64/dst:hotspot:0:0.2",
        "shape:bursty:8:32/over:closed:2/dst:perm:bitrev",
        "shape:ramp:0:1:18446744073709551615/dst:perm:bitrev",
        "hotspot:4294967295:1e-300",
    };
    traffic.insert(traffic.end(), kHostileTraffic.begin(),
                   kHostileTraffic.end());
    traffic.insert(traffic.end(), kHostilePerm.begin(),
                   kHostilePerm.end());
    expectAcceptedNamesRoundTrip<TrafficSpec>(traffic);

    std::vector<std::string> fault = {
        "none", "links:4", "nonstraight:3", "double:2", "switches:1",
        "links:0", "links:18446744073709551615",
    };
    fault.insert(fault.end(), kHostileFault.begin(),
                 kHostileFault.end());
    expectAcceptedNamesRoundTrip<FaultScenario>(fault);

    std::vector<std::string> churn = {
        "none", "bernoulli:0.001:0.05", "bernoulli:1e-05:0.01",
        "bernoulli:0:1", "geometric:300:60", "geometric:1e300:1",
        "burst:400:120:4", "burst:18446744073709551615:1:4294967295",
    };
    churn.insert(churn.end(), kHostileChurn.begin(),
                 kHostileChurn.end());
    expectAcceptedNamesRoundTrip<ChurnSpec>(churn);
}

// --- destination-source statistics --------------------------------

TEST(ScenarioStats, HotspotHitFractionMatchesSpec)
{
    const Label n = 64;
    const auto t = TrafficSpec::parse("hotspot:3:0.3");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(42);
    const int draws = 100000;
    int hot = 0;
    for (int i = 0; i < draws; ++i)
        hot += pattern->pick(0, rng) == 3 ? 1 : 0;
    // Hot draws plus the uniform tail landing on the hot node.
    const double expect = 0.3 + 0.7 / n;
    EXPECT_NEAR(static_cast<double>(hot) / draws, expect, 0.01);
}

TEST(ScenarioStats, MultiHotspotSplitsTheHotFractionAcrossTheSet)
{
    const Label n = 64;
    const auto t = TrafficSpec::parse("dst:hotspot:1+2+3:0.5");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(42);
    const int draws = 150000;
    int set_hits = 0;
    int node1 = 0;
    for (int i = 0; i < draws; ++i) {
        const Label d = pattern->pick(0, rng);
        if (d >= 1 && d <= 3)
            ++set_hits;
        if (d == 1)
            ++node1;
    }
    const double set_expect = 0.5 + 0.5 * 3.0 / n;
    const double node_expect = 0.5 / 3.0 + 0.5 / n;
    EXPECT_NEAR(static_cast<double>(set_hits) / draws, set_expect,
                0.01);
    EXPECT_NEAR(static_cast<double>(node1) / draws, node_expect,
                0.01);
}

TEST(ScenarioStats, ShiftAndBitrevPicksMatchThePermutationFamily)
{
    const Label n = 64;
    const auto shift = TrafficSpec::parse("shift:5");
    ASSERT_TRUE(shift.has_value());
    auto sp = shift->make(n);
    const perm::Permutation sref = perm::shiftPerm(n, 5);
    const auto bitrev = TrafficSpec::parse("bitrev");
    ASSERT_TRUE(bitrev.has_value());
    auto bp = bitrev->make(n);
    const perm::Permutation bref = perm::bitReversalPerm(n);
    Rng rng(1);
    for (Label src = 0; src < n; ++src) {
        EXPECT_EQ(sp->pick(src, rng), sref(src)) << src;
        EXPECT_EQ(bp->pick(src, rng), bref(src)) << src;
    }
}

TEST(ScenarioStats, BurstyDutyCycleMatchesMeasuredGateOpenFraction)
{
    BurstyTraffic bt(4, 16.0, 64.0);
    ASSERT_DOUBLE_EQ(bt.dutyCycle(), 0.2);
    Rng rng(7);
    const int cycles = 200000;
    int open = 0;
    for (int c = 0; c < cycles; ++c)
        open += bt.gate(0, rng) ? 1 : 0;
    // The chain decorrelates over ~(burst+idle) cycles, so the
    // effective sample count is cycles / 80; tolerance sized to it.
    EXPECT_NEAR(static_cast<double>(open) / cycles, bt.dutyCycle(),
                0.02);

    // The scenario-composed form must show the same duty cycle.
    const auto t = TrafficSpec::parse("shape:bursty:16:64/dst:uniform");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(4);
    ASSERT_TRUE(pattern->gated());
    Rng rng2(7);
    int open2 = 0;
    for (int c = 0; c < cycles; ++c)
        open2 += pattern->gate(0, rng2) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(open2) / cycles, 0.2, 0.02);
}

TEST(ScenarioStats, RampFactorFollowsTheConfiguredSchedule)
{
    // rampFrom = 0 and rampTo = 1 make the schedule deterministic at
    // the endpoints: every gate closed at cycle 0, every gate open
    // once the ramp window has elapsed.
    const auto t = TrafficSpec::parse("shape:ramp:0:1:1000/dst:uniform");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(8);
    Rng rng(3);
    pattern->beginCycle(0);
    for (Label s = 0; s < 8; ++s)
        EXPECT_FALSE(pattern->gate(s, rng));
    pattern->beginCycle(2000);
    for (Label s = 0; s < 8; ++s)
        EXPECT_TRUE(pattern->gate(s, rng));
    // Midpoint: factor 0.5 within statistical tolerance.
    pattern->beginCycle(500);
    int open = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        open += pattern->gate(0, rng) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(open) / draws, 0.5, 0.02);
}

TEST(ScenarioStats, AdversarialPermIsADeterministicNontrivialBijection)
{
    const Label n = 64;
    const perm::Permutation p = adversarialPerm(n);
    const perm::Permutation q = adversarialPerm(n);
    std::set<Label> images;
    bool identity = true;
    for (Label src = 0; src < n; ++src) {
        EXPECT_EQ(p(src), q(src)) << "non-deterministic at " << src;
        EXPECT_LT(p(src), n);
        images.insert(p(src));
        identity = identity && p(src) == src;
    }
    EXPECT_EQ(images.size(), n) << "not a bijection";
    EXPECT_FALSE(identity);
}

TEST(ScenarioStats, AdversarialPermCongestsUnlikeAnAdmissibleShift)
{
    // The point of the greedy construction: under the same open-loop
    // rate, the adversarial permutation piles contention onto shared
    // switches, while an admissible shift permutation sails through
    // conflict-free.  (Bitrev already saturates this rate, so the
    // admissible family is the discriminating baseline.)
    const auto run = [](const std::string &spec) {
        SimConfig cfg;
        cfg.netSize = 64;
        cfg.scheme = RoutingScheme::TsdtSender;
        cfg.injectionRate = 0.4;
        cfg.seed = 11;
        NetworkSim s(cfg,
                     TrafficSpec::parse(spec).value().make(64));
        s.run(600);
        return s.metrics().totalStalls();
    };
    const auto adversarial = run("dst:adversarial");
    EXPECT_GT(adversarial, 10 * run("shift:1"))
        << "greedy worst case failed to congest";
    EXPECT_GT(adversarial, 1000u);
}

TEST(ScenarioStats, McastSourcesCycleTheirGroupDestinationSet)
{
    const Label n = 64;
    const auto t = TrafficSpec::parse("dst:mcast:4:8");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(n);
    Rng rng(5);
    // Each source visits exactly its fanout-8 set, cyclically.
    std::vector<std::vector<Label>> first_cycle(n);
    for (Label src = 0; src < n; ++src) {
        std::set<Label> seen;
        for (int i = 0; i < 16; ++i) {
            const Label d = pattern->pick(src, rng);
            EXPECT_LT(d, n);
            if (i < 8)
                first_cycle[src].push_back(d);
            else
                EXPECT_EQ(d, first_cycle[src][i - 8])
                    << "not cyclic at src " << src;
            seen.insert(d);
        }
        EXPECT_EQ(seen.size(), 8u) << "wrong fanout at src " << src;
    }
    // Sources in the same group (src mod 4) share a destination set.
    for (Label src = 4; src < n; ++src) {
        std::set<Label> a(first_cycle[src].begin(),
                          first_cycle[src].end());
        std::set<Label> b(first_cycle[src % 4].begin(),
                          first_cycle[src % 4].end());
        EXPECT_EQ(a, b) << "group sets diverge at src " << src;
    }
}

// --- closed-loop feedback contract --------------------------------

TEST(ScenarioClosedLoop, WindowGatesAfterOutstandingLimit)
{
    const auto t = TrafficSpec::parse("shape:closed:2/dst:uniform");
    ASSERT_TRUE(t.has_value());
    auto pattern = t->make(8);
    EXPECT_TRUE(pattern->closedLoop());
    Rng rng(1);
    EXPECT_TRUE(pattern->gate(0, rng));
    pattern->onInject(0);
    EXPECT_TRUE(pattern->gate(0, rng));
    pattern->onInject(0);
    EXPECT_FALSE(pattern->gate(0, rng)) << "window 2 exhausted";
    EXPECT_TRUE(pattern->gate(1, rng)) << "windows are per-source";
    pattern->onRetire(0);
    EXPECT_TRUE(pattern->gate(0, rng));
}

TEST(ScenarioClosedLoop, SimulatorWindowCapsLivePackets)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = RoutingScheme::TsdtSender;
    cfg.injectionRate = 0.9;
    cfg.seed = 3;
    NetworkSim s(
        cfg, TrafficSpec::parse("shape:closed:2").value().make(64));
    s.run(400);
    // The window cap binds: with at most 2 outstanding per source,
    // the live packet count can never exceed 2N.
    EXPECT_LE(s.inFlight(), std::size_t{128});
    EXPECT_GT(s.metrics().delivered(), 0u);
}

TEST(ScenarioClosedLoop, OutstandingWindowBoundsInFlightEveryCycle)
{
    SimConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = RoutingScheme::TsdtDynamic;
    cfg.injectionRate = 1.0;
    cfg.maxPacketAge = 200;
    cfg.seed = 9;
    NetworkSim s(
        cfg, TrafficSpec::parse("shape:closed:3").value().make(64));
    for (Cycle c = 0; c < 500; ++c) {
        s.step();
        ASSERT_LE(s.inFlight(), std::size_t{3 * 64})
            << "window exceeded at cycle " << c;
        const Metrics &m = s.metrics();
        ASSERT_EQ(m.injected() - m.delivered() - m.dropped(),
                  s.inFlight())
            << "conservation broke at cycle " << c;
    }
}

// --- sweep determinism for the scenario axis ----------------------

/**
 * The frozen scenario grid (fixture
 * tests/data/golden_sweep_scenarios_n64.json); any edit here
 * invalidates the fixture.
 */
SweepGrid
scenarioGrid()
{
    SweepGrid grid;
    grid.netSizes = {64};
    grid.schemes = {RoutingScheme::SsdtStatic,
                    RoutingScheme::SsdtBalanced,
                    RoutingScheme::TsdtSender,
                    RoutingScheme::DistanceTag,
                    RoutingScheme::TsdtDynamic};
    grid.injectionRates = {0.3};
    grid.queueCapacities = {4};
    grid.traffics = {
        TrafficSpec::parse("shape:bursty:16:64/dst:hotspot:0:0.2")
            .value(),
        TrafficSpec::parse("dst:adversarial").value(),
        TrafficSpec::parse("dst:mcast:4:8").value(),
        TrafficSpec::parse("shape:ramp:0.2:0.8:500/dst:uniform")
            .value(),
        TrafficSpec::parse("shape:closed:4/dst:uniform").value(),
    };
    grid.replicates = 1;
    grid.warmupCycles = 200;
    grid.measureCycles = 800;
    grid.masterSeed = 20260808;
    return grid;
}

std::string
runScenarioGrid(unsigned workers)
{
    const SweepGrid grid = scenarioGrid();
    SweepOptions opts;
    opts.workers = workers;
    return sweepReportJson(grid, runSweep(grid, opts));
}

const char *const kScenarioFixturePath =
    IADM_TEST_DATA_DIR "/golden_sweep_scenarios_n64.json";

TEST(ScenarioSweep, MatchesGoldenFixtureByteForByte)
{
    const std::string report = runScenarioGrid(2);

    if (std::getenv("IADM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kScenarioFixturePath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kScenarioFixturePath;
        os << report;
        GTEST_SKIP() << "fixture regenerated at "
                     << kScenarioFixturePath;
    }

    std::ifstream is(kScenarioFixturePath, std::ios::binary);
    ASSERT_TRUE(is) << "missing fixture " << kScenarioFixturePath
                    << " (run with IADM_REGEN_GOLDEN=1 to create)";
    std::ostringstream fixture;
    fixture << is.rdbuf();
    ASSERT_EQ(report.size(), fixture.str().size());
    EXPECT_TRUE(report == fixture.str())
        << "scenario sweep diverged from the golden fixture";
}

TEST(ScenarioSweep, ReportBytesIdenticalAcrossWorkerCounts)
{
    const std::string one = runScenarioGrid(1);
    EXPECT_EQ(one, runScenarioGrid(4));
    EXPECT_EQ(one, runScenarioGrid(8));
}

} // namespace
} // namespace iadm

/**
 * @file
 * Unit tests for the transport-policy layer: the registry, the
 * wouldHold()/gate() agreement contract every policy must keep (the
 * CPU's stall pre-check depends on it), and the window / paced
 * gating semantics in isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "transport/transport.hh"

using namespace tcpni;
using transport::TransportConfig;
using transport::Verdict;

namespace
{

TEST(PolicyRegistry, SeedsTheThreeBuiltins)
{
    auto &reg = transport::PolicyRegistry::instance();
    for (const char *name : {"naive", "window", "paced"}) {
        const auto *info = reg.find(name);
        ASSERT_NE(info, nullptr) << name;
        TransportConfig cfg;
        cfg.policy = name;
        auto p = transport::makePolicy(cfg);
        EXPECT_STREQ(p->name(), name);
    }
    EXPECT_EQ(reg.find("carrier-pigeon"), nullptr);
}

TEST(PolicyRegistry, DuplicateNameIsFatal)
{
    EXPECT_THROW(transport::PolicyRegistry::instance().add(
                     {"naive", "imposter", "policy_test.cc",
                      [](const TransportConfig &) {
                          TransportConfig c;
                          c.policy = "naive";
                          return transport::makePolicy(c);
                      }}),
                 FatalError);
}

TEST(NaivePolicy, NeverHolds)
{
    TransportConfig cfg;
    cfg.policy = "naive";
    auto p = transport::makePolicy(cfg);
    EXPECT_FALSE(p->wantsCredits());
    for (Tick t = 0; t < 64; ++t) {
        EXPECT_FALSE(p->wouldHold(3, t));
        EXPECT_EQ(p->gate(3, t), Verdict::proceed);
        p->onAdmit(3, t);
    }
    EXPECT_EQ(p->holds(), 0);
    EXPECT_EQ(p->admits(), 64);
}

TEST(WindowPolicy, HoldsAtTheWindowPerDestination)
{
    TransportConfig cfg;
    cfg.policy = "window";
    cfg.window = 2;
    auto p = transport::makePolicy(cfg);
    EXPECT_TRUE(p->wantsCredits());

    // Two in flight to dst 5: admitted; the third holds.
    for (int i = 0; i < 2; ++i) {
        EXPECT_FALSE(p->wouldHold(5, 10));
        EXPECT_EQ(p->gate(5, 10), Verdict::proceed);
        p->onAdmit(5, 10);
    }
    EXPECT_TRUE(p->wouldHold(5, 11));
    EXPECT_EQ(p->gate(5, 11), Verdict::hold);

    // Destinations are independent.
    EXPECT_FALSE(p->wouldHold(6, 11));
    EXPECT_EQ(p->gate(6, 11), Verdict::proceed);
    p->onAdmit(6, 11);

    // A returned credit reopens dst 5, one message's worth.
    p->onCredit(5, 1, 20);
    EXPECT_FALSE(p->wouldHold(5, 20));
    EXPECT_EQ(p->gate(5, 20), Verdict::proceed);
    p->onAdmit(5, 20);
    EXPECT_TRUE(p->wouldHold(5, 21));
    EXPECT_EQ(p->gate(5, 21), Verdict::hold);

    EXPECT_EQ(p->admits(), 4);
    EXPECT_EQ(p->holds(), 2);
    EXPECT_EQ(p->creditsReturned(), 1);
}

TEST(PacedPolicy, BucketDrainsAndRefillsAtTheConfiguredRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    cfg.paceMaxRate = transport::rateOne;
    auto p = transport::makePolicy(cfg);
    EXPECT_TRUE(p->wantsCredits());

    // The bucket starts full (paceBurst messages).
    EXPECT_FALSE(p->wouldHold(1, 0));
    EXPECT_EQ(p->gate(1, 0), Verdict::proceed);
    p->onAdmit(1, 0);

    // Empty: holds until the rate refills one whole message.
    EXPECT_TRUE(p->wouldHold(1, 0));
    EXPECT_EQ(p->gate(1, 0), Verdict::hold);
    EXPECT_TRUE(p->wouldHold(1, 1));
    EXPECT_EQ(p->gate(1, 1), Verdict::hold);
    EXPECT_FALSE(p->wouldHold(1, 2));
    EXPECT_EQ(p->gate(1, 2), Verdict::proceed);
}

TEST(PacedPolicy, WouldHoldAgreesWithGateTickByTick)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 2;
    cfg.paceRate = 300;  // deliberately not a divisor of rateOne
    auto p = transport::makePolicy(cfg);
    for (Tick t = 0; t < 200; ++t) {
        const bool preview = p->wouldHold(7, t);
        const Verdict v = p->gate(7, t);
        EXPECT_EQ(preview, v == Verdict::hold) << "tick " << t;
        if (v == Verdict::proceed)
            p->onAdmit(7, t);
    }
}

TEST(PacedPolicy, OafullHalvesTheRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    auto p = transport::makePolicy(cfg);

    p->onAdmit(1, 0);                       // drain the bucket
    p->onOafull(true, 0);                   // MD: rate now 1/4 msg/tick
    EXPECT_TRUE(p->wouldHold(1, 2));        // 2 ticks no longer enough
    EXPECT_TRUE(p->wouldHold(1, 3));
    EXPECT_FALSE(p->wouldHold(1, 4));       // 4 ticks at rate/2 = 1 msg
    EXPECT_EQ(p->oafullEdges(), 1);
}

TEST(PacedPolicy, SlowDeliveriesHalveTheRate)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = transport::rateOne / 2;  // one message per 2 ticks
    cfg.paceAiInterval = 16;
    auto p = transport::makePolicy(cfg);

    // Baseline: a delivery 8 ticks after its send.
    p->onAdmit(1, 0);
    p->onCredit(1, 1, 8);

    // A delivery far above baseline (> 4x) past the adaptation
    // interval is a congestion event: the rate halves (512 -> ~280
    // after the AI drift accrued over the idle span), so an empty
    // bucket that refilled in 2 ticks before now needs 4.
    p->onAdmit(1, 100);
    p->onCredit(1, 1, 200);
    EXPECT_EQ(p->gate(1, 200), Verdict::proceed);
    p->onAdmit(1, 200);
    EXPECT_TRUE(p->wouldHold(1, 202));
    EXPECT_TRUE(p->wouldHold(1, 203));
    EXPECT_FALSE(p->wouldHold(1, 204));
}

TEST(PacedPolicy, AdditiveIncreaseRecoversWhenClear)
{
    TransportConfig cfg;
    cfg.policy = "paced";
    cfg.paceBurst = 1;
    cfg.paceRate = 8;
    cfg.paceAiStep = 8;
    cfg.paceAiInterval = 4;
    cfg.paceMaxRate = transport::rateOne;
    auto p = transport::makePolicy(cfg);

    p->onAdmit(1, 0);  // empty the bucket at rate 8
    // By tick 4096 AI has long since driven the rate to the max (one
    // message per tick); a full refill is immediate thereafter.
    EXPECT_FALSE(p->wouldHold(1, 4096));
    EXPECT_EQ(p->gate(1, 4096), Verdict::proceed);
    p->onAdmit(1, 4096);
    EXPECT_FALSE(p->wouldHold(1, 4097));
}

TEST(PolicyMetrics, SnapshotOutlivesTheDerivedPolicy)
{
    // Every policy's series -- base and derived -- are read by the
    // snapshot while the policy is alive; the registry finalizes
    // AFTER the policies are destroyed, exactly like a sweep task
    // tearing down its System before the TaskScope deposits, and must
    // not touch them again (the sanitizer CI job turns a stray read
    // into a hard failure).
    metrics::Registry reg(0);
    metrics::setRegistry(&reg);
    {
        EventQueue eq;
        std::vector<std::unique_ptr<transport::Policy>> policies;
        for (const char *name : {"naive", "window", "paced"}) {
            TransportConfig cfg;
            cfg.policy = name;
            cfg.window = 1;
            auto p = transport::makePolicy(cfg);
            p->stats().attach(std::string("tp.") + name, eq);
            // Populate the derived state the gauges read (window
            // exhaustion level, paced per-destination baselines).
            p->gate(1, 1);
            p->onAdmit(1, 1);
            p->gate(1, 2);
            p->onOafull(true, 3);
            p->onCredit(1, 1, 5);
            p->onOafull(false, 6);
            policies.push_back(std::move(p));
        }
        metrics::snapshot(eq, 8);
    }
    metrics::setRegistry(nullptr);
    metrics::TaskMetrics tm = reg.finalize("t");
    ASSERT_EQ(tm.groups.size(), 3u);
    EXPECT_EQ(tm.groups[0].series.size(), 4u);
    for (const auto &g : tm.groups)
        EXPECT_GE(g.series.size(), 4u) << g.name;
    // window: one destination at the limit over [1, 5).
    const auto &w = tm.groups[1];
    EXPECT_EQ(w.series[4].name, "exhausted_dst_ticks");
    EXPECT_EQ(w.series[4].value, 4u);
    // paced: the one delivery took 4 ticks.
    const auto &pc = tm.groups[2].series;
    auto min_delay =
        std::find_if(pc.begin(), pc.end(), [](const auto &s) {
            return s.name == "min_delay";
        });
    ASSERT_NE(min_delay, pc.end());
    EXPECT_EQ(min_delay->value, 4u);
}

} // namespace

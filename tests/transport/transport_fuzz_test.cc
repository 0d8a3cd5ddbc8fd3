/**
 * @file
 * Transport-policy conservation fuzz: on randomly configured meshes
 * under randomized traffic (arrival process, pattern, open- and
 * closed-loop, service times), every message must be delivered
 * exactly once under every policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "system/system.hh"
#include "system/traffic.hh"
#include "transport/transport.hh"

using namespace tcpni;

namespace
{

struct RunResult
{
    bool quiesced = false;
    uint64_t sent = 0;
    uint64_t drained = 0;
    uint64_t sojourns = 0;
};

struct FuzzCase
{
    unsigned width, height;
    sys::NodeConfig cfg;
    sys::TrafficConfig tc;
};

FuzzCase
drawCase(uint64_t seed)
{
    Random rng(seed);
    FuzzCase c;
    c.width = 2 + rng.next32() % 3;
    c.height = 2 + rng.next32() % 3;

    c.cfg.memBytes = 1 << 12;
    c.cfg.ni.inputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.outputQueueDepth = 2 + rng.next32() % 14;
    c.cfg.ni.inputThreshold =
        1 + rng.next32() % c.cfg.ni.inputQueueDepth;
    c.cfg.ni.outputThreshold =
        1 + rng.next32() % c.cfg.ni.outputQueueDepth;

    // Randomized policy knobs, exercised well off their defaults.
    c.cfg.ni.transport.window = 1 + rng.next32() % 6;
    c.cfg.ni.transport.paceRate = 16 << (rng.next32() % 7);
    c.cfg.ni.transport.paceBurst = 1 + rng.next32() % 4;
    c.cfg.ni.transport.paceAiInterval = 16 << (rng.next32() % 5);

    c.tc.messages = 1 + rng.next32() % 12;
    c.tc.meanGap = 1 + rng.next32() % 25;
    c.tc.arrival = static_cast<sys::Arrival>(rng.next32() % 3);
    c.tc.pattern = rng.chance(0.4) ? sys::Pattern::incast
                                   : sys::Pattern::random;
    c.tc.openLoop = rng.chance(0.5);
    c.tc.serviceTime = rng.chance(0.5) ? rng.next32() % 10 : 0;
    c.tc.burstLen = 1 + rng.next32() % 12;
    c.tc.seed = rng.next64();
    return c;
}

RunResult
runCase(const FuzzCase &c, const std::string &policy)
{
    unsigned nodes = c.width * c.height;
    sys::NodeConfig cfg = c.cfg;
    cfg.ni.transport.policy = policy;
    sys::System machine("fuzz", c.width, c.height,
                        std::vector<sys::NodeConfig>(nodes, cfg));
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    for (NodeId n = 0; n < nodes; ++n)
        gens.push_back(
            std::make_unique<sys::TrafficGen>(machine, n, c.tc));
    for (auto &g : gens)
        g->start();

    RunResult r;
    r.quiesced = machine.run(5'000'000);
    for (auto &g : gens) {
        r.sent += g->sent();
        r.drained += g->drained();
        r.sojourns += g->sojourn().count();
    }
    return r;
}

} // namespace

TEST(TransportFuzz, ExactlyOnceDelivery)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        FuzzCase c = drawCase(seed * 0x9e3779b97f4a7c15ULL);
        const unsigned senders =
            c.width * c.height -
            (c.tc.pattern == sys::Pattern::incast ? 1 : 0);
        SCOPED_TRACE(
            "seed " + std::to_string(seed) + ": " +
            std::to_string(c.width) + "x" + std::to_string(c.height) +
            ", " + std::to_string(c.tc.messages) + " msgs/sender" +
            (c.tc.pattern == sys::Pattern::incast ? ", incast" : "") +
            (c.tc.openLoop ? ", open-loop" : "") +
            ", svc " + std::to_string(c.tc.serviceTime));

        for (const char *policy : {"naive", "window", "paced"}) {
            SCOPED_TRACE(policy);
            RunResult r = runCase(c, policy);

            // Conservation: everything offered was sent, and
            // everything sent was retired at a receiver exactly once
            // (a duplicate or a loss would break the equality, and a
            // message stuck in a queue would fail quiescence).
            ASSERT_TRUE(r.quiesced);
            EXPECT_EQ(r.sent, uint64_t(senders) * c.tc.messages);
            EXPECT_EQ(r.drained, r.sent);
            if (c.tc.openLoop) {
                EXPECT_EQ(r.sojourns, r.drained);
            }
        }
    }
}

TEST(TrafficGen, RefusesMeansWiderThan32Bits)
{
    sys::NodeConfig cfg;
    cfg.memBytes = 1 << 12;
    sys::System machine("wide", 2, 1, cfg);
    sys::TrafficConfig tc;
    tc.meanGap = uint64_t(UINT32_MAX) + 1;
    try {
        sys::TrafficGen gen(machine, 0, tc);
        FAIL() << "meanGap 2^32 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("meanGap"), std::string::npos)
            << e.what();
    }
    tc.meanGap = UINT32_MAX;
    tc.burstLen = uint64_t(UINT32_MAX) + 1;
    try {
        sys::TrafficGen gen(machine, 0, tc);
        FAIL() << "burstLen 2^32 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("burstLen"), std::string::npos)
            << e.what();
    }
    tc.burstLen = UINT32_MAX;
    EXPECT_NO_THROW(sys::TrafficGen(machine, 0, tc));
}

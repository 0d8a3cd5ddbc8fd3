#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/logging.hh"
#include "noc/mesh.hh"

using namespace tcpni;

namespace
{

Message
makeMsg(NodeId dst, Word tag = 0)
{
    Message m;
    m.words[0] = globalWord(dst, tag);
    m.words[1] = tag;
    m.setDestFromWord0();
    return m;
}

struct Collector
{
    std::vector<Message> got;
    bool accept = true;

    MessageSink
    sink()
    {
        return [this](const Message &m) {
            if (!accept)
                return false;
            got.push_back(m);
            return true;
        };
    }
};

} // namespace

TEST(MeshRouting, XYRoute)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 4);
    using P = MeshNetwork::Port;
    // node 5 is at (1,1)
    EXPECT_EQ(mesh.route(5, 5), P::local);
    EXPECT_EQ(mesh.route(5, 6), P::east);
    EXPECT_EQ(mesh.route(5, 4), P::west);
    EXPECT_EQ(mesh.route(5, 1), P::north);
    EXPECT_EQ(mesh.route(5, 9), P::south);
    // X is corrected before Y: 5 -> 10 (2,2) goes east first.
    EXPECT_EQ(mesh.route(5, 10), P::east);
    EXPECT_EQ(mesh.route(5, 8), P::west);
}

TEST(MeshDelivery, SingleHop)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    Collector c0, c1;
    mesh.setSink(0, c0.sink());
    mesh.setSink(1, c1.sink());

    EXPECT_TRUE(mesh.offer(0, makeMsg(1, 42)));
    eq.run();
    ASSERT_EQ(c1.got.size(), 1u);
    EXPECT_EQ(c1.got[0].words[1], 42u);
    EXPECT_TRUE(mesh.idle());
}

TEST(MeshDelivery, ToSelf)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 2);
    Collector c;
    mesh.setSink(0, c.sink());
    mesh.setSink(1, [](const Message &) { return true; });
    mesh.setSink(2, [](const Message &) { return true; });
    mesh.setSink(3, [](const Message &) { return true; });
    mesh.offer(0, makeMsg(0, 9));
    eq.run();
    ASSERT_EQ(c.got.size(), 1u);
}

TEST(MeshDelivery, CornerToCorner)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 4);
    std::vector<Collector> cs(16);
    for (NodeId n = 0; n < 16; ++n)
        mesh.setSink(n, cs[n].sink());

    mesh.offer(0, makeMsg(15, 1));
    eq.run();
    ASSERT_EQ(cs[15].got.size(), 1u);
    // 6 hops plus injection/ejection: latency is bounded and > hops.
    EXPECT_GE(eq.curTick(), 6u);
    EXPECT_LE(eq.curTick(), 16u);
}

TEST(MeshDelivery, AllPairs)
{
    EventQueue eq;
    const unsigned w = 3, h = 3, n = w * h;
    MeshNetwork mesh("mesh", eq, w, h);
    std::vector<Collector> cs(n);
    for (NodeId i = 0; i < n; ++i)
        mesh.setSink(i, cs[i].sink());

    unsigned sent = 0;
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            ASSERT_TRUE(mesh.offer(s, makeMsg(d, s * 100 + d)));
            ++sent;
            eq.run();    // drain between offers: injection queue is
                         // finite
        }
    }
    unsigned got = 0;
    for (NodeId d = 0; d < n; ++d)
        got += cs[d].got.size();
    EXPECT_EQ(got, sent);
}

TEST(MeshOrdering, SameSrcDstPairInOrder)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 1, 16);
    Collector c;
    for (NodeId i = 0; i < 4; ++i)
        mesh.setSink(i, i == 3 ? c.sink()
                               : MessageSink([](const Message &) {
                                     return true;
                                 }));
    for (Word k = 0; k < 10; ++k)
        ASSERT_TRUE(mesh.offer(0, makeMsg(3, k)));
    eq.run();
    ASSERT_EQ(c.got.size(), 10u);
    for (Word k = 0; k < 10; ++k)
        EXPECT_EQ(c.got[k].words[1], k);
}

TEST(MeshBackpressure, InjectionRefusedWhenFull)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1, 2);
    Collector c0, c1;
    c1.accept = false;      // destination refuses everything
    mesh.setSink(0, c0.sink());
    mesh.setSink(1, c1.sink());

    // Keep stuffing; with all buffers full the fabric must refuse.
    int accepted = 0;
    for (int k = 0; k < 20; ++k) {
        if (mesh.offer(0, makeMsg(1, static_cast<Word>(k))))
            ++accepted;
        eq.run(eq.curTick() + 5);
    }
    EXPECT_LT(accepted, 20);
    EXPECT_EQ(c1.got.size(), 0u);
    EXPECT_FALSE(mesh.idle());

    // Un-refuse and drain: nothing was lost.
    c1.accept = true;
    eq.run();
    EXPECT_EQ(static_cast<int>(c1.got.size()), accepted);
    EXPECT_TRUE(mesh.idle());
}

TEST(MeshBackpressure, ContentionResolvesFairly)
{
    // Two senders to the same destination; both streams arrive whole.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 3, 1, 4);
    Collector c;
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(2, [](const Message &) { return true; });
    mesh.setSink(1, c.sink());

    unsigned from0 = 0, from2 = 0;
    for (int round = 0; round < 12; ++round) {
        if (mesh.offer(0, makeMsg(1, 0x1000)))
            ++from0;
        if (mesh.offer(2, makeMsg(1, 0x2000)))
            ++from2;
        eq.run(eq.curTick() + 2);
    }
    eq.run();
    EXPECT_EQ(c.got.size(), from0 + from2);
}

TEST(MeshStats, LatencyRecorded)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    mesh.offer(0, makeMsg(1));
    eq.run();
    EXPECT_EQ(mesh.latencyDist().count(), 1);
    EXPECT_GT(mesh.latencyDist().mean(), 0.0);
    EXPECT_EQ(mesh.injected(), 1u);
    EXPECT_EQ(mesh.delivered(), 1u);
}

TEST(MeshErrors, BadDestinationPanics)
{
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    EXPECT_THROW(mesh.offer(0, makeMsg(5)), PanicError);
}

TEST(IdealNetwork, DeliversWithLatency)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 3);
    Collector c;
    net.setSink(0, [](const Message &) { return true; });
    net.setSink(1, c.sink());
    net.offer(0, makeMsg(1, 5));
    eq.run();
    EXPECT_EQ(eq.curTick(), 3u);
    ASSERT_EQ(c.got.size(), 1u);
}

TEST(IdealNetwork, RetriesRefusedDelivery)
{
    EventQueue eq;
    IdealNetwork net("net", eq, 2, 1);
    Collector c;
    c.accept = false;
    net.setSink(0, [](const Message &) { return true; });
    net.setSink(1, c.sink());
    net.offer(0, makeMsg(1));
    eq.run(10);
    EXPECT_TRUE(c.got.empty());
    EXPECT_FALSE(net.idle());
    c.accept = true;
    eq.run();
    EXPECT_EQ(c.got.size(), 1u);
    EXPECT_TRUE(net.idle());
}

TEST(MeshSerialization, LongMessagesHoldLinks)
{
    // With serialization enabled, two 5-word messages cross a link in
    // 5-cycle slots; a 20-word (scrolled) message holds it four times
    // as long.
    auto drain_time = [](size_t extra_words) -> Tick {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 2, 1, 8, /*cycles_per_word=*/1);
        mesh.setSink(0, [](const Message &) { return true; });
        mesh.setSink(1, [](const Message &) { return true; });
        for (int k = 0; k < 4; ++k) {
            Message m = makeMsg(1);
            m.extra.assign(extra_words, 0);
            EXPECT_TRUE(mesh.offer(0, m)) << k;
        }
        eq.run();
        EXPECT_EQ(mesh.delivered(), 4u);
        return eq.curTick();
    };

    Tick short_time = drain_time(0);
    Tick long_time = drain_time(15);    // 20-word messages
    EXPECT_GT(long_time, short_time * 2);
}

TEST(MeshSerialization, DefaultIsMessageGranularity)
{
    // cycles_per_word = 0 (the default): back-to-back messages move
    // one hop per cycle regardless of length.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 2, 1, 8);
    mesh.setSink(0, [](const Message &) { return true; });
    mesh.setSink(1, [](const Message &) { return true; });
    Message m = makeMsg(1);
    m.extra.assign(100, 0);
    mesh.offer(0, m);
    eq.run();
    EXPECT_LE(eq.curTick(), 5u);
}

namespace
{

/** Every node accepts; sink s's arrivals are recorded in order. */
void
sinkAll(MeshNetwork &mesh, std::vector<Collector> &cs)
{
    cs.resize(mesh.numNodes());
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
        mesh.setSink(n, cs[n].sink());
}

} // namespace

TEST(MeshEventDriven, RouterVisitsPerHop)
{
    // The tick visits only routers holding a message that can move
    // this cycle.  On an idle 16x16 mesh a message crossing k hops is
    // visited once per tick, k hops plus the ejection: k + 1 visits,
    // whichever way it goes.  A full scan would make 256 visits per
    // tick.  Toward higher indices (east, then south) each hop lands
    // ahead of the cursor, in a router with nothing ready until the
    // next tick.
    for (bool up : {false, true}) {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 16, 16);
        std::vector<Collector> cs;
        sinkAll(mesh, cs);
        const unsigned k = 30;     // corner to corner
        const NodeId src = up ? 0 : 255, dst = up ? 255 : 0;
        ASSERT_TRUE(mesh.offer(src, makeMsg(dst)));
        eq.run();
        ASSERT_EQ(cs[dst].got.size(), 1u) << up;
        EXPECT_EQ(mesh.routerVisits(), k + 1) << up;
        EXPECT_EQ(mesh.latencyDist().max(), k + 1) << up;
    }
}

TEST(MeshEventDriven, RowSpansBitmapWordBoundary)
{
    // 80 routers per row, so rows straddle bitmap words: routers
    // 63|64 (row 0) and 127|128 (row 1) sit in different words.
    // Eastward a hop across the seam sets a bit in the next word,
    // which the same tick reaches; westward it sets a bit behind the
    // cursor, picked up on the next tick.  Either way a message takes
    // exactly hops + 1 cycles and hops + 1 visits.
    for (bool east : {true, false}) {
        EventQueue eq;
        MeshNetwork mesh("mesh", eq, 80, 2);
        std::vector<Collector> cs;
        sinkAll(mesh, cs);
        const unsigned hops = 11;
        const NodeId lo[] = {58, 122}, hi[] = {69, 133};
        for (unsigned i = 0; i < 2; ++i) {
            ASSERT_TRUE(mesh.offer(east ? lo[i] : hi[i],
                                   makeMsg(east ? hi[i] : lo[i])));
        }
        eq.run();
        for (unsigned i = 0; i < 2; ++i)
            EXPECT_EQ(cs[east ? hi[i] : lo[i]].got.size(), 1u) << east;
        EXPECT_EQ(mesh.latencyDist().count(), 2u);
        EXPECT_EQ(mesh.latencyDist().min(), hops + 1) << east;
        EXPECT_EQ(mesh.latencyDist().max(), hops + 1) << east;
        EXPECT_EQ(mesh.routerVisits(), 2 * (hops + 1)) << east;
        EXPECT_TRUE(mesh.idle());
    }
}

TEST(MeshEventDriven, DrainedRouterRefilledSameTick)
{
    // Tick 1: router 1 forwards its only message west and drains, so
    // its bit clears; then router 2, visited later in the same tick,
    // pushes a message into router 1.  Router 1 must be visited again
    // on tick 2, or that message would be stranded.
    EventQueue eq;
    MeshNetwork mesh("mesh", eq, 4, 1);
    std::vector<Collector> cs;
    sinkAll(mesh, cs);
    ASSERT_TRUE(mesh.offer(1, makeMsg(0, 1)));
    ASSERT_TRUE(mesh.offer(2, makeMsg(0, 2)));
    eq.run(1);
    EXPECT_EQ(mesh.queueDepth(0, MeshNetwork::Port::east), 1u);
    EXPECT_EQ(mesh.queueDepth(1, MeshNetwork::Port::east), 1u);
    // Bounded: a stranded message would keep the tick alive forever.
    eq.run(50);
    ASSERT_EQ(cs[0].got.size(), 2u);
    EXPECT_EQ(cs[0].got[0].words[1], 1u);
    EXPECT_EQ(cs[0].got[1].words[1], 2u);
    EXPECT_EQ(mesh.latencyDist().min(), 2u);   // 1 hop
    EXPECT_EQ(mesh.latencyDist().max(), 3u);   // 2 hops
    EXPECT_TRUE(mesh.idle());
}

TEST(MeshEventDriven, UnalignedPartitionsMatchOneShard)
{
    // A 24x6 mesh at 4 shards: partitions start at routers 0, 48, 72
    // and 120, so three of them begin mid-word in global router
    // numbering.
    // Each partition's bitmap is indexed from its own first router;
    // the run must match one shard exactly.
    struct Run
    {
        std::vector<std::vector<Word>> arrivals;
        std::vector<uint64_t> buckets;
        uint64_t count, sum, min, max, delivered, visits;
    };
    auto run = [](unsigned shards) {
        const unsigned w = 24, h = 6, n = w * h;
        ShardedEngine engine(shards);
        MeshNetwork mesh("mesh", engine, ShardPlan::rows(w, h, shards),
                         /*buffer_depth=*/2);
        std::vector<Collector> cs;
        sinkAll(mesh, cs);
        // Node 0 refuses every other delivery, backing traffic up.
        unsigned calls = 0;
        mesh.setSink(0, [&cs, &calls](const Message &m) {
            if (++calls % 2)
                return false;
            cs[0].got.push_back(m);
            return true;
        });
        uint64_t x = 12345;
        for (NodeId s = 0; s < n; ++s) {
            for (Word k = 0; k < 2; ++k) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                const NodeId d = (x >> 33) % 4 == 0 ? 0 : (x >> 40) % n;
                EXPECT_TRUE(mesh.offer(s, makeMsg(d, s * 2 + k)));
            }
        }
        engine.run();
        Run r;
        for (const Collector &c : cs) {
            r.arrivals.emplace_back();
            for (const Message &m : c.got)
                r.arrivals.back().push_back(m.words[1]);
        }
        const auto &lat = mesh.latencyDist();
        r.buckets = lat.buckets();
        r.count = lat.count();
        r.sum = lat.sum();
        r.min = lat.min();
        r.max = lat.max();
        r.delivered = mesh.delivered();
        r.visits = mesh.routerVisits();
        EXPECT_TRUE(mesh.idle());
        return r;
    };
    const Run one = run(1), four = run(4);
    EXPECT_EQ(one.delivered, 24u * 6 * 2);
    EXPECT_EQ(four.delivered, one.delivered);
    EXPECT_EQ(four.count, one.count);
    EXPECT_EQ(four.sum, one.sum);
    EXPECT_EQ(four.min, one.min);
    EXPECT_EQ(four.max, one.max);
    EXPECT_EQ(four.buckets, one.buckets);
    EXPECT_EQ(four.arrivals, one.arrivals);
    // The work counter does not depend on the shard count either.
    EXPECT_EQ(four.visits, one.visits);
}

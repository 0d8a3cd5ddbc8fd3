/**
 * @file
 * Unit tests for the telemetry registry: plain-data series, the
 * time-integral record, the text/JSON group dumps, snapshots taken
 * while components are alive, cross-simulation aggregation, the
 * periodic Sampler, and the determinism contract: the Collector's
 * JSON/CSV output must be byte-identical whether the sweep tasks ran
 * serially or on a 4-worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/sweep.hh"

namespace tcpni::metrics
{
namespace
{

/** A tiny fake component: one counter, one gauge, one histogram and
 *  one time integral, registered as plain data. */
struct FakeNic
{
    FakeNic(const std::string &name, EventQueue &eq) : group(name, eq)
    {
        group.addCounter("sent", &sent, "messages sent");
        group.addGauge("depth", &depth, "queue depth");
        group.addHistogram("lat", &lat, "latency");
        group.addIntegral("occ", &occ, "occupancy integral");
    }

    uint64_t sent = 0;
    uint64_t depth = 0;
    Histogram lat;
    Integral occ;
    Group group;
};

TEST(TimeWeighted, TimeWeightedAverage)
{
    Integral tw;
    tw.set(4, 0);        // level 4 from tick 0
    tw.set(0, 10);       // ...until tick 10, then empty
    tw.set(0, 20);       // stays empty until tick 20
    // 4*10 + 0*10 over 20 ticks = 2.0, even though 2 of the 3 updates
    // were 0 (a sample-weighted mean would say 1.33).
    EXPECT_EQ(tw.at(20), 40u);
    EXPECT_DOUBLE_EQ(static_cast<double>(tw.at(20)) / 20, 2.0);
    EXPECT_EQ(tw.level, 0u);
    // The open interval counts at read time.
    tw.set(3, 20);
    EXPECT_EQ(tw.at(25), 55u);
}

TEST(TimeWeighted, NoTimeElapsed)
{
    Integral tw;
    EXPECT_EQ(tw.at(0), 0u);
    tw.set(3, 0);
    EXPECT_EQ(tw.at(0), 0u);     // no time at level 3 yet
    EXPECT_EQ(tw.level, 3u);
    tw.set(5, 0);                // a same-tick change folds nothing
    EXPECT_EQ(tw.at(2), 10u);
}

TEST(MetricsGroup, DumpFormat)
{
    EventQueue eq;
    FakeNic nic("node0.ni", eq);
    nic.sent = 42;
    nic.lat.record(7);
    std::ostringstream os;
    nic.group.dump(os, 0);
    std::string out = os.str();
    EXPECT_NE(out.find("node0.ni.sent"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("# messages sent"), std::string::npos);
    EXPECT_NE(out.find("node0.ni.lat.p99"), std::string::npos);
}

TEST(MetricsGroup, DumpJson)
{
    EventQueue eq;
    FakeNic nic("node0.ni", eq);
    nic.sent = 7;
    nic.depth = 3;
    nic.lat.record(1);
    nic.lat.record(9);
    nic.occ.set(2, 0);
    nic.occ.set(0, 4);

    std::ostringstream os;
    nic.group.dumpJson(os, 10);
    std::string out = os.str();
    EXPECT_EQ(out, "{\"name\":\"node0.ni\",\"stats\":{\"sent\":7,"
                   "\"depth\":3,\"lat\":{\"count\":2,\"min\":1,"
                   "\"max\":9,\"mean\":5,\"p50\":1,\"p90\":9,"
                   "\"p99\":9,\"p999\":9},\"occ\":8}}");
}

TEST(Metrics, NoRegistryMeansNoGroup)
{
    ASSERT_EQ(registry(), nullptr);
    EventQueue eq;
    FakeNic nic("ni0", eq);
    EXPECT_FALSE(nic.group.linked());
}

TEST(Metrics, SnapshotKeepsFinalValues)
{
    Registry reg(0);
    setRegistry(&reg);
    {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        EXPECT_TRUE(nic.group.linked());
        nic.sent = 42;
        nic.depth = 7;
        nic.lat.record(100);
        nic.occ.set(2, 0);
        snapshot(eq, 5);
        EXPECT_FALSE(nic.group.linked());
        // Later changes are not seen: the snapshot is final.
        nic.sent = 1000;
    }
    setRegistry(nullptr);
    // The component is gone; finalize reports the snapshot.
    TaskMetrics tm = reg.finalize("t");
    ASSERT_EQ(tm.groups.size(), 1u);
    EXPECT_EQ(tm.groups[0].name, "ni0");
    const auto &s = tm.groups[0].series;
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].name, "sent");
    EXPECT_EQ(s[0].value, 42u);
    EXPECT_EQ(s[1].value, 7u);
    EXPECT_EQ(s[1].peak, 7u);
    EXPECT_EQ(s[2].hist.count(), 1u);
    // The integral is exported as a counter, read at the snapshot
    // tick: level 2 held over [0, 5).
    EXPECT_EQ(s[3].kind, Kind::counter);
    EXPECT_EQ(s[3].value, 10u);
}

TEST(Metrics, UnsnapshottedGroupIsLeftOut)
{
    // A component destroyed without a snapshot only unlinks: the
    // registry never reads it again, and its series are not reported.
    Registry reg(0);
    setRegistry(&reg);
    {
        EventQueue eq;
        FakeNic kept("kept", eq);
        kept.sent = 3;
        {
            FakeNic early("early", eq);
            early.sent = 9;
        }
        snapshot(eq, eq.curTick());
        EXPECT_FALSE(kept.group.linked());
    }
    {
        EventQueue eq;
        FakeNic dropped("dropped", eq);
        dropped.sent = 5;
    }
    setRegistry(nullptr);
    TaskMetrics tm = reg.finalize("t");
    EXPECT_EQ(tm.sims, 2u);
    ASSERT_EQ(tm.groups.size(), 1u);
    EXPECT_EQ(tm.groups[0].name, "kept");
    EXPECT_EQ(tm.groups[0].series[0].value, 3u);
}

TEST(Metrics, GroupsMergeAcrossSimulations)
{
    // Two simulations in one task (two queues): same-named groups
    // merge -- counters sum, gauges keep last/peak, histograms fold.
    Registry reg(0);
    setRegistry(&reg);
    for (int sim = 0; sim < 2; ++sim) {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        nic.sent = sim == 0 ? 10 : 32;
        nic.depth = sim == 0 ? 9 : 4;
        nic.lat.record(sim == 0 ? 50 : 500);
        snapshot(eq, eq.curTick());
    }
    setRegistry(nullptr);
    TaskMetrics tm = reg.finalize("t");
    EXPECT_EQ(tm.sims, 2u);
    ASSERT_EQ(tm.groups.size(), 1u);
    const auto &s = tm.groups[0].series;
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].value, 42u);      // counter: 10 + 32
    EXPECT_EQ(s[1].value, 4u);       // gauge: last simulation's value
    EXPECT_EQ(s[1].peak, 9u);        // gauge: peak across both
    EXPECT_EQ(s[2].hist.count(), 2u);
    EXPECT_EQ(s[2].hist.min(), 50u);
    EXPECT_EQ(s[2].hist.max(), 500u);
}

TEST(Metrics, SamplerRecordsTimeSeries)
{
    Registry reg(100);  // sample every 100 ticks
    setRegistry(&reg);
    {
        EventQueue eq;
        FakeNic nic("ni0", eq);
        // Ramp the counter over 350 ticks; depth spikes across the
        // tick-200 sample boundary so only sampling can observe the
        // peak (it is back down before the run ends).
        std::vector<std::unique_ptr<LambdaEvent>> events;
        for (Tick t = 1; t <= 350; ++t) {
            events.push_back(std::make_unique<LambdaEvent>([&nic, t] {
                ++nic.sent;
                nic.depth = t >= 150 && t < 250 ? 99 : 1;
            }));
            eq.schedule(events.back().get(), t);
        }
        eq.run();
        nic.depth = 0;
        snapshot(eq, eq.curTick());
    }
    setRegistry(nullptr);
    TaskMetrics tm = reg.finalize("t");

    // The automatic "eventq" group plus the component's group.
    ASSERT_EQ(tm.groups.size(), 2u);
    EXPECT_EQ(tm.groups[0].name, "eventq");
    EXPECT_EQ(tm.groups[1].name, "ni0");
    // The gauge peak was caught by the tick-150 neighborhood sample
    // (the sampler fires at statsPri after the functional events).
    const auto &depth = tm.groups[1].series[1];
    EXPECT_EQ(depth.name, "depth");
    EXPECT_EQ(depth.value, 0u);
    EXPECT_EQ(depth.peak, 99u);

    // Samples landed on exact interval boundaries with monotone
    // counter values.
    ASSERT_FALSE(tm.rows.empty());
    uint32_t sent_id = UINT32_MAX;
    for (uint32_t i = 0; i < tm.seriesNames.size(); ++i) {
        if (tm.seriesNames[i] == "ni0.sent")
            sent_id = i;
    }
    ASSERT_NE(sent_id, UINT32_MAX);
    uint64_t prev = 0;
    unsigned seen = 0;
    for (const SampleRow &row : tm.rows) {
        EXPECT_EQ(row.tick % 100, 0u);
        if (row.series == sent_id) {
            EXPECT_GE(row.value, prev);
            // One functional event per tick has fired by the sample.
            EXPECT_EQ(row.value, std::min<uint64_t>(row.tick, 350));
            prev = row.value;
            ++seen;
        }
    }
    EXPECT_GE(seen, 3u);
    EXPECT_EQ(tm.droppedRows, 0u);
}

TEST(Metrics, InertTaskScopeInstallsNothing)
{
    ASSERT_EQ(registry(), nullptr);
    {
        TaskScope scope(nullptr, 0, "off");
        EXPECT_EQ(registry(), nullptr);
    }
    EXPECT_EQ(registry(), nullptr);
}

TEST(Metrics, TaskScopeInstallsAndRestoresRegistry)
{
    Collector collector(0);
    ASSERT_EQ(registry(), nullptr);
    {
        TaskScope scope = collector.task(0, "a");
        EXPECT_NE(registry(), nullptr);
    }
    EXPECT_EQ(registry(), nullptr);
}

/** One synthetic sweep task: its own queue, component, and a
 *  deterministic event pattern derived from the slot index. */
void
sweepTask(Collector &collector, size_t slot)
{
    TaskScope scope =
        collector.task(slot, "task" + std::to_string(slot));
    EventQueue eq;
    FakeNic nic("ni0", eq);
    std::vector<std::unique_ptr<LambdaEvent>> events;
    const Tick span = 200 + 40 * static_cast<Tick>(slot);
    for (Tick t = 1; t <= span; t += 3) {
        events.push_back(std::make_unique<LambdaEvent>([&nic, t, slot] {
            ++nic.sent;
            nic.depth = (t + slot) % 17;
            nic.lat.record(t * (slot + 1));
        }));
        eq.schedule(events.back().get(), t);
    }
    eq.run();
    snapshot(eq, eq.curTick());
}

std::string
runSweep(unsigned jobs, const std::function<std::string(
                            const Collector &)> &render)
{
    Collector collector(64);
    SweepRunner sweep(jobs);
    sweep.run(6, [&](size_t slot) { sweepTask(collector, slot); });
    return render(collector);
}

TEST(Metrics, OutputByteIdenticalSerialVsParallel)
{
    auto json = [](const Collector &c) {
        std::ostringstream os;
        c.writeJson(os);
        return os.str();
    };
    auto csv = [](const Collector &c) {
        std::ostringstream os;
        c.writeCsv(os);
        return os.str();
    };
    std::string json1 = runSweep(1, json);
    std::string json4 = runSweep(4, json);
    EXPECT_EQ(json1, json4);
    EXPECT_FALSE(json1.empty());
    EXPECT_NE(json1.find("\"schema\":\"tcpni-metrics-1\""),
              std::string::npos);
    EXPECT_NE(json1.find("\"label\":\"task5\""), std::string::npos);

    std::string csv1 = runSweep(1, csv);
    std::string csv4 = runSweep(4, csv);
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(csv1.substr(0, csv1.find('\n')),
              "label,sim,tick,metric,value");
    EXPECT_NE(csv1.find("task3,0,"), std::string::npos);
}

} // namespace
} // namespace tcpni::metrics

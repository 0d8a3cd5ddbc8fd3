/**
 * @file
 * The telemetry registry seen from a whole machine: a System torn
 * down inside a TaskScope hands its final values to the registry
 * (including the open interval of every time integral), and the
 * statistics dump and the metrics JSON report the same numbers,
 * because both read the same registered series.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "system/system.hh"
#include "system/traffic.hh"

using namespace tcpni;

namespace
{

/** An incast onto a slow server: input queues fill, the mesh refuses
 *  deliveries, and the clients' output queues back up past oafull. */
sys::NodeConfig
incastNode()
{
    sys::NodeConfig cfg;
    cfg.memBytes = 1 << 12;
    cfg.ni.inputQueueDepth = 2;
    cfg.ni.outputQueueDepth = 4;
    cfg.ni.inputThreshold = 1;
    cfg.ni.outputThreshold = 1;
    return cfg;
}

sys::TrafficConfig
incastTraffic()
{
    sys::TrafficConfig tc;
    tc.messages = 40;
    tc.meanGap = 2;
    tc.pattern = sys::Pattern::incast;
    tc.serviceTime = 9;
    tc.seed = 7;
    return tc;
}

/** The integer after "key": in the JSON object that starts at
 *  {"name":"group" in @p json. */
uint64_t
seriesIn(const std::string &json, const std::string &group,
         const std::string &key)
{
    size_t at = json.find("{\"name\":\"" + group + "\"");
    EXPECT_NE(at, std::string::npos) << group;
    at = json.find("\"" + key + "\":", at);
    EXPECT_NE(at, std::string::npos) << group << "." << key;
    return std::stoull(json.substr(at + key.size() + 3));
}

/** Sum of every integer value of "key": in @p json. */
uint64_t
sumOf(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    uint64_t sum = 0;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + pat.size()))
        sum += std::stoull(json.substr(at + pat.size()));
    return sum;
}

/** Sum of "count" in every "key":{...} histogram of @p json. */
uint64_t
histCountOf(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":{\"count\":";
    uint64_t sum = 0;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + pat.size()))
        sum += std::stoull(json.substr(at + pat.size()));
    return sum;
}

std::string
metricsJson(const metrics::Collector &c)
{
    std::ostringstream os;
    c.writeJson(os);
    return os.str();
}

} // namespace

TEST(SystemTelemetry, TeardownInsideTaskScopeKeepsOpenIntegrals)
{
    metrics::Collector collector(0);
    const unsigned nodes = 9;
    std::vector<uint64_t> occ(nodes), full(nodes);
    unsigned backed_up = 0;
    {
        metrics::TaskScope scope = collector.task(0, "incast");
        sys::System machine("m", 3, 3, incastNode());
        std::vector<std::unique_ptr<sys::TrafficGen>> gens;
        for (NodeId n = 0; n < nodes; ++n)
            gens.push_back(std::make_unique<sys::TrafficGen>(
                machine, n, incastTraffic()));
        for (auto &g : gens)
            g->start();
        // Stop mid-incast: output queues are still backed up.
        EXPECT_FALSE(machine.run(150));
        for (NodeId n = 0; n < nodes; ++n) {
            ni::NetworkInterface &ni = machine.node(n).ni();
            occ[n] = ni.outputOccTicks();
            full[n] = ni.oafullCycles();
            if (ni.outputQueueLen() > 1)
                ++backed_up;
        }
        gens.clear();
        // ~System snapshots here, before the scope deposits.
    }
    // Some client still holds messages above its oafull threshold, so
    // its integrals have an open interval the snapshot must include.
    ASSERT_GT(backed_up, 0u);

    const std::string json = metricsJson(collector);
    for (NodeId n = 0; n < nodes; ++n) {
        const std::string g = "m.node" + std::to_string(n) + ".ni";
        EXPECT_EQ(seriesIn(json, g, "oq.occ_ticks"), occ[n]) << g;
        EXPECT_EQ(seriesIn(json, g, "oq.full_cycles"), full[n]) << g;
    }
}

TEST(SystemTelemetry, StatsDumpAgreesWithMetricsJson)
{
    metrics::Collector collector(64);
    std::string dump;
    {
        metrics::TaskScope scope = collector.task(0, "incast");
        sys::System machine("m", 3, 3, incastNode());
        std::vector<std::unique_ptr<sys::TrafficGen>> gens;
        for (NodeId n = 0; n < 9; ++n)
            gens.push_back(std::make_unique<sys::TrafficGen>(
                machine, n, incastTraffic()));
        for (auto &g : gens)
            g->start();
        EXPECT_TRUE(machine.run(1'000'000));
        std::ostringstream os;
        machine.dumpStatsJson(os);
        dump = os.str();
        gens.clear();
    }
    const std::string json = metricsJson(collector);

    EXPECT_EQ(sumOf(dump, "sent"), 8u * 40);
    EXPECT_GT(sumOf(dump, "refused"), 0u);
    for (const char *key : {"sent", "refused"})
        EXPECT_EQ(sumOf(json, key), sumOf(dump, key)) << key;
    EXPECT_GT(histCountOf(dump, "e2e_latency"), 0u);
    EXPECT_EQ(histCountOf(json, "e2e_latency"),
              histCountOf(dump, "e2e_latency"));
}

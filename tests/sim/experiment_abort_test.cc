/**
 * @file
 * The experiment driver's crash-resilience contract: when an
 * experiment's run() throws (a panic in throw mode), the driver must
 * still flush a valid, closed-bracket Chrome trace and the metrics
 * JSON/CSV before reporting failure -- the run that died is exactly
 * the one worth inspecting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/event_queue.hh"
#include "sim/experiment.hh"

namespace tcpni::exp
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Net brace/bracket depth outside strings: 0 means every opened
 *  scope was closed (the "valid closed-bracket JSON" contract). */
long
jsonDepth(const std::string &s)
{
    long depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
    }
    return in_string ? -1 : depth;
}

/** A one-counter simulation that snapshots its telemetry when it is
 *  torn down, as sys::System does -- here while the abort unwinds. */
struct Victim
{
    Victim() { group.addCounter("progress", &progress, "work done"); }
    ~Victim() { metrics::snapshot(eq, eq.curTick()); }

    EventQueue eq;
    uint64_t progress = 21;
    metrics::Group group{"victim", eq};
};

/** An experiment that records one lifecycle event, registers one
 *  metric counter, then dies mid-run. */
ExperimentRegistry
boomRegistry()
{
    ExperimentRegistry reg;
    reg.add({
        "boom",
        "aborts mid-run",
        {},
        false,
        true,  // --trace
        [](const Context &ctx) -> int {
            auto ms = ctx.taskMetrics(0, "doomed");
            Victim victim;
            if (auto *s = trace::sink()) {
                s->record(7, trace::Stage::inject, 0, 100, 2);
                s->record(7, trace::Stage::arrive, 1, 140, 2);
            }
            panic("simulated mid-run failure");
        },
    });
    return reg;
}

int
runBoom(const std::vector<std::string> &flags)
{
    ExperimentRegistry reg = boomRegistry();
    std::vector<char *> argv;
    std::vector<std::string> storage = flags;
    for (std::string &f : storage)
        argv.push_back(f.data());
    bool saved_quiet = logging::quiet;
    int rc = runExperiment(reg, "boom",
                           static_cast<int>(argv.size()), argv.data());
    logging::quiet = saved_quiet;
    return rc;
}

TEST(ExperimentAbort, TraceStillClosedValidJson)
{
    const std::string path = "abort_trace_test.json";
    std::remove(path.c_str());
    int rc = runBoom({"--trace", path});
    EXPECT_EQ(rc, 1);

    std::string trace = slurp(path);
    ASSERT_FALSE(trace.empty()) << "trace was not flushed";
    // Structurally valid: everything opened is closed, and the
    // recorded events made it in.
    EXPECT_EQ(jsonDepth(trace), 0);
    EXPECT_EQ(trace.substr(0, 1), "{");
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"network\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ExperimentAbort, MetricsStillFlushed)
{
    const std::string base = "abort_metrics_test";
    std::remove((base + ".json").c_str());
    std::remove((base + ".csv").c_str());
    int rc = runBoom({"--metrics-out", base});
    EXPECT_EQ(rc, 1);

    std::string json = slurp(base + ".json");
    ASSERT_FALSE(json.empty()) << "metrics were not flushed";
    EXPECT_EQ(jsonDepth(json), 0);
    EXPECT_NE(json.find("\"schema\":\"tcpni-metrics-1\""),
              std::string::npos);
    // The doomed task's partial counters were deposited on unwind.
    EXPECT_NE(json.find("\"label\":\"doomed\""), std::string::npos);
    EXPECT_NE(json.find("\"progress\":21"), std::string::npos);

    std::string csv = slurp(base + ".csv");
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "label,sim,tick,metric,value");
    std::remove((base + ".json").c_str());
    std::remove((base + ".csv").c_str());
}

TEST(ExperimentAbort, ExitCodeWithoutSinks)
{
    // No --trace, no --metrics: the error still converts to exit
    // code 1 instead of escaping as an exception.
    EXPECT_EQ(runBoom({}), 1);
}

} // namespace
} // namespace tcpni::exp

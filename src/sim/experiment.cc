#include "sim/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/logging.hh"
#include "common/trace.hh"
#include "metrics/metrics.hh"

namespace tcpni
{
namespace exp
{

namespace
{

const ParamSpec *
findParam(const Experiment &e, const char *flag)
{
    for (const ParamSpec &p : e.params) {
        if (p.flag == flag)
            return &p;
    }
    return nullptr;
}

void
printUsage(const Experiment &e, const char *prog)
{
    std::fprintf(stderr, "usage: %s %s [flags]\n  %s\n", prog,
                 e.name.c_str(), e.description.c_str());
    std::fprintf(stderr,
                 "  --jobs N       worker threads (default: hardware "
                 "concurrency)\n");
    std::fprintf(stderr,
                 "  --metrics      collect performance-counter "
                 "telemetry\n"
                 "  --metrics-out BASE\n"
                 "                 telemetry file base: writes "
                 "BASE.json + BASE.csv\n"
                 "                 (default: <json file>.metrics, or "
                 "'metrics'; implies --metrics)\n"
                 "  --sample-interval N\n"
                 "                 time-series sample period in ticks, "
                 "0 disables\n"
                 "                 (default 1024; implies --metrics)\n");
    if (e.acceptsJson)
        std::fprintf(stderr, "  --json FILE    write results as JSON\n");
    if (e.acceptsTrace) {
        std::fprintf(stderr,
                     "  --trace FILE   write a Chrome trace of the "
                     "kernel messages (forces --jobs 1)\n");
    }
    for (const ParamSpec &p : e.params) {
        std::string left = p.flag;
        if (!p.valueName.empty())
            left += " " + p.valueName;
        std::fprintf(stderr, "  %-14s %s%s\n", left.c_str(),
                     p.help.c_str(),
                     p.def.empty() || p.isSwitch
                         ? ""
                         : (" (default " + p.def + ")").c_str());
    }
}

} // namespace

const std::string &
Context::str(const std::string &flag) const
{
    auto it = values.find(flag);
    if (it == values.end())
        panic("experiment read undeclared parameter '%s'", flag.c_str());
    return it->second;
}

uint64_t
parseNum(const std::string &flag, const std::string &v, uint64_t max,
         uint64_t min)
{
    // Digits only: a sign would wrap in the unsigned callers (--msgs -1
    // asked for ~4G messages and hung), and a value past @p max would
    // wrap when narrowed (5000000000 would become 705032704).
    errno = 0;
    const uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
    if (v.empty() || v.find_first_not_of("0123456789") !=
                         std::string::npos ||
        errno == ERANGE || n < min || n > max) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' (want an integer from %llu "
                     "to %llu)\n",
                     flag.c_str(), v.c_str(),
                     static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max));
        std::exit(1);
    }
    return n;
}

long
Context::num(const std::string &flag) const
{
    return static_cast<long>(parseNum(flag, str(flag), LONG_MAX));
}

unsigned
Context::u32(const std::string &flag) const
{
    return static_cast<unsigned>(parseNum(flag, str(flag), UINT32_MAX));
}

std::vector<unsigned>
Context::u32List(const std::string &flag, unsigned min,
                  unsigned max) const
{
    std::vector<unsigned> out;
    const std::string &v = str(flag);
    for (size_t at = 0; at <= v.size();) {
        size_t comma = std::min(v.find(',', at), v.size());
        out.push_back(static_cast<unsigned>(
            parseNum(flag, v.substr(at, comma - at), max, min)));
        at = comma + 1;
    }
    return out;
}

bool
Context::on(const std::string &flag) const
{
    return str(flag) == "1";
}

bool
Context::given(const std::string &flag) const
{
    return explicitFlags.count(flag) != 0;
}

metrics::TaskScope
Context::taskMetrics(size_t slot, std::string label) const
{
    // TaskScope tolerates a null collector (inert scope), so the
    // metrics-off path costs one pointer store per task.
    return metrics::TaskScope(metricsCollector, slot, std::move(label));
}

void
Context::writeJson(
    const std::function<void(std::ostream &)> &writer) const
{
    if (jsonFile.empty())
        return;
    std::ofstream os(jsonFile);
    if (!os)
        fatal("cannot open --json file '%s'", jsonFile.c_str());
    writer(os);
    std::cout << "\nwrote JSON results to " << jsonFile << "\n";
}

void
ExperimentRegistry::add(Experiment e)
{
    if (find(e.name))
        fatal("experiment registry: duplicate name '%s'", e.name.c_str());
    entries_.push_back(std::move(e));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    for (const Experiment &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

int
runExperiment(const ExperimentRegistry &reg, const std::string &name,
              int argc, char **argv)
{
    const Experiment *e = reg.find(name);
    if (!e) {
        std::fprintf(stderr, "unknown experiment '%s'\n", name.c_str());
        return 1;
    }

    Context ctx;
    for (const ParamSpec &p : e->params)
        ctx.values[p.flag] = p.isSwitch ? "0" : p.def;

    bool metrics_on = false;
    std::string metrics_out;
    Tick sample_interval = 1024;

    for (int i = 0; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--jobs") && i + 1 < argc) {
            ctx.jobs = static_cast<unsigned>(
                parseNum(a, argv[++i], UINT32_MAX));
        } else if (!std::strcmp(a, "--metrics")) {
            metrics_on = true;
        } else if (!std::strcmp(a, "--metrics-out") && i + 1 < argc) {
            metrics_out = argv[++i];
            metrics_on = true;
        } else if (!std::strcmp(a, "--sample-interval") &&
                   i + 1 < argc) {
            sample_interval = parseNum(a, argv[++i], LONG_MAX);
            metrics_on = true;
        } else if (e->acceptsJson && !std::strcmp(a, "--json") &&
                   i + 1 < argc) {
            ctx.jsonFile = argv[++i];
        } else if (e->acceptsTrace && !std::strcmp(a, "--trace") &&
                   i + 1 < argc) {
            ctx.traceFile = argv[++i];
        } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            printUsage(*e, "tcpni_bench");
            return 0;
        } else if (const ParamSpec *p = findParam(*e, a)) {
            if (p->isSwitch) {
                ctx.values[p->flag] = "1";
            } else if (i + 1 < argc) {
                ctx.values[p->flag] = argv[++i];
            } else {
                std::fprintf(stderr, "%s needs a value\n", a);
                return 1;
            }
            ctx.explicitFlags.insert(p->flag);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", a);
            printUsage(*e, "tcpni_bench");
            return 1;
        }
    }

    trace::TraceSink lifecycle_sink;
    if (!ctx.traceFile.empty()) {
        // The lifecycle sink is thread-local: tracing needs every
        // simulation on this thread.
        trace::setSink(&lifecycle_sink);
        ctx.jobs = 1;
    }

    std::unique_ptr<metrics::Collector> collector;
    if (metrics_on) {
        if (metrics_out.empty()) {
            metrics_out = ctx.jsonFile.empty()
                              ? "metrics"
                              : ctx.jsonFile + ".metrics";
        }
        collector =
            std::make_unique<metrics::Collector>(sample_interval);
        ctx.metricsCollector = collector.get();
    }

    logging::quiet = true;

    // Run under an exception guard: a SimError escaping the experiment
    // (a panic in throw mode) must not lose the telemetry gathered so
    // far -- in particular the Chrome trace must still be valid,
    // closed JSON so the run that died is the one you can inspect.
    int rc = 0;
    std::string error;
    try {
        rc = e->run(ctx);
    } catch (const SimError &err) {
        error = err.what();
        rc = 1;
    }

    if (!ctx.traceFile.empty()) {
        trace::setSink(nullptr);
        std::ofstream os(ctx.traceFile);
        if (!os)
            fatal("cannot open --trace file '%s'", ctx.traceFile.c_str());
        lifecycle_sink.writeChromeTrace(os);
        std::cout << "wrote Chrome trace ("
                  << lifecycle_sink.completeLifecycles()
                  << " complete message lifecycles) to " << ctx.traceFile
                  << "\n";
    }

    if (collector) {
        const std::string json_path = metrics_out + ".json";
        const std::string csv_path = metrics_out + ".csv";
        std::ofstream js(json_path);
        if (!js)
            fatal("cannot open metrics file '%s'", json_path.c_str());
        collector->writeJson(js);
        std::ofstream cs(csv_path);
        if (!cs)
            fatal("cannot open metrics file '%s'", csv_path.c_str());
        collector->writeCsv(cs);
        std::cout << "wrote metrics telemetry to " << json_path
                  << " and " << csv_path << "\n";
    }

    if (!error.empty()) {
        std::fprintf(stderr, "experiment '%s' aborted: %s\n",
                     e->name.c_str(), error.c_str());
    }
    return rc;
}

int
driverMain(const ExperimentRegistry &reg, int argc, char **argv)
{
    auto list = [&] {
        std::printf("registered experiments:\n");
        for (const Experiment &e : reg.all())
            std::printf("  %-16s %s\n", e.name.c_str(),
                        e.description.c_str());
        std::printf("\nrun one with: tcpni_bench <name> [flags] "
                    "(--help for per-experiment flags)\n");
    };
    if (argc < 2 || !std::strcmp(argv[1], "list") ||
        !std::strcmp(argv[1], "--list") ||
        !std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "-h")) {
        list();
        return argc < 2 ? 1 : 0;
    }
    if (!reg.find(argv[1])) {
        std::fprintf(stderr, "unknown experiment '%s'\n\n", argv[1]);
        list();
        return 1;
    }
    return runExperiment(reg, argv[1], argc - 2, argv + 2);
}

} // namespace exp
} // namespace tcpni

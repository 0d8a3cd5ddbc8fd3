/**
 * @file
 * The benchmark experiment definitions (Table 1, Figure 12, the
 * optimization ablation, the off-chip latency sensitivity, and the
 * host-side performance bench), registered into the shared
 * exp::ExperimentRegistry.  The `tcpni_bench` driver and the thin
 * compatibility binaries (`table1`, `figure12`, ...) all dispatch
 * through this registry.
 */

#ifndef TCPNI_BENCH_EXPERIMENTS_HH
#define TCPNI_BENCH_EXPERIMENTS_HH

#include <iosfwd>

#include "sim/experiment.hh"
#include "tam/expand.hh"

namespace tcpni
{
namespace bench
{

/** Write @p b as the JSON object the Figure 12, ablation and off-chip
 *  outputs share: work, dispatch, sending, otherComm and total cycles,
 *  and commFraction. */
void writeBarJson(std::ostream &os, const tam::Figure12Bar &b);

void registerTable1(exp::ExperimentRegistry &reg);
void registerFigure12(exp::ExperimentRegistry &reg);
void registerAblation(exp::ExperimentRegistry &reg);
void registerOffchipLatency(exp::ExperimentRegistry &reg);
void registerHostPerf(exp::ExperimentRegistry &reg);
void registerOnNi(exp::ExperimentRegistry &reg);
void registerCollective(exp::ExperimentRegistry &reg);
void registerScale(exp::ExperimentRegistry &reg);
void registerServe(exp::ExperimentRegistry &reg);

/** Register every benchmark experiment. */
inline void
registerAll(exp::ExperimentRegistry &reg)
{
    registerTable1(reg);
    registerFigure12(reg);
    registerAblation(reg);
    registerOffchipLatency(reg);
    registerHostPerf(reg);
    registerOnNi(reg);
    registerCollective(reg);
    registerScale(reg);
    registerServe(reg);
}

} // namespace bench
} // namespace tcpni

#endif // TCPNI_BENCH_EXPERIMENTS_HH

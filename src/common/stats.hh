/**
 * @file
 * The JSON string/number formatting the stat dumps and benches share.
 * Component telemetry (counters, time integrals, latency histograms)
 * lives in metrics/metrics.hh.
 */

#ifndef TCPNI_COMMON_STATS_HH
#define TCPNI_COMMON_STATS_HH

#include <string>

namespace tcpni
{
namespace stats
{

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format a double as a JSON number ("%.10g"; non-finite values,
 *  which JSON cannot represent, collapse to "0"). */
std::string jsonNum(double v);

} // namespace stats
} // namespace tcpni

#endif // TCPNI_COMMON_STATS_HH

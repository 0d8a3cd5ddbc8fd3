/**
 * @file
 * Base class for named simulation components.
 */

#ifndef TCPNI_SIM_SIM_OBJECT_HH
#define TCPNI_SIM_SIM_OBJECT_HH

#include <string>

#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tcpni
{

/**
 * A named component attached to an event queue.
 *
 * Each SimObject owns the telemetry group its counters register in
 * (see metrics::Group); the group also carries the component's name
 * and event queue.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : stats_(std::move(name), eventQueueRef(eq))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return stats_.name(); }
    EventQueue &eventq() { return stats_.eventq(); }
    Tick curTick() const { return stats_.eventq().curTick(); }

    metrics::Group &stats() { return stats_; }
    const metrics::Group &stats() const { return stats_; }

  private:
    static EventQueue &eventQueueRef(EventQueue &eq) { return eq; }

    metrics::Group stats_;
};

} // namespace tcpni

#endif // TCPNI_SIM_SIM_OBJECT_HH

/**
 * @file
 * Periodic counter snapshots for one simulation.
 *
 * The Sampler is a SimObject created by the Registry when the first
 * metric group of a new simulation registers (so every simulation of
 * a task is sampled, including ones built from raw components with no
 * sys::System).  It fires at statsPri -- after all functional events
 * of its tick -- records one sample of every live series via
 * Registry::sampleNow(), and reschedules only while other events
 * remain, so it never keeps a finished simulation alive (it can at
 * most round the final tick up to the next sample boundary).
 *
 * The Sampler also contributes its own "eventq" group (events
 * processed, queue size).  Its series are fields of the Sampler --
 * which the Registry owns and keeps alive through finalize() -- set
 * from the EventQueue at each sample, so nothing reads the queue once
 * the task's simulation is gone.  There is deliberately no
 * deschedule on destruction: a still-scheduled sample event simply
 * dies with its queue, which the Registry outlives.
 */

#ifndef TCPNI_METRICS_SAMPLER_HH
#define TCPNI_METRICS_SAMPLER_HH

#include "sim/sim_object.hh"

namespace tcpni
{
namespace metrics
{

class Registry;

class Sampler : public SimObject
{
  public:
    Sampler(const std::string &name, EventQueue &eq, Registry &owner,
            uint64_t queue_id, Tick interval);

  private:
    void fire();

    Registry &owner_;
    uint64_t queueId_;
    Tick interval_;
    /** Queue state as of the last sample: the "eventq" group's
     *  series. */
    uint64_t processed_ = 0;
    uint64_t qsize_ = 0;
    LambdaEvent sampleEvent_;
};

} // namespace metrics
} // namespace tcpni

#endif // TCPNI_METRICS_SAMPLER_HH

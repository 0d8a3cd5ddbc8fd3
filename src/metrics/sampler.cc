#include "metrics/sampler.hh"

#include "metrics/metrics.hh"

namespace tcpni
{
namespace metrics
{

Sampler::Sampler(const std::string &name, EventQueue &eq,
                 Registry &owner, uint64_t queue_id, Tick interval)
    : SimObject(name, eq), owner_(owner), queueId_(queue_id),
      interval_(interval),
      sampleEvent_([this] { fire(); }, Event::statsPri)
{
    stats().addCounter("processed", &processed_,
                       "events processed (as of last sample)");
    stats().addGauge("size", &qsize_,
                     "scheduled events (as of last sample)");
    eventq().schedule(&sampleEvent_, curTick() + interval_);
}

void
Sampler::fire()
{
    qsize_ = eventq().size();
    processed_ = eventq().numProcessed();
    eventq().settleSleepers();
    owner_.sampleNow(queueId_, curTick());
    // Reschedule only while the simulation still has work: the
    // sampler must never keep the queue from draining.
    if (!eventq().empty())
        eventq().schedule(&sampleEvent_, curTick() + interval_);
}

} // namespace metrics
} // namespace tcpni

/**
 * @file
 * The credit fabric: returns delivery credits to sender-side transport
 * policies over a one-tick-latency hardware path.
 *
 * When a destination interface accepts a message, the sender's window
 * must reopen.  Rather than call the sender's policy from the
 * receiver, the fabric queues the credit and hands it over a tick
 * later:
 *
 *  - noteDelivered(src, dst, T) appends a (T, dst) entry to the
 *    sender's pending list and schedules the sender's drain event at
 *    T + 1.
 *
 *  - The drain event at tick D folds only entries with tick < D
 *    (summed per destination, applied in ascending destination order)
 *    into Policy::onCredit() and reschedules for the remainder.  So
 *    neither the order deliveries were appended within a tick nor
 *    whether a delivery at D came before or after the drain at D can
 *    show through: credit arrival ticks -- and therefore every
 *    downstream policy decision -- are a pure function of the
 *    delivery schedule.
 */

#ifndef TCPNI_TRANSPORT_FABRIC_HH
#define TCPNI_TRANSPORT_FABRIC_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace transport
{

class CreditFabric
{
  public:
    explicit CreditFabric(EventQueue &eq) : eq_(eq) {}

    /** Register @p node 's policy as a credit consumer. */
    void
    addSender(NodeId node, Policy *policy)
    {
        slots_.emplace(node, std::make_unique<Slot>(policy, eq_));
    }

    /**
     * The interface of @p dst accepted a message from @p src at
     * @p now.  No-op unless @p src registered a credit-consuming
     * policy.
     */
    void
    noteDelivered(NodeId src, NodeId dst, Tick now)
    {
        auto it = slots_.find(src);
        if (it == slots_.end())
            return;
        Slot &slot = *it->second;
        slot.pending.emplace_back(now, dst);
        if (!slot.drain.scheduled())
            slot.eq.schedule(&slot.drain, now + 1);
    }

  private:
    struct Slot
    {
        class DrainEvent : public Event
        {
          public:
            explicit DrainEvent(Slot &slot)
                : Event(niPri), slot_(slot)
            {
            }
            void process() override { slot_.drainCredits(); }
            std::string name() const override
            {
                return "credit-drain";
            }

          private:
            Slot &slot_;
        };

        Slot(Policy *policy, EventQueue &eq)
            : policy(policy), eq(eq), drain(*this)
        {
        }

        void drainCredits();

        Policy *policy;
        EventQueue &eq;
        DrainEvent drain;

        /** (delivery tick, destination) entries, appended in
         *  nondecreasing tick order. */
        std::vector<std::pair<Tick, NodeId>> pending;
    };

    EventQueue &eq_;
    std::map<NodeId, std::unique_ptr<Slot>> slots_;
};

} // namespace transport
} // namespace tcpni

#endif // TCPNI_TRANSPORT_FABRIC_HH

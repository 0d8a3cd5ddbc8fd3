/**
 * @file
 * The window policy: a static credit window per destination.
 *
 * At most cfg.window messages may be in flight from this node to any
 * one destination; a send attempt beyond that holds (the architectural
 * SEND stall) until the destination's interface accepts an earlier
 * message and the CreditFabric returns the credit.  This is the
 * classic RDMA-style sender-side flow control (cf. the send-credit
 * windows of MPICH2-over-InfiniBand): in-flight state is bounded per
 * flow, so an incast cannot pile every client's full output queue into
 * the server's mesh neighborhood.
 *
 * Stall accounting is time-weighted: exhausted_dst_ticks integrates the
 * number of destinations sitting at the window limit over time (a
 * destination that stays exhausted for 1000 ticks weighs 1000x one
 * that blips), which is the number the serving harness correlates
 * against tail latency.
 *
 * Determinism: the per-destination map is ordered, all folds are
 * commutative sums, and every mutation happens on the owning node's
 * event queue.
 */

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "transport/transport.hh"

namespace tcpni
{
namespace transport
{

namespace
{

class WindowPolicy : public Policy
{
  public:
    explicit WindowPolicy(const TransportConfig &cfg) : Policy(cfg)
    {
        stats_.addIntegral("exhausted_dst_ticks", &exhausted_,
                           "destination-ticks spent at the window "
                           "limit");
        stats_.addGauge("exhausted_dsts", &exhausted_.level,
                        "destinations currently at the window limit");
        stats_.addGauge("peak_exhausted_dsts", &peakExhausted_,
                        "most destinations simultaneously at the "
                        "limit");
    }

    const char *name() const override { return "window"; }

    Verdict
    gate(NodeId dst, Tick now) override
    {
        if (wouldHold(dst, now)) {
            countHold();
            return Verdict::hold;
        }
        return Verdict::proceed;
    }

    bool
    wouldHold(NodeId dst, Tick) const override
    {
        auto it = inFlight_.find(dst);
        return it != inFlight_.end() && it->second >= cfg_.window;
    }

    void
    onAdmit(NodeId dst, Tick now) override
    {
        Policy::onAdmit(dst, now);
        uint32_t &n = inFlight_[dst];
        ++n;
        if (n == cfg_.window)
            setExhausted(+1, now);
    }

    void
    onCredit(NodeId dst, uint32_t count, Tick now) override
    {
        Policy::onCredit(dst, count, now);
        auto it = inFlight_.find(dst);
        tcpni_assert(it != inFlight_.end() && it->second >= count);
        bool was_exhausted = it->second >= cfg_.window;
        it->second -= count;
        if (was_exhausted && it->second < cfg_.window)
            setExhausted(-1, now);
    }

    bool wantsCredits() const override { return true; }

  private:
    void
    setExhausted(int delta, Tick now)
    {
        exhausted_.set(exhausted_.level + delta, now);
        peakExhausted_ = std::max(peakExhausted_, exhausted_.level);
    }

    std::map<NodeId, uint32_t> inFlight_;
    /** Destinations at the window limit (level), integrated over
     *  time. */
    metrics::Integral exhausted_;
    uint64_t peakExhausted_ = 0;
};

} // namespace

std::unique_ptr<Policy>
makeWindowPolicy(const TransportConfig &cfg)
{
    return std::make_unique<WindowPolicy>(cfg);
}

} // namespace transport
} // namespace tcpni

#include "noc/mesh.hh"

#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"

namespace tcpni
{

MeshNetwork::MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                         unsigned height, unsigned buffer_depth,
                         unsigned cycles_per_word)
    : Network(std::move(name), eq, width * height), width_(width),
      height_(height), bufferDepth_(buffer_depth),
      cyclesPerWord_(cycles_per_word), routers_(width * height)
{
    initPartitions(ShardPlan::rows(width, height, 1), nullptr);
    registerMetrics();
}

MeshNetwork::MeshNetwork(std::string name, ShardedEngine &engine,
                         const ShardPlan &plan, unsigned buffer_depth,
                         unsigned cycles_per_word)
    : Network(std::move(name), engine.shard(0),
              plan.width * plan.height),
      width_(plan.width), height_(plan.height),
      bufferDepth_(buffer_depth), cyclesPerWord_(cycles_per_word),
      routers_(plan.width * plan.height)
{
    initPartitions(plan, &engine);
    registerMetrics();
}

void
MeshNetwork::initPartitions(const ShardPlan &plan, ShardedEngine *engine)
{
    tcpni_assert(width_ > 0 && height_ > 0);
    tcpni_assert(bufferDepth_ > 0);
    engine_ = engine;

    for (auto &router : routers_)
        for (auto &q : router.inq)
            q.reset(bufferDepth_);

    partOf_.resize(numNodes());
    parts_.reserve(plan.shards);
    for (unsigned s = 0; s < plan.shards; ++s) {
        const NodeId first = plan.firstRow(s) * width_;
        const NodeId end = plan.firstRow(s + 1) * width_;
        EventQueue &q = engine ? engine->shard(s) : eventq();
        parts_.push_back(
            std::make_unique<Partition>(*this, s, q, first, end));
        for (NodeId r = first; r < end; ++r)
            partOf_[r] = s;
    }
}

void
MeshNetwork::registerMetrics()
{
    metrics::Group &g = stats();
    g.addCounter("injected", &injected_,
                 "messages accepted into the fabric");
    g.addGauge("occupied", &occupied_,
               "messages resident in router queues");
    g.addHistogram("latency", &latency_, "inject to eject (cycles)");

    if (!metrics::registry() || numNodes() > maxLinkStatNodes)
        return;

    // Per-link utilization counters: these feed the congestion
    // heatmap, one series triple per (router, output port).
    static const char *const port_names[numPorts] = {
        "local", "north", "south", "east", "west"};
    static const char *const kinds[3] = {
        ".xfers", ".busy_cycles", ".blocked_cycles"};
    static const char *const descs[3] = {
        "messages forwarded over this link",
        "cycles this link spent transferring",
        "cycles a ready message waited for this link"};
    linkStats_ = true;
    linkXfers_.assign(numNodes() * numPorts, 0);
    linkBusy_.assign(numNodes() * numPorts, 0);
    linkBlocked_.assign(numNodes() * numPorts, 0);
    const uint64_t *counts[3] = {linkXfers_.data(), linkBusy_.data(),
                                 linkBlocked_.data()};
    // The group keeps pointers to these names: size the vector once.
    linkNames_.reserve(numNodes() * numPorts * 3);
    for (NodeId r = 0; r < numNodes(); ++r) {
        for (unsigned p = 0; p < numPorts; ++p) {
            const size_t li = r * numPorts + p;
            for (unsigned k = 0; k < 3; ++k) {
                linkNames_.push_back("node" + std::to_string(r) + "." +
                                     port_names[p] + kinds[k]);
                g.addCounter(linkNames_.back().c_str(), counts[k] + li,
                             descs[k]);
            }
        }
    }
}

MeshNetwork::Port
MeshNetwork::route(NodeId here, NodeId dest) const
{
    tcpni_assert(here < numNodes() && dest < numNodes());
    unsigned hx = here % width_, hy = here / width_;
    unsigned dx = dest % width_, dy = dest / width_;
    // Dimension-order: correct X first, then Y.
    if (dx > hx)
        return Port::east;
    if (dx < hx)
        return Port::west;
    if (dy > hy)
        return Port::south;
    if (dy < hy)
        return Port::north;
    return Port::local;
}

NodeId
MeshNetwork::neighbor(NodeId here, Port out) const
{
    unsigned hx = here % width_, hy = here / width_;
    switch (out) {
      case Port::east:
        tcpni_assert(hx + 1 < width_);
        return here + 1;
      case Port::west:
        tcpni_assert(hx > 0);
        return here - 1;
      case Port::south:
        tcpni_assert(hy + 1 < height_);
        return here + width_;
      case Port::north:
        tcpni_assert(hy > 0);
        return here - width_;
      default:
        panic("neighbor() of local port");
    }
}

MeshNetwork::Port
MeshNetwork::inputPortFor(Port out)
{
    // A message leaving my east port arrives on the neighbor's west
    // input, and so on.
    switch (out) {
      case Port::east: return Port::west;
      case Port::west: return Port::east;
      case Port::north: return Port::south;
      case Port::south: return Port::north;
      default: panic("inputPortFor(local)");
    }
}

size_t
MeshNetwork::queueDepth(NodeId node, Port port) const
{
    return routers_.at(node).inq[static_cast<unsigned>(port)].size();
}

bool
MeshNetwork::offer(NodeId src, const Message &msg)
{
    tcpni_assert(src < numNodes());
    if (msg.dest() >= numNodes()) {
        panic("message addressed to nonexistent node %u: %s", msg.dest(),
              msg.toString().c_str());
    }
    Partition &part = *parts_[partOf_[src]];
    const Tick now = part.eq->curTick();
    auto &q = routers_[src].inq[static_cast<unsigned>(Port::local)];
    if (q.size() >= bufferDepth_) {
        TCPNI_TRACE(NOC, "refuse injection at node %u (buffer full)",
                    src);
        return false;
    }
    TCPNI_TRACE(NOC, "accept id=%llu at node %u for node %u",
                static_cast<unsigned long long>(msg.traceId), src,
                msg.dest());
    land(src, Port::local, {msg, now, now, Port::local});
    ++injected_;
    ++occupied_;
    if (!part.tick.scheduled())
        part.eq->schedule(&part.tick, now + 1);
    return true;
}

bool
MeshNetwork::idle() const
{
    return occupied_ == 0;
}

void
MeshNetwork::land(NodeId r, Port in, InFlight m)
{
    RouterState &router = routers_[r];
    m.want = route(r, m.msg.dest());
    router.inq[static_cast<unsigned>(in)].push_back(std::move(m));
    ++router.resident;
    Partition &p = *parts_[partOf_[r]];
    ++p.occupied;
    const NodeId bit = r - p.firstRouter;
    p.active[bit / 64] |= uint64_t{1} << (bit % 64);
}

void
MeshNetwork::tick(unsigned part_idx)
{
    Partition &part = *parts_[part_idx];
    // The partition's own queue carries its clock; SimObject::curTick()
    // would read shard 0's, which may differ while another shard runs.
    const Tick now = part.eq->curTick();

    // Visit the active routers in ascending order, as a scan of every
    // router would (an empty router has nothing to do).  A bit set
    // during this tick belongs to a router whose messages all arrived
    // this cycle and cannot move again before the next one, so each
    // word is read once; a router it sets is visited next tick.
    for (size_t w = 0; w < part.active.size(); ++w) {
        for (uint64_t bits = part.active[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned b = std::countr_zero(bits);
            const NodeId r = part.firstRouter + w * 64 + b;
            visit(part, part_idx, r, now);
            if (routers_[r].resident == 0)
                part.active[w] &= ~(uint64_t{1} << b);
        }
    }

    if (part.occupied > 0)
        part.eq->schedule(&part.tick, now + 1);
}

void
MeshNetwork::visit(Partition &part, unsigned part_idx, NodeId r, Tick now)
{
    RouterState &router = routers_[r];
    // Bit p is set while a head that has not advanced this cycle wants
    // output p.  A move can expose a new ready head, so the mask grows
    // as outputs are served; a set bit for an output not yet served
    // always has its waiter.
    unsigned wanted = 0;
    auto note = [&](const FixedRing<InFlight> &q) {
        if (!q.empty() && q.front().movedAt != now)
            wanted |= 1u << static_cast<unsigned>(q.front().want);
    };
    for (const auto &q : router.inq)
        note(q);
    // Only messages that arrived this cycle: nothing here can move, and
    // the visit is not counted (so the count is shard-independent).
    if (wanted == 0)
        return;
    ++routerVisits_;

    // Consider each output port in a fixed order; each forwards at
    // most one message per cycle.
    static const Port outputs[] = {Port::local, Port::north, Port::south,
                                   Port::east, Port::west};
    for (Port out : outputs) {
        unsigned out_idx = static_cast<unsigned>(out);
        if (!(wanted & (1u << out_idx)))
            continue;
        // Link serialization: a long message holds the port.
        if (router.busyUntil[out_idx] > now) {
            if (linkStats_)
                ++linkBlocked_[r * numPorts + out_idx];
            continue;
        }
        bool moved_any = false;
        // Round-robin over input ports for this output.
        for (unsigned k = 0; k < numPorts; ++k) {
            unsigned in_idx = (router.rr[out_idx] + k) % numPorts;
            auto &q = router.inq[in_idx];
            if (q.empty())
                continue;
            InFlight &head = q.front();
            // A message that already advanced this cycle (a router
            // with a lower index pushed it downstream) must wait for
            // the next cycle: one hop per cycle.
            if (head.movedAt == now || head.want != out)
                continue;
            const size_t head_len = head.msg.length();

            bool moved = false;
            if (out == Port::local) {
                if (deliver(head.msg)) {
                    latency_.record(now - head.injectTick);
                    TCPNI_TRACE(NOC, "eject id=%llu at node %u "
                                "(%llu cycles in fabric)",
                                static_cast<unsigned long long>(
                                    head.msg.traceId), r,
                                static_cast<unsigned long long>(
                                    now - head.injectTick));
                    q.pop_front();
                    --router.resident;
                    --part.occupied;
                    --occupied_;
                    moved = true;
                }
            } else {
                NodeId dst = neighbor(r, out);
                const Port in = inputPortFor(out);
                if (routers_[dst].inq[static_cast<unsigned>(in)].size() <
                    bufferDepth_) {
                    InFlight m = std::move(head);
                    q.pop_front();
                    --router.resident;
                    --part.occupied;
                    m.movedAt = now;
                    if (auto *s = trace::sink())
                        s->record(m.msg.traceId, trace::Stage::hop, dst,
                                  now, m.msg.type);
                    TCPNI_TRACE(NOC, "hop id=%llu node %u -> %u",
                                static_cast<unsigned long long>(
                                    m.msg.traceId), r, dst);
                    land(dst, in, std::move(m));
                    const uint32_t pd = partOf_[dst];
                    if (pd != part_idx) {
                        // Cross-shard link push: the message is in the
                        // neighbour partition; wake its tick one link
                        // latency later.
                        Partition &dp = *parts_[pd];
                        if (!dp.tick.scheduled())
                            dp.eq->schedule(&dp.tick, now + 1);
                        if (engine_)
                            engine_->noteCrossShardPush();
                    }
                    moved = true;
                }
            }
            if (moved) {
                note(q);
                router.rr[out_idx] = (in_idx + 1) % numPorts;
                if (cyclesPerWord_ > 0) {
                    router.busyUntil[out_idx] =
                        now + static_cast<Tick>(cyclesPerWord_) * head_len;
                }
                if (linkStats_) {
                    const size_t li = r * numPorts + out_idx;
                    ++linkXfers_[li];
                    linkBusy_[li] +=
                        cyclesPerWord_ > 0
                            ? static_cast<uint64_t>(cyclesPerWord_) *
                                  head_len
                            : 1;
                }
                moved_any = true;
                break;
            }
        }
        // A ready head wanted this output but nothing moved: charge one
        // contention cycle to the link.
        if (linkStats_ && !moved_any)
            ++linkBlocked_[r * numPorts + out_idx];
    }
}

} // namespace tcpni

/**
 * @file
 * A 2D-mesh packet network with finite buffering and backpressure.
 *
 * The paper's machines (J-Machine, CM-5, *T) used low-dimensional
 * direct networks; we model a W x H mesh with dimension-order (XY)
 * routing.  Each router has five input queues (local inject, N, S, E,
 * W) of configurable depth.  Every cycle each output port forwards at
 * most one message from a competing input queue (round-robin
 * arbitration), and only if the downstream queue has space; ejection at
 * the destination is subject to the node sink accepting the message.
 * A full NI input queue therefore backs the network up exactly as
 * Section 2.1.1 describes, eventually refusing injections and filling
 * sender output queues.
 *
 * Messages are transferred whole (store-and-forward at message
 * granularity); a hop takes one cycle.  This is coarser than a
 * flit-level wormhole model but preserves the property the paper's
 * architecture interacts with: finite buffering with backpressure and
 * in-order delivery per source-destination pair.
 *
 * Event-driven tick: a tick visits only the routers that hold
 * messages.  Each partition keeps a bitmap of its non-empty routers
 * and walks the set bits in ascending router order, the order of a
 * full scan.  A router that gains its first message during a tick
 * holds only messages that moved this cycle, which the movedAt rule
 * (one hop per message per cycle) keeps in place until the next one,
 * so visiting it then gives exactly the full scan's result.  A
 * message's output port is routed once, when it lands on a router,
 * and cached with it.
 *
 * Sharding: the mesh can be split into row-contiguous partitions, one
 * per shard of a ShardedEngine.  Each partition ticks its own active
 * routers on its own event queue; a hop whose downstream router
 * belongs to a different partition is a cross-shard link push -- it
 * lands in the neighbour partition's buffer and bitmap, wakes that
 * partition's tick event at now + 1, and notifies the engine so any
 * solo lookahead window collapses.  Router buffers are fixed-capacity
 * rings, so the forwarding path performs no heap allocation.
 */

#ifndef TCPNI_NOC_MESH_HH
#define TCPNI_NOC_MESH_HH

#include <memory>
#include <vector>

#include "common/ring.hh"
#include "metrics/metrics.hh"
#include "noc/network.hh"
#include "sim/shards.hh"

namespace tcpni
{

/** A W x H mesh network. */
class MeshNetwork : public Network
{
  public:
    /**
     * @param width,height    mesh dimensions; node n is at
     *                        (n % width, n / width)
     * @param buffer_depth    capacity of each router input queue
     * @param cycles_per_word link serialization: a message occupies
     *                        the link it traverses for
     *                        length * cycles_per_word cycles (0 =
     *                        message-granularity transfers, the
     *                        default).  With serialization on, long
     *                        SCROLL-OUT messages hold links longer,
     *                        the way multi-flit wormhole packets do.
     */
    MeshNetwork(std::string name, EventQueue &eq, unsigned width,
                unsigned height, unsigned buffer_depth = 4,
                unsigned cycles_per_word = 0);

    /**
     * Sharded construction: one row-contiguous partition per shard of
     * @p engine (per @p plan), each ticking on its own event queue.
     * With plan.shards == 1 this is exactly the single-queue mesh.
     */
    MeshNetwork(std::string name, ShardedEngine &engine,
                const ShardPlan &plan, unsigned buffer_depth = 4,
                unsigned cycles_per_word = 0);

    bool offer(NodeId src, const Message &msg) override;
    bool idle() const override;

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    /** Next-hop port (exposed for routing unit tests). */
    enum class Port : uint8_t { local = 0, north, south, east, west };
    Port route(NodeId here, NodeId dest) const;

    /** Occupancy of a router input queue (for tests). */
    size_t queueDepth(NodeId node, Port port) const;

    uint64_t injected() const { return injected_; }
    const metrics::Histogram &latencyDist() const { return latency_; }

    /** Router visits made by tick(), all partitions: one per router
     *  per cycle in which it holds a message that can move.  The
     *  mesh's work, independent of the shard count. */
    uint64_t routerVisits() const { return routerVisits_; }

  private:
    static constexpr unsigned numPorts = 5;

    /** Per-link metric series are dropped above this size: a 64k-node
     *  mesh would intern ~a million series names for a heatmap nobody
     *  can render. */
    static constexpr unsigned maxLinkStatNodes = 4096;

    struct InFlight
    {
        Message msg;
        Tick injectTick;    //!< when the message entered the fabric
        Tick movedAt;       //!< last cycle this message advanced a hop
        Port want;          //!< output port at the current router
    };

    struct RouterState
    {
        FixedRing<InFlight> inq[numPorts];
        // Round-robin arbitration pointer per output port.
        unsigned rr[numPorts] = {0, 0, 0, 0, 0};
        // Link serialization: the output port is busy until this tick.
        Tick busyUntil[numPorts] = {0, 0, 0, 0, 0};
        // Messages in inq[], all ports.
        unsigned resident = 0;
    };

    class TickEvent : public Event
    {
      public:
        TickEvent(MeshNetwork &net, unsigned part)
            : Event(networkPri), net_(net), part_(part)
        {}
        void process() override { net_.tick(part_); }
        std::string name() const override { return "mesh-tick"; }

      private:
        MeshNetwork &net_;
        unsigned part_;
    };

    /** One row-contiguous shard of the mesh: routers
     *  [first, end) ticking on their own queue. */
    struct Partition
    {
        Partition(MeshNetwork &net, unsigned idx, EventQueue &q,
                  NodeId first, NodeId end)
            : tick(net, idx), eq(&q), firstRouter(first),
              active((end - first + 63) / 64, 0)
        {}

        TickEvent tick;
        EventQueue *eq;
        NodeId firstRouter;
        uint64_t occupied = 0; //!< messages buffered in this partition
        /** Bit r - firstRouter is set while router r holds messages. */
        std::vector<uint64_t> active;
    };

    void initPartitions(const ShardPlan &plan, ShardedEngine *engine);
    void registerMetrics();

    void tick(unsigned part);
    /** One router's arbitration for this cycle (the body of tick). */
    void visit(Partition &part, unsigned part_idx, NodeId r, Tick now);
    /** Buffer @p m in router @p r's input @p in, routing it there. */
    void land(NodeId r, Port in, InFlight m);
    NodeId neighbor(NodeId here, Port out) const;
    static Port inputPortFor(Port out);

    unsigned width_, height_, bufferDepth_;
    unsigned cyclesPerWord_;
    std::vector<RouterState> routers_;

    std::vector<std::unique_ptr<Partition>> parts_;
    /** Partition index of each router. */
    std::vector<uint32_t> partOf_;
    /** Non-null only for the sharded constructor. */
    ShardedEngine *engine_ = nullptr;

    uint64_t injected_ = 0;
    uint64_t occupied_ = 0;   //!< injected, not yet ejected
    uint64_t routerVisits_ = 0;
    metrics::Histogram latency_;

    /** @{ Per-link accounting (index router * numPorts + port),
     *     maintained only when telemetry is on -- the tick loop is
     *     the simulator's hottest path. */
    bool linkStats_ = false;
    std::vector<uint64_t> linkXfers_;    //!< messages moved per link
    std::vector<uint64_t> linkBusy_;     //!< busy (flit-)cycles
    std::vector<uint64_t> linkBlocked_;  //!< cycles a waiter stalled
    /** "nodeR.port.kind" names of the per-link series. */
    std::vector<std::string> linkNames_;
    /** @} */
};

} // namespace tcpni

#endif // TCPNI_NOC_MESH_HH

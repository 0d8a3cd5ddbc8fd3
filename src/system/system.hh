/**
 * @file
 * The full-system harness: a mesh of nodes, each with a processor, a
 * network interface (any of the six models), and local memory.
 *
 * This is the configuration the examples and integration tests run:
 * real assembled handler programs executing on every node, messages
 * crossing a backpressured mesh, and the NI flow-control machinery
 * (queue thresholds, stall-on-full, privileged escrow) exercised
 * end-to-end.
 */

#ifndef TCPNI_SYSTEM_SYSTEM_HH
#define TCPNI_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "mem/memory.hh"
#include "ni/network_interface.hh"
#include "noc/mesh.hh"
#include "sim/shards.hh"
#include "transport/fabric.hh"

namespace tcpni
{
namespace sys
{

/** Per-node configuration. */
struct NodeConfig
{
    Addr memBytes = 1 << 20;
    ni::NiConfig ni;
    CpuConfig cpu;
    HpuConfig hpu;      //!< used only by On-NI placements
};

/**
 * One node: memory + NI + CPU -- plus an HPU when the node's
 * placement executes handlers on the interface itself (a mesh can mix
 * On-NI server nodes with plain clients; heterogeneous NodeConfig
 * vectors are first-class).
 */
class Node
{
  public:
    Node(const std::string &name, EventQueue &eq, NodeId id,
         Network &net, const NodeConfig &cfg);

    Memory &mem() { return *mem_; }
    ni::NetworkInterface &ni() { return *ni_; }
    Cpu &cpu() { return *cpu_; }
    NodeId id() const { return id_; }

    /** The node's HPU; null unless the placement is On-NI. */
    Hpu *hpu() { return hpu_.get(); }

    /** The node's transport policy; null under the default "naive"
     *  (the NI output path is then the paper's, untouched). */
    transport::Policy *transportPolicy() { return tpolicy_.get(); }

    /**
     * Load a program and prepare the node's handler engine to run
     * from @p entry: the CPU normally, the HPU on On-NI nodes (where
     * the handler loop belongs to the interface; use bootHost() for
     * the CPU-side program).
     */
    void boot(const isa::Program &prog, Addr entry);

    /** Load a program onto the host CPU explicitly (On-NI nodes run
     *  the proxy service loop -- or anything else -- here). */
    void bootHost(const isa::Program &prog, Addr entry);

  private:
    NodeId id_;
    std::unique_ptr<Memory> mem_;
    std::unique_ptr<ni::NetworkInterface> ni_;
    std::unique_ptr<transport::Policy> tpolicy_;
    std::unique_ptr<Cpu> cpu_;
    std::unique_ptr<Hpu> hpu_;
};

/**
 * A width x height mesh machine.
 *
 * The machine is driven by a ShardedEngine: with the default single
 * shard it behaves bit-identically to the classic one-global-queue
 * simulator; with S > 1 the mesh rows are banded into S partitions
 * (ShardPlan::rows), every node's components are constructed against
 * their shard's event queue, and the engine advances the shards under
 * conservative lookahead.  Sharded runs produce the same final
 * statistics as single-shard runs (see the shard fuzz suite).
 */
class System
{
  public:
    System(std::string name, unsigned width, unsigned height,
           const NodeConfig &cfg,
           EventQueue::Impl eq_impl = EventQueue::Impl::calendar);

    /** Same configuration on every node except where overridden.
     *  @p eq_impl selects the event-kernel structure (the calendar
     *  queue by default; the binary heap for A/B testing). */
    System(std::string name, unsigned width, unsigned height,
           const std::vector<NodeConfig> &cfgs,
           EventQueue::Impl eq_impl = EventQueue::Impl::calendar);

    /** Sharded construction: @p shards event queues (clamped to
     *  [1, height]) advanced by the engine's lookahead scheduler. */
    System(std::string name, unsigned width, unsigned height,
           const std::vector<NodeConfig> &cfgs, unsigned shards,
           EventQueue::Impl eq_impl = EventQueue::Impl::calendar);

    /** Snapshots the telemetry of every shard queue into this
     *  thread's metrics registry, if one is installed. */
    ~System();

    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

    Node &node(NodeId id) { return *nodes_.at(id); }

    /** Shard 0's queue: the only queue of an unsharded machine (kept
     *  for harnesses that schedule their own events; sharded
     *  harnesses must use queueForNode()). */
    EventQueue &eventq() { return engine_.shard(0); }

    ShardedEngine &engine() { return engine_; }
    MeshNetwork &mesh() { return *mesh_; }

    /** Tick of the last processed event, across all shards. */
    Tick curTick() const { return engine_.curTick(); }

    unsigned
    shardOfNode(NodeId id) const
    {
        return plan_.shardOfNode(id);
    }

    /** The event queue @p id's components live on; harness events
     *  touching node @p id must be scheduled here. */
    EventQueue &
    queueForNode(NodeId id)
    {
        return engine_.shard(plan_.shardOfNode(id));
    }

    /**
     * Run until every booted CPU halts and the network drains, or
     * @p max_ticks elapse.  @return true if the machine quiesced.
     */
    bool run(Tick max_ticks = 10'000'000);

    /** Dump the NI, transport-policy and mesh series
     *  (gem5-style name/value lines; see metrics::Group::dump). */
    void dumpStats(std::ostream &os) const;

    /** Dump the same series as machine-readable JSON:
     *  {"ticks":N,"groups":[{"name":...,"stats":{...}}, ...]}. */
    void dumpStatsJson(std::ostream &os) const;

  private:
    /** Call @p f on each dumped group: every node's NI and transport
     *  policy, then the mesh. */
    template <typename F>
    void
    forEachDumpedGroup(F f) const
    {
        for (const auto &n : nodes_) {
            f(n->ni().stats());
            if (auto *p = n->transportPolicy())
                f(p->stats());
        }
        f(mesh_->stats());
    }

    ShardPlan plan_;
    ShardedEngine engine_;
    std::unique_ptr<MeshNetwork> mesh_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<transport::CreditFabric> creditFabric_;
    std::vector<bool> booted_;
};

} // namespace sys
} // namespace tcpni

#endif // TCPNI_SYSTEM_SYSTEM_HH

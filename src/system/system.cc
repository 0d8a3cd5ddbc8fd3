#include "system/system.hh"

#include "common/logging.hh"
#include "ni/placement_policy.hh"
#include "noc/message.hh"

namespace tcpni
{
namespace sys
{

Node::Node(const std::string &name, EventQueue &eq, NodeId id,
           Network &net, const NodeConfig &cfg)
    : id_(id), machineNodes_(net.numNodes())
{
    cfg.ni.validate();
    mem_ = std::make_unique<Memory>(cfg.memBytes);
    ni_ = std::make_unique<ni::NetworkInterface>(name + ".ni", eq, id,
                                                 net, cfg.ni);
    if (cfg.ni.transport.policy != "naive") {
        tpolicy_ = transport::makePolicy(cfg.ni.transport);
        tpolicy_->stats().attach(name + ".transport", eq);
        ni_->setTransportPolicy(tpolicy_.get());
    }
    if (cfg.ni.policy().handlersOnNi()) {
        hpu_ = std::make_unique<Hpu>(name + ".hpu", eq, *mem_, *ni_,
                                     cfg.hpu);
    }
    // The CPU comes last so its interrupt sink is the one installed
    // (the HPU registers none: it *is* the reception path).
    cpu_ = std::make_unique<Cpu>(name + ".cpu", eq, *mem_, ni_.get(),
                                 cfg.cpu);
}

void
Node::checkAddressable() const
{
    // A global word names its node in nodeBits bits, so a program on a
    // larger machine would address a wrapped node id.
    constexpr unsigned limit = 1u << nodeBits;
    if (machineNodes_ > limit) {
        fatal("cannot boot a program on a %u-node machine: a global "
              "word carries %u node-id bits, so a program-running "
              "machine has at most %u nodes", machineNodes_, nodeBits,
              limit);
    }
}

void
Node::boot(const isa::Program &prog, Addr entry)
{
    checkAddressable();
    if (hpu_) {
        hpu_->loadProgram(prog);
        hpu_->reset(entry);
        hpu_->start();
        return;
    }
    cpu_->loadProgram(prog);
    cpu_->reset(entry);
    cpu_->start();
}

void
Node::bootHost(const isa::Program &prog, Addr entry)
{
    checkAddressable();
    cpu_->loadProgram(prog);
    cpu_->reset(entry);
    cpu_->start();
}

System::System(std::string name, unsigned width, unsigned height,
               const NodeConfig &cfg, EventQueue::Impl eq_impl)
    : System(std::move(name), width, height,
             std::vector<NodeConfig>(width * height, cfg), eq_impl)
{
}

System::System(std::string name, unsigned width, unsigned height,
               const std::vector<NodeConfig> &cfgs,
               EventQueue::Impl eq_impl)
    : engine_(eq_impl)
{
    tcpni_assert(cfgs.size() == static_cast<size_t>(width) * height);
    mesh_ = std::make_unique<MeshNetwork>(name + ".mesh", engine_, width,
                                          height);
    for (NodeId id = 0; id < width * height; ++id) {
        nodes_.push_back(std::make_unique<Node>(
            name + ".node" + std::to_string(id), engine_, id, *mesh_,
            cfgs[id]));
    }
    booted_.assign(nodes_.size(), false);

    // Wire the credit-return fabric when any node runs a
    // credit-consuming transport policy.  Every interface reports
    // deliveries to the fabric (it ignores senders without a slot), so
    // a mesh can mix windowed and unwindowed nodes freely.
    bool any_credits = false;
    for (auto &n : nodes_) {
        auto *p = n->transportPolicy();
        if (p && p->wantsCredits())
            any_credits = true;
    }
    if (any_credits) {
        creditFabric_ =
            std::make_unique<transport::CreditFabric>(engine_);
        for (auto &n : nodes_) {
            auto *p = n->transportPolicy();
            if (p && p->wantsCredits())
                creditFabric_->addSender(n->id(), p);
            n->ni().setCreditFabric(creditFabric_.get());
        }
    }
}

System::~System()
{
    // Every component is still alive here: the one point where the
    // task's registry (if any) copies the final values.
    metrics::snapshot(engine_, engine_.curTick());
}

bool
System::run(Tick max_ticks)
{
    // Run until the event queue empties (all CPUs halted and the
    // fabric drained -- halted CPUs schedule no further events) or the
    // deadline passes (e.g. a server is still polling).
    Tick deadline = engine_.curTick() + max_ticks;
    engine_.run(deadline);

    bool quiesced = true;
    for (auto &n : nodes_) {
        if (n->cpu().instructions() > 0 && !n->cpu().halted())
            quiesced = false;
        if (n->hpu() && n->hpu()->instructions() > 0 &&
            !n->hpu()->halted())
            quiesced = false;
        if (n->ni().outputQueueLen() > 0)
            quiesced = false;
    }
    if (!mesh_->idle())
        quiesced = false;
    return quiesced;
}

void
System::dumpStats(std::ostream &os) const
{
    forEachDumpedGroup([&](const metrics::Group &g) {
        g.dump(os, engine_.curTick());
    });
}

void
System::dumpStatsJson(std::ostream &os) const
{
    os << "{\"ticks\":" << engine_.curTick() << ",\"groups\":[";
    bool first = true;
    forEachDumpedGroup([&](const metrics::Group &g) {
        os << (first ? "\n" : ",\n");
        first = false;
        g.dumpJson(os, engine_.curTick());
    });
    os << "\n]}\n";
}

} // namespace sys
} // namespace tcpni

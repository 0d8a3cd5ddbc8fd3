/**
 * @file
 * The host benchmark driver: builds each workload in-process through
 * the public tcpni APIs (sys::System, sys::TrafficGen,
 * sys::TreeTopology, msg::assembleKernel, ni::Model, System::run),
 * repeats it for a fixed host-time budget on one thread with the
 * default single-shard engine, checks every output, and prints the
 * end-to-end metrics (untraced) or the per-layer split (one extra run
 * under the evprof hook of sim/event_queue.hh) as one JSON line.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *   perfbench --self-test [--seed N]
 *
 * Every timed region is measured here, around calls into the library;
 * nothing inside src/ is instrumented beyond the existing evprof hook.
 * perfbench/README.md defines each metric and why each workload is in
 * the set.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "cost/table1.hh"
#include "metrics/histogram.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/config.hh"
#include "ni/model_registry.hh"
#include "ni/ni_regs.hh"
#include "ni/placement_policy.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "system/traffic.hh"
#include "system/tree.hh"

namespace tcpni
{
namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Simulation outputs of one repetition.  All exact: equal seeds give
 *  equal values, traced or not. */
struct Counts
{
    uint64_t ticks = 0;        //!< quiesce tick, summed over machines
    uint64_t p99 = 0;          //!< p99 message latency (ticks)
    uint64_t delivered = 0;    //!< messages accepted by an NI
    uint64_t events = 0;       //!< EventQueue::numProcessed()
    uint64_t nocMsgs = 0;      //!< MeshNetwork::injected()
    uint64_t cpuInsts = 0;
    uint64_t cpuStall = 0;
    uint64_t niSent = 0;
    uint64_t niRefused = 0;    //!< from System::dumpStatsJson
    uint64_t trafficSent = 0;
    uint64_t stallRetries = 0;
    int64_t holds = 0;
    int64_t admits = 0;

    bool operator==(const Counts &) const = default;
};

/** Host seconds of one repetition, split by the driver's own calls. */
struct Times
{
    double wall = 0;      //!< the whole repetition
    double setup = 0;     //!< everything before the first run()
    double run = 0;       //!< System::run
    double build = 0;     //!< System constructor
    double boot = 0;      //!< boot, frame init, generator start
    double assemble = 0;  //!< msg::assembleKernel
    double dump = 0;      //!< System::dumpStatsJson
};

/** One repetition of a workload. */
struct Rep
{
    Counts counts;
    Times times;
    /** Host seconds of the repetition's consecutive laps: the slices
     *  of its System::run calls (runLaps) and the stretches between
     *  them (otherLaps), in order.  Together they cover the whole
     *  repetition, and how many there are depends on the seed only. */
    std::vector<double> runLaps, otherLaps;
    Clock::time_point mark = Clock::now();
    Tick sliceTicks = 1;  //!< simulated ticks per run lap
    metrics::Histogram latency;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    evprof::Profile profile;   //!< traced repetitions only

    /** Record one correctness check; @p where names the machine and
     *  point, built only when the check fails. */
    template <class Where>
    void
    check(bool ok, Where &&where)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 16)
            failures.push_back(where());
    }

    /** End the current lap and file its host seconds in @p into. */
    void
    lap(std::vector<double> &into)
    {
        auto now = Clock::now();
        into.push_back(std::chrono::duration<double>(now - mark).count());
        mark = now;
    }

    /** Run @p f as a lap of its own and add its host seconds to
     *  @p acc. */
    template <class F>
    auto
    timed(double &acc, F &&f)
    {
        lap(otherLaps);
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            lap(otherLaps);
            acc += otherLaps.back();
        } else {
            auto v = f();
            lap(otherLaps);
            acc += otherLaps.back();
            return v;
        }
    }
};

/** splitmix64: derives independent input streams from the seed. */
uint64_t
mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Sum of every scalar @p key in a dumpStatsJson document. */
uint64_t
sumStat(const std::string &json, const char *key)
{
    const std::string pat = std::string("\"") + key + "\":";
    uint64_t sum = 0;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + pat.size()))
        sum += std::strtoull(json.c_str() + at + pat.size(), nullptr, 10);
    return sum;
}

/**
 * m.run(@p max_ticks), with the engine advanced in slices of
 * r.sliceTicks and each slice timed as one lap of @p r.  The events and
 * their order are those of a single run() call: each slice processes
 * the events up to its end tick, and the closing run(0) only reports
 * whether the machine quiesced.
 */
bool
runSliced(sys::System &m, Tick max_ticks, Rep &r)
{
    r.lap(r.otherLaps);
    const Tick deadline = m.curTick() + max_ticks;
    for (Tick t = m.curTick(); t < deadline && !m.engine().empty();) {
        t = std::min(deadline, t + r.sliceTicks);
        m.engine().run(t);
        r.lap(r.runLaps);
        r.times.run += r.runLaps.back();
    }
    return m.run(0);
}

/**
 * Fold one finished machine into @p r: quiesce tick, event and
 * component counters, and the statistics dump.  @p mesh_latency adds
 * MeshNetwork::latencyDist() to the repetition's latency histogram.
 */
void
harvest(sys::System &m, Rep &r, bool mesh_latency)
{
    Counts &c = r.counts;
    c.ticks += m.curTick();
    c.events += m.engine().numProcessed();
    c.nocMsgs += m.mesh().injected();
    if (mesh_latency)
        r.latency.merge(m.mesh().latencyDist());
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        sys::Node &node = m.node(n);
        c.delivered += node.ni().numReceived();
        c.niSent += node.ni().numSent();
        c.cpuInsts += node.cpu().instructions();
        c.cpuStall += node.cpu().stallCycles();
        if (auto *p = node.transportPolicy()) {
            c.holds += p->holds();
            c.admits += p->admits();
        }
    }
    std::string dump = r.timed(r.times.dump, [&] {
        std::ostringstream os;
        m.dumpStatsJson(os);
        return os.str();
    });
    c.niRefused += sumStat(dump, "refused");
}

// ------------------------------------------------------------------
// mesh-hotspot / mesh-saturated: closed-loop TrafficGen meshes

struct MeshSpec
{
    unsigned width, height;
    uint64_t msgsPerNode;
    Tick meanGap;
    unsigned hotspotPermille;
};

void
runMesh(const char *name, const MeshSpec &spec, uint64_t seed, Rep &r)
{
    const unsigned nodes = spec.width * spec.height;
    sys::NodeConfig cfg;
    // Nothing executes; node memory only has to exist.
    cfg.memBytes = 4096;
    cfg.ni.inputQueueDepth = 8;
    cfg.ni.outputQueueDepth = 8;
    cfg.ni.inputThreshold = 6;
    cfg.ni.outputThreshold = 6;

    sys::TrafficConfig tc;
    tc.messages = spec.msgsPerNode;
    tc.meanGap = spec.meanGap;
    tc.hotspotPermille = spec.hotspotPermille;
    tc.seed = mix(seed);

    auto t0 = Clock::now();
    auto machine = r.timed(r.times.build, [&] {
        return std::make_unique<sys::System>(name, spec.width,
                                             spec.height, cfg);
    });
    std::vector<std::unique_ptr<sys::TrafficGen>> gens;
    r.timed(r.times.boot, [&] {
        gens.reserve(nodes);
        for (NodeId n = 0; n < nodes; ++n)
            gens.push_back(
                std::make_unique<sys::TrafficGen>(*machine, n, tc));
        for (auto &g : gens)
            g->start();
    });
    r.times.setup += secondsSince(t0);

    bool quiesced = runSliced(*machine, 50'000'000, r);

    r.check(quiesced, [&] {
        return std::string(name) + ": run() did not quiesce by tick " +
               std::to_string(machine->curTick());
    });
    uint64_t sent = 0, drained = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        const sys::TrafficGen &g = *gens[n];
        sent += g.sent();
        drained += g.drained();
        r.counts.trafficSent += g.sent();
        r.counts.stallRetries += g.stallRetries();
        r.check(g.sent() == spec.msgsPerNode, [&] {
            return std::string(name) + ": node " + std::to_string(n) +
                   " sent " + std::to_string(g.sent()) + " of " +
                   std::to_string(spec.msgsPerNode);
        });
    }
    r.check(drained == sent, [&] {
        return std::string(name) + ": drained " +
               std::to_string(drained) + " != sent " +
               std::to_string(sent);
    });
    harvest(*machine, r, true);
}

// ------------------------------------------------------------------
// collective: barrier / broadcast / allreduce over a combining tree

enum class Phase { barrier, bcast, allreduce };

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::barrier:   return "barrier";
      case Phase::bcast:     return "bcast";
      case Phase::allreduce: return "allreduce";
    }
    return "?";
}

constexpr unsigned collArity = 4;

/** Driver-side completion slot and completion-sum bank (node 0). */
constexpr Word notifyAddr = 0x100;
constexpr Addr sumAddr = 0x200;

/** The seed-derived inputs of the collective workload. */
struct CollInputs
{
    std::vector<NodeId> order;  //!< participant injection order
    std::vector<Word> value;    //!< allreduce contribution, per node
    Word bcastValue = 0;
};

CollInputs
collInputs(uint64_t seed, unsigned nodes)
{
    CollInputs in;
    Random rng(mix(seed ^ 0xC011EC7ULL));
    in.order.resize(nodes - 1);
    std::iota(in.order.begin(), in.order.end(), NodeId(1));
    for (size_t i = in.order.size(); i > 1; --i)
        std::swap(in.order[i - 1], in.order[rng.uniform(0, i - 1)]);
    in.value.assign(nodes, 0);
    for (NodeId n = 1; n < nodes; ++n)
        in.value[n] = rng.uniform(1, 4095);
    in.bcastValue = rng.uniform(1, 4095);
    return in;
}

/**
 * The node-0 driver kernel: inject every participant's arrival in the
 * seed's order (BARUP or REDUCE at each participant's own frame, one
 * MCAST at the root for broadcast), collect one completion SEND per
 * participant summing word 2, bank the sum, STOP every participant,
 * halt.  The same protocol as bench/exp_collective.cc, with the
 * injection unrolled so the order and values are inputs.
 */
std::string
collDriverProgram(const CollInputs &in, unsigned hops, Phase phase,
                  bool basic, NodeId root)
{
    const unsigned participants = unsigned(in.order.size());
    auto send = [&](const char *type) {
        return basic ? std::string("    addi o4, r0, ") + type +
                           "\n    send\n"
                     : std::string("    send ") + type + "\n";
    };
    auto head = [&](NodeId n) {
        return "    li   r11, " +
               std::to_string(sys::TreeTopology::frameFp(n)) +
               "\n    add  o0, r11, r0\n    add  o1, r6, r0\n";
    };

    std::ostringstream os;
    os << "    .org 0x1000\n"
       << "    .region setup\n"
       << "entry:\n"
       << "    li   r12, (1 << NODE_SHIFT)\n"
       << "    addi r6, r0, " << hops << "\n"
       << "    addi r13, r0, CO_ADD\n"
       << "    add  r4, r0, r0\n"
       << "    .region inject\n";
    switch (phase) {
      case Phase::barrier:
        for (NodeId n : in.order)
            os << head(n) << send("T_BARUP");
        break;
      case Phase::bcast:
        os << head(root) << "    li   r5, " << in.bcastValue << "\n"
           << "    add  o2, r5, r0\n" << send("T_MCAST");
        break;
      case Phase::allreduce:
        for (NodeId n : in.order) {
            os << head(n) << "    li   r5, " << in.value[n] << "\n"
               << "    add  o2, r5, r0\n"
               << "    add  o3, r13, r0\n" << send("T_REDUCE");
        }
        break;
    }
    os << "    .region collect\n"
       << "    li   r9, " << participants << "\n"
       << "collect:\n"
       << "    and  r8, status, r7\n"
       << "    beqz r8, collect\n"
       << "    nop\n"
       << "    add  r4, r4, i2\n"
       << "    next\n"
       << "    addi r9, r9, -1\n"
       << "    bnez r9, collect\n"
       << "    nop\n"
       << "    sti  r4, r0, " << sumAddr << "\n"
       << "    .region teardown\n"
       << "    li   r11, (1 << NODE_SHIFT)\n"
       << "    li   r1, " << participants << "\n"
       << "stops:\n"
       << "    add  o0, r11, r0\n"
       << "    addi o4, r0, T_STOP\n"
       << "    send 15\n"
       << "    add  r11, r11, r12\n"
       << "    addi r1, r1, -1\n"
       << "    bnez r1, stops\n"
       << "    nop\n"
       << "    halt\n";
    return os.str();
}

/** The six paper models plus the On-NI optimized model (constructible
 *  in every build; only its registry entry is build-gated). */
std::vector<ni::Model>
collModels()
{
    std::vector<ni::Model> models(ni::paperModels().begin(),
                                  ni::paperModels().end());
    models.push_back(ni::Model{ni::Placement::onNi, true});
    return models;
}

void
runCollectivePhase(unsigned width, unsigned height,
                   const ni::Model &model, Phase phase,
                   const CollInputs &in, Rep &r)
{
    const unsigned nodes = width * height;
    auto t0 = Clock::now();
    sys::TreeTopology tree(nodes, collArity);
    const unsigned participants = tree.participants();
    const unsigned hops = 2 * tree.depth() + 4;

    sys::NodeConfig driver_cfg;
    driver_cfg.memBytes = 1 << 16;
    driver_cfg.ni = ni::Model{ni::Placement::registerFile, true}.config();
    sys::NodeConfig part_cfg;
    part_cfg.memBytes = 1 << 16;
    part_cfg.ni = model.config();
    std::vector<sys::NodeConfig> cfgs(nodes, part_cfg);
    cfgs[0] = driver_cfg;

    auto machine = r.timed(r.times.build, [&] {
        return std::make_unique<sys::System>("coll", width, height,
                                             cfgs);
    });
    const bool on_ni = model.policy().handlersOnNi();
    isa::Program server, host, driver;
    r.timed(r.times.assemble, [&] {
        server = msg::assembleKernel(
            msg::handlerProgram(model, false, false, true));
        if (on_ni)
            host = msg::assembleKernel(msg::hostProxyProgram(model));
        driver = msg::assembleKernel(collDriverProgram(
            in, hops, phase, !model.optimized, tree.root()));
    });
    r.timed(r.times.boot, [&] {
        for (NodeId n = 1; n < nodes; ++n) {
            machine->node(n).boot(server, server.addrOf("entry"));
            machine->node(n).mem().write(msg::allocPtrAddr, 0x8000);
            if (on_ni)
                machine->node(n).bootHost(host, host.addrOf("entry"));
        }
        tree.initFrames(*machine, globalWord(0, notifyAddr),
                        msg::collOpAdd);
        machine->node(0).boot(driver, driver.addrOf("entry"));
        machine->node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);
    });
    r.times.setup += secondsSince(t0);

    bool quiesced = runSliced(*machine, 4'000'000, r);

    // The scalar oracle, as in bench/exp_collective.cc.
    Word expected = 0;
    if (phase == Phase::bcast)
        expected = in.bcastValue;
    if (phase == Phase::allreduce) {
        Word acc = msg::collOpIdentity(msg::collOpAdd);
        for (NodeId n = 1; n < nodes; ++n)
            acc = msg::collOpApply(msg::collOpAdd, acc, in.value[n]);
        expected = acc;
    }
    auto where = [&](const std::string &what) {
        return "collective/" + model.shortName() + "/" +
               phaseName(phase) + ": " + what;
    };
    r.check(quiesced, [&] { return where("run() did not quiesce"); });
    for (NodeId n = 1; n < nodes; ++n) {
        Memory &mem = machine->node(n).mem();
        Word done = mem.read(msg::collFrameAddr + msg::cfDoneOffset);
        r.check(done == 1, [&] {
            return where("node " + std::to_string(n) + " completed " +
                         std::to_string(done) + " times");
        });
        if (phase == Phase::barrier)
            continue;
        Word v = mem.read(msg::collFrameAddr + msg::cfValueOffset);
        r.check(v == expected, [&] {
            return where("node " + std::to_string(n) + " value " +
                         std::to_string(v) + " != oracle " +
                         std::to_string(expected));
        });
    }
    if (phase != Phase::barrier) {
        Word sum = machine->node(0).mem().read(sumAddr);
        r.check(sum == Word(expected * participants), [&] {
            return where("completion sum " + std::to_string(sum) +
                         " != oracle " +
                         std::to_string(Word(expected * participants)));
        });
    }
    harvest(*machine, r, true);
}

void
runCollective(unsigned width, unsigned height, uint64_t seed, Rep &r)
{
    const CollInputs in = collInputs(seed, width * height);
    for (const ni::Model &model : collModels())
        for (Phase p : {Phase::barrier, Phase::bcast, Phase::allreduce})
            runCollectivePhase(width, height, model, p, in, r);
}

// ------------------------------------------------------------------
// serve-incast: open-loop Poisson incast under the transport policies

constexpr unsigned serveWidth = 8, serveHeight = 8;

void
runServe(uint64_t msgs, uint64_t seed, Rep &r)
{
    const unsigned nodes = serveWidth * serveHeight;
    const unsigned clients = nodes - 1;
    const std::vector<ni::Model> models(ni::paperModels().begin(),
                                        ni::paperModels().begin() + 3);
    uint64_t machines = 0;
    for (const ni::Model &model : models) {
        // The measured READ service time of this placement (Table-1
        // harness), as bench/exp_serve.cc: the server's capacity is
        // the placement's own.  Its simulations are set-up, so they
        // stay out of the traced profile.
        auto t0 = Clock::now();
        const bool traced = evprof::enabled();
        evprof::setEnabled(false);
        cost::ProcCost pc = cost::Table1Harness(model).processingCost(
            cost::ProcCase::read);
        evprof::setEnabled(traced);
        Tick svc = std::max<Tick>(
            1, Tick(std::llround(pc.dispatching + pc.processing)));
        r.times.setup += secondsSince(t0);
        // Offered load ~80% of capacity: C / gap = 0.8 / svc.  At 90%
        // the pooled p99 swung by a quarter from seed to seed
        // (README.md, "Noise").
        const Tick gap = (Tick(clients) * svc * 5 + 3) / 4;

        for (const char *policy : {"naive", "window", "paced"}) {
            t0 = Clock::now();
            sys::NodeConfig cfg;
            cfg.memBytes = 4096;
            cfg.ni = model.config();
            cfg.ni.transport.policy = policy;
            auto machine = r.timed(r.times.build, [&] {
                return std::make_unique<sys::System>(
                    "serve", serveWidth, serveHeight, cfg);
            });
            sys::TrafficConfig tc;
            tc.messages = msgs;
            // Every machine draws its own arrival schedule: the pooled
            // p99 then averages nine independent sample paths, which
            // steadies it from seed to seed.
            tc.seed = mix(seed ^ 0x5E47EULL) + machines++;
            tc.arrival = sys::Arrival::poisson;
            tc.pattern = sys::Pattern::incast;
            tc.openLoop = true;
            tc.serviceTime = svc;
            tc.meanGap = gap;
            std::vector<std::unique_ptr<sys::TrafficGen>> gens;
            r.timed(r.times.boot, [&] {
                for (NodeId n = 0; n < nodes; ++n)
                    gens.push_back(std::make_unique<sys::TrafficGen>(
                        *machine, n, tc));
                for (auto &g : gens)
                    g->start();
            });
            r.times.setup += secondsSince(t0);

            bool quiesced = runSliced(*machine, 4'000'000, r);

            uint64_t arrivals = 0, sent = 0, drained = 0, sojourns = 0;
            for (auto &g : gens) {
                arrivals += g->arrivals();
                sent += g->sent();
                drained += g->drained();
                sojourns += g->sojourn().count();
                r.counts.trafficSent += g->sent();
                r.counts.stallRetries += g->stallRetries();
                r.latency.merge(g->sojourn());
            }
            const std::string where = std::string("serve-incast/") +
                                      policy + "/" + model.shortName();
            const uint64_t offered = uint64_t(clients) * msgs;
            r.check(quiesced, [&] {
                return where + ": run() did not quiesce";
            });
            r.check(arrivals == offered && sent == arrivals, [&] {
                return where + ": sent " + std::to_string(sent) +
                       " of " + std::to_string(offered) + " offered";
            });
            r.check(drained == sent && sojourns == drained, [&] {
                return where + ": delivered " + std::to_string(drained) +
                       " (timed " + std::to_string(sojourns) +
                       ") of " + std::to_string(sent) + " sent";
            });
            harvest(*machine, r, false);
        }
    }
}

// ------------------------------------------------------------------
// Workload table

struct Workload
{
    const char *name;
    /** Simulated ticks per run lap: about 0.1 ms of host time each. */
    Tick sliceTicks;
    std::function<void(uint64_t, Rep &)> run;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w{
        {"mesh-hotspot", 8,
         [](uint64_t s, Rep &r) {
             runMesh("hotspot", {16, 16, 100, 200, 50}, s, r);
         }},
        {"mesh-saturated", 1,
         [](uint64_t s, Rep &r) {
             runMesh("saturated", {16, 16, 400, 2, 0}, s, r);
         }},
        {"collective", 8,
         [](uint64_t s, Rep &r) { runCollective(8, 8, s, r); }},
        {"serve-incast", 64,
         [](uint64_t s, Rep &r) { runServe(128, s, r); }},
    };
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

/** One repetition, traced or not. */
Rep
runRep(const Workload &w, uint64_t seed, bool traced)
{
    Rep r;
    r.sliceTicks = w.sliceTicks;
    evprof::setEnabled(traced);
    auto t0 = Clock::now();
    r.mark = t0;
    w.run(seed, r);
    r.lap(r.otherLaps);
    r.times.wall = secondsSince(t0);
    evprof::setEnabled(false);
    if (traced)
        r.profile = evprof::take();
    r.counts.p99 = r.latency.percentile(0.99);
    return r;
}

// ------------------------------------------------------------------
// Host diagnostics

volatile uint64_t refSink;

/** A fixed ALU loop: the host's current speed, nothing else. */
double
refLoopSeconds()
{
    auto t0 = Clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t i = 0; i < 50'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
    }
    refSink = x;
    return secondsSince(t0);
}

/**
 * A fixed dependent pointer chase through 16 MiB: the host's memory
 * latency.  On shared hosts this is what drifts (neighbours contend
 * for cache and memory) while refLoopSeconds() stays flat, and the
 * simulator's time follows it.
 */
double
memLoopSeconds()
{
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<uint32_t> next(4u << 20);
    std::iota(next.begin(), next.end(), 0u);
    Random rng(0x5A77010ULL);
    for (uint32_t i = uint32_t(next.size()) - 1; i > 0; --i)
        std::swap(next[i], next[rng.uniform(0, i - 1)]);
    auto t0 = Clock::now();
    uint32_t p = 0;
    for (unsigned i = 0; i < 500'000; ++i)
        p = next[p];
    refSink = p;
    return secondsSince(t0);
}

struct HostSample
{
    double ref;  //!< refLoopSeconds()
    double mem;  //!< memLoopSeconds()
};

/** memLoopSeconds() in a child process, so that its buffer never
 *  counts toward this process's peak RSS. */
double
memLoopInChild()
{
    int fd[2];
    if (pipe(fd) != 0)
        return 0;
    pid_t pid = fork();
    if (pid == 0) {
        close(fd[0]);
        double s = memLoopSeconds();
        ssize_t n = write(fd[1], &s, sizeof(s));
        _exit(n == ssize_t(sizeof(s)) ? 0 : 1);
    }
    close(fd[1]);
    double s = 0;
    if (pid > 0) {
        if (read(fd[0], &s, sizeof(s)) != ssize_t(sizeof(s)))
            s = 0;
        waitpid(pid, nullptr, 0);
    }
    close(fd[0]);
    return s;
}

HostSample
sampleHost()
{
    return {refLoopSeconds(), memLoopInChild()};
}

/** Aggregate "cpu" jiffies from /proc/stat: {steal, total}. */
std::pair<uint64_t, uint64_t>
cpuJiffies()
{
    std::ifstream is("/proc/stat");
    std::string tag;
    is >> tag;
    if (tag != "cpu")
        return {0, 0};
    uint64_t v[8] = {};
    for (uint64_t &x : v)
        is >> x;
    // user nice system idle iowait irq softirq steal
    return {v[7], std::accumulate(v, v + 8, uint64_t(0))};
}

/** This process's resident high-water mark (VmHWM), which, unlike
 *  getrusage()'s ru_maxrss, does not carry over the footprint of the
 *  process that exec'd us (run.py's interpreter). */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <class F>
double
medianOf(const std::vector<Rep> &reps, F &&f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return median(v);
}

template <class F>
double
minOf(const std::vector<Rep> &reps, F &&f)
{
    double m = f(reps.front());
    for (const Rep &r : reps)
        m = std::min(m, f(r));
    return m;
}

// ------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

double
profSeconds(const evprof::Profile &p, const char *type)
{
    auto it = p.find(type);
    return it == p.end() ? 0.0 : it->second.seconds;
}

double
profCount(const evprof::Profile &p, const char *type)
{
    auto it = p.find(type);
    return it == p.end() ? 0.0 : double(it->second.count);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The per-layer split: counts and evprof self times of the traced
 *  repetition, set-up timings as medians over the untraced ones, and
 *  the traced repetition's wall time over the fastest untraced one. */
std::vector<Metric>
layerMetrics(const Rep &tr, const std::vector<Rep> &untraced,
             const HostSample &host, double steal)
{
    const evprof::Profile &p = tr.profile;
    const Counts &c = tr.counts;
    double in_process = 0;
    for (const auto &[type, st] : p)
        in_process += st.seconds;
    const double kernel = std::max(0.0, tr.times.run - in_process);
    const double noc_s = profSeconds(p, "mesh-tick");
    const double cpu_ticks = profCount(p, "cpu-tick");
    const double untraced_wall =
        minOf(untraced, [](const Rep &r) { return r.times.wall; });
    auto med = [&](double Times::*f) {
        return medianOf(untraced, [&](const Rep &r) { return r.times.*f; });
    };
    return {
        {"noc.tick_s", noc_s, "s"},
        {"noc.tick_events", profCount(p, "mesh-tick"), "count"},
        {"noc.msgs", double(c.nocMsgs), "count"},
        {"noc.ns_per_msg", ratio(noc_s * 1e9, double(c.nocMsgs)), "ns"},
        {"sim.events", double(c.events), "count"},
        {"sim.kernel_s", kernel, "s"},
        {"sim.ns_per_event", ratio(kernel * 1e9, double(c.events)), "ns"},
        {"cpu.tick_s", profSeconds(p, "cpu-tick"), "s"},
        {"cpu.tick_events", cpu_ticks, "count"},
        {"cpu.instructions", double(c.cpuInsts), "count"},
        {"cpu.stall_cycles", double(c.cpuStall), "count"},
        {"cpu.insts_per_tick", ratio(double(c.cpuInsts), cpu_ticks),
         "insts/tick"},
        {"hpu.tick_s", profSeconds(p, "hpu-tick"), "s"},
        {"hpu.tick_events", profCount(p, "hpu-tick"), "count"},
        {"ni.pump_s", profSeconds(p, "ni-pump"), "s"},
        {"ni.pump_events", profCount(p, "ni-pump"), "count"},
        {"ni.sent", double(c.niSent), "count"},
        {"ni.refused", double(c.niRefused), "count"},
        {"traffic.send_s", profSeconds(p, "traffic-send"), "s"},
        {"traffic.arrival_s", profSeconds(p, "traffic-arrival"), "s"},
        {"traffic.service_s", profSeconds(p, "traffic-service"), "s"},
        {"traffic.send_events", profCount(p, "traffic-send"), "count"},
        {"traffic.stall_retries", double(c.stallRetries), "count"},
        {"traffic.retry_ratio",
         ratio(double(c.stallRetries), double(c.trafficSent)), "frac"},
        {"transport.credit_drain_s", profSeconds(p, "credit-drain"), "s"},
        {"transport.credit_drain_events", profCount(p, "credit-drain"),
         "count"},
        {"transport.holds", double(c.holds), "count"},
        {"transport.admits", double(c.admits), "count"},
        {"system.build_s", med(&Times::build), "s"},
        {"system.boot_s", med(&Times::boot), "s"},
        {"msg.assemble_s", med(&Times::assemble), "s"},
        {"metrics.dump_s", med(&Times::dump), "s"},
        {"trace.overhead_frac", tr.times.wall / untraced_wall - 1, "frac"},
        {"host.ref_loop_s", host.ref, "s"},
        {"host.mem_loop_s", host.mem, "s"},
        {"host.steal_frac", steal, "frac"},
    };
}

/**
 * The fastest host seconds seen at each lap position over the
 * untraced repetitions.  Every repetition does the same work lap for
 * lap, so their sum is the repetition as it runs undisturbed: other
 * tenants of a shared host only ever add time, and their pressure
 * comes and goes within milliseconds, so each short lap finds a quiet
 * moment in some repetition even when no whole repetition does
 * (README.md, "Noise").
 */
struct FastestLaps
{
    std::vector<double> run, other;
    bool aligned = true;  //!< every repetition had the same laps

    /** Fold in @p r's laps and release them, so that memory does not
     *  grow with the number of repetitions. */
    void
    fold(Rep &r)
    {
        foldInto(run, r.runLaps);
        foldInto(other, r.otherLaps);
    }

    static double
    sum(const std::vector<double> &v)
    {
        return std::accumulate(v.begin(), v.end(), 0.0);
    }

  private:
    void
    foldInto(std::vector<double> &best, std::vector<double> &laps)
    {
        if (best.empty())
            best = laps;
        else if (best.size() != laps.size())
            aligned = false;
        else
            for (size_t i = 0; i < best.size(); ++i)
                best[i] = std::min(best[i], laps[i]);
        std::vector<double>().swap(laps);
    }
};

/**
 * The end-to-end metrics of untraced repetitions.  wall_s and
 * msgs_per_s sum the fastest laps; setup_s is the median set-up.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<Rep> &reps, const FastestLaps &best)
{
    // Every repetition simulates the same inputs, so the exact values
    // are the first repetition's (the caller checked they agree).
    const Counts &c = reps.front().counts;
    const double run_s = FastestLaps::sum(best.run);
    return {
        {"wall_s", run_s + FastestLaps::sum(best.other), "s"},
        {"setup_s",
         medianOf(reps, [](const Rep &r) { return r.times.setup; }), "s"},
        {"msgs_per_s", ratio(double(c.delivered), run_s), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ticks", double(c.ticks), "ticks"},
        {"sim_p99_ticks", double(c.p99), "ticks"},
    };
}

/** Repeat @p w untraced until @p budget seconds are spent, leaving
 *  room for @p reserve more repetitions; at least one.  Their laps go
 *  into @p best. */
std::vector<Rep>
runFor(const Workload &w, uint64_t seed, double budget, double reserve,
       FastestLaps &best)
{
    std::vector<Rep> reps;
    auto t0 = Clock::now();
    do {
        reps.push_back(runRep(w, seed, false));
        best.fold(reps.back());
    } while (secondsSince(t0) +
                 (1 + reserve) * reps.back().times.wall <= budget);
    return reps;
}

int
measure(const Workload &w, uint64_t seed, double seconds, bool trace)
{
    const auto j0 = cpuJiffies();
    const HostSample h0 = sampleHost();

    // The traced run keeps room for one repetition at evprof's ~1.4x.
    FastestLaps best;
    std::vector<Rep> reps =
        runFor(w, seed, seconds, trace ? 1.5 : 0, best);
    Rep traced;
    if (trace)
        traced = runRep(w, seed, true);

    const HostSample h1 = sampleHost();
    const auto j1 = cpuJiffies();
    const HostSample host{(h0.ref + h1.ref) / 2, (h0.mem + h1.mem) / 2};
    const double steal =
        ratio(double(j1.first - j0.first), double(j1.second - j0.second));

    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    bool exact = true;
    auto fold = [&](const Rep &r) {
        attempted += r.attempted;
        failed += r.failed;
        failures.insert(failures.end(), r.failures.begin(),
                        r.failures.end());
        exact = exact && r.counts == reps.front().counts;
    };
    for (const Rep &r : reps)
        fold(r);
    if (trace)
        fold(traced);
    if (!exact || !best.aligned) {
        ++failed;
        failures.push_back(std::string(w.name) +
                           ": repetitions of one seed disagree on the "
                           "simulated counts or laps");
    }

    std::vector<Metric> e2e = endToEndMetrics(reps, best);
    std::printf("perfbench %s seed %llu: %zu repetitions in %.1f s, "
                "1 thread, 1 shard\n",
                w.name, static_cast<unsigned long long>(seed),
                reps.size(), seconds);
    printTable("end-to-end:", e2e);
    std::printf("  fastest whole repetition: %.4f s wall, %.4f s run; "
                "%zu run laps\n",
                minOf(reps, [](const Rep &r) { return r.times.wall; }),
                minOf(reps, [](const Rep &r) { return r.times.run; }),
                best.run.size());
    std::printf("  %-28s %16.6g frac (%llu of %llu checks failed)\n",
                "failed_frac", ratio(double(failed), double(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("  host: ref_loop %.4f s before, %.4f s after; mem_loop "
                "%.4f s before, %.4f s after; steal %.4f\n",
                h0.ref, h1.ref, h0.mem, h1.mem, steal);
    std::printf("  repetitions (wall/setup/run s):");
    for (const Rep &r : reps)
        std::printf(" %.4f/%.5f/%.4f", r.times.wall, r.times.setup,
                    r.times.run);
    std::printf("\n");
    if (std::string(w.name) == "serve-incast")
        std::printf("  open loop: latency timed from each message's "
                    "intent tick; the arrival clock never stops, so "
                    "generator lateness is 0 ticks by construction\n");
    for (const std::string &f : failures)
        std::printf("  FAILED %s\n", f.c_str());

    if (trace) {
        std::vector<Metric> layers =
            layerMetrics(traced, reps, host, steal);
        printTable("per-layer (one evprof-traced repetition):", layers);
        printResult(failed == 0, attempted, failed, layers);
    } else {
        printResult(failed == 0, attempted, failed, e2e);
    }
    return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------
// Determinism self-test

/** The seed claims are made on, and the seed held out to re-check
 *  them (see README.md). */
constexpr uint64_t defaultSeed = 1;
constexpr uint64_t heldOutSeed = 20261017;

int
selfTest(uint64_t seed)
{
    int bad = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        bad += !ok;
    };
    for (uint64_t s : {seed, heldOutSeed}) {
        for (const Workload &w : workloads()) {
            const std::string tag =
                std::string(w.name) + " seed " + std::to_string(s);
            Rep a = runRep(w, s, true);
            Rep b = runRep(w, s, true);
            Rep u = runRep(w, s, false);
            expect(a.failed == 0 && b.failed == 0 && u.failed == 0,
                   tag + ": every correctness check passes");
            expect(a.counts == b.counts,
                   tag + ": two traced runs give identical sim_* and "
                         "exact counts");
            bool same_events = a.profile.size() == b.profile.size();
            uint64_t profiled = 0;
            for (const auto &[type, st] : a.profile) {
                auto it = b.profile.find(type);
                same_events = same_events && it != b.profile.end() &&
                              it->second.count == st.count;
                profiled += st.count;
            }
            expect(same_events,
                   tag + ": identical per-event-type counts");
            expect(profiled == a.counts.events,
                   tag + ": evprof saw every processed event");
            expect(u.counts == a.counts,
                   tag + ": the untraced run equals the traced one");
            Workload whole = w;
            whole.sliceTicks = 50'000'000;  // one lap per run() call
            expect(runRep(whole, s, false).counts == a.counts,
                   tag + ": timing the run in laps leaves it unchanged");
        }
    }
    std::printf("self-test: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n"
                 "       perfbench --self-test [--seed N]\n"
                 "workloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
parseUint(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno || s[0] == '-')
        usage((std::string("bad value for ") + flag + ": " + s).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = defaultSeed, seconds = 0, trace = 0;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = parseUint("--seed", v);
        else if (a == "--seconds")
            seconds = parseUint("--seconds", v);
        else if (a == "--trace")
            trace = parseUint("--trace", v);
        else
            usage(("unknown flag " + a).c_str());
    }
    if (self_test)
        return selfTest(seed);
    const Workload *w = findWorkload(workload);
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (seconds < 1 || seconds > 600)
        usage("--seconds must be in [1, 600]");
    if (trace > 1)
        usage("--trace must be 0 or 1");
    return measure(*w, seed, double(seconds), trace == 1);
}

} // namespace perfbench
} // namespace tcpni

int
main(int argc, char **argv)
{
    return tcpni::perfbench::main(argc, argv);
}

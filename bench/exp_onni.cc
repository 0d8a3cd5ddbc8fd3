/**
 * @file
 * The On-NI occupancy experiment: run the congestion workload (a
 * message burst plus an I-structure PRead/PWrite phase) end to end on
 * a two-node mesh under every registered interface model, and report
 * where the handler cycles land.
 *
 * On the paper's six models the dispatch and processing cycles occupy
 * the host CPU.  On the On-NI models (registered behind
 * -DTCPNI_EXTRA_MODELS) the same kernels run on the HPU inside the
 * interface; the host CPU is occupied only by the proxy service loop
 * that absorbs the escaped deferred-list work.  The experiment prints
 * both occupancies side by side, plus the escape/budget counters the
 * HPU keeps.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "sim/sweep.hh"
#include "system/system.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** Handler-occupancy split for one model's run. */
struct OnNiResult
{
    bool quiesced = false;
    bool ok = false;            //!< I-structure values all forwarded
    uint64_t cpuHandler = 0;    //!< dispatch+processing cycles, host CPU
    uint64_t hpuHandler = 0;    //!< dispatch+processing cycles, HPU
    uint64_t hostProxy = 0;     //!< host proxy escaped-work cycles
                                //!< (the idle poll spin is excluded)
    uint64_t escapes = 0;       //!< messages escaped through the ring
    uint64_t overruns = 0;      //!< handler-time budget overruns
    uint64_t maxHandler = 0;    //!< longest handler activation (cycles)
    uint64_t clientStalls = 0;  //!< client SEND-stall cycles
    uint64_t received = 0;      //!< messages the server NI accepted
    uint64_t ticks = 0;
};

/** The register-mapped optimized client driving the workload:
 *  FLOOD send2 bursts, ELEMS deferred PReads, ELEMS PWrites that wake
 *  them, collect the forwarded values, stop the server, halt.
 *
 *  @p sendip is the server's two-word-Send inlet address (type-0
 *  messages dispatch through word 1 on optimized interfaces); word 4
 *  carries the software-dispatch id for basic servers. */
std::string
clientProgram(unsigned flood, unsigned elems, Addr sendip)
{
    return ".equ FLOOD, " + std::to_string(flood) +
           "\n.equ ELEMS, " + std::to_string(elems) +
           "\n.equ SENDIP, " + std::to_string(sendip) +
           "\n.equ ID_SEND2, 8\n" + R"(
    entry:
        ; ---- congestion burst: FLOOD four-word Send messages ----
        li   o0, (1 << NODE_SHIFT) | 0x2000
        li   o1, SENDIP
        li   o2, 0x11
        li   o3, 0x22
        li   o4, ID_SEND2
        li   r1, FLOOD
    flood:
        send 0
        addi r1, r1, -1
        bnez r1, flood
        nop

        ; ---- ELEMS PReads of empty elements: all defer ----
        li   r1, (1 << NODE_SHIFT) | 0x2200
        li   r2, 0x100             ; reply FP (node 0)
        li   r3, ELEMS
        addi o4, r0, T_PREAD
    preads:
        add  o0, r1, r0
        add  o1, r2, r0
        add  o2, r0, r0 !send=4    ; T_PREAD
        addi r1, r1, 8
        addi r3, r3, -1
        bnez r3, preads
        nop

        ; ---- PWrite the elements: the deferred readers wake ----
        li   r1, (1 << NODE_SHIFT) | 0x2200
        li   r5, 100
        li   r3, ELEMS
        addi o4, r0, T_PWRITE
    pwrites:
        add  o0, r1, r0
        add  o1, r0, r0            ; no ack
        add  o2, r5, r0 !send=5    ; T_PWRITE
        addi r1, r1, 8
        addi r5, r5, 11
        addi r3, r3, -1
        bnez r3, pwrites
        nop

        ; ---- collect the ELEMS forwarded values, sum at 0x200 ----
        li   r9, ELEMS
        li   r6, 0
    wait:
        and  r8, status, r7        ; r7 = msg-valid mask
        beqz r8, wait
        nop
        add  r6, r6, i2
        next
        addi r9, r9, -1
        bnez r9, wait
        nop
        sti  r6, r0, 0x200

        li   o0, (1 << NODE_SHIFT)
        addi o4, r0, T_STOP
        send 15
        halt
    )";
}

uint64_t
regionSum(const std::map<std::string, uint64_t> &regions,
          std::initializer_list<const char *> keys)
{
    uint64_t sum = 0;
    for (const char *k : keys) {
        auto it = regions.find(k);
        if (it != regions.end())
            sum += it->second;
    }
    return sum;
}

OnNiResult
runModel(const ni::Model &model, unsigned flood, unsigned elems)
{
    sys::NodeConfig client_cfg;
    client_cfg.ni = ni::Model{ni::Placement::registerFile, true}
                        .config();
    sys::NodeConfig server_cfg;
    server_cfg.ni = model.config();
    sys::System machine("onni", 2, 1, {client_cfg, server_cfg});

    // Server: the stock handler kernels.  Node::boot routes them to
    // the HPU on On-NI nodes; those also run the host proxy loop.
    isa::Program server =
        msg::assembleKernel(msg::handlerProgram(model));
    machine.node(1).boot(server, server.addrOf("entry"));
    machine.node(1).mem().write(msg::allocPtrAddr, 0x40000);
    if (model.policy().handlersOnNi()) {
        isa::Program host =
            msg::assembleKernel(msg::hostProxyProgram(model));
        machine.node(1).bootHost(host, host.addrOf("entry"));
    }

    isa::Program client = msg::assembleKernel(clientProgram(
        flood, elems,
        server.addrOf(model.optimized ? "h_send2" : "hb_send2")));
    machine.node(0).boot(client, client.addrOf("entry"));
    machine.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);

    OnNiResult r;
    r.quiesced = machine.run(2'000'000);

    // expected = sum of 100 + 11k over the ELEMS forwarded values.
    Word expected = 0;
    for (unsigned k = 0; k < elems; ++k)
        expected += 100 + 11 * k;
    r.ok = r.quiesced &&
           machine.node(0).mem().read(0x200) == expected;

    auto cpu_regions = machine.node(1).cpu().regionCycles();
    r.cpuHandler =
        regionSum(cpu_regions, {"dispatching", "processing"});
    r.hostProxy = regionSum(cpu_regions, {"host_setup", "host_proc"});
    if (Hpu *hpu = machine.node(1).hpu()) {
        r.hpuHandler = regionSum(hpu->regionCycles(),
                                 {"dispatching", "processing"});
        r.escapes = hpu->hostProxies();
        r.overruns = hpu->budgetOverruns();
        r.maxHandler = hpu->maxHandlerCycles();
    }
    r.clientStalls = machine.node(0).cpu().niStallCycles();
    r.received = machine.node(1).ni().numReceived();
    r.ticks = machine.eventq().curTick();
    return r;
}

int
runOnNi(const exp::Context &ctx)
{
    unsigned flood = ctx.u32("--flood");
    unsigned elems = ctx.u32("--elems");

    const auto &infos = ni::registeredModels();
    std::cout << "On-NI occupancy: the congestion workload (" << flood
              << "-message burst + " << elems
              << " deferred PRead/PWrite pairs) per model\n"
              << "(handler cycles = dispatching + processing regions; "
                 "On-NI models run them on the HPU)\n";

    SweepRunner sweep(ctx.jobs);
    std::vector<OnNiResult> results = sweep.map<OnNiResult>(
        infos.size(), [&](size_t mi) {
            auto ms = ctx.taskMetrics(mi, infos[mi].name);
            std::fprintf(stderr, "  running %s...\n",
                         infos[mi].model.name().c_str());
            return runModel(infos[mi].model, flood, elems);
        });

    TextTable tt;
    tt.header({"Model", "CPU handler", "HPU handler", "Host proxy",
               "Escapes", "Overruns", "Client stalls", "Ticks",
               "Result"});
    for (size_t mi = 0; mi < infos.size(); ++mi) {
        const OnNiResult &r = results[mi];
        tt.row({infos[mi].shortName, std::to_string(r.cpuHandler),
                std::to_string(r.hpuHandler),
                std::to_string(r.hostProxy),
                std::to_string(r.escapes), std::to_string(r.overruns),
                std::to_string(r.clientStalls),
                std::to_string(r.ticks), r.ok ? "ok" : "FAILED"});
    }
    tt.print(std::cout);

    bool any_onni = false;
    for (const ni::ModelInfo &info : infos)
        any_onni = any_onni || info.model.policy().handlersOnNi();
    if (!any_onni) {
        std::cout << "\n(no On-NI models registered: configure with "
                     "-DTCPNI_EXTRA_MODELS=ON for the HPU columns)\n";
    }

    ctx.writeJson([&](std::ostream &os) {
        os << "{\"config\":{\"flood\":" << flood
           << ",\"elems\":" << elems << "},\n\"models\":{";
        for (size_t mi = 0; mi < infos.size(); ++mi) {
            const OnNiResult &r = results[mi];
            os << (mi ? ",\n" : "\n") << "\""
               << stats::jsonEscape(infos[mi].name) << "\":{"
               << "\"ok\":" << (r.ok ? "true" : "false")
               << ",\"cpuHandlerCycles\":" << r.cpuHandler
               << ",\"hpuHandlerCycles\":" << r.hpuHandler
               << ",\"hostProxyCycles\":" << r.hostProxy
               << ",\"escapes\":" << r.escapes
               << ",\"budgetOverruns\":" << r.overruns
               << ",\"maxHandlerCycles\":" << r.maxHandler
               << ",\"clientStallCycles\":" << r.clientStalls
               << ",\"received\":" << r.received
               << ",\"ticks\":" << r.ticks << "}";
        }
        os << "\n}}\n";
    });

    bool all_ok = true;
    for (const OnNiResult &r : results)
        all_ok = all_ok && r.ok;
    return all_ok ? 0 : 1;
}

} // namespace

void
registerOnNi(exp::ExperimentRegistry &reg)
{
    reg.add({
        "onni",
        "On-NI handler occupancy vs the paper models (congestion "
        "workload)",
        {
            {"--flood", "N",
             "messages in the congestion burst", "40", false},
            {"--elems", "N",
             "I-structure elements deferred then written", "4", false},
        },
        true,   // --json
        true,   // --trace
        runOnNi,
    });
}

} // namespace bench
} // namespace tcpni

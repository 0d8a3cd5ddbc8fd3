/**
 * @file
 * The Handler Processing Unit: dispatch cost, the host-proxy escape
 * ring, the handler-time budget, and the CPU-offload property.
 *
 * The On-NI placement itself is always compiled (only its *registry*
 * entries are gated behind TCPNI_EXTRA_MODELS), so these tests run in
 * every build.
 */

#include <gtest/gtest.h>

#include "cost/table1.hh"
#include "msg/kernels.hh"
#include "msg/protocol.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"
#include "system/system.hh"

using namespace tcpni;
using namespace tcpni::sys;

namespace
{

const ni::Model onniOpt{ni::Placement::onNi, true};
const ni::Model onniBasic{ni::Placement::onNi, false};

/** A register-mapped client: PRead an empty element (defers), PWrite
 *  it, store the forwarded value at [r4], stop the server, halt.
 *  Word 4 always carries the software-dispatch id so the same client
 *  drives basic servers (which ignore the wire type). */
const char *istructClient = R"(
entry:
    li   o0, (1 << NODE_SHIFT) | 0x2200
    li   o1, 0x100             ; reply FP
    addi o4, r0, T_PREAD
    add  o2, r0, r0 !send=4    ; T_PREAD: defers
    li   o0, (1 << NODE_SHIFT) | 0x2200
    li   o1, 0                 ; no ack
    addi o4, r0, T_PWRITE
    addi r6, r0, 0x77
    add  o2, r6, r0 !send=5    ; T_PWRITE: wakes the reader
wait:
    and  r5, status, r7
    beqz r5, wait
    nop
    st   i2, r4, r0 !next
    li   o0, (1 << NODE_SHIFT)
    addi o4, r0, T_STOP
    send 15
    halt
)";

/** Two-node machine: register-mapped client, @p server_model server
 *  running the stock kernels (HPU + host proxy on On-NI nodes). */
struct Machine
{
    System sys;
    isa::Program server;

    explicit Machine(const ni::Model &server_model,
                     HpuConfig hpu_cfg = {})
        : sys("hpu_test", 2, 1, configs(server_model, hpu_cfg)),
          server(msg::assembleKernel(msg::handlerProgram(server_model)))
    {
        sys.node(1).boot(server, server.addrOf("entry"));
        sys.node(1).mem().write(msg::allocPtrAddr, 0x40000);
        if (server_model.policy().handlersOnNi()) {
            isa::Program host = msg::assembleKernel(
                msg::hostProxyProgram(server_model));
            sys.node(1).bootHost(host, host.addrOf("entry"));
        }
        isa::Program client = msg::assembleKernel(istructClient);
        sys.node(0).boot(client, client.addrOf("entry"));
        sys.node(0).cpu().setReg(7, 1u << ni::status::msgValidBit);
        sys.node(0).cpu().setReg(4, 0x100);
    }

    static std::vector<NodeConfig>
    configs(const ni::Model &server_model, const HpuConfig &hpu_cfg)
    {
        NodeConfig client;
        client.ni =
            ni::Model{ni::Placement::registerFile, true}.config();
        NodeConfig server;
        server.ni = server_model.config();
        server.hpu = hpu_cfg;
        return {client, server};
    }
};

} // namespace

// ---- dispatch cost ---------------------------------------------------

TEST(HpuDispatch, OptimizedOnNiMatchesRegisterMapped)
{
    // The acceptance bound: the HPU's permanent register coupling
    // must make dispatch no slower than the best host placement (the
    // optimized register-mapped interface dispatches in 1 cycle).
    cost::Table1Harness reg(
        ni::Model{ni::Placement::registerFile, true});
    cost::Table1Harness onni(onniOpt);
    double reg_disp =
        reg.processingCost(cost::ProcCase::read).dispatching;
    double onni_disp =
        onni.processingCost(cost::ProcCase::read).dispatching;
    EXPECT_DOUBLE_EQ(reg_disp, 1.0);
    EXPECT_LE(onni_disp, reg_disp);
}

TEST(HpuDispatch, BasicOnNiMatchesBasicRegisterMapped)
{
    // The basic HPU polls STATUS and indexes the software dispatch
    // table just like the basic register-mapped host -- same cost.
    cost::Table1Harness reg(
        ni::Model{ni::Placement::registerFile, false});
    cost::Table1Harness onni(onniBasic);
    EXPECT_DOUBLE_EQ(
        onni.processingCost(cost::ProcCase::read).dispatching,
        reg.processingCost(cost::ProcCase::read).dispatching);
}

// ---- end-to-end offload ----------------------------------------------

TEST(HpuSystem, IdleHpuAndHostProxySleepWithTheStockKernels)
{
    // With no client running, the stock On-NI server idles: the HPU
    // in its `jmp msgip` loop and the host CPU polling the escape
    // ring's producer index.  Both are fixed points and sleep, each
    // keeping only its clock in the queue (tests/cpu/idle_test.cc
    // pins that sleeping matches stepping cycle for cycle).
    for (const ni::Model &model : {onniOpt, onniBasic}) {
        System sys("idle", 2, 1, Machine::configs(model, {}));
        isa::Program server =
            msg::assembleKernel(msg::handlerProgram(model));
        isa::Program host =
            msg::assembleKernel(msg::hostProxyProgram(model));
        sys.node(1).boot(server, server.addrOf("entry"));
        sys.node(1).bootHost(host, host.addrOf("entry"));
        EXPECT_FALSE(sys.run(2000));
        EXPECT_TRUE(sys.node(1).hpu()->asleep());
        EXPECT_TRUE(sys.node(1).cpu().asleep());
        EXPECT_EQ(sys.engine().size(), 2u);
        EXPECT_EQ(sys.curTick(), 2000u);
    }
}

TEST(HpuSystem, HandlersRunOnHpuNotCpu)
{
    Machine m(onniOpt);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);

    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_GT(hpu->handlersRun(), 0u);

    // The host CPU never touches a handler region: it only runs the
    // proxy loop (host_* regions).
    auto cpu_regions = m.sys.node(1).cpu().regionCycles();
    EXPECT_EQ(cpu_regions.count("dispatching"), 0u);
    EXPECT_EQ(cpu_regions.count("processing"), 0u);
    EXPECT_GT(cpu_regions.count("host_proc"), 0u);
}

TEST(HpuSystem, NonOnNiNodesHaveNoHpu)
{
    Machine m(ni::Model{ni::Placement::registerFile, true});
    EXPECT_EQ(m.sys.node(1).hpu(), nullptr);
    EXPECT_EQ(m.sys.node(0).hpu(), nullptr);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);
}

// ---- host-proxy escape ring ------------------------------------------

TEST(HpuSystem, EscapesPostToHostRing)
{
    Machine m(onniOpt);
    ASSERT_TRUE(m.sys.run(100000));

    // Three escapes: the deferred PRead, the PWrite (the host is the
    // single writer of I-structure state), and STOP.
    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_EQ(hpu->hostProxies(), 3u);

    Memory &mem = m.sys.node(1).mem();
    EXPECT_EQ(mem.read(msg::hostRingPiAddr), 3u);
    // Slot 0 holds the PRead: effective id, then i0.. (the element).
    EXPECT_EQ(mem.read(msg::hostRingBase),
              static_cast<Word>(msg::typePRead));
    EXPECT_EQ(mem.read(msg::hostRingBase + 4) & 0xffffffu, 0x2200u);
}

// ---- handler-time budget ---------------------------------------------

TEST(HpuSystem, BudgetOverrunsAreCountedNotEnforced)
{
    HpuConfig tight;
    tight.handlerBudget = 1;    // nothing real fits in one cycle
    Machine m(onniOpt, tight);
    ASSERT_TRUE(m.sys.run(100000));

    Hpu *hpu = m.sys.node(1).hpu();
    ASSERT_NE(hpu, nullptr);
    EXPECT_GT(hpu->budgetOverruns(), 0u);
    EXPECT_GT(hpu->maxHandlerCycles(), 1u);
    // The budget is a diagnostic contract, not a watchdog: the run
    // still completes correctly.
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);
}

TEST(HpuSystem, GenerousBudgetNeverOverruns)
{
    HpuConfig loose;
    loose.handlerBudget = 10000;
    Machine m(onniOpt, loose);
    ASSERT_TRUE(m.sys.run(100000));
    EXPECT_EQ(m.sys.node(1).hpu()->budgetOverruns(), 0u);
}

// ---- basic variant ---------------------------------------------------

TEST(HpuSystem, BasicOnNiAlsoCompletes)
{
    // Basic servers ignore the wire type and software-dispatch on the
    // id the client carries in word 4.
    Machine m(onniBasic);
    ASSERT_TRUE(m.sys.run(200000));
    EXPECT_EQ(m.sys.node(0).mem().read(0x100), 0x77u);
    EXPECT_GT(m.sys.node(1).hpu()->handlersRun(), 0u);
}

/**
 * @file
 * The Handler Processing Unit: a small in-order core inside the
 * network interface that runs the dispatch loop and the message
 * handlers on the NI itself, in the style of sPIN's HPUs.
 *
 * The HPU is permanently register-coupled to its interface: r16..r30
 * alias the NI registers, folded SEND/NEXT/REPLY/FORWARD instruction
 * bits are always available, and NI-register reads never interlock --
 * there is no MsgIp/NextMsgIp round-trip through the host CPU and no
 * load-use stall on the dispatch path, whatever the *host's* placement
 * looks like.  Handler memory (the dispatch tables, I-structure state)
 * is the node memory, reached with a configurable handler-memory
 * load-use delay.
 *
 * Differences from the host Cpu model:
 *
 *  - issue width: up to issueWidth independent instructions retire per
 *    cycle (1 reproduces the 88100-style counting model exactly; the
 *    bundle breaks on an operand interlock, an NI stall, or a control
 *    transfer);
 *  - handler-time budget: each handler activation (first cycle with a
 *    valid message through the cycle its NEXT retires) is measured
 *    against the policy's handlerTimeBudget(); overruns are counted,
 *    traced (TCPNI_TRACE=HPU) and recorded in the lifecycle stream;
 *  - host-proxy escape: a store to msg::hpuProxyAddr posts the current
 *    message (effective id + input words) into the host ring
 *    (msg::hostRingBase) and charges hostProxyCycles, modeling the
 *    cost of shipping CPU-only work (deferred-list walks) to the host;
 *  - the cache-mapped NI command window is unreachable: handlers that
 *    touch 0xffff0000 addresses are a kernel-selection bug and panic.
 *
 * Escape-ring discipline (statically enforced).  The host CPU is the
 * single writer of I-structure state; the HPU may read it but never
 * mutate it.  Concretely, for HPU-resident handler kernels:
 *
 *  - every PWRITE handler path must end in a hpuProxyAddr post -- the
 *    presence bits and deferred-reader list are only ever written by
 *    the host proxy draining the ring, so writes cannot race reads;
 *  - only the read-only PREAD FULL path may complete on the HPU; the
 *    EMPTY/DEFERRED paths (which enqueue a reader) must escape;
 *  - neither handler may issue a plain store to node memory.
 *
 * The protocol analyzer's proto-escape check (verify/protocol.cc)
 * rejects kernels that violate this at lint time, so a violation
 * cannot reach simulation.
 *
 * Cost regions work exactly as on the Cpu, so the Table-1 harness can
 * difference "dispatching"/"processing" cycles measured on the HPU.
 *
 * Like the Cpu, the HPU fetches from a flat predecoded TextImage, and
 * at issue width 1 its idle `jmp msgip` loop sleeps until the NI or
 * node memory changes (IdleLoop, cpu/idle.hh); the accessors settle
 * the counters first.  A wider HPU steps every cycle.
 */

#ifndef TCPNI_HPU_HPU_HH
#define TCPNI_HPU_HPU_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cpu/idle.hh"
#include "cpu/text_image.hh"
#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "mem/memory.hh"
#include "ni/network_interface.hh"
#include "sim/sim_object.hh"

namespace tcpni
{

/** HPU configuration. */
struct HpuConfig
{
    /** Instructions retired per cycle (sPIN evaluates small
     *  multi-issue HPUs; 1 matches the paper's counting model). */
    unsigned issueWidth = 1;

    /** Extra load-use delay for handler-memory loads. */
    Cycles handlerMemDelay = 0;

    /** Handler-time budget override in cycles; 0 takes the placement
     *  policy's handlerTimeBudget(). */
    Cycles handlerBudget = 0;

    /** Extra cycles a host-proxy post occupies the HPU. */
    Cycles hostProxyCycles = 2;

    /** Upper bound on executed instructions; exceeding it panics. */
    uint64_t maxInstructions = 100'000'000;

    /** Emit a disassembly trace of every executed instruction. */
    bool trace = false;
};

/** The on-NI handler processor. */
class Hpu : public SimObject
{
  public:
    Hpu(std::string name, EventQueue &eq, Memory &mem,
        ni::NetworkInterface &ni, HpuConfig config = {});

    /** Copy a program image into memory and adopt its cost regions. */
    void loadProgram(const isa::Program &prog);

    /** Reset architectural state and set the PC. */
    void reset(Addr pc);

    /** Begin execution (schedules the first tick). */
    void start();

    bool halted() const { return halted_; }

    /** @{ Architectural state access for harnesses and tests (a
     *  sleeping HPU wakes to answer). */
    Word reg(unsigned r) const;
    void setReg(unsigned r, Word value);
    Addr pc() const;
    /** @} */

    /** True while the idle loop sleeps (see cpu/idle.hh). */
    bool asleep() const { return idle_.asleep(); }

    /** @{ Accounting, settled to the current point of the run. */
    uint64_t instructions() const { return settled().instructions_; }
    uint64_t cycles() const { return settled().cycles_; }
    uint64_t stallCycles() const { return settled().stallCycles_; }
    uint64_t niStallCycles() const { return niStallCycles_; }
    /** Handler activations completed (NEXT retired or halt). */
    uint64_t handlersRun() const { return handlersRun_; }
    /** Activations that exceeded the handler-time budget. */
    uint64_t budgetOverruns() const { return budgetOverruns_; }
    /** Longest single handler activation observed (cycles). */
    uint64_t maxHandlerCycles() const { return maxHandlerCycles_; }
    /** Messages escaped to the host through the proxy ring. */
    uint64_t hostProxies() const { return hostProxies_; }
    /** Total cycles spent inside handler activations (occupancy
     *  numerator; divide by cycles() for HPU utilization). */
    uint64_t handlerBusyCycles() const { return handlerBusyCycles_; }
    /** The effective handler-time budget (0 = unbounded). */
    Cycles budget() const { return budget_; }

    /** Cycles charged to each named cost region. */
    std::map<std::string, uint64_t> regionCycles() const;

    /** Instructions charged to each named cost region. */
    std::map<std::string, uint64_t> regionInstructions() const;
    /** @} */

  private:
    class TickEvent : public Event
    {
      public:
        explicit TickEvent(Hpu &hpu) : Event(cpuPri, true), hpu_(hpu) {}
        void process() override { hpu_.tick(); }
        std::string name() const override { return "hpu-tick"; }

      private:
        Hpu &hpu_;
    };

    void tick();

    /** This HPU with a sleeper's counters brought up to date. */
    const Hpu &settled() const;

    /** Wake a sleeping HPU before its state is read or changed. */
    void wakeForAccess() const;

    /** Execute @p inst; returns false if the instruction must retry
     *  (NI send stall). */
    bool execute(const isa::Instruction &inst);

    /** True if GPR @p r aliases an NI register (always, on the HPU). */
    static bool
    isNiAliasedReg(unsigned r)
    {
        return r >= isa::niRegBase &&
               r < isa::niRegBase + ni::numNiRegs;
    }

    Word readGpr(unsigned r);
    void writeGpr(unsigned r, Word value, Tick ready_at);

    /** Earliest tick at which @p inst can issue (interlocks). */
    Tick readyTick(const isa::Instruction &inst) const;

    /** Charge @p n cycles to the region of address @p addr. */
    void charge(Addr addr, uint64_t n);

    uint16_t regionOf(Addr addr) const { return text_.regionOf(addr); }

    /** Post the current message into the host ring (store to
     *  msg::hpuProxyAddr). */
    void postProxy();

    /** @{ Handler-activation accounting (budget + lifecycle). */
    void beginHandler();
    void endHandler();
    void handlerTick(uint64_t n);
    /** @} */

    Memory &mem_;
    ni::NetworkInterface &ni_;
    HpuConfig config_;
    Cycles budget_ = 0;

    Word regs_[isa::numRegs] = {};
    Tick readyAt_[isa::numRegs] = {};
    Addr pc_ = 0;
    std::optional<Addr> branchTarget_;  //!< pending after delay slot
    bool halted_ = true;

    uint64_t instructions_ = 0;
    uint64_t cycles_ = 0;
    uint64_t stallCycles_ = 0;
    uint64_t niStallCycles_ = 0;
    uint64_t handlersRun_ = 0;
    uint64_t budgetOverruns_ = 0;
    uint64_t maxHandlerCycles_ = 0;
    uint64_t hostProxies_ = 0;
    uint64_t handlerBusyCycles_ = 0;

    /** @{ The activation in flight: valid message being handled. */
    bool handlerActive_ = false;
    uint64_t handlerCycles_ = 0;
    uint64_t handlerTraceId_ = 0;
    uint8_t handlerType_ = 0;
    /** @} */

    /** Set by execute() when the instruction retires a NEXT. */
    bool nextRetired_ = false;

    /** Extra cycles the retiring instruction owes (host proxy). */
    Cycles extraCost_ = 0;

    /** Host-ring producer index (mirrored to msg::hostRingPiAddr). */
    Word ringPi_ = 0;

    TextImage text_;
    std::vector<uint64_t> regionCycles_{0};
    std::vector<uint64_t> regionInsts_{0};

    TickEvent tickEvent_;
    IdleLoop idle_;
};

} // namespace tcpni

#endif // TCPNI_HPU_HPU_HH

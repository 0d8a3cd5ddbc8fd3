/**
 * @file
 * Idle sleep for the processor models (Cpu and Hpu).
 *
 * Under the one-cycle-per-instruction cost model a poll loop that
 * reads an unchanged NI is a fixed point: it repeats the same cycles
 * until something it can observe changes.  IdleLoop finds such a loop
 * and stops the processor's per-cycle events while it lasts.
 *
 * A *fixed point* is a loop period that
 *
 *  - returns to the same PC with no delay-slot target pending,
 *  - leaves the registers and the relative readyAt values unchanged,
 *  - makes no store and issues no NI command or NI register write
 *    (nor takes an interrupt, stalls a SEND or halts), and
 *  - sees no change in the NI state or node memory it can read (the
 *    NI's and the memory's version counters are unchanged).
 *
 * The processor probes its loops as it steps: at each taken branch it
 * arrives at, it snapshots its state and records every tick of the
 * period that follows (the PC, the cycles and region charged, the
 * register written).  When it arrives back at the probed PC in the
 * same state, it sleeps: it keeps its clock event scheduled only at
 * the tick it would exceed maxInstructions (so the queue stays
 * non-empty, run(deadline) still ends at the deadline, and a runaway
 * poll loop still panics at the same tick), and watches the NI and
 * node memory.  A loop with an interlock stall of two or more cycles
 * (the off-chip models' `ldi`/`jmp` poll) keeps one clock event per
 * such stall: there the stepping clock rescheduled itself past the
 * next cycle, which sets its place among the other processor clocks
 * of later ticks (EventQueue::Entry), and that place must be drawn at
 * the same point of the run.
 *
 * What wakes a sleeper: any change to its NI's processor-visible state
 * (input queue, MsgIp, STATUS bits, output-queue space, control), the
 * interrupt sink, and any store to its node's memory by someone else
 * (the HPU's host-proxy ring, a harness).  On waking it replays the
 * whole periods and the partial period it slept through arithmetically
 * -- instructions, cycles, stalls and region charges -- rebuilds the
 * registers of the phase it resumes at, and reschedules its clock at
 * the first recorded tick that would observe the change, in the place
 * among the other processor clocks of that tick that stepping would
 * have given it (see EventQueue::resume()).
 *
 * Settle before read: a sleeper's counters lag while it sleeps.  The
 * processor's accessors, the metrics dump, Sampler rows and snapshots
 * (EventQueue::settleSleepers()) settle them to the current point of
 * the run first.
 */

#ifndef TCPNI_CPU_IDLE_HH
#define TCPNI_CPU_IDLE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "mem/memory.hh"
#include "ni/network_interface.hh"
#include "sim/event_queue.hh"

namespace tcpni
{

/** The state and counters of a processor that IdleLoop reads and
 *  replays (all owned by the processor). */
struct IdleCore
{
    Word *regs;
    Tick *readyAt;
    Addr *pc;
    std::optional<Addr> *branchTarget;
    uint64_t *instructions;
    uint64_t *cycles;
    uint64_t *stallCycles;
    std::vector<uint64_t> *regionCycles;
    std::vector<uint64_t> *regionInsts;
    Event *clock;           //!< the processor's (chained) tick event
    uint64_t maxInstructions;
    bool trace;             //!< print one line per sleep
};

/** Fixed-point detection and sleep for one processor (see file). */
class IdleLoop : public Sleeper
{
  public:
    /** @p owner names the processor in trace lines; it must outlive
     *  the IdleLoop. */
    IdleLoop(const std::string &owner, EventQueue &eq, Memory &mem,
             ni::NetworkInterface *ni, IdleCore core);
    ~IdleLoop();

    bool asleep() const { return asleep_; }

    /** @{ Probe recording, called by the processor's tick(). */
    /** A GPR write of the instruction being executed. */
    void
    noteWrite(unsigned r, Word value, Tick ready_at)
    {
        write_ = {static_cast<uint8_t>(r), value, ready_at};
    }
    /** The current period has a side effect: not a fixed point. */
    void noteSideEffect() { sideEffect_ = true; }
    /** The tick at @p now issued the instruction at @p pc (state at
     *  the start of the tick: @p target pending). */
    void recordIssue(Tick now, Addr pc, std::optional<Addr> target,
                     uint16_t region);
    /** The tick at @p now stalled @p cycles on an interlock. */
    void recordStall(Tick now, Addr pc, std::optional<Addr> target,
                     uint16_t region, uint64_t cycles);
    /**
     * The instruction issued at @p now retired with no delay slot
     * pending; @p arrived if it completed a taken branch.  Arms or
     * tests the probe; @return true if the processor now sleeps (its
     * clock must not be rescheduled).
     */
    bool atBoundary(Tick now, bool arrived);
    /** Forget the probe (reset, program load). */
    void disarm() { armed_ = false; }
    /** @} */

    /** The clock fired while asleep at a recorded stall: reschedule
     *  it, as stepping would have, and @return true.  @return false
     *  at the maxInstructions tick: resumeHere() then. */
    bool keep();

    /** The clock fired while asleep at the maxInstructions tick:
     *  settle and restore the state of this tick's recorded step, so
     *  the processor executes it. */
    void resumeHere();

    /** @{ Sleeper. */
    void settle() override;
    Tick lastEventBy(Tick bound) const override;
    void wake() override;
    /** @} */

  private:
    /** One tick of the probed period. */
    struct Step
    {
        Addr pc;            //!< PC at the start of the tick
        Addr target;        //!< pending branch target, if hasTarget
        uint32_t offset;    //!< ticks after the period start
        uint32_t cycles;    //!< cycles charged at this tick
        Word value;         //!< value written to rd
        uint32_t readyDelta;  //!< readyAt(rd) - tick of the write
        uint16_t region;    //!< region the cycles are charged to
        uint8_t rd;         //!< register written (0: none)
        bool issued;        //!< retired an instruction (else stalled)
        bool hasTarget;
    };

    struct Write
    {
        uint8_t rd;
        Word value;
        Tick readyAt;
    };

    static constexpr uint64_t never = ~uint64_t{0};

    /** Longest period probed, in recorded ticks. */
    static constexpr size_t maxSteps = 64;

    void arm(Tick boundary);
    void record(Tick now, Addr pc, std::optional<Addr> target,
                uint16_t region, uint64_t cycles, bool issued);
    void sleep(Tick start);

    /** Tick of virtual step @p n (n-th recorded step since sleep). */
    Tick tickOf(uint64_t n) const;
    /** Number of virtual steps at ticks before @p t. */
    uint64_t countBefore(Tick t) const;
    /** Steps that have happened at the current point of the run. */
    uint64_t happened() const;
    /** Schedule target of the clock from virtual step @p from on: the
     *  next recorded stall of two or more cycles, or the
     *  maxInstructions step if that comes first. */
    uint64_t nextClockStep(uint64_t from);
    /** tickOf(), saturating for steps beyond the end of time. */
    Tick tickAt(uint64_t n) const;
    /** Charge virtual steps [settled_, n). */
    void applyTo(uint64_t n);
    void applyStep(const Step &s, uint64_t times);
    /** Restore the processor's state at virtual step @p n. */
    void restore(uint64_t n);
    /** End the sleep before virtual step @p n: charge the steps
     *  before it, restore its state, stop watching, trace. */
    void endAt(uint64_t n);
    void stopWatching();

    /** The probe's snapshot and record, allocated at the first probe
     *  (most processors of a large mesh never run a loop). */
    struct Probe
    {
        Word regs[isa::numRegs];
        Tick ready[isa::numRegs];  //!< relative to probeStart_
        std::vector<Step> steps;
    };

    const std::string &owner_;
    EventQueue &eq_;
    Memory &mem_;
    ni::NetworkInterface *ni_;
    IdleCore core_;

    /** @{ The probe. */
    bool armed_ = false;
    bool sideEffect_ = false;
    Addr probePc_ = 0;
    Tick probeStart_ = 0;
    uint64_t niVersion_ = 0;
    uint64_t memVersion_ = 0;
    std::unique_ptr<Probe> probe_;
    Write write_{0, 0, 0};
    /** @} */

    /** @{ The sleep. */
    bool asleep_ = false;
    Tick start_ = 0;         //!< tick of virtual step 0
    Tick period_ = 0;
    uint64_t settled_ = 0;   //!< virtual steps charged so far
    uint64_t panicStep_ = 0; //!< step exceeding maxInstructions
    uint64_t clockStep_ = 0; //!< step the clock is scheduled for
    bool keeping_ = false;   //!< ... and it is a recorded stall
    uint64_t sleepCycles_ = 0;
    /** @} */
};

} // namespace tcpni

#endif // TCPNI_CPU_IDLE_HH

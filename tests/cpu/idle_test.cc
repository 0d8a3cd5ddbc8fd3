/**
 * @file
 * Idle sleep (cpu/idle.hh): a poll loop at a fixed point sleeps until
 * its NI or node memory changes, and its observable behaviour is that
 * of a processor stepping every cycle.
 *
 * Every poll shape of the kernels is covered: the optimized
 * register-mapped `jmp msgip` loop, the optimized cache-mapped
 * `ldi`/`jmp` loop at load-use delay 0 and 2, the basic software
 * dispatch loops (register- and cache-mapped), the HPU loop and the
 * host-proxy ring.  For each, a message (or a ring post) arrives at
 * every phase of the loop period, and the dispatch (halt) tick, the
 * instructions, cycles, stall cycles and per-region cycles must equal
 * the values a stepping processor produces -- pinned from the
 * simulator before idle sleep existed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/cpu.hh"
#include "hpu/hpu.hh"
#include "isa/assembler.hh"
#include "metrics/metrics.hh"
#include "msg/kernels.hh"
#include "ni/ni_regs.hh"
#include "noc/network.hh"
#include "system/system.hh"

using namespace tcpni;
using namespace tcpni::ni;

namespace
{

/** Handler table shared by the hardware-dispatch loops: slot 2 halts. */
const std::string hwTable = R"(
    .align HANDLER_STRIDE
exc:
    halt
    .align HANDLER_STRIDE
    .region processing
h2:
    halt
    .align HANDLER_STRIDE
)";

const std::string regOptLoop = R"(
    .org 0x4000
    .region dispatching
poll:
    jmp  msgip
    nop
)" + hwTable + R"(
    .region setup
entry:
    li   ipbase, 0x4000
    br   poll
    nop
)";

const std::string cacheOptLoop = R"(
    .org 0x4000
    .region dispatching
poll:
    ldi  r15, r10, NI_MSGIP
    jmp  r15
    nop
)" + hwTable + R"(
    .region setup
entry:
    li   r10, NI_BASE
    li   r5, 0x4000
    sti  r5, r10, NI_IPBASE
    br   poll
    nop
)";

const std::string regBasicLoop = R"(
    .org 0x4000
    .region setup
entry:
    li   r12, ST_MSGVALID
    li   r13, DISPATCH_TABLE
    li   r2, h2
    sti  r2, r13, 8
    br   disp
    nop
    .region dispatching
disp:
    and  r5, status, r12
    beqz r5, disp
    slli r6, i4, 2
    ld   r7, r13, r6
    jmp  r7
    nop
    .region processing
h2:
    halt
)";

const std::string cacheBasicLoop = R"(
    .org 0x4000
    .region setup
entry:
    li   r10, NI_BASE
    li   r12, ST_MSGVALID
    li   r13, DISPATCH_TABLE
    li   r2, h2
    sti  r2, r13, 8
    br   disp
    nop
    .region dispatching
disp:
    ldi  r5, r10, NI_STATUS
    ldi  r6, r10, NI_I4
    and  r5, r5, r12
    beqz r5, disp
    slli r6, r6, 2
    ld   r7, r13, r6
    jmp  r7
    nop
    .region processing
h2:
    halt
)";

/** The host side of the On-NI escape ring: poll the producer index. */
const std::string ringLoop = R"(
    .org 0x1000
    .region setup
entry:
    li   r12, 0x800
    addi r9, r0, 0
    br   hp_poll
    nop
    .region dispatching
hp_poll:
    ld   r1, r12, r0
    sub  r1, r1, r9
    beqz r1, hp_poll
    nop
    .region processing
    halt
)";

enum class Engine { cpu, hpu };

struct Shape
{
    const char *name;
    Model model;
    Engine engine;
    const std::string *src;
    bool ring = false;  //!< woken by a store to memory, not the NI
};

const Shape shapes[] = {
    {"reg_opt", {Placement::registerFile, true}, Engine::cpu, &regOptLoop},
    {"cache_opt_d0", {Placement::onChipCache, true}, Engine::cpu,
     &cacheOptLoop},
    {"cache_opt_d2", {Placement::offChipCache, true}, Engine::cpu,
     &cacheOptLoop},
    {"reg_basic", {Placement::registerFile, false}, Engine::cpu,
     &regBasicLoop},
    {"cache_basic_d0", {Placement::onChipCache, false}, Engine::cpu,
     &cacheBasicLoop},
    {"cache_basic_d2", {Placement::offChipCache, false}, Engine::cpu,
     &cacheBasicLoop},
    {"hpu", {Placement::onNi, true}, Engine::hpu, &regOptLoop},
    {"ring", {Placement::registerFile, true}, Engine::cpu, &ringLoop,
     true},
};

/** One processor polling one interface, fed by the test. */
struct Rig
{
    EventQueue eq;
    IdealNetwork net{"net", eq, 2, 1};
    Memory mem{1 << 20};
    std::unique_ptr<NetworkInterface> ni;
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<Hpu> hpu;
    std::vector<std::unique_ptr<LambdaEvent>> events;

    Rig(const Shape &s, CpuConfig cc = {})
    {
        ni = std::make_unique<NetworkInterface>("ni", eq, 1, net,
                                                s.model.config());
        isa::Program p = msg::assembleKernel(*s.src);
        if (s.engine == Engine::hpu) {
            hpu = std::make_unique<Hpu>("hpu", eq, mem, *ni);
            hpu->loadProgram(p);
            hpu->reset(p.addrOf("entry"));
            hpu->start();
        } else {
            cpu = std::make_unique<Cpu>("cpu", eq, mem, ni.get(), cc);
            cpu->loadProgram(p);
            cpu->reset(p.addrOf("entry"));
            cpu->start();
        }
    }

    void
    at(Tick when, int pri, std::function<void()> fn)
    {
        events.push_back(std::make_unique<LambdaEvent>(std::move(fn), pri));
        eq.schedule(events.back().get(), when);
    }

    /** A type-2 message (software id 2) arrives at @p when. */
    void
    arrive(Tick when)
    {
        at(when, Event::networkPri, [this] {
            Message m;
            m.type = 2;
            m.words[4] = 2;
            m.src = 0;
            ASSERT_TRUE(ni->acceptFromNetwork(m));
        });
    }
};

/** What a run ends with: the halt tick and the processor's counters. */
struct Outcome
{
    Tick haltTick;
    uint64_t instructions, cycles, stallCycles;
    uint64_t dispatching, processing;

    bool operator==(const Outcome &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    return os << "{" << o.haltTick << ", " << o.instructions << ", "
              << o.cycles << ", " << o.stallCycles << ", "
              << o.dispatching << ", " << o.processing << "}";
}

template <typename P>
Outcome
outcomeOf(Rig &rig, const P &p)
{
    auto rc = p.regionCycles();
    return {rig.eq.curTick(), p.instructions(), p.cycles(),
            p.stallCycles(), rc["dispatching"], rc["processing"]};
}

/** Run @p s with its event arriving at @p when, at priority @p pri. */
Outcome
runShape(const Shape &s, Tick when, int pri = Event::networkPri)
{
    Rig rig(s);
    if (s.ring) {
        rig.at(when, pri, [&rig] { rig.mem.write(0x800, 1); });
    } else {
        rig.arrive(when);
    }
    rig.eq.run(5000);
    if (rig.hpu) {
        EXPECT_TRUE(rig.hpu->halted());
        return outcomeOf(rig, *rig.hpu);
    }
    EXPECT_TRUE(rig.cpu->halted());
    return outcomeOf(rig, *rig.cpu);
}

/** Injection ticks: one before the loop has settled, then every phase
 *  of two periods of every shape (periods are at most 8 ticks). */
std::vector<Tick>
phases()
{
    std::vector<Tick> t{3};
    for (Tick k = 60; k < 76; ++k)
        t.push_back(k);
    return t;
}

/** Pinned from a processor stepping every cycle: per shape, one
 *  outcome per phases() tick. */
const std::vector<std::vector<Outcome>> expected = {
    // reg_opt
    {
        {6, 7, 7, 0, 2, 1}, {62, 63, 63, 0, 58, 1}, {64, 65, 65, 0, 60, 1},
        {64, 65, 65, 0, 60, 1}, {66, 67, 67, 0, 62, 1},
        {66, 67, 67, 0, 62, 1}, {68, 69, 69, 0, 64, 1},
        {68, 69, 69, 0, 64, 1}, {70, 71, 71, 0, 66, 1},
        {70, 71, 71, 0, 66, 1}, {72, 73, 73, 0, 68, 1},
        {72, 73, 73, 0, 68, 1}, {74, 75, 75, 0, 70, 1},
        {74, 75, 75, 0, 70, 1}, {76, 77, 77, 0, 72, 1},
        {76, 77, 77, 0, 72, 1}, {78, 79, 79, 0, 74, 1}
    },
    // cache_opt_d0
    {
        {10, 11, 11, 0, 3, 1}, {64, 65, 65, 0, 57, 1},
        {64, 65, 65, 0, 57, 1}, {67, 68, 68, 0, 60, 1},
        {67, 68, 68, 0, 60, 1}, {67, 68, 68, 0, 60, 1},
        {70, 71, 71, 0, 63, 1}, {70, 71, 71, 0, 63, 1},
        {70, 71, 71, 0, 63, 1}, {73, 74, 74, 0, 66, 1},
        {73, 74, 74, 0, 66, 1}, {73, 74, 74, 0, 66, 1},
        {76, 77, 77, 0, 69, 1}, {76, 77, 77, 0, 69, 1},
        {76, 77, 77, 0, 69, 1}, {79, 80, 80, 0, 72, 1},
        {79, 80, 80, 0, 72, 1}
    },
    // cache_opt_d2
    {
        {12, 11, 13, 2, 5, 1}, {67, 44, 68, 24, 60, 1},
        {67, 44, 68, 24, 60, 1}, {67, 44, 68, 24, 60, 1},
        {72, 47, 73, 26, 65, 1}, {72, 47, 73, 26, 65, 1},
        {72, 47, 73, 26, 65, 1}, {72, 47, 73, 26, 65, 1},
        {72, 47, 73, 26, 65, 1}, {77, 50, 78, 28, 70, 1},
        {77, 50, 78, 28, 70, 1}, {77, 50, 78, 28, 70, 1},
        {77, 50, 78, 28, 70, 1}, {77, 50, 78, 28, 70, 1},
        {82, 53, 83, 30, 75, 1}, {82, 53, 83, 30, 75, 1},
        {82, 53, 83, 30, 75, 1}
    },
    // reg_basic
    {
        {15, 16, 16, 0, 6, 1}, {66, 67, 67, 0, 57, 1},
        {69, 70, 70, 0, 60, 1}, {69, 70, 70, 0, 60, 1},
        {69, 70, 70, 0, 60, 1}, {72, 73, 73, 0, 63, 1},
        {72, 73, 73, 0, 63, 1}, {72, 73, 73, 0, 63, 1},
        {75, 76, 76, 0, 66, 1}, {75, 76, 76, 0, 66, 1},
        {75, 76, 76, 0, 66, 1}, {78, 79, 79, 0, 69, 1},
        {78, 79, 79, 0, 69, 1}, {78, 79, 79, 0, 69, 1},
        {81, 82, 82, 0, 72, 1}, {81, 82, 82, 0, 72, 1},
        {81, 82, 82, 0, 72, 1}
    },
    // cache_basic_d0
    {
        {19, 20, 20, 0, 8, 1}, {69, 70, 70, 0, 58, 1},
        {69, 70, 70, 0, 58, 1}, {74, 75, 75, 0, 63, 1},
        {74, 75, 75, 0, 63, 1}, {74, 75, 75, 0, 63, 1},
        {74, 75, 75, 0, 63, 1}, {74, 75, 75, 0, 63, 1},
        {79, 80, 80, 0, 68, 1}, {79, 80, 80, 0, 68, 1},
        {79, 80, 80, 0, 68, 1}, {79, 80, 80, 0, 68, 1},
        {79, 80, 80, 0, 68, 1}, {84, 85, 85, 0, 73, 1},
        {84, 85, 85, 0, 73, 1}, {84, 85, 85, 0, 73, 1},
        {84, 85, 85, 0, 73, 1}
    },
    // cache_basic_d2
    {
        {20, 20, 21, 1, 9, 1}, {74, 65, 75, 10, 63, 1},
        {74, 65, 75, 10, 63, 1}, {74, 65, 75, 10, 63, 1},
        {74, 65, 75, 10, 63, 1}, {74, 65, 75, 10, 63, 1},
        {74, 65, 75, 10, 63, 1}, {80, 70, 81, 11, 69, 1},
        {80, 70, 81, 11, 69, 1}, {80, 70, 81, 11, 69, 1},
        {80, 70, 81, 11, 69, 1}, {80, 70, 81, 11, 69, 1},
        {80, 70, 81, 11, 69, 1}, {86, 75, 87, 12, 75, 1},
        {86, 75, 87, 12, 75, 1}, {86, 75, 87, 12, 75, 1},
        {86, 75, 87, 12, 75, 1}
    },
    // hpu
    {
        {6, 7, 7, 0, 2, 1}, {62, 63, 63, 0, 58, 1}, {64, 65, 65, 0, 60, 1},
        {64, 65, 65, 0, 60, 1}, {66, 67, 67, 0, 62, 1},
        {66, 67, 67, 0, 62, 1}, {68, 69, 69, 0, 64, 1},
        {68, 69, 69, 0, 64, 1}, {70, 71, 71, 0, 66, 1},
        {70, 71, 71, 0, 66, 1}, {72, 73, 73, 0, 68, 1},
        {72, 73, 73, 0, 68, 1}, {74, 75, 75, 0, 70, 1},
        {74, 75, 75, 0, 70, 1}, {76, 77, 77, 0, 72, 1},
        {76, 77, 77, 0, 72, 1}, {78, 79, 79, 0, 74, 1}
    },
    // ring
    {
        {9, 10, 10, 0, 4, 1}, {65, 66, 66, 0, 60, 1},
        {65, 66, 66, 0, 60, 1}, {69, 70, 70, 0, 64, 1},
        {69, 70, 70, 0, 64, 1}, {69, 70, 70, 0, 64, 1},
        {69, 70, 70, 0, 64, 1}, {73, 74, 74, 0, 68, 1},
        {73, 74, 74, 0, 68, 1}, {73, 74, 74, 0, 68, 1},
        {73, 74, 74, 0, 68, 1}, {77, 78, 78, 0, 72, 1},
        {77, 78, 78, 0, 72, 1}, {77, 78, 78, 0, 72, 1},
        {77, 78, 78, 0, 72, 1}, {81, 82, 82, 0, 76, 1},
        {81, 82, 82, 0, 76, 1}
    },
};

} // namespace

TEST(IdleSleep, EveryPhaseMatchesStepping)
{
    const std::vector<Tick> ticks = phases();
    for (size_t si = 0; si < std::size(shapes); ++si) {
        const Shape &s = shapes[si];
        std::ostringstream got;
        bool ok = si < expected.size();
        for (size_t k = 0; k < ticks.size(); ++k) {
            const Outcome o = runShape(s, ticks[k]);
            got << (k ? ", " : "") << o;
            if (ok && !(expected[si][k] == o)) {
                ADD_FAILURE() << s.name << ": arrival at tick "
                              << ticks[k] << " gives " << o
                              << ", stepping gives " << expected[si][k];
            }
        }
        if (!ok)
            ADD_FAILURE() << "unpinned shape " << s.name << ": {"
                          << got.str() << "},";
    }
}

TEST(IdleSleep, ForeignStoreAtCpuPriorityMatchesStepping)
{
    // The HPU posts to the ring from its own clock, at cpuPri.
    const Shape &ring = shapes[std::size(shapes) - 1];
    const std::vector<Outcome> pinned = {
        {9, 10, 10, 0, 4, 1}, {65, 66, 66, 0, 60, 1},
        {65, 66, 66, 0, 60, 1}, {69, 70, 70, 0, 64, 1},
        {69, 70, 70, 0, 64, 1}, {69, 70, 70, 0, 64, 1},
        {69, 70, 70, 0, 64, 1}, {73, 74, 74, 0, 68, 1},
        {73, 74, 74, 0, 68, 1}, {73, 74, 74, 0, 68, 1},
        {73, 74, 74, 0, 68, 1}, {77, 78, 78, 0, 72, 1},
        {77, 78, 78, 0, 72, 1}, {77, 78, 78, 0, 72, 1},
        {77, 78, 78, 0, 72, 1}, {81, 82, 82, 0, 76, 1},
        {81, 82, 82, 0, 76, 1}
    };
    const std::vector<Tick> ticks = phases();
    std::ostringstream got;
    for (size_t k = 0; k < ticks.size(); ++k) {
        const Outcome o = runShape(ring, ticks[k], Event::cpuPri);
        got << (k ? ", " : "") << o;
        if (k < pinned.size())
            EXPECT_EQ(pinned[k], o) << "store at tick " << ticks[k];
    }
    if (pinned.size() != ticks.size())
        ADD_FAILURE() << "unpinned: {" << got.str() << "}";
}

TEST(IdleSleep, PollLoopsSleep)
{
    for (const Shape &s : shapes) {
        Rig rig(s);
        rig.eq.run(200);
        EXPECT_TRUE(rig.hpu ? rig.hpu->asleep() : rig.cpu->asleep())
            << s.name;
        // Asleep, the queue holds the clock alone (at its
        // maxInstructions tick, or at each >= 2-cycle stall).
        EXPECT_EQ(rig.eq.size(), 1u) << s.name;
    }
}

TEST(IdleSleep, SettledCountersMatchSteppingMidSleep)
{
    // Counters read mid-sleep -- by an accessor between runs, by a
    // metrics dump at statsPri -- are those of the stepping CPU.
    const Shape &s = shapes[0];
    Rig rig(s);
    std::string dump;
    rig.at(101, Event::statsPri, [&] {
        std::ostringstream os;
        rig.cpu->stats().dump(os, rig.eq.curTick());
        dump = os.str();
    });
    rig.eq.run(150);
    ASSERT_TRUE(rig.cpu->asleep());
    EXPECT_EQ(rig.eq.curTick(), 150u);
    EXPECT_EQ(rig.cpu->instructions(), 151u);
    EXPECT_EQ(rig.cpu->cycles(), 151u);
    // At tick 101 (statsPri) the stepping CPU had retired 102.
    EXPECT_NE(dump.find(" 102  # instructions retired"),
              std::string::npos)
        << dump;
}

TEST(IdleSleep, SamplerRowsMatchStepping)
{
    // A Sampler reading mid-sleep sees the stepping CPU's counters.
    metrics::Registry reg(16);
    metrics::setRegistry(&reg);
    {
        Rig rig(shapes[0]);
        rig.arrive(90);
        rig.eq.run(200);
        metrics::snapshot(rig.eq, rig.eq.curTick());
    }
    metrics::setRegistry(nullptr);
    metrics::TaskMetrics tm = reg.finalize("idle");
    std::ostringstream got;
    for (const metrics::SampleRow &r : tm.rows) {
        if (tm.seriesNames[r.series] == "cpu.instructions")
            got << r.tick << ":" << r.value << " ";
    }
    EXPECT_EQ(got.str(), "16:17 32:33 48:49 64:65 80:81 96:93 ");
}

TEST(IdleSleep, InterruptDuringSleepTakenAsWhenStepping)
{
    // An interrupt-driven CPU idles in a memory poll (no stores), so
    // it sleeps; the arrival interrupt is taken at the stepping tick.
    const std::string src = R"(
    .org 0x4000
poll:
    jmp  msgip
    nop
    .align HANDLER_STRIDE
exc:
    halt
    .align HANDLER_STRIDE
h2:
    halt
    .align HANDLER_STRIDE
entry:
    li   ipbase, 0x4000
    ori  control, control, CT_INTEN
loop:
    ldi  r3, r0, 0x700
    beqz r3, loop
    nop
    halt
)";
    const Shape s{"intr", {Placement::registerFile, true}, Engine::cpu,
                  &src};
    for (Tick t : {Tick{50}, Tick{51}, Tick{52}}) {
        Rig rig(s);
        rig.eq.run(40);
        EXPECT_TRUE(rig.cpu->asleep());
        rig.arrive(t);
        rig.eq.run(500);
        EXPECT_TRUE(rig.cpu->halted());
        EXPECT_EQ(rig.cpu->interruptsTaken(), 1u);
        const Outcome o = outcomeOf(rig, *rig.cpu);
        const Outcome pinned[] = {
            {52, 52, 53, 0, 0, 0}, {52, 52, 53, 0, 0, 0},
            {53, 53, 54, 0, 0, 0}};
        EXPECT_EQ(pinned[t - 50], o) << "arrival at " << t;
    }
}

TEST(IdleSleep, RunawayPollLoopStillPanics)
{
    // The sleeper's clock waits at the tick the 1001st instruction
    // would issue, and panics there as the stepping CPU did.
    CpuConfig cc;
    cc.maxInstructions = 1000;
    Rig rig(shapes[0], cc);
    EXPECT_THROW(rig.eq.run(), PanicError);
    EXPECT_EQ(rig.eq.curTick(), 1000u);
}

TEST(IdleSleep, RunWithOnlySleepersEndsAtTheDeadline)
{
    sys::NodeConfig nc;
    nc.ni = Model{Placement::registerFile, true}.config();
    sys::System sys("idle", 2, 1, nc);
    isa::Program p = msg::assembleKernel(regOptLoop);
    for (NodeId n = 0; n < 2; ++n)
        sys.node(n).boot(p, p.addrOf("entry"));
    EXPECT_FALSE(sys.run(5000));
    EXPECT_EQ(sys.curTick(), 5000u);
    EXPECT_TRUE(sys.node(0).cpu().asleep());
    // 3 setup instructions, then the two-instruction loop every tick.
    EXPECT_EQ(sys.node(0).cpu().instructions(), 5001u);
    EXPECT_EQ(sys.node(1).cpu().cycles(), 5001u);
}

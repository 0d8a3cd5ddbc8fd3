/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrates: event
 * queue, mesh network, network interface, assembler, CPU model,
 * traffic-generator arrival clock, and TAM interpreter throughput.
 * These guard the simulator's own performance (host-side), not the
 * simulated machine's.
 */

#include <benchmark/benchmark.h>

#include "apps/matmul.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/cpu.hh"
#include "msg/kernels.hh"
#include "ni/ni_regs.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"

using namespace tcpni;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    struct Nop : Event
    {
        void process() override {}
    };
    std::vector<Nop> events(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        (void)_;
        EventQueue eq;
        Tick t = 0;
        for (auto &ev : events)
            eq.schedule(&ev, ++t);
        eq.run();
        benchmark::DoNotOptimize(eq.numProcessed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_MeshAllToAll(benchmark::State &state)
{
    const unsigned w = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        (void)_;
        EventQueue eq;
        MeshNetwork mesh("m", eq, w, w, 8);
        for (NodeId i = 0; i < w * w; ++i)
            mesh.setSink(i, [](const Message &) { return true; });
        for (NodeId s = 0; s < w * w; ++s) {
            Message m;
            m.words[0] = globalWord((s + 1) % (w * w), 0);
            m.setDestFromWord0();
            mesh.offer(s, m);
        }
        eq.run();
        benchmark::DoNotOptimize(mesh.delivered());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) *
                            state.range(0));
}
BENCHMARK(BM_MeshAllToAll)->Arg(4)->Arg(8);

void
BM_AssembleHandlerProgram(benchmark::State &state)
{
    ni::Model model{ni::Placement::registerFile, true};
    std::string src = msg::handlerProgram(model);
    for (auto _ : state) {
        (void)_;
        isa::Program p = msg::assembleKernel(src);
        benchmark::DoNotOptimize(p.words.size());
    }
}
BENCHMARK(BM_AssembleHandlerProgram);

void
BM_CpuSimulationRate(benchmark::State &state)
{
    // Instructions simulated per second on a tight loop.
    isa::Program prog = isa::assemble(R"(
        entry:
            li   r1, 100000
        loop:
            addi r2, r2, 3
            xor  r3, r2, r1
            addi r1, r1, -1
            bnez r1, loop
            nop
            halt
    )");
    for (auto _ : state) {
        (void)_;
        EventQueue eq;
        Memory mem(1 << 20);
        Cpu cpu("c", eq, mem, nullptr);
        cpu.loadProgram(prog);
        cpu.reset(prog.addrOf("entry"));
        cpu.start();
        eq.run();
        benchmark::DoNotOptimize(cpu.instructions());
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<int64_t>(
                                    cpu.instructions()));
    }
}
BENCHMARK(BM_CpuSimulationRate);

void
BM_IdleServer(benchmark::State &state)
{
    // An optimized register-mapped server polls `jmp msgip` for N
    // ticks, then handles one message.  The idle poll sleeps, so the
    // events per simulated cycle fall with N instead of staying at 1.
    const Tick idle = static_cast<Tick>(state.range(0));
    isa::Program prog = msg::assembleKernel(R"(
        .org 0x4000
    poll:
        jmp  msgip
        nop
        .align HANDLER_STRIDE
        halt
        .align HANDLER_STRIDE
        halt
        .align HANDLER_STRIDE
    entry:
        li   ipbase, 0x4000
        br   poll
        nop
    )");
    double events = 0, cycles = 0;
    for (auto _ : state) {
        (void)_;
        EventQueue eq;
        IdealNetwork net("net", eq, 1);
        Memory mem(1 << 20);
        ni::NetworkInterface nic("ni", eq, 0, net,
                                 ni::Model{ni::Placement::registerFile,
                                           true}.config());
        Cpu cpu("c", eq, mem, &nic);
        cpu.loadProgram(prog);
        cpu.reset(prog.addrOf("entry"));
        cpu.start();
        LambdaEvent arrive(
            [&] {
                Message m;
                m.type = 2;
                nic.acceptFromNetwork(m);
            },
            Event::networkPri);
        eq.schedule(&arrive, idle);
        eq.run();
        events += static_cast<double>(eq.numProcessed());
        cycles += static_cast<double>(cpu.cycles());
    }
    state.counters["events_per_cycle"] = events / cycles;
}
BENCHMARK(BM_IdleServer)->Arg(1000)->Arg(100000);

void
BM_GeometricGap(benchmark::State &state)
{
    // The traffic layer's arrival clock: one poisson gap (or bursty
    // burst length) of mean m per iteration, reported as Bernoulli
    // trials (next32() draws) per second.
    const uint32_t m = static_cast<uint32_t>(state.range(0));
    Random rng(1);
    int64_t trials = 0;
    for (auto _ : state) {
        (void)_;
        uint64_t g = rng.geometric(m);
        benchmark::DoNotOptimize(g);
        trials += static_cast<int64_t>(g);
    }
    state.SetItemsProcessed(trials);
}
BENCHMARK(BM_GeometricGap)->Arg(8)->Arg(472)->Arg(4096);

void
BM_TamMatMul(benchmark::State &state)
{
    logging::quiet = true;
    const unsigned n = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        (void)_;
        apps::MatMulResult r = apps::runMatMul(n, 4);
        benchmark::DoNotOptimize(r.stats.totalMessages());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<int64_t>(r.stats.totalMessages()));
    }
}
BENCHMARK(BM_TamMatMul)->Arg(20)->Arg(40);

} // namespace

BENCHMARK_MAIN();

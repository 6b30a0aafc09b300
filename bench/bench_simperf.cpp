/**
 * @file
 * Host-side performance of the simulator itself (google-benchmark):
 * instruction throughput of a single PE, whole-system simulation rate
 * (flat and sharded), compiler throughput, and the host cost of one
 * checkpoint snapshot.
 * Not a thesis experiment - this guards the usability of the
 * reproduction.
 */
#include <benchmark/benchmark.h>

#include <chrono>

#include "isa/assembler.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "programs/benchmarks.hpp"

using namespace qm;

namespace {

void
BM_PeInstructionRate(benchmark::State &state)
{
    // A tight register loop: measures raw PE step() throughput.
    isa::ObjectCode code = isa::assemble(
        "  plus #100000,#0 :r17\n"
        "loop:\n"
        "  minus r17,#1 :r17\n"
        "  bne r17,@loop\n"
        "  fret\n");
    isa::DecodedProgram decoded(code.words);
    pe::Memory memory(1 << 16);
    pe::NullHost host;
    std::int64_t total_instructions = 0;
    for (auto _ : state) {
        pe::ProcessingElement pe(memory, decoded, host);
        pe::ContextState ctx;
        ctx.qp = 0x1000;
        ctx.pom = pe::pomForPageWords(64);
        pe.loadContext(ctx);
        while (pe.step().status == pe::StepStatus::Executed)
            ++total_instructions;
    }
    // SetItemsProcessed takes the total for the whole run, so the
    // count accumulates across iterations.
    state.SetItemsProcessed(total_instructions);
}
BENCHMARK(BM_PeInstructionRate)->Unit(benchmark::kMillisecond);

void
BM_CompileMatmul(benchmark::State &state)
{
    for (auto _ : state) {
        occam::CompiledProgram program =
            occam::compileOccam(programs::matmulSource());
        benchmark::DoNotOptimize(program.object.words.data());
    }
}
BENCHMARK(BM_CompileMatmul)->Unit(benchmark::kMillisecond);

void
BM_SimulateMatmul(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    int pes = static_cast<int>(state.range(0));
    std::int64_t total_instructions = 0;
    for (auto _ : state) {
        mp::SystemConfig config;
        config.numPes = pes;
        mp::System system(program.object, config);
        mp::RunResult result = system.run(program.mainLabel);
        total_instructions +=
            static_cast<std::int64_t>(result.instructions);
    }
    state.SetItemsProcessed(total_instructions);
}
BENCHMARK(BM_SimulateMatmul)->Arg(1)->Arg(8)->Unit(
    benchmark::kMillisecond);

/**
 * Whole-system host speed: items processed is the SIMULATED cycle
 * count, so items/sec reads directly as simulated cycles per host
 * second.
 */
void
BM_SimCyclesEvent(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    int pes = static_cast<int>(state.range(0));
    std::int64_t total_cycles = 0;
    for (auto _ : state) {
        mp::SystemConfig config;
        config.numPes = pes;
        mp::System system(program.object, config);
        mp::RunResult result = system.run(program.mainLabel);
        total_cycles += static_cast<std::int64_t>(result.cycles);
    }
    state.SetItemsProcessed(total_cycles);
}
BENCHMARK(BM_SimCyclesEvent)->Arg(1)->Arg(8)->Unit(
    benchmark::kMillisecond);

/**
 * The sharded kernel's fork path: the binary-recursive fan-out on 64
 * PEs as 16 rings of 4, where every fork places within a shard and
 * every ifork looks its output channel up in the channel directory.
 * Items processed is the simulated cycle count, as above.
 */
void
BM_SimCyclesSharded(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::binaryFanRecursiveSource());
    std::int64_t total_cycles = 0;
    for (auto _ : state) {
        mp::SystemConfig config;
        config.numPes = 64;
        config.setTopology(mp::parseTopology("rings:16x4"));
        mp::System system(program.object, config);
        mp::RunResult result = system.run(program.mainLabel);
        if (!result.completed) {
            state.SkipWithError("the fan-out did not complete");
            return;
        }
        total_cycles += static_cast<std::int64_t>(result.cycles);
    }
    state.SetItemsProcessed(total_cycles);
}
BENCHMARK(BM_SimCyclesSharded)->Unit(benchmark::kMillisecond);

/**
 * What a checkpoint costs: System::snapshot() on a machine stopped
 * mid-run, shaped like qmbench's recover-4pe workload (the n=6 matmul
 * on 4 PEs with a snapshot every 500 cycles). Each snapshot replaces
 * the previous one, so an iteration pays for copying the machine state
 * and for freeing the copy it replaces, as an in-run snapshot does.
 * The us_per_snapshot counter is the mean host time of one snapshot.
 */
void
BM_CheckpointSnapshot(benchmark::State &state)
{
    occam::CompiledProgram program =
        occam::compileOccam(programs::matmulSource());
    mp::SystemConfig config;
    config.numPes = 4;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 500;
    mp::System system(program.object, config);
    // About half of the run's 33 k simulated cycles: the message cache
    // holds some 300 channel entries by then.
    mp::RunResult result = system.run(program.mainLabel, 16000);
    if (result.completed) {
        state.SkipWithError("the run finished before the snapshot point");
        return;
    }
    double total_us = 0;
    for (auto _ : state) {
        auto start = std::chrono::steady_clock::now();
        system.snapshot();
        total_us += std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    }
    state.counters["us_per_snapshot"] =
        benchmark::Counter(total_us, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CheckpointSnapshot)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();

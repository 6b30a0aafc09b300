/**
 * @file
 * Determinism gate for the PDES window scheduler: a run with
 * `hostThreads = N` must be BYTE-IDENTICAL to the sequential loop on
 * every observable surface - RunResult fields, the rendered statistics
 * registry, the Chrome trace stream, the full simulated memory image,
 * and the BENCH / metrics JSON documents - for ANY thread count,
 * across flat and hierarchical topologies and the same plain / fault /
 * recovery corpora the other differential suites replay
 * (tests/fuzz_corpus.hpp, honoring QM_FUZZ_ITERS).
 *
 * What each suite pins down:
 *  - Plain corpus: real speculation windows (gang rounds, banked
 *    batches, ordered drain) against the sequential event loop.
 *  - Checkpoint corpus: fault-free runs with periodic snapshots; the
 *    window end is capped at nextCheckpointAt_, so every snapshot
 *    lands exactly on a window barrier *by construction* and must
 *    capture the same state the sequential core snapshots.
 *  - Fault / recovery / pinned-partitioned corpora: fault-injected
 *    runs take the sequential path by design (runLoop routes them
 *    away from the window scheduler), so bridge-crossing retransmits,
 *    pekill fail-stop + cross-shard migration, and checkpoint replay
 *    land on "window barriers" trivially - the thread count must be
 *    byte-inert, which is exactly what these suites assert.
 *
 * The TSan CI job builds this test with -DQM_TSAN to soak the gang
 * fork/join protocol and the speculation bank under the race detector.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "fuzz_corpus.hpp"
#include "isa/assembler.hpp"
#include "mp/system.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "trace/export.hpp"

namespace {

using namespace qm;
using namespace qm::occam;
using fuzz::corpusPes;
using fuzz::corpusSeed;
using fuzz::fuzzIters;
using fuzz::ProgramGen;

/** The thread counts every corpus is replayed at. */
constexpr int kThreadCounts[] = {1, 2, 4, 8};

/** Everything one run produced that every other run must reproduce. */
struct CoreRun
{
    mp::RunResult result;
    int replays = 0;
    std::string stats;           ///< StatSet::render() of the system.
    std::string trace;           ///< Chrome trace JSON, full stream.
    std::vector<std::uint8_t> memory;
};

isa::ObjectCode
compileCorpusProgram(int idx, std::string *main_label)
{
    ProgramGen gen(corpusSeed(idx));
    std::string source = gen.generate();
    Program ast = parse(source);
    SymbolTable table = analyze(ast);
    Ift ift = Ift::build(ast, table);
    ContextProgram contexts = buildContextGraphs(ast, table, ift);
    *main_label = contexts.mainLabel;
    return isa::assemble(generateAssembly(contexts));
}

CoreRun
runThreaded(const isa::ObjectCode &object,
            const std::string &main_label, mp::SystemConfig config,
            int threads)
{
    config.hostThreads = threads;
    // Record the full event stream so the comparison covers trace
    // emission order and timestamps, not just the end state.
    config.traceConfig.enabled = true;
    mp::System system(object, config);
    CoreRun run;
    run.result = system.run(main_label);
    while (!run.result.completed && config.recovery.enabled &&
           system.replayable() && system.canRestore() &&
           run.replays < config.recovery.maxReplays) {
        system.restore();
        ++run.replays;
        run.result = system.resume();
    }
    run.stats = system.stats().render();
    run.trace = trace::chromeTraceJson(system.tracer());
    system.memory().snapshotTo(run.memory);
    return run;
}

void
expectIdentical(const CoreRun &seq, const CoreRun &par)
{
    const mp::RunResult &a = seq.result;
    const mp::RunResult &b = par.result;
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.contexts, b.contexts);
    EXPECT_EQ(a.rendezvous, b.rendezvous);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.kernelCycles, b.kernelCycles);
    EXPECT_EQ(a.blockedCycles, b.blockedCycles);
    EXPECT_EQ(a.busCycles, b.busCycles);
    EXPECT_EQ(a.watchdogTripped, b.watchdogTripped);
    EXPECT_EQ(a.failureReason, b.failureReason);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.faultRecoveries, b.faultRecoveries);
    EXPECT_EQ(a.traceDropped, b.traceDropped);
    for (std::size_t k = 0; k < a.faultKinds.size(); ++k) {
        EXPECT_EQ(a.faultKinds[k].injected, b.faultKinds[k].injected)
            << "kind bit " << k;
        EXPECT_EQ(a.faultKinds[k].detected, b.faultKinds[k].detected)
            << "kind bit " << k;
        EXPECT_EQ(a.faultKinds[k].recovered, b.faultKinds[k].recovered)
            << "kind bit " << k;
    }
    EXPECT_EQ(seq.replays, par.replays);
    EXPECT_EQ(seq.stats, par.stats);
    EXPECT_EQ(seq.trace, par.trace);
    EXPECT_EQ(seq.memory, par.memory);
}

/** Replay one config at every thread count. */
void
expectThreadInert(const isa::ObjectCode &object,
                  const std::string &main_label,
                  const mp::SystemConfig &config)
{
    CoreRun baseline =
        runThreaded(object, main_label, config, /*threads=*/1);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        expectIdentical(baseline,
                        runThreaded(object, main_label, config, threads));
    }
}

class FuzzPdesPlainTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPdesPlainTest, PlainCorpusByteIdenticalAtAllThreadCounts)
{
    // Fault-free corpus on the flat ring: the real speculation path -
    // gang rounds over partitioned slots, banked continuation batches,
    // and the ordered window drain.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(PlainCorpus, FuzzPdesPlainTest,
                         ::testing::Range(0, fuzzIters(24)));

class FuzzPdesPartitionedTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPdesPartitionedTest,
       PartitionedCorpusByteIdenticalAtAllThreadCounts)
{
    // Hierarchical machines: worker partitions align with the local
    // rings (one worker owns whole rings when it can), the lookahead
    // is the cross-PE minimum over hops, bridges, and the backbone,
    // and cross-ring traffic must land identically window by window.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = 8 + 8 * (GetParam() % 2);  // 8 or 16 PEs
    static const mp::RingTopology kShapes[] = {
        {1, 2}, {2, 2}, {4, 1}, {2, 4}};
    config.setTopology(kShapes[GetParam() % 4]);
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(PartitionedCorpus, FuzzPdesPartitionedTest,
                         ::testing::Range(0, fuzzIters(12)));

class FuzzPdesCheckpointTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPdesCheckpointTest,
       CheckpointsLandOnWindowBarriersByConstruction)
{
    // Fault-free runs with aggressive periodic checkpoints, so the
    // threaded scheduler takes real speculation windows AND periodic
    // snapshot() calls. The window end is capped at nextCheckpointAt_,
    // which forces every checkpoint onto a window barrier by
    // construction (speculation banking is also disabled so slot state
    // is window-exact when the snapshot quiesces it); the snapshot the
    // threaded run takes must equal the sequential one bit for bit,
    // which this suite observes through the checkpoint counters in the
    // stats render and through everything downstream of the snapshots.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    // A hierarchy needs at least one PE per ring, so pad the machine
    // when this index pins the rings:2x2 shape.
    if (GetParam() % 2 == 0) {
        config.numPes = 4 + corpusPes(GetParam());
        config.setTopology({2, 2});
    } else {
        config.numPes = corpusPes(GetParam());
    }
    config.recovery.enabled = true;
    // Smaller than most window spacings, so checkpoints interleave
    // with (and truncate) speculative windows rather than hiding
    // between them.
    config.recovery.checkpointEvery = 64 + 64 * (GetParam() % 3);
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(CheckpointCorpus, FuzzPdesCheckpointTest,
                         ::testing::Range(0, fuzzIters(12)));

class FuzzPdesFaultTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPdesFaultTest, FaultCorpusByteIdenticalAtAllThreadCounts)
{
    // Seeded fault injection: runLoop routes fault-injected runs to
    // the sequential event loop (the injector's decision stream is
    // consumed at sequential sites), so the thread count must be
    // byte-inert - asserted here rather than assumed.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    fault::FaultPlan plan;
    plan.seed = 0xFA117 + static_cast<std::uint64_t>(GetParam());
    plan.rate = 0.03;
    plan.kinds = fault::kBusDrop | fault::kBusDelay | fault::kPeStall;
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(FaultCorpus, FuzzPdesFaultTest,
                         ::testing::Range(0, fuzzIters(8)));

class FuzzPdesRecoveryTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzPdesRecoveryTest,
       RecoveryCorpusByteIdenticalAtAllThreadCounts)
{
    // The harsh mix: loss past the retry bound, duplication,
    // corruption, periodic fail-stop, recovery on, periodic
    // checkpoints, bounded replay. Snapshot / restore / resume all
    // run under every thread count and must replay identically.
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = corpusPes(GetParam());
    fault::FaultPlan plan;
    plan.seed = 0x5EC0 + static_cast<std::uint64_t>(GetParam());
    plan.rate = 0.25;
    plan.kinds =
        fault::kBusDrop | fault::kBusDup | fault::kCacheCorrupt;
    plan.maxRetries = 1;
    if (GetParam() % 3 == 0) {
        plan.kinds |= fault::kPeKill;
        plan.killAt = 200;
        plan.killPe = GetParam() % 4;
    }
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(RecoveryCorpus, FuzzPdesRecoveryTest,
                         ::testing::Range(0, fuzzIters(8)));

class PdesPinnedAdversarialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PdesPinnedAdversarialTest,
       PartitionedRecoveryCorpusByteIdenticalAtAllThreadCounts)
{
    // The pinned multi-partition recovery corpus: bridge-crossing
    // retransmits, pekill fail-stop with cross-shard re-dispatch, and
    // checkpoint replay on hierarchical machines. Fault-injected runs
    // are defined to take the sequential path, so these adversarial
    // events align with "window barriers" exactly (there are no
    // speculative windows to misalign with) - the assertion is that
    // no thread count can perturb a single byte of them. The
    // fault-free window-barrier coverage for checkpoints lives in
    // FuzzPdesCheckpointTest above, where the window-end cap makes
    // snapshots land on barriers by construction.
    const fuzz::PartitionedRecoverySpec &entry =
        fuzz::kPartitionedRecoveryCorpus[static_cast<std::size_t>(
            GetParam())];
    SCOPED_TRACE(entry.faults);
    std::string main_label;
    isa::ObjectCode object =
        compileCorpusProgram(GetParam(), &main_label);
    mp::SystemConfig config;
    config.numPes = entry.pes;
    config.setTopology({entry.rings, entry.partitions});
    config.faultPlan = fault::parseFaultPlan(entry.faults);
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    config.recovery.maxResends = 64;
    expectThreadInert(object, main_label, config);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedPartitionedCorpus, PdesPinnedAdversarialTest,
    ::testing::Range(0,
                     static_cast<int>(std::size(
                         fuzz::kPartitionedRecoveryCorpus))));

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(PdesDifferential, BenchAndMetricsJsonByteIdentical)
{
    // The exported documents CI diffing consumes, compared byte for
    // byte between a sequential and a 4-thread sweep. Host timing is
    // measured either way but stays out of the default BENCH document;
    // the host_threads metadata key is likewise only emitted when
    // explicitly requested, so the default documents must be exact.
    std::string source = ProgramGen(corpusSeed(0)).generate();
    occam::CompiledProgram program = occam::compileOccam(source);

    auto series_for = [&](int threads) {
        mp::SystemConfig config;
        config.hostThreads = threads;
        sim::SpeedupSeries series;
        series.name = "corpus0";
        for (int pes : {1, 2, 4, 8})
            series.runs.push_back(
                sim::runOnce(program, "", {}, pes, config));
        return series;
    };
    sim::SpeedupSeries seq = series_for(1);
    sim::SpeedupSeries par = series_for(4);

    for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        EXPECT_EQ(seq.runs[i].cycles, par.runs[i].cycles);
        EXPECT_EQ(seq.runs[i].completed, par.runs[i].completed);
        EXPECT_EQ(seq.runs[i].stats.render(),
                  par.runs[i].stats.render());
        EXPECT_GE(seq.runs[i].hostWallMs, 0.0);
        EXPECT_GE(par.runs[i].hostWallMs, 0.0);
    }

    std::string seq_bench =
        sim::writeBenchJson("pdesdiff", {seq}, "pdes_diff_seq.json");
    std::string par_bench =
        sim::writeBenchJson("pdesdiff", {par}, "pdes_diff_par.json");
    EXPECT_EQ(slurp(seq_bench), slurp(par_bench));
    std::remove(seq_bench.c_str());
    std::remove(par_bench.c_str());

    std::string seq_metrics = sim::writeMetricsJson(
        "pdesdiff", {seq}, "pdes_diff_seq_metrics.json");
    std::string par_metrics = sim::writeMetricsJson(
        "pdesdiff", {par}, "pdes_diff_par_metrics.json");
    EXPECT_EQ(slurp(seq_metrics), slurp(par_metrics));
    std::remove(seq_metrics.c_str());
    std::remove(par_metrics.c_str());
}

TEST(PdesDifferential, HostThreadsMetadataKeyIsOptIn)
{
    // Baseline-comparison hygiene (the --min-thread-speedup gate keys
    // off this): a threaded sweep records host_threads in the BENCH
    // document, a sequential sweep omits the key so historical
    // baselines keep their exact bytes.
    sim::SpeedupSeries series;
    series.name = "meta";
    std::string seq_path = sim::writeBenchJson(
        "pdesmeta", {series}, "pdes_meta_seq.json",
        /*host_time=*/false, /*host_threads=*/1);
    std::string par_path = sim::writeBenchJson(
        "pdesmeta", {series}, "pdes_meta_par.json",
        /*host_time=*/false, /*host_threads=*/4);
    std::string seq_doc = slurp(seq_path);
    std::string par_doc = slurp(par_path);
    EXPECT_EQ(seq_doc.find("host_threads"), std::string::npos);
    EXPECT_NE(par_doc.find("\"host_threads\":4"), std::string::npos);
    std::remove(seq_path.c_str());
    std::remove(par_path.c_str());
}

TEST(PdesDifferential, ThreadCountClampsToMachineSize)
{
    // More workers than PEs degenerates to one slot per worker; far
    // more than that must not crash or change a byte.
    std::string main_label;
    isa::ObjectCode object = compileCorpusProgram(1, &main_label);
    mp::SystemConfig config;
    config.numPes = 2;
    CoreRun baseline = runThreaded(object, main_label, config, 1);
    expectIdentical(baseline,
                    runThreaded(object, main_label, config,
                                /*threads=*/64));
}

} // namespace

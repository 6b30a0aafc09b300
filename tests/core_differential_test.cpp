/**
 * @file
 * Golden gate for the simulation core. Every run of the shared corpora
 * (fuzz_corpus.hpp: plain programs, seeded fault injection, the harsh
 * recovery mix with fail-stops and checkpoint replay, hierarchical
 * multi-partition machines, the pinned watchdog scenario, and the
 * corpus-0 BENCH / metrics documents) is reduced to one text line: the
 * completion flag, cycles, instructions, replays, failure reason, and
 * 64-bit hashes of the rendered statistics, the Chrome trace, the
 * memory image, the remaining RunResult fields and the exported JSON
 * documents. Each line must equal its committed counterpart under
 * tests/golden/ byte for byte. The committed lines were recorded from
 * the original unit-tick simulation core, so the event-driven core
 * stays held to it on every observable surface.
 *
 * A line is a run's index followed by space-separated key=value
 * fields; `reason` comes last and runs to the end of the line.
 *
 * Honors QM_FUZZ_ITERS like the fuzz suites, up to the committed width
 * of 240 runs per fuzz corpus. An index past the committed lines fails
 * and names itself; it is never skipped.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
using fuzz::fuzzIters;

/** Order-sensitive 64-bit hash: each step is a bijection of the state. */
void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
}

std::uint64_t
hashBytes(const std::string &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    mix(h, bytes.size());
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + i, 8);
        mix(h, w);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    mix(h, tail);
    return h;
}

/**
 * Hash of a memory image: the size plus the offset and value of every
 * non-zero 8-byte word, so untouched (zero) pages cost a read only.
 */
std::uint64_t
hashMemory(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    mix(h, size);
    for (std::size_t i = 0; i + 8 <= size; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, data + i, 8);
        if (w != 0) {
            mix(h, i);
            mix(h, w);
        }
    }
    return h;
}

/** The RunResult fields the line does not spell out, hashed. */
std::uint64_t
hashResultDetail(const mp::RunResult &r)
{
    std::ostringstream os;
    char util[32];
    std::snprintf(util, sizeof util, "%.17g", r.utilization);
    os << r.contexts << ' ' << r.rendezvous << ' ' << r.contextSwitches
       << ' ' << util << ' ' << r.computeCycles << ' ' << r.kernelCycles
       << ' ' << r.blockedCycles << ' ' << r.busCycles << ' '
       << r.watchdogTripped << ' ' << r.faultsInjected << ' '
       << r.faultRecoveries << ' ' << r.traceDropped;
    for (const auto &k : r.faultKinds)
        os << ' ' << k.injected << ' ' << k.detected << ' ' << k.recovered;
    return hashBytes(os.str());
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

isa::ObjectCode
compileCorpusProgram(int idx, std::string *main_label)
{
    using namespace qm::occam;
    fuzz::ProgramGen gen(fuzz::corpusSeed(idx));
    std::string source = gen.generate();
    Program ast = parse(source);
    SymbolTable table = analyze(ast);
    Ift ift = Ift::build(ast, table);
    ContextProgram contexts = buildContextGraphs(ast, table, ift);
    *main_label = contexts.mainLabel;
    return isa::assemble(generateAssembly(contexts));
}

// --- Corpus configurations (one per golden file) -------------------

mp::SystemConfig
plainConfig(int idx)
{
    mp::SystemConfig config;
    config.numPes = fuzz::corpusPes(idx);
    return config;
}

/** Same plans as FuzzFaultDifferentialTest. */
mp::SystemConfig
faultConfig(int idx)
{
    mp::SystemConfig config;
    config.numPes = fuzz::corpusPes(idx);
    fault::FaultPlan plan;
    plan.seed = 0xFA117 + static_cast<std::uint64_t>(idx);
    plan.rate = 0.03;
    plan.kinds = fault::kBusDrop | fault::kBusDelay | fault::kPeStall;
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    return config;
}

/**
 * The harsh mix: loss past the retry bound, duplication, corruption,
 * periodic fail-stop, recovery on, periodic checkpoints, bounded
 * replay.
 */
mp::SystemConfig
recoveryConfig(int idx)
{
    mp::SystemConfig config;
    config.numPes = fuzz::corpusPes(idx);
    fault::FaultPlan plan;
    plan.seed = 0x5EC0 + static_cast<std::uint64_t>(idx);
    plan.rate = 0.25;
    plan.kinds = fault::kBusDrop | fault::kBusDup | fault::kCacheCorrupt;
    plan.maxRetries = 1;
    if (idx % 3 == 0) {
        plan.kinds |= fault::kPeKill;
        plan.killAt = 200;
        plan.killPe = idx % 4;
    }
    config.faultPlan = plan;
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    return config;
}

/** The plain corpus on hierarchical multi-partition machines. */
mp::SystemConfig
partitionedConfig(int idx)
{
    mp::SystemConfig config;
    config.numPes = 8 + 8 * (idx % 2);  // 8 or 16 PEs
    static const mp::RingTopology kShapes[] = {
        {2, 2}, {4, 1}, {2, 4}, {4, 2}};
    config.setTopology(kShapes[idx % 4]);
    return config;
}

/** The pinned multi-partition recovery corpus (fuzz_corpus.hpp). */
mp::SystemConfig
pinnedPartitionedConfig(int idx)
{
    const fuzz::PartitionedRecoverySpec &entry =
        fuzz::kPartitionedRecoveryCorpus[static_cast<std::size_t>(idx)];
    mp::SystemConfig config;
    config.numPes = entry.pes;
    config.setTopology({entry.rings, entry.partitions});
    config.faultPlan = fault::parseFaultPlan(entry.faults);
    config.watchdogCycles = 200'000;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 300;
    config.recovery.maxResends = 64;
    return config;
}

/** Number of runs in the pinned watchdog scenario. */
constexpr int kWatchdogRuns = 6;

/**
 * Pinned chaos scenario engineered to end runs through the
 * watchdog/starvation path: aggressive loss with a single link retry,
 * no recovery layer, and a tight watchdog.
 */
mp::SystemConfig
watchdogConfig(int idx)
{
    mp::SystemConfig config;
    config.numPes = 4;
    fault::FaultPlan plan;
    plan.seed = 0xD06 + static_cast<std::uint64_t>(idx);
    plan.rate = 0.5;
    plan.kinds = fault::kBusDrop;
    plan.maxRetries = 1;
    config.faultPlan = plan;
    config.watchdogCycles = 3000;
    return config;
}

// --- Recording ------------------------------------------------------

/** One run reduced to its golden line (without the leading index). */
struct GoldenRun
{
    mp::RunResult result;
    std::string line;
};

/**
 * Run corpus program @p idx under @p config with the full trace
 * recorded, replaying from checkpoints while the recovery plan allows,
 * and reduce every observable surface to one line.
 */
GoldenRun
recordRun(int idx, mp::SystemConfig config)
{
    std::string main_label;
    isa::ObjectCode object = compileCorpusProgram(idx, &main_label);
    // Record the full event stream so the line covers trace emission
    // order and timestamps, not just the end state.
    config.traceConfig.enabled = true;
    mp::System system(object, config);
    mp::RunResult result = system.run(main_label);
    int replays = 0;
    while (!result.completed && config.recovery.enabled &&
           system.replayable() && system.canRestore() &&
           replays < config.recovery.maxReplays) {
        system.restore();
        ++replays;
        result = system.resume();
    }
    std::ostringstream os;
    os << "completed=" << result.completed << " cycles=" << result.cycles
       << " instructions=" << result.instructions
       << " replays=" << replays
       << " stats=" << hex(hashBytes(system.stats().render()))
       << " trace="
       << hex(hashBytes(trace::chromeTraceJson(system.tracer())))
       << " memory="
       << hex(hashMemory(system.memory().data(), system.memory().size()))
       << " result=" << hex(hashResultDetail(result))
       << " reason=" << result.failureReason;
    return {result, os.str()};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Corpus program 0 at 1, 2 and 4 PEs through sim::runOnce, reduced to
 * one line: per-run completion, cycles, instructions and stats, then
 * hashes of the BENCH and metrics documents written from the series.
 */
std::string
recordBenchDocuments()
{
    std::string source = fuzz::ProgramGen(fuzz::corpusSeed(0)).generate();
    occam::CompiledProgram program = occam::compileOccam(source);
    sim::SpeedupSeries series;
    series.name = "corpus0";
    std::ostringstream os;
    for (int pes : {1, 2, 4}) {
        sim::RunReport run = sim::runOnce(program, "", {}, pes);
        os << "pes" << pes << ".completed=" << run.completed << " pes"
           << pes << ".cycles=" << run.cycles << " pes" << pes
           << ".instructions=" << run.instructions << " pes" << pes
           << ".stats=" << hex(hashBytes(run.stats.render())) << ' ';
        series.runs.push_back(std::move(run));
    }
    // Host timing is measured by runOnce but stays out of the default
    // documents, which is why they can be compared exactly.
    std::string bench =
        sim::writeBenchJson("corediff", {series}, "core_golden_bench.json");
    std::string metrics = sim::writeMetricsJson(
        "corediff", {series}, "core_golden_metrics.json");
    os << "bench=" << hex(hashBytes(slurp(bench)))
       << " metrics=" << hex(hashBytes(slurp(metrics))) << " reason=";
    std::remove(bench.c_str());
    std::remove(metrics.c_str());
    return os.str();
}

// --- Line comparison ----------------------------------------------

/** Split a line into (key, value) fields; `reason` takes the rest. */
std::vector<std::pair<std::string, std::string>>
fields(const std::string &line)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t eq = line.find('=', pos);
        if (eq == std::string::npos) {
            out.emplace_back(line.substr(pos), "");
            break;
        }
        std::string key = line.substr(pos, eq - pos);
        std::size_t end = key == "reason" ? line.size()
                                          : line.find(' ', eq + 1);
        if (end == std::string::npos)
            end = line.size();
        out.emplace_back(key, line.substr(eq + 1, end - eq - 1));
        pos = end + 1;
    }
    return out;
}

/**
 * First field where @p recorded and @p recomputed differ, as
 * "key: golden X, recomputed Y"; empty when the lines are equal.
 */
std::string
firstDifference(const std::string &recorded, const std::string &recomputed)
{
    if (recorded == recomputed)
        return "";
    auto a = fields(recorded);
    auto b = fields(recomputed);
    for (std::size_t i = 0; i < a.size() || i < b.size(); ++i) {
        std::string key = i < a.size() ? a[i].first : b[i].first;
        if (i >= a.size() || i >= b.size() || a[i] != b[i])
            return key + ": golden '" +
                   (i < a.size() ? a[i].second : "<missing>") +
                   "', recomputed '" +
                   (i < b.size() ? b[i].second : "<missing>") + "'";
    }
    return "line text";
}

// --- The gate ------------------------------------------------------

/** The committed lines of tests/golden/<corpus>.txt, cached. */
const std::vector<std::string> &
goldenLines(const std::string &corpus)
{
    static std::map<std::string, std::vector<std::string>> cache;
    auto it = cache.find(corpus);
    if (it != cache.end())
        return it->second;
    std::vector<std::string> lines;
    std::ifstream in(std::string(QM_GOLDEN_DIR) + "/" + corpus + ".txt");
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return cache.emplace(corpus, std::move(lines)).first->second;
}

/** Compare a recomputed line with the committed line for @p idx. */
void
expectGolden(const std::string &corpus, int idx, const std::string &line)
{
    const std::vector<std::string> &golden = goldenLines(corpus);
    ASSERT_FALSE(golden.empty())
        << "no golden lines in " << QM_GOLDEN_DIR << "/" << corpus
        << ".txt";
    ASSERT_LT(static_cast<std::size_t>(idx), golden.size())
        << "no golden line for " << corpus << " index " << idx
        << ": the committed width is " << golden.size()
        << " (QM_FUZZ_ITERS asks for more than was recorded)";
    std::string prefix = std::to_string(idx) + " ";
    const std::string &recorded = golden[static_cast<std::size_t>(idx)];
    ASSERT_EQ(recorded.rfind(prefix, 0), 0u)
        << corpus << ".txt line " << idx + 1 << " is not index " << idx;
    std::string diff =
        firstDifference(recorded.substr(prefix.size()), line);
    EXPECT_TRUE(diff.empty())
        << corpus << " index " << idx << " differs in " << diff
        << "\n  recomputed: " << prefix << line;
}

class FuzzCoreDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreDifferentialTest, PlainCorpusByteIdentical)
{
    expectGolden("plain", GetParam(),
                 recordRun(GetParam(),
                                   plainConfig(GetParam()))
                     .line);
}

INSTANTIATE_TEST_SUITE_P(PlainCorpus, FuzzCoreDifferentialTest,
                         ::testing::Range(0, fuzzIters(80)));

class FuzzCoreFaultDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreFaultDifferentialTest, FaultCorpusByteIdentical)
{
    // The injector's decision stream is consumed at fixed sites, so
    // even the injected fault schedule must line up event for event.
    expectGolden("fault", GetParam(),
                 recordRun(GetParam(),
                                   faultConfig(GetParam()))
                     .line);
}

INSTANTIATE_TEST_SUITE_P(FaultCorpus, FuzzCoreFaultDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzCoreRecoveryDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCoreRecoveryDifferentialTest, RecoveryCorpusByteIdentical)
{
    // Snapshot/restore under the harsh mix: the stat-delta flush
    // points must make checkpoint contents (and everything
    // downstream) match the recorded runs exactly.
    expectGolden("recovery", GetParam(),
                 recordRun(GetParam(),
                                   recoveryConfig(GetParam()))
                     .line);
}

INSTANTIATE_TEST_SUITE_P(RecoveryCorpus,
                         FuzzCoreRecoveryDifferentialTest,
                         ::testing::Range(0, fuzzIters(40)));

class FuzzCorePartitionedDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzCorePartitionedDifferentialTest,
       PartitionedPlainCorpusByteIdentical)
{
    // Cross-ring transfers, bridge arbitration, and sharded kernel
    // placement on hierarchical machines.
    expectGolden(
        "partitioned_plain", GetParam(),
        recordRun(GetParam(),
                          partitionedConfig(GetParam()))
            .line);
}

INSTANTIATE_TEST_SUITE_P(PartitionedPlainCorpus,
                         FuzzCorePartitionedDifferentialTest,
                         ::testing::Range(0, fuzzIters(24)));

class PartitionedRecoveryDifferentialTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionedRecoveryDifferentialTest,
       PinnedPartitionedCorpusByteIdentical)
{
    // PE kills plus loss on hierarchical machines: checkpoint replay,
    // cross-shard re-dispatch, and bridge-crossing retransmits.
    const fuzz::PartitionedRecoverySpec &entry =
        fuzz::kPartitionedRecoveryCorpus[static_cast<std::size_t>(
            GetParam())];
    SCOPED_TRACE(entry.faults);
    expectGolden(
        "partitioned_recovery", GetParam(),
        recordRun(GetParam(),
                          pinnedPartitionedConfig(GetParam()))
            .line);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedPartitionedCorpus, PartitionedRecoveryDifferentialTest,
    ::testing::Range(0,
                     static_cast<int>(std::size(
                         fuzz::kPartitionedRecoveryCorpus))));

TEST(CoreDifferential, WatchdogAccountingPinned)
{
    // Whatever the exact outcome per index, the watchdog-tripped flag,
    // the failure reason and the cycle the run died at must match.
    bool saw_trip = false;
    for (int idx = 0; idx < kWatchdogRuns; ++idx) {
        GoldenRun run =
            recordRun(idx, watchdogConfig(idx));
        expectGolden("watchdog", idx, run.line);
        saw_trip = saw_trip || run.result.watchdogTripped;
    }
    // The scenario must actually exercise the path it pins.
    EXPECT_TRUE(saw_trip);
}

TEST(CoreDifferential, BenchAndMetricsJsonByteIdentical)
{
    // The exported documents - the surfaces CI diffing consumes.
    expectGolden("bench_documents", 0, recordBenchDocuments());
}

} // namespace

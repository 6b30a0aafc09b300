#include "jobs.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "isa/assembler.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/ift.hpp"
#include "occam/lexer.hpp"
#include "occam/parser.hpp"
#include "occam/symbols.hpp"
#include "support/format.hpp"

namespace qmbench {

using qm::cat;
using Clock = std::chrono::steady_clock;

namespace {

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** A span around one call; a no-op on the untraced pass. */
class SpanGuard
{
  public:
    SpanGuard(SpanLog *log, const char *name)
        : log_(log), index_(log ? log->begin(name) : -1)
    {
    }
    ~SpanGuard()
    {
        if (log_)
            log_->end(index_);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    SpanLog *log_;
    int index_;
};

template <class F>
auto
timed(SpanLog &log, const char *name, F &&call)
{
    SpanGuard span(&log, name);
    return call();
}

/**
 * occam::compileOccam with each phase called through its own public
 * function, in compileOccam's order and with its default options. The
 * job checks the object code against compileOccam's, so the two stay
 * in step. Parsing lexes again internally; the separate lex span
 * measures that share.
 */
qm::occam::CompiledProgram
compileTraced(const std::string &source, SpanLog &log)
{
    using namespace qm::occam;
    const CompileOptions defaults;
    timed(log, "occam.lex", [&] { return lex(source); });
    std::optional<Program> program;
    std::optional<SymbolTable> table;
    std::optional<Ift> ift;
    std::optional<ContextProgram> contexts;
    program.emplace(timed(log, "occam.parse", [&] { return parse(source); }));
    table.emplace(timed(log, "occam.sema", [&] { return analyze(*program); }));
    ift.emplace(timed(log, "occam.ift", [&] {
        return Ift::build(*program, *table, defaults.liveAnalysis);
    }));
    BuildOptions build;
    build.inputSequencing = defaults.inputSequencing;
    contexts.emplace(timed(log, "occam.graph", [&] {
        return buildContextGraphs(*program, *table, *ift, build);
    }));
    CodegenOptions codegen;
    codegen.priorityScheduling = defaults.priorityScheduling;
    codegen.pageWords = defaults.pageWords;

    CompiledProgram result;
    result.assembly = timed(log, "occam.codegen", [&] {
        return generateAssembly(*contexts, codegen);
    });
    result.object = timed(log, "isa.assemble",
                          [&] { return qm::isa::assemble(result.assembly); });
    result.mainLabel = contexts->mainLabel;
    result.contextCount = static_cast<int>(contexts->contexts.size());
    for (const auto &[symbol, addr] : contexts->dataAddress)
        result.dataMap[table->symbol(symbol).name] = addr;
    {
        // compileOccam frees these as it returns; that is compile time too.
        SpanGuard span(&log, "occam.free");
        contexts.reset();
        ift.reset();
        table.reset();
        program.reset();
    }
    return result;
}

void
checkResult(qm::mp::System &sys, const qm::occam::CompiledProgram &program,
            const Input &input, const char *when)
{
    qm::isa::Addr base = program.arrayAddress(input.resultArray);
    for (std::size_t i = 0; i < input.expected.size(); ++i) {
        auto got = static_cast<std::int32_t>(sys.memory().readWord(
            base + static_cast<qm::isa::Addr>(i) * 4));
        if (got != input.expected[i])
            throw std::runtime_error(cat(when, ": ", input.resultArray,
                                         "[", i, "] = ", got,
                                         ", expected ",
                                         input.expected[i]));
    }
}

/**
 * Snapshot the finished machine, save that snapshot, release the
 * machine as a restart after a crash would, load the file into a fresh
 * System, resume, and check that the warm start ends at the same cycle
 * with the same result; @p sys is left holding the fresh machine.
 *
 * The snapshot is taken here rather than saving the run's last periodic
 * one: saveCheckpoint pairs the last snapshot with the fault injector's
 * current streams, so a mid-run snapshot saved after the run would
 * resume under a different fault schedule.
 */
void
durableRoundTrip(std::unique_ptr<qm::mp::System> &sys,
                 const qm::occam::CompiledProgram &program,
                 const Input &input, SpanLog *log, JobResult &res)
{
    {
        SpanGuard span(log, "ckpt.snapshot");
        sys->snapshot();
    }
    {
        SpanGuard span(log, "persist.save");
        qm::persist::Status st = sys->saveCheckpoint(input.checkpointPath);
        if (!st.ok())
            throw std::runtime_error("saveCheckpoint: " + st.toString());
    }
    res.fileBytes = std::filesystem::file_size(input.checkpointPath);
    sys.reset();
    {
        // A warm start pays for the fresh machine as well as the file.
        SpanGuard span(log, "persist.load");
        sys = std::make_unique<qm::mp::System>(program.object, input.config);
        qm::persist::Status st = sys->loadCheckpoint(input.checkpointPath);
        if (!st.ok())
            throw std::runtime_error("loadCheckpoint: " + st.toString());
    }
    qm::mp::RunResult resumed;
    {
        SpanGuard span(log, "persist.resume");
        resumed = sys->resume();
    }
    if (!resumed.completed)
        throw std::runtime_error("resumed run did not complete: " +
                                 resumed.failureReason);
    if (resumed.cycles != res.counts.cycles)
        throw std::runtime_error(cat("resumed run ends at cycle ",
                                     resumed.cycles, ", the original at ",
                                     res.counts.cycles));
    checkResult(*sys, program, input, "after resume");
}

SimCounts
countsOf(const qm::mp::RunResult &run, const qm::mp::System &sys)
{
    const qm::StatSet &stats = sys.stats();
    SimCounts c;
    c.cycles = run.cycles;
    c.instructions = run.instructions;
    c.contextsCreated = run.contexts;
    c.computeCycles = run.computeCycles;
    c.kernelCycles = run.kernelCycles;
    c.blockedCycles = run.blockedCycles;
    c.rendezvous = run.rendezvous;
    c.recvRequests = stats.counter("msg.recv_requests");
    c.remoteTransfers = stats.counter("bus.remote_transfers");
    c.bridgeTransfers = stats.counter("bus.bridge_transfers");
    c.contentionCycles = stats.counter("bus.contention_cycles");
    c.shardMigrations = stats.counter("sys.shard_migrations");
    c.faultsInjected = run.faultsInjected;
    c.faultRecoveries = run.faultRecoveries;
    return c;
}

} // namespace

std::string
SimCounts::render() const
{
    return cat("cycles=", cycles, ";instructions=", instructions,
               ";contexts=", contextsCreated, ";compute=", computeCycles,
               ";kernel=", kernelCycles, ";blocked=", blockedCycles,
               ";rendezvous=", rendezvous, ";recv=", recvRequests,
               ";remote=", remoteTransfers, ";bridge=", bridgeTransfers,
               ";contention=", contentionCycles,
               ";migrations=", shardMigrations,
               ";faults=", faultsInjected, ";recoveries=", faultRecoveries,
               ";snapshots=", snapshots, ";replays=", replays);
}

JobResult
runJob(const Input &input, SpanLog *log)
{
    JobResult res;
    Clock::time_point start = Clock::now();
    try {
        qm::occam::CompiledProgram program;
        std::unique_ptr<qm::mp::System> sys;
        {
            SpanGuard job(log, "bench.job");
            {
                SpanGuard span(log, "occam.compile");
                program = log ? compileTraced(input.source, *log)
                              : qm::occam::compileOccam(input.source);
            }
            res.compileMs = msSince(start);
            res.contexts = program.contextCount;
            if (input.object.empty())
                res.object = program.object.words;
            else if (program.object.words != input.object)
                throw std::runtime_error(
                    "object code differs from the set-up compile");

            Clock::time_point sim_start = Clock::now();
            {
                SpanGuard span(log, "mp.construct");
                sys = std::make_unique<qm::mp::System>(program.object,
                                                       input.config);
                for (const auto &[array, values] : input.loads) {
                    qm::isa::Addr base = program.arrayAddress(array);
                    for (std::size_t i = 0; i < values.size(); ++i)
                        sys->memory().writeWord(
                            base + static_cast<qm::isa::Addr>(i) * 4,
                            static_cast<qm::isa::Word>(values[i]));
                }
            }
            std::uint64_t snapshots = 0;
            sys->setCheckpointSink(
                [&snapshots](qm::mp::System &) { ++snapshots; });
            qm::mp::RunResult run;
            {
                SpanGuard span(log, "mp.run");
                run = sys->run(program.mainLabel);
            }
            std::uint64_t replays = 0;
            const qm::fault::RecoveryPlan &recovery = input.config.recovery;
            while (!run.completed && recovery.enabled &&
                   sys->replayable() && sys->canRestore() &&
                   replays < static_cast<std::uint64_t>(recovery.maxReplays)) {
                SpanGuard span(log, "sim.replay");
                sys->restore();
                ++replays;
                run = sys->resume();
            }
            res.simMs = msSince(sim_start);
            sys->setCheckpointSink(nullptr);

            res.counts = countsOf(run, *sys);
            res.counts.snapshots = snapshots;
            res.counts.replays = replays;
            if (!run.completed)
                throw std::runtime_error("run did not complete: " +
                                         run.failureReason);
            {
                SpanGuard span(log, "bench.check");
                checkResult(*sys, program, input, "result");
            }
            if (input.durable)
                durableRoundTrip(sys, program, input, log, res);
            if (input.recorded && !(res.counts == input.reference))
                throw std::runtime_error(
                    "simulated counts differ from the set-up run: " +
                    res.counts.render() + " vs " +
                    input.reference.render());
            res.jobMs = msSince(start);
        }
        if (log) {
            SpanGuard probe(log, "ckpt.probe");
            if (!input.durable)
                durableRoundTrip(sys, program, input, log, res);
            {
                SpanGuard span(log, "ckpt.restore");
                sys->restore();
            }
        }
        res.ok = true;
    } catch (const std::exception &e) {
        res.error = e.what();
        res.jobMs = msSince(start);
    }
    return res;
}

} // namespace qmbench

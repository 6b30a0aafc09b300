/**
 * @file
 * One benchmark job: OCCAM source -> occam::compileOccam -> mp::System
 * -> run (+ durable save/load/resume where the input asks for it) ->
 * result array checked against the reference. The traced variant
 * calls the compiler phases one by one and records a span around each
 * public call; nothing is instrumented inside the program.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mp/system.hpp"

namespace qmbench {

/** One timed public call of the traced pass. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;  ///< Since the log's epoch.
    std::int64_t endNs = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
    int job = 0;
};

/** Spans kept in memory until the benchmark writes them out at exit. */
class SpanLog
{
  public:
    SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

    int
    begin(const char *name)
    {
        spans_.push_back({name, now(), 0, open_, job_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int index)
    {
        spans_[static_cast<std::size_t>(index)].endNs = now();
        open_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    void setJob(int job) { job_ = job; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    int open_ = -1;
    int job_ = 0;
};

/**
 * Simulated counts of one job. They depend only on the input, so two
 * runs of one input must agree byte for byte (the determinism guard).
 */
struct SimCounts
{
    std::int64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t contextsCreated = 0;
    std::int64_t computeCycles = 0;
    std::int64_t kernelCycles = 0;
    std::int64_t blockedCycles = 0;
    std::uint64_t rendezvous = 0;
    std::uint64_t recvRequests = 0;
    std::uint64_t remoteTransfers = 0;
    std::uint64_t bridgeTransfers = 0;
    std::uint64_t contentionCycles = 0;
    std::uint64_t shardMigrations = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultRecoveries = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t replays = 0;

    bool operator==(const SimCounts &) const = default;
    /** "cycles=...;instructions=...;..." in a fixed order. */
    std::string render() const;
};

/** A prepared job input with its reference result. */
struct Input
{
    std::string source;
    std::string resultArray;
    /** Arrays written into data memory before the run. */
    std::vector<std::pair<std::string, std::vector<std::int32_t>>> loads;
    std::vector<std::int32_t> expected;
    qm::mp::SystemConfig config;
    /** The job checkpoints the finished machine to disk, loads the file
     *  into a fresh System, resumes, and checks the result again. */
    bool durable = false;
    /** Checkpoint file for the save/load round trip. */
    std::string checkpointPath;

    // Recorded by the input's first successful run.
    bool recorded = false;
    SimCounts reference;
    std::vector<qm::isa::Word> object;  ///< compileOccam's object code.
    std::uint64_t tokens = 0;
    int contexts = 0;
};

/** Host-side outcome of one job. */
struct JobResult
{
    bool ok = false;
    std::string error;  ///< Why the job failed (empty when ok).
    double jobMs = 0;
    double compileMs = 0;
    /** System construction + run + replays: the simulation's host time. */
    double simMs = 0;
    std::uint64_t fileBytes = 0;  ///< Durable checkpoint size.
    int contexts = 0;             ///< Context graphs compiled.
    SimCounts counts;
    /** Object code, kept only when the input has none recorded yet. */
    std::vector<qm::isa::Word> object;
};

/**
 * Run one job. With @p log set, the compile phases are called one by
 * one and every public call gets a span. After the job span, a probe
 * span times the checkpoint calls on the machine the job ended with:
 * the durable round trip (snapshot, save, load, resume) unless the job
 * already made it, then restore().
 */
JobResult runJob(const Input &input, SpanLog *log);

} // namespace qmbench

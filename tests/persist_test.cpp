/**
 * @file
 * Durability suite: durable checkpoint save/load/resume byte-identity
 * across topologies and fault injection; a
 * corrupt-checkpoint fuzzer (bit flips and truncations must be
 * detected and refused with a structured error, never a crash or a
 * silently-wrong resume); the MEMS page-image and CACH message-cache
 * codecs; the sweep completion journal (replay identity, torn tails,
 * fingerprint mismatch); and in-memory snapshot/restore identity under flat and
 * hierarchical topologies.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "msg/message_cache.hpp"
#include "mp/system.hpp"
#include "occam/compiler.hpp"
#include "pe/memory.hpp"
#include "persist/io.hpp"
#include "persist/state_codec.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "support/shutdown.hpp"
#include "trace/export.hpp"

namespace {

using namespace qm;

const char *kPipelineSource = R"(var results[2]:
chan a:
chan b:
var total, count:
seq
  total := 0
  count := 0
  par
    seq i = [1 for 16]
      a ! i
    seq j = [1 for 16]
      var x:
      seq
        a ? x
        b ! x * x
    seq k = [1 for 16]
      var y:
      seq
        b ? y
        total := total + y
        count := count + 1
  results[0] := total
  results[1] := count
)";

const occam::CompiledProgram &
pipelineProgram()
{
    static occam::CompiledProgram program =
        occam::compileOccam(kPipelineSource);
    return program;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "persist_test_" + name;
}

/** Every surface a resumed run must reproduce byte-for-byte. */
struct Surfaces
{
    mp::RunResult result;
    std::string stats;
    std::string trace;
    std::vector<std::uint8_t> memory;
};

Surfaces
capture(mp::System &system, const mp::RunResult &result)
{
    Surfaces s;
    s.result = result;
    s.stats = system.stats().render();
    s.trace = trace::chromeTraceJson(system.tracer());
    const pe::Memory &memory = system.memory();
    s.memory.assign(memory.data(), memory.data() + memory.size());
    return s;
}

void
expectIdentical(const Surfaces &a, const Surfaces &b)
{
    EXPECT_EQ(a.result.completed, b.result.completed);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.contexts, b.result.contexts);
    EXPECT_EQ(a.result.rendezvous, b.result.rendezvous);
    EXPECT_EQ(a.result.contextSwitches, b.result.contextSwitches);
    EXPECT_EQ(a.result.utilization, b.result.utilization);
    EXPECT_EQ(a.result.computeCycles, b.result.computeCycles);
    EXPECT_EQ(a.result.kernelCycles, b.result.kernelCycles);
    EXPECT_EQ(a.result.blockedCycles, b.result.blockedCycles);
    EXPECT_EQ(a.result.busCycles, b.result.busCycles);
    EXPECT_EQ(a.result.watchdogTripped, b.result.watchdogTripped);
    EXPECT_EQ(a.result.failureReason, b.result.failureReason);
    EXPECT_EQ(a.result.faultsInjected, b.result.faultsInjected);
    EXPECT_EQ(a.result.faultRecoveries, b.result.faultRecoveries);
    EXPECT_EQ(a.result.traceDropped, b.result.traceDropped);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.memory, b.memory);
}

/**
 * Drive one full run that persists its @p target_snapshot-th snapshot
 * to @p path (the last one if the run snapshots fewer times), and
 * return the uninterrupted run's surfaces.
 */
Surfaces
runSaving(const mp::SystemConfig &config, const std::string &path,
          int target_snapshot)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    int seen = 0;
    system.setCheckpointSink([&](mp::System &s) {
        ++seen;
        // Persist the target snapshot, then keep overwriting until a
        // later one passes it (covers "last one wins" too).
        if (seen <= target_snapshot) {
            persist::Status st = s.saveCheckpoint(path);
            ASSERT_TRUE(st.ok()) << st.toString();
        }
    });
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed) << result.failureReason;
    EXPECT_GE(seen, 1);
    return capture(system, result);
}

/** Warm-start from @p path under @p config and return the surfaces. */
Surfaces
resumeFrom(const mp::SystemConfig &config, const std::string &path)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_TRUE(st.ok()) << st.toString();
    mp::RunResult result = system.resume();
    EXPECT_TRUE(result.completed) << result.failureReason;
    return capture(system, result);
}

mp::SystemConfig
baseConfig(int pes)
{
    mp::SystemConfig config;
    config.numPes = pes;
    config.recovery.enabled = true;
    config.recovery.checkpointEvery = 150;
    config.traceConfig.enabled = true;
    return config;
}

// ---------------------------------------------------------------------------
// Durable checkpoint: resume byte-identity.
// ---------------------------------------------------------------------------

struct ResumeCase
{
    const char *name;
    const char *topology;  ///< nullptr = default flat ring.
    int pes;
    /**
     * Host deadline for the resuming System only. The deadline is
     * byte-inert and outside the checkpoint fingerprint, so a
     * checkpoint must resume identically under a different one.
     */
    long resumeDeadlineMs;
};

class DurableResumeTest : public ::testing::TestWithParam<ResumeCase>
{
};

TEST_P(DurableResumeTest, ResumeMatchesUninterruptedRun)
{
    const ResumeCase &c = GetParam();
    std::string path = tempPath(std::string("resume_") + c.name + ".qmc");
    mp::SystemConfig save_config = baseConfig(c.pes);
    if (c.topology)
        save_config.setTopology(mp::parseTopology(c.topology));
    // Resume every prefix: the 1st, 2nd, ... snapshot must each warm-
    // start into the same completed run the uninterrupted one saw.
    for (int target = 1; target <= 3; ++target) {
        Surfaces full = runSaving(save_config, path, target);
        mp::SystemConfig resume_config = save_config;
        resume_config.hostDeadlineMs = c.resumeDeadlineMs;
        Surfaces resumed = resumeFrom(resume_config, path);
        expectIdentical(full, resumed);
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DurableResumeTest,
    ::testing::Values(
        ResumeCase{"flat_event", nullptr, 4, 0},
        ResumeCase{"ring4_resume", "ring:4", 8, 0},
        ResumeCase{"rings2x2_deadline", "rings:2x2", 8, 600000}),
    [](const ::testing::TestParamInfo<ResumeCase> &info) {
        return info.param.name;
    });

TEST(DurableResumeTest, FaultInjectedResumeMatchesUninterrupted)
{
    // The injector's SplitMix64 stream state is persisted, so the
    // resumed run draws the same fault schedule the uninterrupted one
    // drew past the snapshot point.
    std::string path = tempPath("resume_faults.qmc");
    mp::SystemConfig config = baseConfig(4);
    config.faultPlan =
        fault::parseFaultPlan("seed=42,rate=0.01,kinds=drop+delay");
    Surfaces full = runSaving(config, path, 2);
    Surfaces resumed = resumeFrom(config, path);
    expectIdentical(full, resumed);
    std::remove(path.c_str());
}

TEST(DurableResumeTest, RetainedSnapshotSavedAfterRunResumesIdentically)
{
    // Save the run's last periodic snapshot only after the run has
    // finished and its fault streams have moved on: the file must
    // still pair the snapshot with the streams as they were when it
    // was taken, so the warm start redraws the uninterrupted run's
    // fault schedule from that point.
    std::string path = tempPath("resume_retained.qmc");
    mp::SystemConfig config = baseConfig(4);
    config.faultPlan = fault::parseFaultPlan("seed=3,rate=0.3,kinds=drop");
    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed) << result.failureReason;
    ASSERT_GT(result.faultsInjected, 0u);
    Surfaces full = capture(system, result);
    persist::Status st = system.saveCheckpoint(path);
    ASSERT_TRUE(st.ok()) << st.toString();
    Surfaces resumed = resumeFrom(config, path);
    expectIdentical(full, resumed);
    std::remove(path.c_str());
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    persist::Status st = persist::readFile(path, bytes);
    EXPECT_TRUE(st.ok()) << st.toString();
    return bytes;
}

TEST(DurableResumeTest, SaveLoadSaveIsByteIdentical)
{
    // A loaded checkpoint re-saves to the very bytes it was read from:
    // the page image decoded from MEMS is the one the next save writes.
    std::string first = tempPath("resave_first.qmc");
    std::string second = tempPath("resave_second.qmc");
    mp::SystemConfig config = baseConfig(4);
    config.faultPlan =
        fault::parseFaultPlan("seed=42,rate=0.01,kinds=drop+delay");
    runSaving(config, first, 2);

    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    persist::Status st = system.loadCheckpoint(first);
    ASSERT_TRUE(st.ok()) << st.toString();
    st = system.saveCheckpoint(second);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(readBytes(first), readBytes(second));
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(DurableResumeTest, LoadReplacesMemoryWrittenBeforeIt)
{
    // Memory written before loadCheckpoint, with or without a snapshot
    // in between, must read as the file says once the load is done.
    std::string path = tempPath("resume_prewritten.qmc");
    mp::SystemConfig config = baseConfig(4);
    Surfaces full = runSaving(config, path, 2);
    const isa::Addr stray =
        static_cast<isa::Addr>(config.memoryBytes - 4);  // never used
    const occam::CompiledProgram &program = pipelineProgram();
    for (bool snapshot_first : {false, true}) {
        mp::System system(program.object, config);
        system.memory().writeWord(stray, 0xdeadbeef);
        if (snapshot_first)
            system.snapshot();
        persist::Status st = system.loadCheckpoint(path);
        ASSERT_TRUE(st.ok()) << st.toString();
        EXPECT_EQ(system.memory().readWord(stray), 0u) << snapshot_first;
        mp::RunResult result = system.resume();
        ASSERT_TRUE(result.completed) << result.failureReason;
        expectIdentical(full, capture(system, result));
    }
    std::remove(path.c_str());
}

TEST(DurableResumeTest, MismatchedConfigRefused)
{
    std::string path = tempPath("resume_mismatch.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 1);

    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig other = baseConfig(8);  // different machine shape
    mp::System system(program.object, other);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    EXPECT_NE(st.message.find("pes=4"), std::string::npos)
        << st.toString();
    // The refused system is still cold and runnable.
    mp::RunResult result = system.run(program.mainLabel);
    EXPECT_TRUE(result.completed) << result.failureReason;
    std::remove(path.c_str());
}

TEST(DurableResumeTest, LoadAfterBootRefused)
{
    std::string path = tempPath("resume_booted.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 1);

    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed);
    persist::Status st = system.loadCheckpoint(path);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    std::remove(path.c_str());
}

TEST(DurableResumeTest, SaveWithoutRecoveryRefused)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config;
    config.numPes = 2;
    mp::System system(program.object, config);
    persist::Status st = system.saveCheckpoint(tempPath("never.qmc"));
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
}

// ---------------------------------------------------------------------------
// Corrupt-checkpoint fuzzer: detected, refused, cold start survives.
// ---------------------------------------------------------------------------

TEST(CorruptCheckpointTest, BitFlipsDetectedAndRefused)
{
    std::string path = tempPath("fuzz_flip.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(persist::readFile(path, image).ok());
    ASSERT_GT(image.size(), 64u);

    const occam::CompiledProgram &program = pipelineProgram();
    // Deterministic sweep: flip one bit every 97 bytes (hits header,
    // tags, lengths, CRCs, and payload bytes across every section).
    int checked = 0;
    for (std::size_t pos = 0; pos < image.size(); pos += 97) {
        std::vector<std::uint8_t> bad = image;
        bad[pos] ^= 1u << (pos % 8);
        ASSERT_TRUE(persist::writeFileAtomic(path, bad).ok());
        mp::System system(program.object, config);
        persist::Status st = system.loadCheckpoint(path);
        EXPECT_FALSE(st.ok()) << "undetected bit flip at byte " << pos;
        EXPECT_FALSE(st.message.empty());
        // A refused load leaves the system cold: it must boot and run.
        // Actually running every case would dominate the suite, so
        // spot-check a sample (detection itself is checked for all).
        if (checked++ % 16 == 0) {
            mp::RunResult result = system.run(program.mainLabel);
            EXPECT_TRUE(result.completed) << result.failureReason;
        }
    }
    std::remove(path.c_str());
}

TEST(CorruptCheckpointTest, TruncationsDetectedAndRefused)
{
    std::string path = tempPath("fuzz_trunc.qmc");
    mp::SystemConfig config = baseConfig(4);
    runSaving(config, path, 2);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(persist::readFile(path, image).ok());

    const occam::CompiledProgram &program = pipelineProgram();
    // Every prefix length along a stride, plus the boundary cases.
    std::vector<std::size_t> cuts = {0, 1, 7, 8, 23, 24};
    for (std::size_t cut = 31; cut < image.size(); cut += 211)
        cuts.push_back(cut);
    int checked = 0;
    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> bad(image.begin(),
                                      image.begin() +
                                          static_cast<long>(cut));
        ASSERT_TRUE(persist::writeFileAtomic(path, bad).ok());
        mp::System system(program.object, config);
        persist::Status st = system.loadCheckpoint(path);
        EXPECT_FALSE(st.ok()) << "undetected truncation at " << cut;
        if (checked++ % 16 == 0) {
            mp::RunResult result = system.run(program.mainLabel);
            EXPECT_TRUE(result.completed) << result.failureReason;
        }
    }
    std::remove(path.c_str());
}

TEST(CorruptCheckpointTest, MissingFileIsIoError)
{
    const occam::CompiledProgram &program = pipelineProgram();
    mp::SystemConfig config = baseConfig(2);
    mp::System system(program.object, config);
    persist::Status st =
        system.loadCheckpoint(tempPath("does_not_exist.qmc"));
    EXPECT_EQ(st.code, persist::ErrCode::Io);
}

// ---------------------------------------------------------------------------
// MEMS page-image codec. The decoder builds pages, not a dense buffer,
// yet must read every payload exactly as copying each record over
// zeroed memory in file order would: same memory or same rejection.
// ---------------------------------------------------------------------------

using pe::kPageBytes;

/** Four full pages and a short fifth one. */
constexpr std::size_t kMemBytes = 4 * kPageBytes + 100;

struct MemRecord
{
    std::uint64_t offset;
    std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t>
memsPayload(std::size_t size, const std::vector<MemRecord> &records)
{
    persist::Encoder enc;
    enc.u64(size);
    enc.u64(records.size());
    for (const MemRecord &r : records) {
        enc.u64(r.offset);
        enc.blob(r.bytes.data(), r.bytes.size());
    }
    return enc.take();
}

/** The dense reading: each record copied over zeroed memory in order. */
std::vector<std::uint8_t>
denseReading(const std::vector<MemRecord> &records)
{
    std::vector<std::uint8_t> dense(kMemBytes, 0);
    for (const MemRecord &r : records)
        std::copy(r.bytes.begin(), r.bytes.end(),
                  dense.begin() + static_cast<std::ptrdiff_t>(r.offset));
    return dense;
}

std::vector<std::uint8_t>
flatten(const pe::PageImage &image)
{
    std::vector<std::uint8_t> dense(kMemBytes, 0);
    for (const auto &[page, bytes] : image) {
        std::size_t off = page * kPageBytes;
        EXPECT_EQ(bytes->size(), pe::pageLength(kMemBytes, page))
            << "page " << page;
        std::copy(bytes->begin(), bytes->end(),
                  dense.begin() + static_cast<std::ptrdiff_t>(off));
    }
    return dense;
}

std::vector<std::uint8_t>
pattern(std::size_t n, unsigned seed)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>(1 + (i * 7 + seed) % 255);
    return bytes;
}

pe::PageImage
decodeMems(const std::vector<MemRecord> &records)
{
    std::vector<std::uint8_t> payload = memsPayload(kMemBytes, records);
    persist::Decoder dec(payload);
    pe::PageImage image = persist::decodePageImage(dec, kMemBytes);
    EXPECT_TRUE(dec.ok()) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    return image;
}

void
expectDenseReading(const std::vector<MemRecord> &records)
{
    EXPECT_EQ(flatten(decodeMems(records)), denseReading(records));
}

TEST(PageImageCodecTest, RecordLongerThanAPageSplitsAcrossPages)
{
    expectDenseReading({{kPageBytes, pattern(kPageBytes + 300, 1)}});
    // Through to the end of memory, short last page included.
    expectDenseReading({{2 * kPageBytes, pattern(2 * kPageBytes + 100, 2)}});
}

TEST(PageImageCodecTest, ShortRecordOverlaysZeros)
{
    expectDenseReading({{0, pattern(10, 3)}});
    expectDenseReading({{4 * kPageBytes, pattern(7, 4)}});
}

TEST(PageImageCodecTest, DuplicateOffsetsLastRecordWins)
{
    expectDenseReading({{0, pattern(kPageBytes, 5)},
                        {0, pattern(kPageBytes, 6)}});
    // A shorter later record overwrites only the bytes it carries,
    // also on a page an earlier record spilled into.
    expectDenseReading({{kPageBytes, pattern(kPageBytes, 7)},
                        {kPageBytes, pattern(10, 8)}});
    expectDenseReading({{0, pattern(2 * kPageBytes, 9)},
                        {kPageBytes, pattern(20, 10)}});
}

TEST(PageImageCodecTest, AllZeroRecordIsAcceptedAndNotRewritten)
{
    std::vector<MemRecord> records = {
        {3 * kPageBytes, std::vector<std::uint8_t>(kPageBytes, 0)}};
    expectDenseReading(records);
    persist::Encoder enc;
    persist::encodePageImage(enc, decodeMems(records), kMemBytes);
    EXPECT_EQ(enc.bytes(), memsPayload(kMemBytes, {}));
}

TEST(PageImageCodecTest, EncodesNonZeroPagesInOffsetOrder)
{
    pe::Memory memory(kMemBytes);
    memory.writeByte(4 * kPageBytes + 99, 0x5a);  // short last page
    memory.writeWord(kPageBytes, 0x01020304);
    memory.writeWord(3 * kPageBytes, 1);
    memory.writeWord(3 * kPageBytes, 0);  // dirty, but all zero again
    pe::PageImage image;
    memory.snapshotPages(image);
    ASSERT_EQ(image.size(), 3u);

    std::vector<std::uint8_t> page1(kPageBytes, 0);
    page1[0] = 0x04;
    page1[1] = 0x03;
    page1[2] = 0x02;
    page1[3] = 0x01;
    std::vector<std::uint8_t> page4(100, 0);
    page4[99] = 0x5a;
    persist::Encoder enc;
    persist::encodePageImage(enc, image, kMemBytes);
    EXPECT_EQ(enc.bytes(), memsPayload(kMemBytes, {{kPageBytes, page1},
                                                   {4 * kPageBytes, page4}}));
}

TEST(PageImageCodecTest, RejectsMalformedRecords)
{
    const std::vector<std::vector<MemRecord>> bad = {
        {{1, pattern(4, 1)}},                 // misaligned
        {{5 * kPageBytes, pattern(4, 2)}},    // past the end
        {{4 * kPageBytes, pattern(101, 3)}},  // overruns the end
        {{kPageBytes, {}}},                   // empty
        {{0, pattern(4, 4)}, {kPageBytes + 8, pattern(4, 5)}},
    };
    for (const std::vector<MemRecord> &records : bad) {
        std::vector<std::uint8_t> payload = memsPayload(kMemBytes, records);
        persist::Decoder dec(payload);
        persist::decodePageImage(dec, kMemBytes);
        EXPECT_FALSE(dec.ok());
        EXPECT_NE(dec.error().find("out of bounds"), std::string::npos)
            << dec.error();
    }
    std::vector<std::uint8_t> payload = memsPayload(kMemBytes + 4, {});
    persist::Decoder dec(payload);
    persist::decodePageImage(dec, kMemBytes);
    EXPECT_FALSE(dec.ok());
    EXPECT_NE(dec.error().find("memory image is"), std::string::npos)
        << dec.error();
}

// ---------------------------------------------------------------------------
// CACH message-cache codec. The decoder reads the channel records into
// a table keyed by channel id: whatever order the file holds them in,
// the table (and its re-encoding) is ascending, and a repeated channel
// keeps its first record.
// ---------------------------------------------------------------------------

struct CacheRecord
{
    isa::Word channel;
    std::uint64_t nextSeq;
    std::vector<msg::Token> values;
    std::vector<msg::CtxId> sendWaiters;
    std::vector<msg::CtxId> recvWaiters;
};

std::vector<std::uint8_t>
cachePayload(const std::vector<CacheRecord> &records)
{
    persist::Encoder enc;
    enc.u64(records.size());
    for (const CacheRecord &r : records) {
        enc.u32(r.channel);
        enc.u64(r.nextSeq);
        enc.u64(r.values.size());
        for (const msg::Token &t : r.values) {
            enc.u32(t.value);
            enc.u8(t.sum);
            enc.u64(t.seq);
            enc.u32(t.pristine);
            enc.i64(t.sentAt);
        }
        enc.u64(r.sendWaiters.size());
        for (msg::CtxId ctx : r.sendWaiters)
            enc.u32(ctx);
        enc.u64(r.recvWaiters.size());
        for (msg::CtxId ctx : r.recvWaiters)
            enc.u32(ctx);
    }
    persist::encodeStatSet(enc, StatSet{});
    return enc.take();
}

msg::MessageCache::Snapshot
decodeCache(const std::vector<std::uint8_t> &payload)
{
    persist::Decoder dec(payload);
    msg::MessageCache::Snapshot snap = persist::decodeCacheSnapshot(dec);
    EXPECT_TRUE(dec.ok()) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    return snap;
}

msg::Token
token(isa::Word value, std::uint64_t seq)
{
    return {value, msg::tokenChecksum(value), seq, value,
            static_cast<trace::Cycle>(100 + seq)};
}

const std::vector<CacheRecord> kShuffledCache = {
    {10, 3, {token(7, 1), token(8, 2)}, {4}, {}},
    {4, 1, {}, {}, {5, 6}},
    {7, 0, {}, {}, {}},
};

TEST(CacheCodecTest, OutOfOrderRecordsDecodeAscending)
{
    msg::MessageCache::Snapshot snap = decodeCache(cachePayload(kShuffledCache));
    std::vector<isa::Word> channels;
    for (const auto &[channel, entry] : snap.entries)
        channels.push_back(channel);
    EXPECT_EQ(channels, (std::vector<isa::Word>{4, 7, 10}));

    const auto &[last_channel, last] = *std::prev(snap.entries.end());
    EXPECT_EQ(last_channel, 10u);
    EXPECT_EQ(last.nextSeq, 3u);
    ASSERT_EQ(last.values.size(), 2u);
    EXPECT_EQ(last.values.front().value, 7u);
    EXPECT_EQ(last.values.back().seq, 2u);
    EXPECT_EQ(last.values.back().sentAt, 102);
    ASSERT_EQ(last.sendWaiters.size(), 1u);
    EXPECT_EQ(last.sendWaiters.front(), 4u);
    const auto &[first_channel, first] = *snap.entries.begin();
    EXPECT_EQ(first_channel, 4u);
    ASSERT_EQ(first.recvWaiters.size(), 2u);
    EXPECT_EQ(first.recvWaiters.front(), 5u);
    EXPECT_EQ(first.recvWaiters.back(), 6u);
}

TEST(CacheCodecTest, ReencodingWritesAscendingOrder)
{
    persist::Encoder enc;
    persist::encodeCacheSnapshot(enc, decodeCache(cachePayload(kShuffledCache)));
    EXPECT_EQ(enc.bytes(), cachePayload({kShuffledCache[1], kShuffledCache[2],
                                         kShuffledCache[0]}));
}

TEST(CacheCodecTest, RepeatedChannelKeepsItsFirstRecord)
{
    msg::MessageCache::Snapshot snap =
        decodeCache(cachePayload({{9, 1, {token(11, 0)}, {}, {}},
                                  {3, 0, {}, {}, {}},
                                  {9, 2, {}, {}, {7}},
                                  {9, 5, {}, {8}, {}}}));
    ASSERT_EQ(snap.entries.size(), 2u);
    const auto &[channel, entry] = *std::prev(snap.entries.end());
    EXPECT_EQ(channel, 9u);
    EXPECT_EQ(entry.nextSeq, 1u);
    ASSERT_EQ(entry.values.size(), 1u);
    EXPECT_EQ(entry.values.front().value, 11u);
    EXPECT_TRUE(entry.sendWaiters.empty());
    EXPECT_TRUE(entry.recvWaiters.empty());
}

TEST(CacheCodecTest, RejectsMalformedLengths)
{
    std::vector<std::uint8_t> good = cachePayload(kShuffledCache);
    // Overwrite the little-endian u64 at @p at with @p n.
    auto withLength = [&](std::size_t at, std::uint64_t n) {
        std::vector<std::uint8_t> bad = good;
        for (int i = 0; i < 8; ++i)
            bad[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(n >> (8 * i));
        return bad;
    };
    auto expectError = [](const std::vector<std::uint8_t> &payload,
                          const std::string &message) {
        persist::Decoder dec(payload);
        persist::decodeCacheSnapshot(dec);
        EXPECT_FALSE(dec.ok());
        EXPECT_EQ(dec.error(), message);
    };
    // Each count is checked against the bytes left before it is read.
    // The entry count, then the first record's token count (after the
    // channel u32 and nextSeq u64) and send-waiter count (after two
    // 25-byte tokens).
    expectError(withLength(0, 1u << 20),
                "length 1048576 exceeds limit " + std::to_string(good.size()));
    expectError(withLength(20, 1000),
                "length 1000 exceeds limit " +
                    std::to_string(good.size() - 20));
    expectError(withLength(28 + 2 * 25, 1u << 20),
                "length 1048576 exceeds limit " +
                    std::to_string(good.size() - 78));
    std::vector<std::uint8_t> truncated(good.begin(), good.begin() + 30);
    expectError(truncated, "need 4 bytes at offset 28, have 2");
}

/**
 * The same traffic on five channels, first touched in @p order. Every
 * channel ends in a different state: 1 has a parked receiver, 3 two
 * tokens in flight, 7 a completed rendezvous, 9 a full FIFO and a
 * parked sender, and the far id one token in flight.
 */
msg::MessageCache
touchInOrder(const std::vector<isa::Word> &order)
{
    msg::MessageCache cache(2);
    for (isa::Word channel : order) {
        switch (channel) {
          case 1:
            cache.recv(channel, 20);
            break;
          case 3:
            cache.send(channel, 30, 31);
            cache.send(channel, 30, 32);
            break;
          case 7:
            cache.send(channel, 70, 71);
            cache.recv(channel, 72);
            break;
          case 9:
            cache.send(channel, 90, 91);
            cache.send(channel, 90, 92);
            cache.send(channel, 93, 94);
            break;
          default:
            cache.send(channel, 40, 41);
            break;
        }
    }
    return cache;
}

TEST(CacheCodecTest, FirstTouchOrderDoesNotShowInLookupsOrBytes)
{
    // The table keeps entries in first-touch order behind an id index,
    // so neither lookups nor the checkpoint bytes may depend on it. The
    // id near 2^32 lies far beyond the index's flat part.
    constexpr isa::Word kFar = 0xFFFFFFF0u;
    msg::MessageCache shuffled = touchInOrder({9, 3, kFar, 7, 1});
    msg::MessageCache ascending = touchInOrder({1, 3, 7, 9, kFar});
    for (const msg::MessageCache *cache : {&shuffled, &ascending}) {
        EXPECT_EQ(cache->state(1), msg::ChannelState::RecvWait);
        EXPECT_EQ(cache->state(3), msg::ChannelState::Full);
        EXPECT_EQ(cache->state(7), msg::ChannelState::Idle);
        EXPECT_EQ(cache->state(9), msg::ChannelState::Full);
        EXPECT_EQ(cache->state(kFar), msg::ChannelState::Full);
        EXPECT_EQ(cache->pendingChannels(), 4u);
        EXPECT_EQ(cache->entry(2), nullptr);
        EXPECT_EQ(cache->entry(kFar + 1), nullptr);
        ASSERT_NE(cache->entry(9), nullptr);
        EXPECT_EQ(cache->entry(9)->values.size(), 2u);
        ASSERT_EQ(cache->entry(9)->sendWaiters.size(), 1u);
        EXPECT_EQ(cache->entry(9)->sendWaiters.front(), 93u);
        ASSERT_NE(cache->entry(7), nullptr);
        EXPECT_EQ(cache->entry(7)->nextSeq, 1u);
        ASSERT_NE(cache->entry(kFar), nullptr);
        EXPECT_EQ(cache->entry(kFar)->values.front().value, 41u);
        ASSERT_NE(cache->entry(1), nullptr);
        EXPECT_EQ(cache->entry(1)->recvWaiters.front(), 20u);
    }
    persist::Encoder shuffled_bytes, ascending_bytes;
    persist::encodeCacheSnapshot(shuffled_bytes, shuffled.snapshot());
    persist::encodeCacheSnapshot(ascending_bytes, ascending.snapshot());
    EXPECT_EQ(shuffled_bytes.bytes(), ascending_bytes.bytes());

    // restore() rebuilds the index from the table.
    msg::MessageCache restored(2);
    restored.restore(shuffled.snapshot());
    EXPECT_EQ(restored.pendingChannels(), 4u);
    msg::ChannelOp op = restored.recv(kFar, 50);
    ASSERT_TRUE(op.completed);
    EXPECT_EQ(*op.value, 41u);
    op = restored.recv(3, 50);
    ASSERT_TRUE(op.completed);
    EXPECT_EQ(*op.value, 31u);
}

TEST(CacheCodecTest, CraftedFarChannelIdLoadsWithoutAnIdSizedIndex)
{
    // A CACH record for channel 0xFFFFFFFE: an index sized by the id
    // would need 16 GB. It must load into the overflow and work.
    constexpr isa::Word kFar = 0xFFFFFFFEu;
    msg::MessageCache::Snapshot snap = decodeCache(
        cachePayload({{kFar, 1, {token(7, 0)}, {}, {}}, {4, 0, {}, {}, {}}}));
    ASSERT_EQ(snap.entries.size(), 2u);
    msg::MessageCache cache(2);
    cache.restore(snap);
    EXPECT_EQ(cache.state(kFar), msg::ChannelState::Full);
    EXPECT_EQ(cache.state(4), msg::ChannelState::Idle);
    msg::ChannelOp op = cache.recv(kFar, 9);
    ASSERT_TRUE(op.completed);
    EXPECT_EQ(*op.value, 7u);
    EXPECT_TRUE(cache.send(kFar - 1, 9, 1).completed);
    EXPECT_EQ(cache.state(kFar - 1), msg::ChannelState::Full);
}

// ---------------------------------------------------------------------------
// Sweep journal.
// ---------------------------------------------------------------------------

std::vector<sim::RunSpec>
journalSpecs(int n)
{
    std::vector<sim::RunSpec> specs;
    for (int i = 0; i < n; ++i) {
        sim::RunSpec spec;
        spec.program = &pipelineProgram();
        spec.resultArray = "results";
        spec.expected = {1496, 16};
        spec.pes = i + 1;
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(SweepJournalTest, RunReportCodecRoundTrips)
{
    sim::RunReport report;
    report.pes = 5;
    report.completed = true;
    report.verified = true;
    report.cycles = 1234;
    report.instructions = 987;
    report.utilization = 0.625;
    report.failureReason = "none really";
    report.replays = 2;
    report.attempts = 3;
    report.quarantined = true;
    report.faultKinds[1].injected = 7;
    report.hostWallMs = 12.5;
    report.stats.inc("sys.checkpoints");
    report.stats.record("queue.depth", 4);

    persist::Encoder enc;
    sim::encodeRunReport(enc, report);
    persist::Decoder dec(enc.bytes());
    sim::RunReport back = sim::decodeRunReport(dec);
    ASSERT_TRUE(dec.ok()) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.pes, report.pes);
    EXPECT_EQ(back.completed, report.completed);
    EXPECT_EQ(back.verified, report.verified);
    EXPECT_EQ(back.cycles, report.cycles);
    EXPECT_EQ(back.instructions, report.instructions);
    EXPECT_EQ(back.utilization, report.utilization);
    EXPECT_EQ(back.failureReason, report.failureReason);
    EXPECT_EQ(back.replays, report.replays);
    EXPECT_EQ(back.attempts, report.attempts);
    EXPECT_EQ(back.quarantined, report.quarantined);
    EXPECT_EQ(back.faultKinds[1].injected, 7u);
    EXPECT_EQ(back.hostWallMs, report.hostWallMs);
    EXPECT_EQ(back.stats.render(), report.stats.render());
}

TEST(SweepJournalTest, RecordsSurviveReopen)
{
    std::string path = tempPath("journal_reopen.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(3);

    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "unit", specs).ok());
    EXPECT_EQ(journal.completedCount(), 0u);
    sim::RunReport r0;
    r0.pes = 1;
    r0.completed = true;
    ASSERT_TRUE(journal.record(0, r0).ok());
    sim::RunReport r2;
    r2.pes = 3;
    r2.failureReason = "watchdog: stuck";
    ASSERT_TRUE(journal.record(2, r2).ok());

    sim::SweepJournal again;
    ASSERT_TRUE(again.open(path, "unit", specs).ok());
    EXPECT_EQ(again.completedCount(), 2u);
    EXPECT_TRUE(again.has(0));
    EXPECT_FALSE(again.has(1));
    ASSERT_TRUE(again.has(2));
    EXPECT_TRUE(again.get(0).journalReplayed);
    EXPECT_EQ(again.get(2).failureReason, "watchdog: stuck");
    std::remove(path.c_str());
}

TEST(SweepJournalTest, TornTailIsCleanEnd)
{
    std::string path = tempPath("journal_torn.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "torn", specs).ok());
        sim::RunReport r;
        r.pes = 1;
        r.completed = true;
        ASSERT_TRUE(journal.record(0, r).ok());
    }
    // Simulate kill -9 mid-append: half a record marker at the tail.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputc(0x52, f);
        std::fputc(0x45, f);
        std::fclose(f);
    }
    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "torn", specs).ok());
    EXPECT_FALSE(journal.recreated());
    EXPECT_EQ(journal.completedCount(), 1u);
    EXPECT_TRUE(journal.has(0));
    // And the journal still accepts appends after the torn tail.
    sim::RunReport r;
    r.pes = 2;
    EXPECT_TRUE(journal.record(1, r).ok());
    std::remove(path.c_str());
}

TEST(SweepJournalTest, DifferentSweepRefused)
{
    std::string path = tempPath("journal_mismatch.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "sweep-a", specs).ok());
    }
    sim::SweepJournal journal;
    persist::Status st = journal.open(path, "sweep-b", specs);
    EXPECT_EQ(st.code, persist::ErrCode::Mismatch);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, CorruptHeaderRecreated)
{
    std::string path = tempPath("journal_corrupt.journal");
    std::remove(path.c_str());
    std::vector<sim::RunSpec> specs = journalSpecs(2);
    {
        sim::SweepJournal journal;
        ASSERT_TRUE(journal.open(path, "corrupt", specs).ok());
        sim::RunReport r;
        r.pes = 1;
        ASSERT_TRUE(journal.record(0, r).ok());
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);  // clobber the magic
        std::fclose(f);
    }
    sim::SweepJournal journal;
    ASSERT_TRUE(journal.open(path, "corrupt", specs).ok());
    EXPECT_TRUE(journal.recreated());
    EXPECT_EQ(journal.completedCount(), 0u);
    std::remove(path.c_str());
}

TEST(SweepJournalTest, RunAllReplaysJournaledRows)
{
    std::string dir = ::testing::TempDir();
    std::vector<sim::RunSpec> specs = journalSpecs(3);
    sim::RunPolicy policy;
    policy.journalPath = dir + "persist_test_runall.journal";
    policy.journalLabel = "runall";
    std::remove(policy.journalPath.c_str());

    std::vector<sim::RunReport> first = sim::runAll(specs, 1, policy);
    ASSERT_EQ(first.size(), 3u);
    for (const sim::RunReport &r : first) {
        EXPECT_TRUE(r.verified);
        EXPECT_FALSE(r.journalReplayed);
    }
    std::vector<sim::RunReport> second = sim::runAll(specs, 2, policy);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(second[i].journalReplayed);
        EXPECT_EQ(second[i].cycles, first[i].cycles);
        EXPECT_EQ(second[i].stats.render(), first[i].stats.render());
    }
    std::remove(policy.journalPath.c_str());
}

TEST(SweepJournalTest, ShutdownMarksRemainingSpecsInterrupted)
{
    support::requestShutdown();
    std::vector<sim::RunReport> reports =
        sim::runAll(journalSpecs(2), 1);
    support::clearShutdown();
    ASSERT_EQ(reports.size(), 2u);
    for (const sim::RunReport &r : reports) {
        EXPECT_TRUE(r.hostAborted);
        EXPECT_FALSE(r.completed);
        EXPECT_NE(r.failureReason.find("interrupted:"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// In-memory snapshot/restore identity (flat and hierarchical).
// ---------------------------------------------------------------------------

struct RestoreCase
{
    const char *name;
    const char *topology;  ///< nullptr = default flat ring.
    int pes;
};

class RestoreIdentityTest : public ::testing::TestWithParam<RestoreCase>
{
};

TEST_P(RestoreIdentityTest, ReplayFromCheckpointMatchesOriginal)
{
    const RestoreCase &c = GetParam();
    mp::SystemConfig config = baseConfig(c.pes);
    if (c.topology)
        config.setTopology(mp::parseTopology(c.topology));

    const occam::CompiledProgram &program = pipelineProgram();
    mp::System system(program.object, config);
    mp::RunResult result = system.run(program.mainLabel);
    ASSERT_TRUE(result.completed) << result.failureReason;
    Surfaces original = capture(system, result);

    // Roll back to the last periodic checkpoint and re-drive the tail:
    // a fault-free replay must land on the identical end state.
    ASSERT_TRUE(system.canRestore());
    system.restore();
    mp::RunResult replayed = system.resume();
    ASSERT_TRUE(replayed.completed) << replayed.failureReason;
    expectIdentical(original, capture(system, replayed));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RestoreIdentityTest,
    ::testing::Values(RestoreCase{"flat", nullptr, 4},
                      RestoreCase{"ring4", "ring:4", 8},
                      RestoreCase{"rings2x2", "rings:2x2", 8},
                      RestoreCase{"rings4x2", "rings:4x2", 8}),
    [](const ::testing::TestParamInfo<RestoreCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------------
// Kernel tables: the channel directory and the cached stat slots.
// ---------------------------------------------------------------------------

mp::SystemConfig
shardedConfig()
{
    mp::SystemConfig config = baseConfig(8);
    config.setTopology(mp::parseTopology("rings:4x2"));
    return config;
}

/** @p path's KERN section with its last directory key set to @p key. */
void
rewriteLastDirectoryKey(const std::string &path, isa::Word key,
                        std::int64_t shard)
{
    std::vector<std::uint8_t> image = readBytes(path);
    std::vector<persist::Section> sections;
    ASSERT_TRUE(
        persist::parseContainer(image, "QMCKPT01", 1, sections).ok());
    for (persist::Section &section : sections) {
        if (section.tag != "KERN")
            continue;
        // The directory's (u32 channel, i64 shard) records come last
        // but for liveContexts, switches (u64 each), killArmed (u8)
        // and four i64 fields.
        std::vector<std::uint8_t> &bytes = section.payload;
        std::size_t at = bytes.size() - (8 + 8 + 1 + 4 * 8) - 12;
        for (int i = 0; i < 4; ++i)
            bytes[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(key >> (8 * i));
        for (int i = 0; i < 8; ++i)
            bytes[at + 4 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(
                    static_cast<std::uint64_t>(shard) >> (8 * i));
    }
    ASSERT_TRUE(persist::writeFileAtomic(
                    path, persist::buildContainer("QMCKPT01", 1, sections))
                    .ok());
}

TEST(KernelTablesTest, CraftedDirectoryKeyLoadsWithoutAnIdSizedIndex)
{
    // Directory key 0xFFFFFFFE with a valid shard loads into the
    // directory's overflow and saves back to the same bytes; with a
    // shard out of range it is refused with the directory's message.
    std::string path = tempPath("crafted_directory.qmc");
    std::string resaved = tempPath("crafted_directory_resaved.qmc");
    const occam::CompiledProgram &program = pipelineProgram();
    runSaving(shardedConfig(), path, 2);
    rewriteLastDirectoryKey(path, 0xFFFFFFFEu, 1);
    {
        mp::System system(program.object, shardedConfig());
        persist::Status st = system.loadCheckpoint(path);
        ASSERT_TRUE(st.ok()) << st.toString();
        st = system.saveCheckpoint(resaved);
        ASSERT_TRUE(st.ok()) << st.toString();
        EXPECT_EQ(readBytes(path), readBytes(resaved));
        mp::RunResult result = system.resume();
        EXPECT_TRUE(result.completed) << result.failureReason;
    }
    rewriteLastDirectoryKey(path, 0xFFFFFFFEu, 99);
    {
        mp::System system(program.object, shardedConfig());
        persist::Status st = system.loadCheckpoint(path);
        EXPECT_FALSE(st.ok());
        EXPECT_EQ(st.message,
                  "section KERN: channel 4294967294 mapped to shard 99 of 4");
    }
    std::remove(path.c_str());
    std::remove(resaved.c_str());
}

TEST(KernelTablesTest, StatHandlesDoNotOutliveRestoreOrLoad)
{
    // The kernel, the message cache and the ring bus cache pointers
    // into their stat maps, which restore() and loadCheckpoint() assign
    // over. A pointer kept past either would write into a freed or
    // reused map node: the resumed run's statistics would differ from
    // the uninterrupted run's, or ASan would report the use after free.
    std::string path = tempPath("stat_handles.qmc");
    const occam::CompiledProgram &program = pipelineProgram();
    std::string want;
    {
        mp::System system(program.object, shardedConfig());
        int seen = 0;
        system.setCheckpointSink([&](mp::System &s) {
            if (++seen == 2)
                ASSERT_TRUE(s.saveCheckpoint(path).ok());
        });
        mp::RunResult result = system.run(program.mainLabel);
        ASSERT_TRUE(result.completed) << result.failureReason;
        ASSERT_GE(seen, 3);
        want = system.statsSnapshot().render();
    }
    ASSERT_NE(want.find("sys.shard_local_placements"), std::string::npos);
    {
        // In memory: finish, roll back to the last snapshot, resume.
        mp::System system(program.object, shardedConfig());
        ASSERT_TRUE(system.run(program.mainLabel).completed);
        system.restore();
        mp::RunResult result = system.resume();
        ASSERT_TRUE(result.completed) << result.failureReason;
        EXPECT_EQ(system.statsSnapshot().render(), want);
    }
    {
        // Durable: load the second snapshot into a fresh System.
        mp::System system(program.object, shardedConfig());
        persist::Status st = system.loadCheckpoint(path);
        ASSERT_TRUE(st.ok()) << st.toString();
        mp::RunResult result = system.resume();
        ASSERT_TRUE(result.completed) << result.failureReason;
        EXPECT_EQ(system.statsSnapshot().render(), want);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// persist primitives.
// ---------------------------------------------------------------------------

TEST(PersistIoTest, ContainerRoundTripsAndLocalizesCorruption)
{
    std::vector<persist::Section> sections;
    sections.push_back({"AAAA", {1, 2, 3}});
    sections.push_back({"BBBB", {}});
    sections.push_back({"CCCC", std::vector<std::uint8_t>(1000, 0xAB)});
    std::vector<std::uint8_t> image =
        persist::buildContainer("TESTMAG1", 3, sections);

    std::vector<persist::Section> back;
    ASSERT_TRUE(persist::parseContainer(image, "TESTMAG1", 3, back).ok());
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].tag, "AAAA");
    EXPECT_EQ(back[2].payload, sections[2].payload);

    persist::Status st = persist::parseContainer(image, "OTHERMAG", 3,
                                                 back);
    EXPECT_EQ(st.code, persist::ErrCode::BadMagic);
    st = persist::parseContainer(image, "TESTMAG1", 4, back);
    EXPECT_EQ(st.code, persist::ErrCode::BadVersion);

    std::vector<std::uint8_t> flipped = image;
    flipped[flipped.size() - 4] ^= 0x10;  // inside CCCC's payload
    st = persist::parseContainer(flipped, "TESTMAG1", 3, back);
    EXPECT_EQ(st.code, persist::ErrCode::BadChecksum);
    EXPECT_NE(st.message.find("CCCC"), std::string::npos)
        << st.toString();
}

TEST(PersistIoTest, AtomicWriteReplacesWholeFile)
{
    std::string path = tempPath("atomic.bin");
    ASSERT_TRUE(persist::writeFileAtomic(path, {1, 2, 3, 4}).ok());
    ASSERT_TRUE(persist::writeFileAtomic(path, {9}).ok());
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(persist::readFile(path, back).ok());
    EXPECT_EQ(back, std::vector<std::uint8_t>{9});
    std::remove(path.c_str());
}

TEST(PersistIoTest, DecoderIsStickyAndBounded)
{
    persist::Encoder enc;
    enc.u32(7);
    persist::Decoder dec(enc.bytes());
    EXPECT_EQ(dec.u32(), 7u);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(dec.u64(), 0u);  // past the end: fails, returns zero
    EXPECT_FALSE(dec.ok());
    EXPECT_EQ(dec.u32(), 0u);  // sticky
    EXPECT_FALSE(dec.error().empty());
}

} // namespace

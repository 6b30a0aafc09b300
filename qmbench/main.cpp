/**
 * @file
 * qmbench: the repository's end-to-end benchmark. One job takes a
 * seeded OCCAM program through occam::compileOccam -> mp::System ->
 * run -> a check of its result array against a reference computed by
 * the benchmark itself. Each run is a closed loop (one job at a time,
 * one thread) over one workload:
 *
 *   qmbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics with no tracing. --trace 1
 * interleaves untraced jobs, traced jobs and traced jobs with the
 * flight recorder switched off (QM_FLIGHT=off), and reports per-layer
 * metrics from spans recorded around each public call. Host times are
 * scaled to a reference host (see calibration.hpp). The last line of
 * standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "calibration.hpp"
#include "generators.hpp"
#include "jobs.hpp"
#include "occam/lexer.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace qmbench;
using qm::cat;
using Clock = std::chrono::steady_clock;

constexpr const char *kUsage =
    "usage: qmbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "               [--out DIR] [--corrupt-expected]\n"
    "workloads: compile-gen matmul-8pe fanout-64pe recover-4pe\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string outDir = ".bench_out";
    /** Self-test: flip one expected value, so every job must fail. */
    bool corruptExpected = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "qmbench: " << why << "\n" << kUsage;
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = next();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(next());
                have_seed = true;
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(next());
                have_seconds = true;
            } else if (arg == "--trace") {
                opt.trace = std::stoi(next());
                have_trace = true;
            } else if (arg == "--out") {
                opt.outDir = next();
            } else if (arg == "--corrupt-expected") {
                opt.corruptExpected = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    if (opt.trace != 0 && opt.trace != 1)
        usage("--trace must be 0 or 1");
    return opt;
}

/** Independent per-input seed derived from the workload seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t index)
{
    return qm::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + index).next();
}

// --- Workloads --------------------------------------------------------------
//
// Each loads one layer heavily and the others lightly (the why of each
// is recorded in BENCHMARK.json). None sets SystemConfig::core or
// hostThreads: the defaults are what users run.

std::vector<Input>
compileGen(std::uint64_t seed)
{
    // Sixteen programs per run, so the run's figures do not hang on one
    // program's shape.
    std::vector<Input> pool;
    for (std::uint64_t i = 0; i < 16; ++i) {
        GenProgram program = generateProgram(derive(seed, i));
        Input in;
        in.source = std::move(program.source);
        in.resultArray = "r";
        in.expected = std::move(program.expected);
        in.config.numPes = 4;
        pool.push_back(std::move(in));
    }
    return pool;
}

std::vector<Input>
matmul8(std::uint64_t seed)
{
    MatmulInput m = makeMatmulInput(24, derive(seed, 0));
    Input in;
    in.source = matmulSource(m.n);
    in.resultArray = "c";
    in.loads = {{"a", m.a}, {"b", m.b}};
    in.expected = m.expected;
    in.config.numPes = 8;
    return {in};
}

std::vector<Input>
fanout64(std::uint64_t seed)
{
    FanoutInput f = makeFanoutInput(64, 500, derive(seed, 0));
    Input in;
    in.source = fanoutSource(f.workers, f.iterations);
    in.resultArray = "v";
    in.loads = {{"coef", f.coef}};
    in.expected = f.expected;
    in.config.numPes = 64;
    in.config.setTopology(qm::mp::parseTopology("rings:16x4"));
    return {in};
}

std::vector<Input>
recover4(std::uint64_t seed)
{
    // Four fault plans per run: the snapshot count, and so the job time,
    // follows each plan's cycle count.
    std::vector<Input> pool;
    for (std::uint64_t i = 0; i < 4; ++i) {
        MatmulInput m = makeMatmulInput(6, derive(seed, 2 * i));
        Input in;
        in.source = matmulSource(m.n);
        in.resultArray = "c";
        in.loads = {{"a", m.a}, {"b", m.b}};
        in.expected = m.expected;
        in.config.numPes = 4;
        in.config.faultPlan = recoverFaultPlan(derive(seed, 2 * i + 1));
        in.config.recovery.enabled = true;
        in.config.recovery.checkpointEvery = 500;
        in.durable = true;
        pool.push_back(std::move(in));
    }
    return pool;
}

struct Workload
{
    const char *name;
    /** Set-ups per untraced run; setup_s is their median. */
    int setups;
    std::vector<Input> (*make)(std::uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"compile-gen", 5, compileGen},
    {"matmul-8pe", 5, matmul8},
    {"fanout-64pe", 5, fanout64},
    {"recover-4pe", 3, recover4},
};

// --- Statistics -------------------------------------------------------------

/** Linear-interpolated percentile @p p in [0, 1]; 0 for no samples. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = p * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** What one run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failures outside the timed jobs (set-up, determinism). */
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    void
    count(const JobResult &job)
    {
        ++attempted;
        if (job.ok)
            return;
        ++failed;
        if (failed <= 5)
            std::cerr << "qmbench: job " << attempted << " failed: "
                      << job.error << "\n";
    }
};

double
elapsedS(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Set-up -----------------------------------------------------------------

/** Run @p in; its first successful run records its reference. */
JobResult
runRecorded(Input &in, SpanLog *log)
{
    JobResult job = runJob(in, log);
    if (job.ok && !in.recorded) {
        in.recorded = true;
        in.reference = job.counts;
        in.object = std::move(job.object);
        in.contexts = job.contexts;
    }
    return job;
}

/**
 * Generate the input pool and its references, and warm up on the first
 * input. That run records the object code and simulated counts every
 * later run of the input must reproduce; each other input records its
 * own on its first run. With --corrupt-expected, every reference result
 * is then falsified, so every later job must fail its check.
 */
std::vector<Input>
setUp(const Workload &workload, const Options &opt, Report &report)
{
    std::vector<Input> pool = workload.make(opt.seed);
    for (Input &in : pool) {
        in.checkpointPath = cat(opt.outDir, "/", workload.name, ".qmckpt");
        in.tokens = qm::occam::lex(in.source).size();
    }
    JobResult warm = runRecorded(pool.front(), nullptr);
    if (!warm.ok)
        report.errors.push_back("set-up job failed: " + warm.error);
    if (opt.corruptExpected)
        for (Input &in : pool)
            in.expected[0] ^= 1;
    return pool;
}

/** Two set-ups of one seed must record identical counts and code. */
void
checkDeterminism(const Input &first, const Input &again, Report &report)
{
    if (!(first.reference == again.reference) || first.object != again.object)
        report.errors.push_back(
            cat("determinism: set-ups differ: ", first.reference.render(),
                " vs ", again.reference.render()));
}

/** Median of a per-input count over the inputs that have run. */
template <class Field>
double
poolMedian(const std::vector<Input> &pool, Field field)
{
    std::vector<double> values;
    for (const Input &in : pool)
        if (in.recorded)
            values.push_back(static_cast<double>(field(in)));
    return median(values);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- The untraced pass ------------------------------------------------------

void
runUntraced(const Workload &workload, const Options &opt,
            std::vector<Input> &pool, Report &report)
{
    // Host times are scaled to the reference host (see calibration.hpp).
    // Set-ups are spread through the run, so that setup_s samples the
    // host at several moments; jobs use the first set-up's pool.
    HostSpeed speed;
    std::vector<double> setup_s;
    auto set_up = [&] {
        Clock::time_point start = Clock::now();
        std::vector<Input> again = setUp(workload, opt, report);
        setup_s.push_back(elapsedS(start) * speed.afterStep());
        if (setup_s.size() == 1)
            pool = std::move(again);
        else
            checkDeterminism(pool.front(), again.front(), report);
    };
    auto setups = static_cast<std::size_t>(workload.setups);
    set_up();

    std::vector<double> job_ms, compile_ms;
    double sim_ms = 0, cycles = 0, instructions = 0;
    double jobs_s = 0;  // Host time in timed jobs; the run measures this.
    for (std::size_t j = 0; j == 0 || jobs_s < opt.seconds; ++j) {
        if (setup_s.size() < setups &&
            jobs_s >= opt.seconds * static_cast<double>(setup_s.size()) /
                          static_cast<double>(setups))
            set_up();
        Clock::time_point start = Clock::now();
        JobResult job = runRecorded(pool[j % pool.size()], nullptr);
        jobs_s += elapsedS(start);
        double scale = speed.afterStep();
        report.count(job);
        job_ms.push_back(job.jobMs * scale);
        compile_ms.push_back(job.compileMs * scale);
        sim_ms += job.simMs * scale;
        cycles += static_cast<double>(job.counts.cycles);
        instructions += static_cast<double>(job.counts.instructions);
    }
    while (setup_s.size() < setups)
        set_up();
    auto verified = static_cast<double>(report.attempted - report.failed);
    double total_job_ms = 0;
    for (double ms : job_ms)
        total_job_ms += ms;

    report.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"job_ms_p50", median(job_ms), "ms"},
        {"job_ms_p90", percentile(job_ms, 0.9), "ms"},
        {"jobs_per_s", ratio(verified * 1000, total_job_ms), "1/s"},
        {"compile_ms_p50", median(compile_ms), "ms"},
        {"sim_mcycles_per_s", ratio(cycles, sim_ms) / 1000, "Mcycles/s"},
        {"sim_minstr_per_s", ratio(instructions, sim_ms) / 1000,
         "Minstr/s"},
        {"sim_cycles",
         poolMedian(pool, [](const Input &in) { return in.reference.cycles; }),
         "cycles"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"verified_ratio",
         verified / static_cast<double>(report.attempted), "ratio"},
    };
}

// --- The traced pass --------------------------------------------------------

/** Milliseconds per span name over the spans a job appended. */
std::map<std::string, double>
spanTotals(const SpanLog &log, std::size_t from)
{
    std::map<std::string, double> ms;
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = from; i < spans.size(); ++i)
        ms[spans[i].name] +=
            static_cast<double>(spans[i].endNs - spans[i].startNs) / 1e6;
    return ms;
}

void
writeSpans(const SpanLog &log, const Workload &workload,
           const Options &opt)
{
    std::string path = cat(opt.outDir, "/spans-", workload.name, "-seed",
                           opt.seed, ".json");
    std::ofstream out(path);
    qm::JsonWriter json(out);
    json.beginObject();
    json.key("workload").value(workload.name);
    json.key("seed").value(opt.seed);
    json.key("columns").beginArray();
    for (const char *column : {"job", "name", "parent", "start_ns", "end_ns"})
        json.value(column);
    json.endArray();
    json.key("spans").beginArray();
    for (const Span &span : log.spans()) {
        json.beginArray();
        json.value(span.job).value(span.name).value(span.parent);
        json.value(span.startNs).value(span.endNs);
        json.endArray();
    }
    json.endArray();
    json.endObject();
    out << "\n";
    if (!out)
        std::cerr << "qmbench: could not write " << path << "\n";
}

void
runTraced(const Workload &workload, const Options &opt,
          std::vector<Input> &pool, Report &report)
{
    pool = setUp(workload, opt, report);

    // Interleave the three modes job by job, so that drift on the host
    // touches each alike: untraced, traced, traced with QM_FLIGHT=off.
    enum Mode { kPlain, kTraced, kFlightOff, kModes };
    const char *flight_env = std::getenv("QM_FLIGHT");
    bool had_flight = flight_env != nullptr;
    std::string saved_flight = had_flight ? flight_env : "";
    SpanLog log;
    HostSpeed speed;
    std::vector<double> plain_job, plain_compile, traced_job, raw_job;
    std::vector<std::map<std::string, double>> on, off;
    std::vector<double> file_bytes, compile_share, snapshot_share;
    // The phases of compileOccam; the extra occam.lex call is left out,
    // as parsing lexes again.
    const char *phases[] = {"occam.parse",   "occam.sema",   "occam.ift",
                            "occam.graph",   "occam.codegen", "isa.assemble",
                            "occam.free"};

    Clock::time_point start = Clock::now();
    for (std::size_t j = 0;
         j % kModes != 0 || j == 0 || elapsedS(start) < opt.seconds; ++j) {
        auto mode = static_cast<Mode>(j % kModes);
        Input &in = pool[(j / kModes) % pool.size()];
        setenv("QM_FLIGHT", mode == kFlightOff ? "off" : "on", 1);
        log.setJob(static_cast<int>(j));
        std::size_t from = log.spans().size();
        JobResult job = runRecorded(in, mode == kPlain ? nullptr : &log);
        double scale = speed.afterStep();
        report.count(job);
        if (mode == kPlain) {
            plain_job.push_back(job.jobMs * scale);
            plain_compile.push_back(job.compileMs * scale);
            raw_job.push_back(job.jobMs);
            continue;
        }
        std::map<std::string, double> ms = spanTotals(log, from);
        for (auto &[name, total] : ms)
            total *= scale;
        if (mode == kFlightOff) {
            off.push_back(std::move(ms));
            continue;
        }
        traced_job.push_back(job.jobMs * scale);
        file_bytes.push_back(static_cast<double>(job.fileBytes));
        double phase_ms = 0;
        for (const char *phase : phases)
            phase_ms += ms[phase];
        ms["bench.phases"] = phase_ms;
        compile_share.push_back(ratio(phase_ms, ms["bench.job"]));
        snapshot_share.push_back(
            ratio(static_cast<double>(job.counts.snapshots) *
                      ms["ckpt.snapshot"],
                  ms["bench.job"]));
        on.push_back(std::move(ms));
    }
    if (had_flight)
        setenv("QM_FLIGHT", saved_flight.c_str(), 1);
    else
        unsetenv("QM_FLIGHT");
    writeSpans(log, workload, opt);

    auto span_ms = [](const std::vector<std::map<std::string, double>> &jobs,
                      const char *name) {
        std::vector<double> values;
        for (const auto &ms : jobs) {
            auto it = ms.find(name);
            values.push_back(it == ms.end() ? 0 : it->second);
        }
        return median(values);
    };
    auto count = [&](auto member) {
        return poolMedian(pool,
                          [&](const Input &in) { return in.reference.*member; });
    };

    report.metrics = {
        {"occam.lex_ms", span_ms(on, "occam.lex"), "ms"},
        {"occam.parse_ms", span_ms(on, "occam.parse"), "ms"},
        {"occam.sema_ms", span_ms(on, "occam.sema"), "ms"},
        {"occam.ift_ms", span_ms(on, "occam.ift"), "ms"},
        {"occam.graph_ms", span_ms(on, "occam.graph"), "ms"},
        {"occam.codegen_ms", span_ms(on, "occam.codegen"), "ms"},
        {"isa.assemble_ms", span_ms(on, "isa.assemble"), "ms"},
        {"occam.free_ms", span_ms(on, "occam.free"), "ms"},
        {"occam.tokens",
         poolMedian(pool, [](const Input &in) { return in.tokens; }), "count"},
        {"occam.contexts",
         poolMedian(pool, [](const Input &in) { return in.contexts; }),
         "count"},
        {"isa.object_words",
         poolMedian(pool, [](const Input &in) { return in.object.size(); }),
         "count"},
        {"occam.compile_share", median(compile_share), "ratio"},
        {"mp.construct_ms", span_ms(on, "mp.construct"), "ms"},
        {"mp.run_ms", span_ms(on, "mp.run"), "ms"},
        {"mp.instructions", count(&SimCounts::instructions), "count"},
        {"mp.compute_cycles", count(&SimCounts::computeCycles), "cycles"},
        {"mp.kernel_cycles", count(&SimCounts::kernelCycles), "cycles"},
        {"mp.blocked_cycles", count(&SimCounts::blockedCycles), "cycles"},
        {"mp.contexts_created", count(&SimCounts::contextsCreated),
         "count"},
        {"mp.shard_migrations", count(&SimCounts::shardMigrations),
         "count"},
        {"msg.rendezvous", count(&SimCounts::rendezvous), "count"},
        {"msg.recv_requests", count(&SimCounts::recvRequests), "count"},
        {"bus.remote_transfers", count(&SimCounts::remoteTransfers),
         "count"},
        {"bus.bridge_transfers", count(&SimCounts::bridgeTransfers),
         "count"},
        {"bus.contention_cycles", count(&SimCounts::contentionCycles),
         "cycles"},
        {"ckpt.snapshots", count(&SimCounts::snapshots), "count"},
        {"ckpt.snapshot_ms", span_ms(on, "ckpt.snapshot"), "ms"},
        {"ckpt.restore_ms", span_ms(on, "ckpt.restore"), "ms"},
        {"ckpt.snapshot_share", median(snapshot_share), "ratio"},
        {"persist.save_ms", span_ms(on, "persist.save"), "ms"},
        {"persist.load_ms", span_ms(on, "persist.load"), "ms"},
        {"persist.resume_ms", span_ms(on, "persist.resume"), "ms"},
        {"persist.file_bytes", median(file_bytes), "bytes"},
        {"fault.injected", count(&SimCounts::faultsInjected), "count"},
        {"fault.recoveries", count(&SimCounts::faultRecoveries), "count"},
        {"sim.replays", count(&SimCounts::replays), "count"},
        {"obs.flight_cost",
         ratio(span_ms(on, "mp.run"), span_ms(off, "mp.run")), "ratio"},
        {"bench.trace_overhead",
         ratio(median(traced_job), median(plain_job)), "ratio"},
        {"bench.compile_coverage",
         ratio(span_ms(on, "bench.phases"), median(plain_compile)),
         "ratio"},
        // The host as it was: the calibration kernel's time, and the
        // untraced jobs' median host time before scaling.
        {"bench.calibration_ms", median(speed.samples()), "ms"},
        {"bench.raw_job_ms_p50", median(raw_job), "ms"},
    };
}

// --- Output -----------------------------------------------------------------

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0;
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::setprecision(17) << value;
    return os.str();
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                        &regs[i * 4 + 2], &regs[i * 4 + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        model.erase(0, model.find_first_not_of(' '));
        model.erase(model.find_last_not_of(' ') + 1);
        if (!model.empty())
            return model;
    }
#endif
    return "unknown";
}

/** FNV-1a of the warm-up input's simulated counts, for runs to compare. */
std::string
countsDigest(const std::vector<Input> &pool)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : pool.front().reference.render()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

int
finish(const Workload &workload, const Options &opt,
       const std::vector<Input> &pool, const Report &report)
{
    for (const std::string &error : report.errors)
        std::cerr << "qmbench: " << error << "\n";
    bool correct = report.failed == 0 && report.errors.empty();

    std::ostringstream meta;
    meta << "{\"workload\":\"" << workload.name << "\",\"seed\":" << opt.seed
         << ",\"trace\":" << opt.trace << ",\"seconds\":"
         << number(opt.seconds) << ",\"jobs\":" << report.attempted
         << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
         << ",\"cpu_model\":\"" << qm::jsonEscape(cpuModel())
         << "\",\"build_type\":\"" << QMBENCH_BUILD_TYPE << "\"}"
         << ",\"sim_counts_digest\":\"" << countsDigest(pool) << "\""
         << ",\"model_checked_against_hardware\":false}";

    std::ostringstream result;
    result << "{\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << report.attempted
           << ",\"failed\":" << report.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        result << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
               << number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    }
    result << "}}";

    std::string path = cat(opt.outDir, "/result-", workload.name, "-seed",
                           opt.seed, "-trace", opt.trace, ".json");
    std::ofstream(path) << "{\"meta\":" << meta.str()
                        << ",\"result\":" << result.str() << "}\n";

    std::cout << "qmbench " << workload.name << " seed=" << opt.seed
              << " trace=" << opt.trace << ": " << report.attempted
              << " jobs, " << report.failed << " failed\n";
    for (const Metric &m : report.metrics)
        std::cout << "  " << std::left << std::setw(24) << m.name << " "
                  << number(m.value) << " " << m.unit << "\n";
    std::cout << meta.str() << "\n" << result.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            workload = &w;
    if (!workload)
        usage("unknown workload " + opt.workload);
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::cerr << "qmbench: cannot create " << opt.outDir << ": "
                  << ec.message() << "\n";
        return 2;
    }

    std::vector<Input> pool;
    Report report;
    if (opt.trace == 0)
        runUntraced(*workload, opt, pool, report);
    else
        runTraced(*workload, opt, pool, report);
    for (const Input &in : pool)
        std::filesystem::remove(in.checkpointPath, ec);
    return finish(*workload, opt, pool, report);
}

/**
 * @file
 * Differential tests: the abstract context-graph interpreter and the
 * cycle-level multiprocessor must compute identical observable memory
 * for every compiled program. A divergence isolates code-generation
 * bugs (queue offsets, dup chains, trap encoding) from graph-building
 * bugs.
 */
#include <gtest/gtest.h>

#include "mp/system.hpp"
#include "occam/codegen.hpp"
#include "occam/compiler.hpp"
#include "occam/graph_interp.hpp"
#include "occam/ift.hpp"
#include "occam/parser.hpp"
#include "programs/benchmarks.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::occam;

/** Build context graphs + object code and run both executors. */
struct Differential
{
    ContextProgram contexts;
    isa::Addr arrayBase = 0;

    std::vector<std::int64_t> abstractWords;
    std::vector<std::int64_t> machineWords;

    Differential(const std::string &source, const std::string &array,
                 std::size_t count)
    {
        Program program = parse(source);
        SymbolTable table = analyze(program);
        Ift ift = Ift::build(program, table);
        contexts = buildContextGraphs(program, table, ift);

        // Find the array's static address.
        for (const auto &[sym, addr] : contexts.dataAddress)
            if (table.symbol(sym).name == array)
                arrayBase = addr;

        // Abstract run.
        GraphInterpreter interp(contexts);
        InterpResult abstract = interp.run();
        EXPECT_TRUE(abstract.completed);
        for (std::size_t i = 0; i < count; ++i)
            abstractWords.push_back(interp.readWord(
                arrayBase + static_cast<isa::Addr>(i) * 4));

        // Machine run.
        isa::ObjectCode object =
            isa::assemble(generateAssembly(contexts));
        mp::SystemConfig config;
        config.numPes = 4;
        mp::System system(object, config);
        mp::RunResult machine = system.run(contexts.mainLabel);
        EXPECT_TRUE(machine.completed);
        for (std::size_t i = 0; i < count; ++i)
            machineWords.push_back(static_cast<std::int32_t>(
                system.memory().readWord(
                    arrayBase + static_cast<isa::Addr>(i) * 4)));
    }
};

TEST(GraphInterp, AgreesOnArithmetic)
{
    Differential d(
        "var r[3]:\n"
        "var x:\n"
        "seq\n"
        "  x := 12\n"
        "  r[0] := (x * x) - 1\n"
        "  r[1] := x / 5\n"
        "  r[2] := -x\n",
        "r", 3);
    EXPECT_EQ(d.abstractWords, d.machineWords);
    EXPECT_EQ(d.abstractWords[0], 143);
    EXPECT_EQ(d.abstractWords[2], -12);
}

TEST(GraphInterp, AgreesOnWrappingArithmetic)
{
    // Operands come from memory so nothing constant-folds: the
    // oracle's own arithmetic must wrap to the 32-bit machine word
    // (products, and the quotient/comparison of a wrapped product)
    // and define INT_MIN / -1 as the PE does.
    Differential d(
        "var r[6], m[3]:\n"
        "seq\n"
        "  m[0] := 65537\n"
        "  m[1] := -2147483647\n"
        "  m[2] := -1\n"
        "  r[0] := m[0] * m[0]\n"
        "  r[1] := (m[0] * m[0]) / 3\n"
        "  r[2] := (m[1] - 1) / m[2]\n"
        "  r[3] := (m[1] - 1) \\ m[2]\n"
        "  r[4] := -(m[1] - 1)\n"
        "  if\n"
        "    (m[0] * m[0]) > 200000\n"
        "      r[5] := 1\n"
        "    (m[0] * m[0]) <= 200000\n"
        "      r[5] := 2\n",
        "r", 6);
    EXPECT_EQ(d.abstractWords, d.machineWords);
    const std::int64_t int_min = -2147483647 - 1;
    EXPECT_EQ(d.abstractWords,
              (std::vector<std::int64_t>{131073, 43691, int_min, 0,
                                         int_min, 2}));
}

TEST(GraphInterp, AgreesOnControlFlow)
{
    Differential d(
        "var r[2]:\n"
        "var i, acc:\n"
        "seq\n"
        "  i := 0\n"
        "  acc := 1\n"
        "  while i < 8\n"
        "    seq\n"
        "      if\n"
        "        (i \\ 2) = 0\n"
        "          acc := acc * 2\n"
        "        (i \\ 2) <> 0\n"
        "          acc := acc + 3\n"
        "      i := i + 1\n"
        "  r[0] := acc\n"
        "  r[1] := i\n",
        "r", 2);
    EXPECT_EQ(d.abstractWords, d.machineWords);
}

TEST(GraphInterp, AgreesOnChannelsAndPar)
{
    Differential d(
        "var r[2]:\n"
        "chan c:\n"
        "var got:\n"
        "seq\n"
        "  par\n"
        "    seq k = [1 for 6]\n"
        "      c ! k * k\n"
        "    seq\n"
        "      got := 0\n"
        "      seq k = [1 for 6]\n"
        "        var v:\n"
        "        seq\n"
        "          c ? v\n"
        "          got := got + v\n"
        "  r[0] := got\n"
        "  r[1] := 7\n",
        "r", 2);
    EXPECT_EQ(d.abstractWords, d.machineWords);
    EXPECT_EQ(d.abstractWords[0], 91);  // 1+4+9+16+25+36
}

TEST(GraphInterp, AgreesOnProcedures)
{
    Differential d(
        "var r[1]:\n"
        "proc tri (value n, var out) =\n"
        "  if\n"
        "    n <= 0\n"
        "      out := 0\n"
        "    n > 0\n"
        "      var sub:\n"
        "      seq\n"
        "        tri (n - 1, sub)\n"
        "        out := n + sub\n"
        ":\n"
        "var t:\n"
        "seq\n"
        "  tri (10, t)\n"
        "  r[0] := t\n",
        "r", 1);
    EXPECT_EQ(d.abstractWords, d.machineWords);
    EXPECT_EQ(d.abstractWords[0], 55);
}

/** The four thesis benchmarks agree between executors. */
class BenchmarkDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BenchmarkDifferentialTest, ExecutorsAgree)
{
    programs::Benchmark bench =
        programs::thesisBenchmarks()[static_cast<size_t>(GetParam())];
    Differential d(bench.source, bench.resultArray,
                   bench.expected.size());
    EXPECT_EQ(d.abstractWords, d.machineWords) << bench.name;
    for (std::size_t i = 0; i < bench.expected.size(); ++i)
        EXPECT_EQ(d.abstractWords[i], bench.expected[i])
            << bench.name << "[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkDifferentialTest,
                         ::testing::Range(0, 4));

TEST(GraphInterp, DetectsDeadlock)
{
    Program program = parse(
        "chan c:\n"
        "var x:\n"
        "c ? x\n");
    SymbolTable table = analyze(program);
    Ift ift = Ift::build(program, table);
    ContextProgram contexts = buildContextGraphs(program, table, ift);
    GraphInterpreter interp(contexts);
    EXPECT_THROW(interp.run(), FatalError);
}

} // namespace

/**
 * @file
 * Seeded inputs of the benchmark workloads, each with a reference
 * result computed here in plain C++ (32-bit machine arithmetic). No
 * reference ever comes from the compiler under test or from
 * occam::GraphInterpreter.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace qmbench {

/** One program of the compile-gen workload and its expected result. */
struct GenProgram
{
    std::string source;
    std::vector<std::int32_t> expected;  ///< Final contents of array r.
};

/**
 * A structured random OCCAM program of about 30 KB: scalar and array
 * procedures, explicit and replicated pars, bounded seq loops, ifs and
 * array stores, with a fixed shape so that its size and context count
 * barely vary with @p seed. Its result is the top-level array "r".
 */
GenProgram generateProgram(std::uint64_t seed);

/**
 * Matmul c = a * b over n x n matrices. The source declares a, b and c
 * and computes only c; the seeded coefficients of a and b are written
 * into the machine's data memory before the run.
 */
struct MatmulInput
{
    int n = 0;
    std::vector<std::int32_t> a, b;     ///< Row-major inputs.
    std::vector<std::int32_t> expected;  ///< Row-major c.
};

std::string matmulSource(int n);
MatmulInput makeMatmulInput(int n, std::uint64_t seed);

/**
 * Fan-out: @p workers contexts, each running a @p iterations-step while
 * loop on its own seeded coefficient pair read from array "coef"
 * (written into data memory before the run); result array "v".
 */
struct FanoutInput
{
    int workers = 0;
    int iterations = 0;
    std::vector<std::int32_t> coef;      ///< Two per worker.
    std::vector<std::int32_t> expected;  ///< One per worker.
};

std::string fanoutSource(int workers, int iterations);
FanoutInput makeFanoutInput(int workers, int iterations,
                            std::uint64_t seed);

/** The recover-4pe fault plan: seeded drops with one link retry. */
qm::fault::FaultPlan recoverFaultPlan(std::uint64_t seed);

} // namespace qmbench

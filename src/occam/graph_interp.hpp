/**
 * @file
 * Abstract interpreter for spliced context graphs.
 *
 * Executes a ContextProgram directly at the data-flow-graph level: node
 * values live in a per-context table, channels are unbounded token
 * queues, and contexts are scheduled cooperatively. No instruction
 * encoding, no operand queue, no registers - this is the pure
 * data-flow semantics of Chapter 4. Values are 32-bit machine words:
 * arithmetic wraps and compares exactly as the PE's ALU does.
 *
 * Its purpose is differential testing: a compiled program must compute
 * the same observable memory state here and on the cycle-level
 * multiprocessor. A divergence isolates bugs in code generation
 * (queue-offset assignment, dup chains, trap encoding) from bugs in
 * graph construction.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "occam/graph_builder.hpp"

namespace qm::occam {

/** Result of an abstract run. */
struct InterpResult
{
    bool completed = false;
    std::uint64_t steps = 0;       ///< Actor firings.
    std::uint64_t contexts = 0;    ///< Context activations created.
    std::uint64_t transfers = 0;   ///< Channel tokens moved.
};

/** The abstract context-graph interpreter. */
class GraphInterpreter
{
  public:
    explicit GraphInterpreter(const ContextProgram &program,
                              std::size_t memory_words = 1u << 23);
    ~GraphInterpreter();

    GraphInterpreter(const GraphInterpreter &) = delete;
    GraphInterpreter &operator=(const GraphInterpreter &) = delete;

    /**
     * Run the program's main context to global completion.
     * Throws FatalError on deadlock or when @p max_steps elapses.
     */
    InterpResult run(std::uint64_t max_steps = 50'000'000);

    /** Read a word of the abstract data memory (byte address). */
    std::int64_t readWord(std::uint32_t byte_addr) const;

  private:
    struct Activation;

    bool stepActivation(std::size_t index);
    std::int64_t nodeValue(const Activation &act, int node) const;

    const ContextProgram &program_;
    std::map<std::string, int> graphIndex;
    std::vector<std::int64_t> memory;

    std::vector<Activation> activations;
    std::map<std::int64_t, std::vector<std::int64_t>> channels;
    /** Channel id -> activations parked on an empty channel. */
    std::map<std::int64_t, std::vector<std::size_t>> waiting;
    std::int64_t nextChannel = 2;
    std::uint32_t heapNext;
    std::uint64_t clock = 0;
    std::uint64_t live = 0;
    InterpResult result;
};

} // namespace qm::occam

#include "generators.hpp"

#include <array>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/rng.hpp"

namespace qmbench {

namespace {

/**
 * Every value a generated program stores is reduced modulo this, and
 * multiplications take one small constant operand, so no intermediate
 * leaves 32 bits: the machine's arithmetic and the int64 reference
 * below agree without relying on wrap-around.
 */
constexpr std::int64_t kMod = 10007;

/** Variable slots of one scope (parameters, locals, loop indices). */
using Env = std::array<std::int64_t, 6>;

std::int64_t
checked(std::int64_t v)
{
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max())
        throw std::logic_error("generated value leaves 32 bits");
    return v;
}

/** An expression's OCCAM text and its reference evaluation. */
struct Ex
{
    std::string text;
    std::function<std::int64_t(const Env &)> eval;
};

Ex
constant(std::int64_t v)
{
    return {std::to_string(v), [v](const Env &) { return v; }};
}

Ex
slot(const std::string &name, int index)
{
    return {name, [index](const Env &e) {
                return e[static_cast<std::size_t>(index)];
            }};
}

/** (x \ kMod): OCCAM's remainder truncates like C++'s %. */
Ex
reduced(Ex x)
{
    return {"(" + x.text + " \\ " + std::to_string(kMod) + ")",
            [f = std::move(x.eval)](const Env &e) { return f(e) % kMod; }};
}

class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng(seed) {}

    GenProgram
    generate()
    {
        for (int i = 0; i < kLoopProcs; ++i)
            loopProc();
        for (int i = 0; i < kIfProcs; ++i)
            ifProc();
        int leaves = static_cast<int>(scalarProcs.size());
        for (int i = 0; i < kParProcs; ++i)
            parProc(leaves);
        for (int i = 0; i < kArrayProcs; ++i)
            arrayProc(i % 2 == 0);

        // Blocks go into stage procedures: the main context alone could
        // not hold them within one operand-queue page.
        std::vector<std::string> stages;
        for (int s = 0; s < kStages; ++s) {
            stages.push_back(fresh("s"));
            os = &stageText;
            line(0, "proc " + stages.back() + " (var r[]) =");
            line(1, "seq");
            indent = 1;
            for (BlockKind kind :
                 {kAssign, kParCalls, kAssign, kRepPar,
                  s % 2 == 0 ? kLoop : kIf, kArrayCall, kAssign,
                  kParPair})
                block(kind);
            indent = 0;
            line(0, ":");
        }
        os = &body;
        line(0, "seq");
        for (const std::string &stage : stages)
            line(1, stage + " (r)");

        std::ostringstream head;
        head << "-- Generated benchmark program (compile-gen workload).\n"
             << "var r[" << r.size() << "]:\n";
        GenProgram out;
        out.source =
            head.str() + procText.str() + stageText.str() + body.str();
        out.expected.reserve(r.size());
        for (std::int64_t v : r)
            out.expected.push_back(static_cast<std::int32_t>(v));
        return out;
    }

  private:
    // Shape: fixed counts, so size and context count stay near-constant
    // across seeds (the seed picks operators, operands and trip counts).
    static constexpr int kLoopProcs = 3;
    static constexpr int kIfProcs = 2;
    static constexpr int kParProcs = 3;
    static constexpr int kArrayProcs = 2;
    static constexpr int kStages = 8;
    static constexpr int kWidth = 4;        ///< Replicated par/seq width.
    static constexpr int kAssignSteps = 8;  ///< Statements per kAssign.

    enum BlockKind
    {
        kAssign,
        kParCalls,
        kRepPar,
        kArrayCall,
        kLoop,
        kIf,
        kParPair,
    };

    struct ScalarProc
    {
        std::string name;
        std::function<std::int64_t(std::int64_t, std::int64_t)> eval;
    };
    struct ArrayProc
    {
        std::string name;
        /** Value stored at arr[base + i]. */
        std::function<std::int64_t(std::int64_t i, std::int64_t m,
                                   std::int64_t base)>
            eval;
    };

    void
    line(int depth, const std::string &text)
    {
        for (int i = 0; i < indent + depth; ++i)
            *os << "  ";
        *os << text << "\n";
    }

    /** A leaf: a small constant, a scope slot, or an earlier result. */
    Ex
    leaf(const std::vector<Ex> &vars, bool results)
    {
        std::uint64_t pick = rng.below(4);
        if (pick == 0 || (vars.empty() && !(results && written > 0)))
            return constant(rng.range(-9, 9));
        if (results && written > 0 && (pick == 1 || vars.empty())) {
            // r[k] of an earlier block is final when this one runs.
            auto k = static_cast<std::size_t>(rng.below(
                static_cast<std::uint64_t>(written)));
            std::int64_t v = r[k];
            return {"r[" + std::to_string(k) + "]",
                    [v](const Env &) { return v; }};
        }
        return vars[rng.below(vars.size())];
    }

    /** A full tree of @p depth levels over + - and * by a constant. */
    Ex
    tree(int depth, const std::vector<Ex> &vars, bool results = false)
    {
        if (depth == 0)
            return leaf(vars, results);
        Ex lhs = tree(depth - 1, vars, results);
        switch (rng.below(3)) {
          case 0: {
            Ex rhs = tree(depth - 1, vars, results);
            return {"(" + lhs.text + " + " + rhs.text + ")",
                    [l = lhs.eval, r2 = rhs.eval](const Env &e) {
                        return checked(l(e) + r2(e));
                    }};
          }
          case 1: {
            Ex rhs = tree(depth - 1, vars, results);
            return {"(" + lhs.text + " - " + rhs.text + ")",
                    [l = lhs.eval, r2 = rhs.eval](const Env &e) {
                        return checked(l(e) - r2(e));
                    }};
          }
          default: {
            std::int64_t c = rng.range(2, 9);
            return {"(" + lhs.text + " * " + std::to_string(c) + ")",
                    [l = lhs.eval, c](const Env &e) {
                        return checked(l(e) * c);
                    }};
          }
        }
    }

    Ex
    value(const std::vector<Ex> &vars, bool results = false)
    {
        return reduced(tree(3, vars, results));
    }

    std::string
    fresh(const char *stem)
    {
        return stem + std::to_string(names++);
    }

    /** proc pN (value a, value b, var o): seeded loop over a local. */
    void
    loopProc()
    {
        std::string name = fresh("p");
        std::string k = fresh("k");
        Ex a = slot("a", 0), b = slot("b", 1), t = slot("t", 2),
           kx = slot(k, 3);
        Ex init = value({a, b});
        Ex step = value({t, kx, a});
        Ex out = value({t, b});
        std::int64_t trips = rng.range(1, 3);
        line(0, "proc " + name + " (value a, value b, var o) =");
        line(1, "var t:");
        line(1, "seq");
        line(2, "t := " + init.text);
        line(2, "seq " + k + " = [0 for " + std::to_string(trips) + "]");
        line(3, "t := " + step.text);
        line(2, "o := " + out.text);
        line(0, ":");
        scalarProcs.push_back(
            {name, [=](std::int64_t av, std::int64_t bv) {
                 Env e{av, bv, 0, 0, 0, 0};
                 e[2] = init.eval(e);
                 for (std::int64_t i = 0; i < trips; ++i) {
                     e[3] = i;
                     e[2] = step.eval(e);
                 }
                 return out.eval(e);
             }});
    }

    /** A condition over @p vars and its reference truth value. */
    std::pair<std::string, std::function<bool(const Env &)>>
    condition(const std::vector<Ex> &vars, bool results = false)
    {
        static const char *kRel[] = {"<", ">", "=", "<>", "<=", ">="};
        int rel = static_cast<int>(rng.below(6));
        Ex lhs = tree(1, vars, results), rhs = tree(1, vars, results);
        return {lhs.text + " " + kRel[rel] + " " + rhs.text,
                [rel, l = lhs.eval, r2 = rhs.eval](const Env &e) {
                    std::int64_t x = l(e), y = r2(e);
                    switch (rel) {
                      case 0: return x < y;
                      case 1: return x > y;
                      case 2: return x == y;
                      case 3: return x != y;
                      case 4: return x <= y;
                      default: return x >= y;
                    }
                }};
    }

    /** proc pN (value a, value b, var o): a two-armed if. */
    void
    ifProc()
    {
        std::string name = fresh("p");
        Ex a = slot("a", 0), b = slot("b", 1);
        auto cond = condition({a, b});
        Ex yes = value({a, b}), no = value({a, b});
        line(0, "proc " + name + " (value a, value b, var o) =");
        line(1, "if");
        line(2, cond.first);
        line(3, "o := " + yes.text);
        line(2, "true");
        line(3, "o := " + no.text);
        line(0, ":");
        scalarProcs.push_back(
            {name, [=](std::int64_t av, std::int64_t bv) {
                 Env e{av, bv, 0, 0, 0, 0};
                 return cond.second(e) ? yes.eval(e) : no.eval(e);
             }});
    }

    /** proc pN: two calls of earlier leaf procedures run in parallel. */
    void
    parProc(int leaves)
    {
        std::string name = fresh("p");
        const ScalarProc first =
            scalarProcs[rng.below(static_cast<std::uint64_t>(leaves))];
        const ScalarProc second =
            scalarProcs[rng.below(static_cast<std::uint64_t>(leaves))];
        Ex a = slot("a", 0), b = slot("b", 1), t = slot("t", 2),
           u = slot("u", 3);
        Ex arg1 = value({a, b});
        std::int64_t arg2 = rng.range(-9, 9);
        Ex arg3 = value({a});
        Ex out = value({t, u, a});
        line(0, "proc " + name + " (value a, value b, var o) =");
        line(1, "var t, u:");
        line(1, "seq");
        line(2, "par");
        line(3, first.name + " (" + arg1.text + ", " +
                    std::to_string(arg2) + ", t)");
        line(3, second.name + " (b, " + arg3.text + ", u)");
        line(2, "o := " + out.text);
        line(0, ":");
        scalarProcs.push_back(
            {name, [=](std::int64_t av, std::int64_t bv) {
                 Env e{av, bv, 0, 0, 0, 0};
                 e[2] = first.eval(arg1.eval(e), arg2);
                 e[3] = second.eval(bv, arg3.eval(e));
                 return out.eval(e);
             }});
    }

    /** proc qN (value base, value m, var arr[]): kWidth array stores. */
    void
    arrayProc(bool parallel)
    {
        std::string name = fresh("q");
        std::string i = fresh("i");
        Ex base = slot("base", 0), m = slot("m", 1), ix = slot(i, 2);
        Ex stored = value({ix, m, base});
        line(0, "proc " + name + " (value base, value m, var arr[]) =");
        line(1, std::string(parallel ? "par " : "seq ") + i + " = [0 for " +
                    std::to_string(kWidth) + "]");
        line(2, "arr[base + " + i + "] := " + stored.text);
        line(0, ":");
        arrayProcs.push_back(
            {name, [stored](std::int64_t iv, std::int64_t mv,
                            std::int64_t bv) {
                 return stored.eval(Env{bv, mv, iv, 0, 0, 0});
             }});
    }

    /** Grow r by @p width slots; returns the first new index. */
    int
    claim(int width)
    {
        int lo = static_cast<int>(r.size());
        r.resize(r.size() + static_cast<std::size_t>(width), 0);
        return lo;
    }

    std::string
    at(int index)
    {
        return "r[" + std::to_string(index) + "]";
    }

    /** One block writing a fresh region of r. */
    void
    block(BlockKind kind)
    {
        // Values of the region are computed into `out` and committed
        // after the block, so its leaves only see earlier blocks.
        std::vector<std::int64_t> out;
        int lo = 0;
        switch (kind) {
          case kParCalls: {
            // Explicit par of three procedure calls.
            // Declarations scope over the rest of the enclosing seq,
            // so block locals take fresh names.
            lo = claim(3);
            std::string x[3] = {fresh("x"), fresh("x"), fresh("x")};
            line(1, "var " + x[0] + ", " + x[1] + ", " + x[2] + ":");
            line(1, "seq");
            line(2, "par");
            for (int c = 0; c < 3; ++c) {
                const ScalarProc &p = scalarProcs[rng.below(
                    scalarProcs.size())];
                Ex a = leaf({}, true), b = leaf({}, true);
                line(3, p.name + " (" + a.text + ", " + b.text + ", " +
                            x[c] + ")");
                out.push_back(p.eval(a.eval(Env{}), b.eval(Env{})));
            }
            for (int c = 0; c < 3; ++c)
                line(2, at(lo + c) + " := " + x[c]);
            break;
          }
          case kRepPar: {
            // Replicated par, one store per instance.
            lo = claim(kWidth);
            std::string i = fresh("i");
            Ex stored = value({slot(i, 0)}, true);
            line(1, "par " + i + " = [0 for " + std::to_string(kWidth) +
                        "]");
            line(2, "r[" + std::to_string(lo) + " + " + i + "] := " +
                        stored.text);
            for (int iv = 0; iv < kWidth; ++iv)
                out.push_back(stored.eval(Env{iv, 0, 0, 0, 0, 0}));
            break;
          }
          case kAssign: {
            // Straight-line code over two locals, in a procedure of its
            // own so that the calling stage's context stays small.
            lo = claim(2);
            std::string name = fresh("a"), xn = fresh("x"),
                        yn = fresh("y");
            line(1, name + " (r)");
            std::ostringstream *caller = os;
            int caller_indent = indent;
            os = &procText;
            indent = 0;
            Ex x = slot(xn, 0), y = slot(yn, 1);
            line(0, "proc " + name + " (var r[]) =");
            line(1, "var " + xn + ", " + yn + ":");
            line(1, "seq");
            Env e{};
            Ex first = value({}, true);
            line(2, xn + " := " + first.text);
            e[0] = first.eval(e);
            Ex second = value({x}, true);
            line(2, yn + " := " + second.text);
            e[1] = second.eval(e);
            for (int st = 0; st < kAssignSteps; ++st) {
                Ex next = value({x, y}, true);
                int target = st % 2;
                line(2, (target == 0 ? xn : yn) + " := " + next.text);
                e[static_cast<std::size_t>(target)] = next.eval(e);
            }
            line(2, at(lo) + " := " + xn);
            line(2, at(lo + 1) + " := " + yn);
            line(0, ":");
            os = caller;
            indent = caller_indent;
            out.push_back(e[0]);
            out.push_back(e[1]);
            break;
          }
          case kArrayCall: {
            // Array procedure storing into r through a var parameter.
            lo = claim(kWidth);
            const ArrayProc &q =
                arrayProcs[rng.below(arrayProcs.size())];
            Ex m = leaf({}, true);
            line(1, q.name + " (" + std::to_string(lo) + ", " + m.text +
                        ", r)");
            std::int64_t mv = m.eval(Env{});
            for (int iv = 0; iv < kWidth; ++iv)
                out.push_back(q.eval(iv, mv, lo));
            break;
          }
          case kLoop: {
            // Bounded seq loop accumulating over earlier results.
            lo = claim(1);
            std::string k = fresh("k"), name = fresh("acc");
            Ex acc = slot(name, 0), kx = slot(k, 1);
            Ex init = leaf({}, true);
            Ex step = value({acc, kx}, true);
            std::int64_t trips = rng.range(1, 3);
            line(1, "var " + name + ":");
            line(1, "seq");
            line(2, name + " := " + init.text);
            line(2, "seq " + k + " = [0 for " + std::to_string(trips) +
                        "]");
            line(3, name + " := " + step.text);
            line(2, at(lo) + " := " + name);
            Env e{init.eval(Env{}), 0, 0, 0, 0, 0};
            for (std::int64_t kv = 0; kv < trips; ++kv) {
                e[1] = kv;
                e[0] = step.eval(e);
            }
            out.push_back(e[0]);
            break;
          }
          case kIf: {
            // Two-armed if over earlier results.
            lo = claim(1);
            auto cond = condition({}, true);
            Ex yes = value({}, true), no = value({}, true);
            line(1, "if");
            line(2, cond.first);
            line(3, at(lo) + " := " + yes.text);
            line(2, "true");
            line(3, at(lo) + " := " + no.text);
            out.push_back(cond.second(Env{}) ? yes.eval(Env{})
                                             : no.eval(Env{}));
            break;
          }
          case kParPair: {
            // Explicit par of two inline components.
            lo = claim(2);
            Ex first = value({}, true), second = value({}, true);
            line(1, "par");
            line(2, at(lo) + " := " + first.text);
            line(2, at(lo + 1) + " := " + second.text);
            out.push_back(first.eval(Env{}));
            out.push_back(second.eval(Env{}));
            break;
          }
        }
        for (std::size_t j = 0; j < out.size(); ++j)
            r[static_cast<std::size_t>(lo) + j] = out[j];
        written = static_cast<int>(r.size());
    }

    qm::SplitMix64 rng;
    std::ostringstream procText, stageText, body;
    std::ostringstream *os = &procText;  ///< Where line() writes.
    int indent = 0;  ///< Extra indentation of block lines.
    int names = 0;
    std::vector<ScalarProc> scalarProcs;
    std::vector<ArrayProc> arrayProcs;
    std::vector<std::int64_t> r;  ///< Reference contents of array r.
    int written = 0;              ///< r[0, written) is final.
};

} // namespace

GenProgram
generateProgram(std::uint64_t seed)
{
    return ProgramGen(seed).generate();
}

std::string
matmulSource(int n)
{
    std::ostringstream os;
    os << "-- Matrix multiplication c = a * b; a and b are loaded into\n"
       << "-- memory before the run. One context per result row.\n"
       << "def n = " << n << ":\n"
       << "var a[" << n * n << "], b[" << n * n << "], c[" << n * n
       << "]:\n"
       << "par i = [0 for n]\n"
       << "  seq j = [0 for n]\n"
       << "    var sum:\n"
       << "    seq\n"
       << "      sum := 0\n"
       << "      seq k = [0 for n]\n"
       << "        sum := sum + (a[(i * n) + k] * b[(k * n) + j])\n"
       << "      c[(i * n) + j] := sum\n";
    return os.str();
}

MatmulInput
makeMatmulInput(int n, std::uint64_t seed)
{
    qm::SplitMix64 rng(seed ^ 0x6d61746dULL);
    MatmulInput in;
    in.n = n;
    auto cells = static_cast<std::size_t>(n * n);
    for (std::size_t i = 0; i < cells; ++i) {
        in.a.push_back(static_cast<std::int32_t>(rng.range(-99, 99)));
        in.b.push_back(static_cast<std::int32_t>(rng.range(-99, 99)));
    }
    in.expected.assign(cells, 0);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
            std::int64_t sum = 0;
            for (int k = 0; k < n; ++k)
                sum += std::int64_t{in.a[static_cast<std::size_t>(i * n + k)]} *
                       in.b[static_cast<std::size_t>(k * n + j)];
            in.expected[static_cast<std::size_t>(i * n + j)] =
                static_cast<std::int32_t>(checked(sum));
        }
    return in;
}

namespace {
/** Keeps every fan-out accumulator far inside 32 bits. */
constexpr std::int64_t kFanMod = 65521;
} // namespace

std::string
fanoutSource(int workers, int iterations)
{
    std::ostringstream os;
    os << "-- " << workers << "-way fan-out: one context per worker, each\n"
       << "-- running a while loop on its own loaded coefficients.\n"
       << "def w = " << workers << ":\n"
       << "var v[" << workers << "], coef[" << 2 * workers << "]:\n"
       << "par i = [0 for w]\n"
       << "  var acc, k, m, d:\n"
       << "  seq\n"
       << "    acc := 0\n"
       << "    k := 0\n"
       << "    m := coef[i * 2]\n"
       << "    d := coef[(i * 2) + 1]\n"
       << "    while k < " << iterations << "\n"
       << "      seq\n"
       << "        acc := (acc + ((m * k) + d)) \\ " << kFanMod << "\n"
       << "        k := k + 1\n"
       << "    v[i] := acc\n";
    return os.str();
}

FanoutInput
makeFanoutInput(int workers, int iterations, std::uint64_t seed)
{
    qm::SplitMix64 rng(seed ^ 0x66616e6fULL);
    FanoutInput in;
    in.workers = workers;
    in.iterations = iterations;
    for (int w = 0; w < workers; ++w) {
        std::int64_t m = rng.range(-99, 99), d = rng.range(-99, 99);
        in.coef.push_back(static_cast<std::int32_t>(m));
        in.coef.push_back(static_cast<std::int32_t>(d));
        std::int64_t acc = 0;
        for (std::int64_t k = 0; k < iterations; ++k)
            acc = checked(acc + m * k + d) % kFanMod;
        in.expected.push_back(static_cast<std::int32_t>(acc));
    }
    return in;
}

qm::fault::FaultPlan
recoverFaultPlan(std::uint64_t seed)
{
    return qm::fault::parseFaultPlan(
        "seed=" + std::to_string(seed % 1000003) +
        ",rate=0.5,kinds=drop,retries=1");
}

} // namespace qmbench

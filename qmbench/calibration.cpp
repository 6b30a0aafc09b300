#include "calibration.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>

namespace qmbench {

namespace {

/** 8 MiB: past the private caches, like the simulator's own state. */
constexpr std::uint32_t kArenaWords = 1u << 21;

volatile std::uint64_t calibrationSink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * Three kinds of work, because contention slows each differently:
 * node allocation and pointer chasing (like the compiler), dependent
 * random reads and writes over the arena (like the simulator's state),
 * and bulk copies (like checkpoints).
 */
std::uint64_t
kernel(std::vector<std::uint32_t> &arena, std::vector<std::uint32_t> &copy)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
    std::map<std::uint64_t, std::string> nodes;
    for (int i = 0; i < 6000; ++i) {
        std::uint64_t r = xorshift(x);
        nodes.emplace(r % 20000, std::string(24 + r % 40, 'a'));
        if (nodes.size() > 2000) {
            auto it = nodes.lower_bound(xorshift(x) % 20000);
            if (it == nodes.end())
                it = nodes.begin();
            acc += it->second.size();
            nodes.erase(it);
        }
    }
    std::uint32_t index = 0;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t r = xorshift(x);
        index = (index * 1103515245u + static_cast<std::uint32_t>(r)) &
                (kArenaWords - 1);
        acc += arena[index];
        arena[index] = static_cast<std::uint32_t>(acc ^ r);
        acc = (acc & 1) ? acc + (r >> 3) : acc ^ r;
    }
    for (int i = 0; i < 2; ++i) {
        std::memcpy(copy.data(), arena.data() + i * copy.size(),
                    copy.size() * sizeof(std::uint32_t));
        acc += copy[index % copy.size()];
    }
    return acc;
}

} // namespace

double
calibrate()
{
    static std::vector<std::uint32_t> arena(kArenaWords);
    static std::vector<std::uint32_t> copy(kArenaWords / 2);
    auto start = std::chrono::steady_clock::now();
    calibrationSink = kernel(arena, copy);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

HostSpeed::HostSpeed()
{
    calibrate();  // Fault the arena in before the first sample.
    samples_.push_back(calibrate());
}

double
HostSpeed::afterStep()
{
    double before = samples_.back();
    samples_.push_back(calibrate());
    return kCalibrationRefMs / ((before + samples_.back()) / 2);
}

} // namespace qmbench

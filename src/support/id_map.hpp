/**
 * @file
 * Constant-time map over the kernel's densely allocated 32-bit ids.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qm {

/**
 * Map from 32-bit ids to small values, for an id space that a counter
 * hands out densely (the kernel allocates channel ids in pairs from
 * 2). An id indexes a flat vector, so find() and set() are O(1) and
 * allocate only when the vector grows.
 *
 * The flat part never spans more than kSpanPerEntry ids per entry
 * present, plus kMinSpan. An id beyond that - a garbage channel id
 * from a program, a crafted checkpoint key - goes to a small sorted
 * overflow instead, so memory is bounded by the entries present, never
 * by the value of an id. Overflow ids are always above the flat part,
 * and move into it when it grows past them. Entries are never erased.
 */
template <typename T, T Absent>
class IdMap
{
  public:
    using Id = std::uint32_t;

    /** The value stored for @p id, or Absent. */
    T
    find(Id id) const
    {
        if (id < dense_.size())
            return dense_[id];
        auto it = lowerBound(overflow_, id);
        return it != overflow_.end() && it->first == id ? it->second
                                                        : Absent;
    }

    /** Store @p value (anything but Absent) for @p id. */
    void
    set(Id id, T value)
    {
        if (id < dense_.size() || grow(id)) {
            T &slot = dense_[id];
            if (slot == Absent)
                ++size_;
            slot = value;
            return;
        }
        auto it = lowerBound(overflow_, id);
        if (it != overflow_.end() && it->first == id) {
            it->second = value;
            return;
        }
        overflow_.emplace(it, id, value);
        ++size_;
    }

    /** Number of ids with a value. */
    std::size_t size() const { return size_; }

    /**
     * Size the flat part for @p count more entries with ids up to
     * @p maxId, so that a bulk insert (a table rebuilt on restore)
     * does not grow it one id at a time. The span bound counts the
     * entries to come.
     */
    void
    reserve(std::size_t count, Id maxId)
    {
        std::size_t span = kMinSpan + kSpanPerEntry * (size_ + count + 1);
        std::size_t want = std::min(std::size_t{maxId} + 1, span);
        if (want > dense_.size())
            growTo(want);
    }

    void
    clear()
    {
        dense_.clear();
        overflow_.clear();
        size_ = 0;
    }

    /** Call @p fn(id, value) for every entry, in ascending id order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t id = 0; id < dense_.size(); ++id)
            if (dense_[id] != Absent)
                fn(static_cast<Id>(id), dense_[id]);
        for (const auto &[id, value] : overflow_)
            fn(id, value);
    }

  private:
    static constexpr std::size_t kMinSpan = 1024;
    static constexpr std::size_t kSpanPerEntry = 8;

    using Overflow = std::vector<std::pair<Id, T>>;

    /** First overflow entry whose id is not below @p key. */
    template <typename Vec>
    static auto
    lowerBound(Vec &overflow, std::uint64_t key)
    {
        return std::lower_bound(overflow.begin(), overflow.end(), key,
                                [](const auto &entry, std::uint64_t k) {
                                    return entry.first < k;
                                });
    }

    /**
     * Extend the flat part to cover @p id if the span bound allows,
     * moving the overflow ids it now covers into it.
     */
    bool
    grow(Id id)
    {
        if (id >= kMinSpan + kSpanPerEntry * (size_ + 1))
            return false;
        growTo(std::size_t{id} + 1);
        return true;
    }

    void
    growTo(std::size_t size)
    {
        dense_.resize(size, Absent);
        auto covered = lowerBound(overflow_, size);
        for (auto it = overflow_.begin(); it != covered; ++it)
            dense_[it->first] = it->second;
        overflow_.erase(overflow_.begin(), covered);
    }

    std::vector<T> dense_;
    Overflow overflow_;  ///< Sorted by id; every id >= dense_.size().
    std::size_t size_ = 0;
};

} // namespace qm

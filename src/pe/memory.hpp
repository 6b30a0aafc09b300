/**
 * @file
 * Byte-addressable data memory (thesis section 5.3.1).
 *
 * Words are 32 bits, little-endian, and word accesses must be aligned.
 * The operand-queue pages of every context live in this memory alongside
 * program data (vectors, arrays), exactly as in the pseudo-static layout
 * where one instruction space is shared while each context owns a data
 * page.
 */
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "isa/fields.hpp"

namespace qm::pe {

using isa::Addr;
using isa::Word;

/**
 * Granularity of dirty tracking, checkpoint images and the QMCKPT01
 * MEMS section. A host-side unit only: it is unrelated to the size of
 * a context's queue page (SystemConfig::pageWords).
 */
constexpr std::size_t kPageBytes = 4096;

/**
 * Bytes in page @p page of a @p memory_bytes memory: kPageBytes, except
 * for a short last page when the size is not a kPageBytes multiple.
 */
constexpr std::size_t
pageLength(std::size_t memory_bytes, std::size_t page)
{
    std::size_t off = page * kPageBytes;
    return memory_bytes - off < kPageBytes ? memory_bytes - off : kPageBytes;
}

/** One page's bytes; immutable once built, so checkpoints share it. */
using Page = std::shared_ptr<const std::vector<std::uint8_t>>;

/**
 * A memory image, keyed by page index. A page that is absent reads as
 * all zeroes; a present one holds pageLength(memory size, index) bytes.
 */
using PageImage = std::map<std::size_t, Page>;

/**
 * Bounded store undo log for span restart (see DESIGN.md "Recoverable
 * execution"). While attached to a Memory, every write records the
 * value it overwrote; applying the log in reverse restores memory to
 * the state at the moment the log was cleared. Exceeding the bound
 * marks the log overflowed, which forbids restarting the span (the
 * checkpoint path takes over) but keeps memory use bounded.
 */
struct UndoLog
{
    struct Entry
    {
        Addr addr = 0;
        Word old = 0;
        bool byte = false;
    };

    std::vector<Entry> entries;
    std::size_t cap = 1u << 18;
    bool overflowed = false;

    void
    clear()
    {
        entries.clear();
        overflowed = false;
    }

    void
    record(Addr addr, Word old, bool byte)
    {
        if (overflowed)
            return;
        if (entries.size() >= cap) {
            overflowed = true;
            entries.clear();  // unusable for restart; free the memory
            return;
        }
        entries.push_back({addr, old, byte});
    }
};

/**
 * Flat byte-addressable memory with checked word/byte access and
 * dirty-page tracking for checkpoints.
 */
class Memory
{
  public:
    /**
     * The store is calloc()ed, so untouched pages stay as kernel
     * zero-pages and construction is near-free; it reads as
     * all-zeroes.
     */
    explicit Memory(std::size_t bytes);

    std::size_t size() const { return size_; }

    Word readWord(Addr addr) const;
    void writeWord(Addr addr, Word value);
    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    /**
     * Attach (or detach with nullptr) an undo log recording the old
     * value of every subsequent write. The System points this at the
     * stepping PE's span log around each batch; with no recovery plan
     * it stays null and writes behave exactly as before.
     */
    void setUndoLog(UndoLog *undo) { undo_ = undo; }

    /** Roll back every write recorded in @p undo (reverse order). */
    void applyUndo(const UndoLog &undo);

    /**
     * Pages written since the dirty set was last cleared (by
     * snapshotPages or restorePages), in first-write order. Every write
     * path marks its page: writeWord, writeByte and applyUndo.
     */
    const std::vector<std::uint32_t> &dirtyPages() const
    {
        return dirtyList_;
    }

    /** Mark @p page as differing from the image it was last synced to. */
    void
    markDirty(std::size_t page)
    {
        if (!dirty_[page]) {
            dirty_[page] = 1;
            dirtyList_.push_back(static_cast<std::uint32_t>(page));
        }
    }

    /**
     * Bring @p image, the image this memory was last synced to, up to
     * date: each dirty page gets a fresh copy, every clean page keeps
     * the Page it already shares. Clears the dirty set. A memory that
     * has never been synced is relative to the empty (all-zero) image.
     */
    void snapshotPages(PageImage &image);

    /**
     * Roll memory back to @p image, the image it was last synced to:
     * only dirty pages are rewritten, and a dirty page the image lacks
     * is zeroed. Clears the dirty set.
     */
    void restorePages(const PageImage &image);

    /** Raw backing store (tests/differential comparisons). */
    const std::uint8_t *data() const { return data_; }

  private:
    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    void checkWord(Addr addr) const;
    void clearDirty();

    std::unique_ptr<std::uint8_t[], FreeDeleter> store_;
    std::uint8_t *data_ = nullptr;  ///< store_.get(), cached.
    std::size_t size_ = 0;
    UndoLog *undo_ = nullptr;  ///< See setUndoLog.
    std::vector<std::uint8_t> dirty_;       ///< One flag per page.
    std::vector<std::uint32_t> dirtyList_;  ///< Indices of set flags.
};

} // namespace qm::pe

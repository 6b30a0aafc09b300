#include "pe/memory.hpp"

#include <cstring>

#include "support/diagnostics.hpp"

namespace qm::pe {

Memory::Memory(std::size_t bytes)
    : store_(static_cast<std::uint8_t *>(std::calloc(bytes, 1))),
      size_(bytes), dirty_((bytes + kPageBytes - 1) / kPageBytes, 0)
{
    fatalIf(bytes > 0 && !store_,
            "memory allocation of ", bytes, " bytes failed");
    data_ = store_.get();
}

void
Memory::checkWord(Addr addr) const
{
    fatalIf((addr & 3) != 0, "unaligned word access at ", addr);
    fatalIf(static_cast<std::size_t>(addr) + 4 > size_,
            "word access out of bounds at ", addr);
}

Word
Memory::readWord(Addr addr) const
{
    checkWord(addr);
    return static_cast<Word>(data_[addr]) |
           (static_cast<Word>(data_[addr + 1]) << 8) |
           (static_cast<Word>(data_[addr + 2]) << 16) |
           (static_cast<Word>(data_[addr + 3]) << 24);
}

void
Memory::writeWord(Addr addr, Word value)
{
    checkWord(addr);
    if (undo_)
        undo_->record(addr, readWord(addr), /*byte=*/false);
    // Aligned words never straddle a page.
    markDirty(addr / kPageBytes);
    data_[addr] = static_cast<std::uint8_t>(value);
    data_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    data_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    data_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint8_t
Memory::readByte(Addr addr) const
{
    fatalIf(static_cast<std::size_t>(addr) >= size_,
            "byte access out of bounds at ", addr);
    return data_[addr];
}

void
Memory::writeByte(Addr addr, std::uint8_t value)
{
    fatalIf(static_cast<std::size_t>(addr) >= size_,
            "byte access out of bounds at ", addr);
    if (undo_)
        undo_->record(addr, data_[addr], /*byte=*/true);
    markDirty(addr / kPageBytes);
    data_[addr] = value;
}

void
Memory::applyUndo(const UndoLog &undo)
{
    panicIf(undo.overflowed, "applying an overflowed undo log");
    for (auto it = undo.entries.rbegin(); it != undo.entries.rend();
         ++it) {
        markDirty(it->addr / kPageBytes);
        if (it->byte)
            data_[it->addr] = static_cast<std::uint8_t>(it->old);
        else {
            checkWord(it->addr);
            data_[it->addr] = static_cast<std::uint8_t>(it->old);
            data_[it->addr + 1] =
                static_cast<std::uint8_t>(it->old >> 8);
            data_[it->addr + 2] =
                static_cast<std::uint8_t>(it->old >> 16);
            data_[it->addr + 3] =
                static_cast<std::uint8_t>(it->old >> 24);
        }
    }
}

void
Memory::clearDirty()
{
    for (std::uint32_t page : dirtyList_)
        dirty_[page] = 0;
    dirtyList_.clear();
}

void
Memory::snapshotPages(PageImage &image)
{
    for (std::uint32_t page : dirtyList_) {
        const std::uint8_t *bytes = data_ + page * kPageBytes;
        image[page] = std::make_shared<const std::vector<std::uint8_t>>(
            bytes, bytes + pageLength(size_, page));
    }
    clearDirty();
}

void
Memory::restorePages(const PageImage &image)
{
    for (std::uint32_t page : dirtyList_) {
        std::uint8_t *bytes = data_ + page * kPageBytes;
        auto it = image.find(page);
        if (it == image.end())
            std::memset(bytes, 0, pageLength(size_, page));
        else
            std::memcpy(bytes, it->second->data(), pageLength(size_, page));
    }
    clearDirty();
}

} // namespace qm::pe

/**
 * @file
 * Binary codecs for the simulator state that travels inside a durable
 * checkpoint: the statistics registry, the trace event stream, the
 * message-cache and ring-bus snapshots, and kernel context records.
 *
 * Decode never throws and never trusts the input: every length is
 * bounds-checked against the remaining bytes and every enum/index is
 * range-checked, flipping the Decoder into its sticky failed state on
 * the first problem. The section CRC catches random corruption; these
 * checks catch *structurally* hostile bytes behind a valid CRC, so a
 * bad checkpoint is always refused, never undefined behavior.
 */
#pragma once

#include <vector>

#include "msg/message_cache.hpp"
#include "mp/ring_bus.hpp"
#include "mp/system.hpp"
#include "pe/memory.hpp"
#include "persist/io.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace qm::persist {

void encodeStatSet(Encoder &enc, const StatSet &stats);
StatSet decodeStatSet(Decoder &dec);

/** The full recorder content: events + dropped count + kind counts. */
struct TraceState
{
    std::vector<trace::Event> events;
    std::uint64_t dropped = 0;
    std::array<std::size_t, trace::kEventKinds> kindCounts{};
};

void encodeTraceState(Encoder &enc, const TraceState &state);
TraceState decodeTraceState(Decoder &dec);

void encodeCacheSnapshot(Encoder &enc, const msg::MessageCache::Snapshot &snap);
msg::MessageCache::Snapshot decodeCacheSnapshot(Decoder &dec);

void encodeBusSnapshot(Encoder &enc, const mp::RingBus::Snapshot &snap);
mp::RingBus::Snapshot decodeBusSnapshot(Decoder &dec);

void encodeContext(Encoder &enc, const mp::Context &ctx);
mp::Context decodeContext(Decoder &dec);

void encodeHostOp(Encoder &enc, const mp::HostOp &op);
mp::HostOp decodeHostOp(Decoder &dec);

/**
 * Sparse memory image (the MEMS section): the declared size, then one
 * (offset, bytes) record per page of @p image that is not entirely
 * zero, in ascending offset order. A 32 MiB address space with a small
 * working set persists in a few hundred KiB.
 */
void encodePageImage(Encoder &enc, const pe::PageImage &image,
                     std::size_t size);

/**
 * Decode a MEMS payload into a page image. Fails unless the declared
 * size matches @p expected_size exactly and every record is
 * page-aligned, non-empty and in bounds. Records apply in order as
 * byte overlays on a zeroed memory: one may span several pages or
 * cover only the front of one, and a later record overwrites the bytes
 * an earlier one wrote.
 */
pe::PageImage decodePageImage(Decoder &dec, std::size_t expected_size);

} // namespace qm::persist

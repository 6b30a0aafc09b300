#include "msg/message_cache.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace qm::msg {

namespace {

/** Remove and return the oldest element of a channel FIFO. */
template <typename T>
T
popFront(std::vector<T> &fifo)
{
    T oldest = fifo.front();
    fifo.erase(fifo.begin());
    return oldest;
}

} // namespace

std::string
toString(ChannelState state)
{
    switch (state) {
      case ChannelState::Idle: return "Idle";
      case ChannelState::Full: return "Full";
      case ChannelState::RecvWait: return "RecvWait";
    }
    panic("unreachable channel state");
}

std::uint8_t
tokenChecksum(Word value)
{
    Word folded = value ^ (value >> 16);
    folded ^= folded >> 8;
    return static_cast<std::uint8_t>(folded & 0xFF);
}

MessageCache::MessageCache(int capacity) : capacity_(capacity)
{
    fatalIf(capacity < 1, "message cache capacity must be >= 1");
}

ChannelEntry &
MessageCache::slot(Word channel)
{
    std::uint32_t at = index_.find(channel);
    if (at != kNoEntry)
        return entries[at].second;
    index_.set(channel, static_cast<std::uint32_t>(entries.size()));
    return entries.emplace_back(channel, ChannelEntry{}).second;
}

void
MessageCache::restore(const Snapshot &snap)
{
    entries = snap.entries;
    index_.clear();
    Word top = 0;
    for (const auto &record : entries)
        top = std::max(top, record.first);
    index_.reserve(entries.size(), top);
    for (std::size_t i = 0; i < entries.size(); ++i)
        index_.set(entries[i].first, static_cast<std::uint32_t>(i));
    stats_ = snap.stats;
    // The assignment rebuilt the stat maps; cached slot pointers into
    // the old maps are dead.
    counters_ = CounterHandles{};
    histograms_ = HistogramHandles{};
}

ChannelOp
MessageCache::send(Word channel, CtxId ctx, Word value,
                   trace::Cycle now)
{
    ChannelEntry &entry = slot(channel);
    ChannelOp op;
    stats_.counterRef(counters_.sendRequests, "msg.send_requests") += 1;
    if (static_cast<int>(entry.values.size()) >= capacity_) {
        entry.sendWaiters.push_back(ctx);
        op.blocked = true;
        return op;
    }
    std::uint64_t seq = entry.nextSeq++;
    entry.values.push_back(
        {value, tokenChecksum(value), seq, value, now});
    stats_.histogramRef(histograms_.fifoDepth, "msg.fifo_depth")
        .sample(static_cast<std::uint64_t>(entry.values.size()));
    if (faults_ && faults_->fire(fault::kCacheCorrupt)) {
        // Flip one bit of the slot just written, keeping the send-time
        // checksum (and the sender's pristine retransmit copy): the
        // receive side detects the mismatch.
        entry.values.back().value =
            faults_->corruptWord(entry.values.back().value);
        stats_.inc("fault.cache_corrupt");
        if (tracer_)
            tracer_->faultInject(now, -1, fault::kCacheCorrupt,
                                 channel);
    }
    if (faults_ && recoveryOn() && faults_->fire(fault::kBusDup)) {
        // A duplicated deposit arrives carrying the same sequence
        // number; the entry already holds (or has consumed past) that
        // seq, so receiver-side dedup rejects it outright. Idempotent
        // by protocol, not by luck.
        stats_.inc("fault.cache_dup");
        stats_.inc("fault.dup.detected");
        stats_.inc("fault.dup.recovered");
        if (tracer_) {
            tracer_->faultInject(now, -1, fault::kBusDup, channel);
            tracer_->faultRecover(now, -1, fault::kBusDup, seq);
        }
    }
    op.completed = true;
    if (!entry.recvWaiters.empty())
        op.wake = popFront(entry.recvWaiters);
    return op;
}

ChannelOp
MessageCache::recv(Word channel, CtxId ctx, trace::Cycle now)
{
    ChannelEntry &entry = slot(channel);
    ChannelOp op;
    stats_.counterRef(counters_.recvRequests, "msg.recv_requests") += 1;
    if (entry.values.empty()) {
        entry.recvWaiters.push_back(ctx);
        op.blocked = true;
        return op;
    }
    Token token = popFront(entry.values);
    op.completed = true;
    op.value = token.value;
    if (faults_ && tokenChecksum(token.value) != token.sum) {
        op.corrupted = true;
        stats_.inc("fault.corrupt_detected");
        stats_.inc("fault.corrupt.detected");
        if (tracer_)
            tracer_->faultRecover(now, -1, fault::kCacheCorrupt,
                                  channel);
        if (recoveryOn()) {
            // NACK + deterministic resend: the sender's pristine copy
            // replaces the corrupted slot, and the round trip costs
            // bounded protocol cycles instead of the whole run.
            op.value = token.pristine;
            op.healed = true;
            op.penalty = recovery_->nackPenalty;
            stats_.inc("fault.corrupt.recovered");
            stats_.inc("fault.nack_penalty_cycles",
                       static_cast<std::uint64_t>(op.penalty));
            stats_.record("fault.nack_penalty",
                          static_cast<std::uint64_t>(op.penalty));
        }
    }
    stats_.counterRef(counters_.rendezvous, "msg.rendezvous") += 1;
    // Send-to-rendezvous latency. The receiver's clock can lag the
    // sender's (PE clocks are only loosely synchronized), so clamp at
    // zero rather than recording a wrapped negative.
    stats_.histogramRef(histograms_.latency, "msg.latency")
        .sample(now >= token.sentAt
                    ? static_cast<std::uint64_t>(now - token.sentAt)
                    : 0);
    if (tracer_)
        tracer_->rendezvous(now, channel, ctx, *op.value);
    if (!entry.sendWaiters.empty())
        op.wake = popFront(entry.sendWaiters);
    return op;
}

ChannelState
MessageCache::state(Word channel) const
{
    const ChannelEntry *e = entry(channel);
    if (e == nullptr)
        return ChannelState::Idle;
    if (!e->values.empty())
        return ChannelState::Full;
    if (!e->recvWaiters.empty())
        return ChannelState::RecvWait;
    return ChannelState::Idle;
}

const ChannelEntry *
MessageCache::entry(Word channel) const
{
    std::uint32_t at = index_.find(channel);
    return at == kNoEntry ? nullptr : &entries[at].second;
}

std::size_t
MessageCache::pendingChannels() const
{
    std::size_t count = 0;
    for (const auto &[id, entry] : entries)
        if (!entry.values.empty() || !entry.recvWaiters.empty())
            ++count;
    return count;
}

} // namespace qm::msg

/**
 * @file
 * Exhaustive tests for the message-cache channel state machine
 * (thesis Tables 5.3/5.4, Figures 5.14-5.17, Table 6.7).
 *
 * Each cache entry carries a small FIFO of in-flight tokens (every
 * value of a splice sequence is its own capacity-one data-flow arc):
 * sends deposit and continue, blocking only at capacity; receives take
 * the oldest value or park until one arrives.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "msg/message_cache.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace qm;
using namespace qm::msg;

constexpr CtxId kSender = 1;
constexpr CtxId kReceiver = 2;
constexpr CtxId kThird = 3;

TEST(MessageCache, SendFirstDepositsAndCompletes)
{
    MessageCache cache;
    EXPECT_EQ(cache.state(5), ChannelState::Idle);

    ChannelOp s1 = cache.send(5, kSender, 42);
    EXPECT_TRUE(s1.completed);   // the cache entry carries the value
    EXPECT_FALSE(s1.blocked);
    EXPECT_EQ(cache.state(5), ChannelState::Full);

    ChannelOp r1 = cache.recv(5, kReceiver);
    EXPECT_TRUE(r1.completed);
    ASSERT_TRUE(r1.value.has_value());
    EXPECT_EQ(*r1.value, 42u);
    EXPECT_EQ(r1.wake, kNoCtx);  // the sender never parked
    EXPECT_EQ(cache.state(5), ChannelState::Idle);
}

TEST(MessageCache, RecvFirstParksThenWakes)
{
    MessageCache cache;
    ChannelOp r1 = cache.recv(9, kReceiver);
    EXPECT_TRUE(r1.blocked);
    EXPECT_EQ(cache.state(9), ChannelState::RecvWait);

    ChannelOp s1 = cache.send(9, kSender, 77);
    EXPECT_TRUE(s1.completed);
    EXPECT_EQ(s1.wake, kReceiver);
    EXPECT_EQ(cache.state(9), ChannelState::Full);

    // The woken receiver retries and takes the value.
    ChannelOp r2 = cache.recv(9, kReceiver);
    EXPECT_TRUE(r2.completed);
    EXPECT_EQ(*r2.value, 77u);
    EXPECT_EQ(cache.state(9), ChannelState::Idle);
}

TEST(MessageCache, ValuesDrainInFifoOrder)
{
    MessageCache cache;
    for (Word v = 1; v <= 5; ++v)
        EXPECT_TRUE(cache.send(7, kSender, v).completed);
    for (Word v = 1; v <= 5; ++v) {
        ChannelOp r = cache.recv(7, kReceiver);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(*r.value, v);
    }
    EXPECT_EQ(cache.state(7), ChannelState::Idle);
}

TEST(MessageCache, SendBlocksAtCapacity)
{
    MessageCache cache(2);
    EXPECT_TRUE(cache.send(5, kSender, 1).completed);
    EXPECT_TRUE(cache.send(5, kSender, 2).completed);
    ChannelOp s3 = cache.send(5, kThird, 3);
    EXPECT_TRUE(s3.blocked);

    // Draining one value wakes the parked sender to retry.
    ChannelOp r = cache.recv(5, kReceiver);
    EXPECT_EQ(*r.value, 1u);
    EXPECT_EQ(r.wake, kThird);
    EXPECT_TRUE(cache.send(5, kThird, 3).completed);
}

TEST(MessageCache, CapacityMustBePositive)
{
    EXPECT_THROW(MessageCache cache(0), FatalError);
}

TEST(MessageCache, ChannelsAreIndependent)
{
    MessageCache cache;
    cache.send(1, kSender, 10);
    cache.send(2, kSender, 20);
    EXPECT_EQ(cache.state(1), ChannelState::Full);
    EXPECT_EQ(cache.state(2), ChannelState::Full);
    ChannelOp r = cache.recv(2, kReceiver);
    EXPECT_EQ(*r.value, 20u);
    EXPECT_EQ(cache.state(1), ChannelState::Full);
    EXPECT_EQ(cache.pendingChannels(), 1u);
}

TEST(MessageCache, MultipleParkedReceiversWakeOnePerDeposit)
{
    MessageCache cache;
    EXPECT_TRUE(cache.recv(5, kReceiver).blocked);
    EXPECT_TRUE(cache.recv(5, kThird).blocked);

    ChannelOp s1 = cache.send(5, kSender, 9);
    EXPECT_EQ(s1.wake, kReceiver);  // first-come, first-served

    ChannelOp s2 = cache.send(5, kSender, 10);
    EXPECT_EQ(s2.wake, kThird);
}

TEST(MessageCache, WokenReceiverRacesSafely)
{
    // A woken receiver that loses the race to a running receiver simply
    // parks again: no value is lost or duplicated.
    MessageCache cache;
    cache.recv(5, kReceiver);
    cache.send(5, kSender, 1);
    // kThird takes the value before kReceiver retries.
    ChannelOp thief = cache.recv(5, kThird);
    EXPECT_TRUE(thief.completed);
    EXPECT_EQ(*thief.value, 1u);
    // kReceiver retries, finds nothing, parks again.
    ChannelOp retry = cache.recv(5, kReceiver);
    EXPECT_TRUE(retry.blocked);
    // Next deposit wakes it again.
    ChannelOp s2 = cache.send(5, kSender, 2);
    EXPECT_EQ(s2.wake, kReceiver);
}

/**
 * Exhaustive accessibility sweep (thesis Table 6.7/Fig 6.13): from every
 * reachable state, applying every request type keeps the machine inside
 * the documented state set.
 */
TEST(MessageCache, AllReachableStatesAreAccessible)
{
    std::set<ChannelState> seen;
    for (int mask = 0; mask < (1 << 4); ++mask) {
        MessageCache cache(2);
        CtxId next_sender = 10;
        CtxId next_receiver = 20;
        seen.insert(cache.state(1));
        for (int step = 0; step < 4; ++step) {
            if ((mask >> step) & 1)
                cache.send(1, next_sender++, 55);
            else
                cache.recv(1, next_receiver++);
            seen.insert(cache.state(1));
        }
    }
    EXPECT_TRUE(seen.count(ChannelState::Idle));
    EXPECT_TRUE(seen.count(ChannelState::Full));
    EXPECT_TRUE(seen.count(ChannelState::RecvWait));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(MessageCache, ChannelsTouchedOutOfIdOrderAreAllFound)
{
    MessageCache cache;
    cache.send(10, kSender, 100);
    cache.recv(4, kReceiver);
    cache.send(7, kSender, 70);
    cache.recv(7, kReceiver);
    EXPECT_EQ(cache.state(10), ChannelState::Full);
    EXPECT_EQ(cache.state(4), ChannelState::RecvWait);
    EXPECT_EQ(cache.state(7), ChannelState::Idle);
    EXPECT_EQ(cache.state(5), ChannelState::Idle);
    ASSERT_NE(cache.entry(10), nullptr);
    EXPECT_EQ(cache.entry(10)->values.front().value, 100u);
    ASSERT_NE(cache.entry(4), nullptr);
    EXPECT_EQ(cache.entry(4)->recvWaiters.front(), kReceiver);
    ASSERT_NE(cache.entry(7), nullptr);
    EXPECT_EQ(cache.entry(7)->nextSeq, 1u);
    EXPECT_EQ(cache.entry(5), nullptr);
    EXPECT_EQ(cache.pendingChannels(), 2u);
}

TEST(MessageCache, FifoOrderHoldsAcrossFillDrainCycles)
{
    // Fill to capacity, park a sender, then drain part-way and refill
    // many times: values leave in send order and parked senders wake
    // in arrival order.
    constexpr std::size_t kCapacity = 4;
    MessageCache cache(static_cast<int>(kCapacity));
    Word next_send = 0;
    Word next_recv = 0;
    std::size_t held = 0;
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (; held < kCapacity; ++held)
            ASSERT_TRUE(cache.send(3, kSender, next_send++).completed);
        EXPECT_TRUE(cache.send(3, kThird, next_send).blocked);
        std::size_t drain = 1 + static_cast<std::size_t>(cycle) % kCapacity;
        for (std::size_t i = 0; i < drain; ++i) {
            ChannelOp r = cache.recv(3, kReceiver);
            ASSERT_TRUE(r.completed);
            EXPECT_EQ(*r.value, next_recv++);
            ASSERT_EQ(r.wake, i == 0 ? kThird : kNoCtx);
        }
        held -= drain;
        ASSERT_EQ(cache.entry(3)->values.size(), held);
        // The parked sender retries with the value that blocked.
        ASSERT_TRUE(cache.send(3, kThird, next_send++).completed);
        ++held;
    }
    while (cache.state(3) == ChannelState::Full)
        EXPECT_EQ(*cache.recv(3, kReceiver).value, next_recv++);
    EXPECT_EQ(next_recv, next_send);
    EXPECT_TRUE(cache.entry(3)->sendWaiters.empty());

    // Parked receivers, overlapping rounds: each deposit wakes the
    // longest-parked one.
    CtxId next_park = 100;
    CtxId next_wake = 100;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 1 + round % 3; ++i)
            EXPECT_TRUE(cache.recv(3, next_park++).blocked);
        ChannelOp s = cache.send(3, kSender, 0);
        ASSERT_EQ(s.wake, next_wake++);
        EXPECT_TRUE(cache.recv(3, s.wake).completed);
    }
    EXPECT_EQ(cache.entry(3)->recvWaiters.size(),
              static_cast<std::size_t>(next_park - next_wake));
    EXPECT_EQ(cache.entry(3)->recvWaiters.front(), next_wake);
}

TEST(MessageCache, SnapshotIsUntouchedByLaterRequests)
{
    MessageCache cache(2);
    cache.send(6, kSender, 60);
    cache.recv(8, kReceiver);
    MessageCache::Snapshot snap = cache.snapshot();

    cache.send(6, kSender, 61);
    cache.send(6, kThird, 62);  // parks
    cache.send(8, kSender, 80);
    cache.recv(2, kReceiver);

    ASSERT_EQ(snap.entries.size(), 2u);
    const auto &[first_id, first] = *snap.entries.begin();
    EXPECT_EQ(first_id, 6u);
    ASSERT_EQ(first.values.size(), 1u);
    EXPECT_EQ(first.values.front().value, 60u);
    EXPECT_TRUE(first.sendWaiters.empty());
    EXPECT_EQ(first.nextSeq, 1u);
    const auto &[last_id, last] = *std::next(snap.entries.begin());
    EXPECT_EQ(last_id, 8u);
    EXPECT_TRUE(last.values.empty());
    ASSERT_EQ(last.recvWaiters.size(), 1u);
    EXPECT_EQ(snap.stats.counter("msg.send_requests"), 1u);
    EXPECT_EQ(snap.stats.counter("msg.recv_requests"), 1u);
}

TEST(MessageCache, RestoreReturnsToTheSnapshot)
{
    MessageCache cache(2);
    cache.send(6, kSender, 60);
    cache.send(6, kSender, 61);
    cache.send(6, kThird, 62);  // parks: the FIFO is full
    cache.recv(8, kReceiver);   // parks: nothing to take
    MessageCache::Snapshot snap = cache.snapshot();

    cache.recv(6, kReceiver);
    cache.send(8, kSender, 80);
    cache.send(12, kSender, 120);  // first touched after the snapshot
    cache.recv(1, kReceiver);      // likewise
    cache.restore(snap);

    EXPECT_EQ(cache.entry(12), nullptr);
    EXPECT_EQ(cache.entry(1), nullptr);
    EXPECT_EQ(cache.state(6), ChannelState::Full);
    EXPECT_EQ(cache.state(8), ChannelState::RecvWait);
    EXPECT_EQ(cache.pendingChannels(), 2u);
    const ChannelEntry *six = cache.entry(6);
    ASSERT_NE(six, nullptr);
    EXPECT_EQ(six->nextSeq, 2u);
    ASSERT_EQ(six->sendWaiters.size(), 1u);
    EXPECT_EQ(six->sendWaiters.front(), kThird);
    EXPECT_EQ(cache.stats().counter("msg.send_requests"), 3u);
    EXPECT_EQ(cache.stats().counter("msg.recv_requests"), 1u);
    EXPECT_EQ(cache.stats().counter("msg.rendezvous"), 0u);

    // The restored tokens drain in order and wake the restored waiter.
    ChannelOp r = cache.recv(6, kReceiver);
    EXPECT_EQ(*r.value, 60u);
    EXPECT_EQ(r.wake, kThird);
    EXPECT_EQ(*cache.recv(6, kReceiver).value, 61u);
    ChannelOp s = cache.send(8, kSender, 81);
    EXPECT_EQ(s.wake, kReceiver);
    EXPECT_EQ(cache.entry(8)->values.front().seq, 0u);
}

TEST(MessageCache, SendAfterRestoreCountsIntoTheRestoredStats)
{
    // The hot-path counters are cached slot pointers into the stat
    // map; restore() replaces the map, so the next send must count into
    // the restored one, not through a stale handle.
    MessageCache cache;
    cache.send(5, kSender, 1);
    MessageCache::Snapshot snap = cache.snapshot();
    cache.send(5, kSender, 2);
    cache.send(5, kSender, 3);
    EXPECT_EQ(cache.stats().counter("msg.send_requests"), 3u);

    cache.restore(snap);
    EXPECT_EQ(cache.stats().counter("msg.send_requests"), 1u);
    cache.send(5, kSender, 4);
    EXPECT_EQ(cache.stats().counter("msg.send_requests"), 2u);
    cache.recv(5, kReceiver);
    EXPECT_EQ(cache.stats().counter("msg.recv_requests"), 1u);
    EXPECT_EQ(cache.stats().counter("msg.rendezvous"), 1u);
    EXPECT_EQ(snap.stats.counter("msg.send_requests"), 1u);
}

TEST(MessageCache, StateNamesRender)
{
    EXPECT_EQ(toString(ChannelState::Idle), "Idle");
    EXPECT_EQ(toString(ChannelState::Full), "Full");
    EXPECT_EQ(toString(ChannelState::RecvWait), "RecvWait");
}

} // namespace

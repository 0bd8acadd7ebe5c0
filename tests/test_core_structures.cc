/**
 * @file
 * Tests for the core's bookkeeping structures: rename free list,
 * ROB, issue queues, LSQ (memory dependence), and bypass accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/bypass.hh"
#include "core/core_stats.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "core/rob.hh"

namespace carf::core
{

TEST(FreeList, AllocatesAllNonReservedTags)
{
    FreeList fl(8, 2);
    EXPECT_EQ(fl.freeCount(), 6u);
    std::vector<bool> seen(8, false);
    while (!fl.empty()) {
        u32 tag = fl.allocate();
        EXPECT_GE(tag, 2u);
        EXPECT_LT(tag, 8u);
        EXPECT_FALSE(seen[tag]);
        seen[tag] = true;
    }
}

TEST(FreeList, ReleaseMakesTagAvailable)
{
    FreeList fl(4, 3);
    u32 tag = fl.allocate();
    EXPECT_TRUE(fl.empty());
    fl.release(tag);
    EXPECT_EQ(fl.allocate(), tag);
}

namespace
{

/** Fetch a record numbered @p seq into @p rob's window at @p cycle. */
InFlightInst &
fetchSeq(Rob &rob, InstSeqNum seq, Cycle cycle)
{
    InFlightInst &slot = rob.fetchTail();
    slot.op = emu::DynOp{};
    slot.op.seq = seq;
    slot.fetchCycle = cycle;
    rob.pushFetched();
    return slot;
}

} // namespace

TEST(Rob, FifoOrderAndCapacity)
{
    Rob rob(2, 1);
    fetchSeq(rob, 1, 0);
    rob.dispatch(0);
    fetchSeq(rob, 2, 0);
    rob.dispatch(0);
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().op.seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seq, 2u);
    EXPECT_FALSE(rob.full());
}

TEST(RobDeathTest, OverflowPanics)
{
    Rob rob(1, 1);
    fetchSeq(rob, 1, 0);
    rob.dispatch(0);
    fetchSeq(rob, 2, 0);
    EXPECT_DEATH(rob.dispatch(0), "full ROB");
}

TEST(Rob, WindowKeepsFifoOrderAcrossWraparound)
{
    // 3 ROB + 2 fetch slots; 20 rounds wrap the 5-slot ring many times.
    Rob rob(3, 2);
    InstSeqNum fetched = 0;
    InstSeqNum committed = 0;
    for (Cycle round = 0; round < 20; ++round) {
        while (!rob.fetchFull())
            fetchSeq(rob, fetched++, round);
        EXPECT_EQ(rob.fetchFront().op.seq, committed + rob.size());
        while (!rob.full() && !rob.fetchEmpty())
            rob.dispatch(round);
        InstSeqNum expect = committed;
        for (const InFlightInst &inst : rob)
            EXPECT_EQ(inst.op.seq, expect++);
        for (size_t i = 0; i < rob.fetchSize(); ++i)
            EXPECT_EQ(rob.fetched(i).op.seq, expect++);
        // Two commits a round keep both regions turning over.
        for (int i = 0; i < 2; ++i) {
            ASSERT_FALSE(rob.empty());
            EXPECT_EQ(rob.head().op.seq, committed++);
            rob.popHead();
        }
    }
    EXPECT_EQ(committed, 40u);
    EXPECT_EQ(rob.capacity(), 3u);
}

TEST(Rob, RobEntriesStayPutWhileFetchRegionTurnsOver)
{
    Rob rob(8, 2);
    fetchSeq(rob, 0, 0);
    fetchSeq(rob, 1, 0);
    InFlightInst *first = &rob.dispatch(1);
    InFlightInst *second = &rob.dispatch(1);
    first->destTag = 7;
    second->destTag = 8;

    // Fill the fetch region and drain it into the ROB until the ROB
    // is full; a fetched entry keeps its slot when dispatched.
    InstSeqNum seq = 2;
    while (!rob.full()) {
        std::vector<InFlightInst *> slots;
        while (!rob.fetchFull())
            slots.push_back(&fetchSeq(rob, seq++, 2));
        for (InFlightInst *slot : slots)
            EXPECT_FALSE(rob.inRob(slot));
        for (InFlightInst *slot : slots)
            EXPECT_EQ(&rob.dispatch(3), slot);
        EXPECT_TRUE(rob.fetchEmpty());
        EXPECT_EQ(&rob.head(), first);
        EXPECT_EQ(first->op.seq, 0u);
        EXPECT_EQ(second->op.seq, 1u);
        EXPECT_EQ(first->destTag, 7u);
        EXPECT_EQ(second->destTag, 8u);
        EXPECT_TRUE(rob.inRob(first));
        EXPECT_TRUE(rob.inRob(second));
    }

    // The free slot past the fetch region (an I-miss stash) is the
    // same slot across dispatch and commit.
    fetchSeq(rob, seq++, 4);
    rob.popHead();
    InFlightInst *stash = &rob.fetchTail();
    rob.dispatch(5);
    EXPECT_EQ(&rob.fetchTail(), stash);
    rob.popHead();
    EXPECT_EQ(&rob.fetchTail(), stash);
    EXPECT_FALSE(rob.inRob(stash));
    EXPECT_FALSE(rob.inRob(first));
}

TEST(Rob, DispatchIntoReusedSlotClearsStaleState)
{
    Rob rob(1, 1);
    InFlightInst *stale = &fetchSeq(rob, 0, 0);
    InFlightInst &old = rob.dispatch(1);
    InFlightInst waiter;
    old.state = InstState::WrittenBack;
    old.destTag = 5;
    old.oldDestTag = 6;
    old.src1Tag = 7;
    old.src2Tag = 8;
    old.destIsFp = old.src1IsFp = old.src2IsFp = true;
    old.issueCycle = 2;
    old.completeCycle = 3;
    old.wbCycle = 4;
    old.wbStalledOnLong = true;
    old.nextWaiter = &waiter;
    rob.popHead();

    // Cycle records through the 2-slot ring until one lands in the
    // slot `old` occupied.
    InstSeqNum seq = 1;
    InFlightInst *slot = nullptr;
    while (slot != stale) {
        slot = &fetchSeq(rob, seq, 10);
        slot->predictedCorrect = false;
        if (slot != stale) {
            rob.dispatch(10);
            rob.popHead();
            ++seq;
        }
    }
    InFlightInst &inst = rob.dispatch(11);
    EXPECT_EQ(&inst, stale);
    EXPECT_EQ(inst.state, InstState::Dispatched);
    EXPECT_EQ(inst.destTag, invalidIndex);
    EXPECT_EQ(inst.oldDestTag, invalidIndex);
    EXPECT_EQ(inst.src1Tag, invalidIndex);
    EXPECT_EQ(inst.src2Tag, invalidIndex);
    EXPECT_FALSE(inst.destIsFp || inst.src1IsFp || inst.src2IsFp);
    EXPECT_EQ(inst.issueCycle, 0u);
    EXPECT_EQ(inst.completeCycle, 0u);
    EXPECT_EQ(inst.wbCycle, 0u);
    EXPECT_FALSE(inst.wbStalledOnLong);
    EXPECT_EQ(inst.nextWaiter, nullptr);
    EXPECT_EQ(inst.renameCycle, 11u);
    // Fetch-time fields are the fetched record's, untouched.
    EXPECT_EQ(inst.op.seq, seq);
    EXPECT_EQ(inst.fetchCycle, 10u);
    EXPECT_FALSE(inst.predictedCorrect);
}

TEST(RobDeathTest, FetchOverflowPanics)
{
    Rob rob(1, 1);
    fetchSeq(rob, 0, 0);
    EXPECT_DEATH(rob.fetchTail(), "full fetch buffer");
    EXPECT_DEATH(rob.pushFetched(), "full fetch buffer");
}

TEST(RobDeathTest, DispatchOverflowPanics)
{
    Rob rob(1, 2);
    EXPECT_DEATH(rob.dispatch(0), "empty fetch buffer");
    fetchSeq(rob, 0, 0);
    fetchSeq(rob, 1, 0);
    rob.dispatch(0);
    EXPECT_DEATH(rob.dispatch(0), "full ROB");
}

TEST(IssueQueue, OccupancyBounds)
{
    IssueQueue iq(2);
    iq.insert();
    iq.insert();
    EXPECT_TRUE(iq.full());
    iq.remove();
    EXPECT_FALSE(iq.full());
    EXPECT_EQ(iq.occupancy(), 1u);
}

TEST(IssueQueue, FpClassification)
{
    EXPECT_TRUE(usesFpQueue(isa::Opcode::FADD));
    EXPECT_TRUE(usesFpQueue(isa::Opcode::FCVTIF));
    EXPECT_FALSE(usesFpQueue(isa::Opcode::FLD)); // address generation
    EXPECT_FALSE(usesFpQueue(isa::Opcode::ADD));
    EXPECT_FALSE(usesFpQueue(isa::Opcode::BEQ));
}

TEST(Lsq, LoadWithNoOlderStoresIsReady)
{
    Lsq lsq(8);
    lsq.dispatchLoad(5);
    Cycle ready = 99;
    EXPECT_TRUE(lsq.loadReadyCycle(5, 0x1000, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, LoadBlockedByUnissuedOverlappingStore)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    lsq.dispatchLoad(2);
    Cycle ready;
    EXPECT_FALSE(lsq.loadReadyCycle(2, 0x1004, 4, ready));
    lsq.storeIssued(1, 50);
    EXPECT_TRUE(lsq.loadReadyCycle(2, 0x1004, 4, ready));
    EXPECT_EQ(ready, 50u);
}

TEST(Lsq, NonOverlappingStoreDoesNotBlock)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    Cycle ready;
    EXPECT_TRUE(lsq.loadReadyCycle(2, 0x1008, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, YoungerStoreIgnored)
{
    Lsq lsq(8);
    lsq.dispatchStore(10, 0x1000, 8);
    Cycle ready;
    // The load is OLDER than the store (seq 5 < 10).
    EXPECT_TRUE(lsq.loadReadyCycle(5, 0x1000, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, LatestOverlappingStoreWins)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    lsq.dispatchStore(2, 0x1000, 8);
    lsq.storeIssued(1, 30);
    lsq.storeIssued(2, 70);
    Cycle ready;
    EXPECT_TRUE(lsq.loadReadyCycle(3, 0x1000, 8, ready));
    EXPECT_EQ(ready, 70u);
}

TEST(Lsq, CommitReleasesSlotsInOrder)
{
    Lsq lsq(2);
    lsq.dispatchStore(1, 0x0, 8);
    lsq.dispatchLoad(2);
    EXPECT_TRUE(lsq.full());
    lsq.commitStore(1);
    lsq.commitLoad();
    EXPECT_EQ(lsq.occupancy(), 0u);
}

TEST(LsqDeathTest, OutOfOrderStoreCommitPanics)
{
    Lsq lsq(4);
    lsq.dispatchStore(1, 0x0, 8);
    lsq.dispatchStore(2, 0x8, 8);
    EXPECT_DEATH(lsq.commitStore(2), "in order");
}

TEST(Bypass, SourceDecisionRule)
{
    // Producer completes at cycle 10, window 2: execs at 10 and 11
    // bypass, 12 reads the file.
    EXPECT_EQ(operandSource(10, 10, 2), OperandSource::Bypass);
    EXPECT_EQ(operandSource(11, 10, 2), OperandSource::Bypass);
    EXPECT_EQ(operandSource(12, 10, 2), OperandSource::RegFile);
    // Window 3 (extra level) covers one more cycle.
    EXPECT_EQ(operandSource(12, 10, 3), OperandSource::Bypass);
    EXPECT_EQ(operandSource(13, 10, 3), OperandSource::RegFile);
}

TEST(Bypass, StatsAccumulateByClass)
{
    BypassStats stats;
    stats.record(OperandSource::Bypass, false);
    stats.record(OperandSource::Bypass, true);
    stats.record(OperandSource::RegFile, false);
    stats.record(OperandSource::None, false); // ignored
    EXPECT_EQ(stats.bypassed(false), 1u);
    EXPECT_EQ(stats.bypassed(true), 1u);
    EXPECT_EQ(stats.regFileReads(false), 1u);
    EXPECT_DOUBLE_EQ(stats.bypassFraction(), 2.0 / 3.0);
}

TEST(OperandMix, BucketRouting)
{
    OperandMix mix;
    mix.record(true, false, false);
    mix.record(false, true, false);
    mix.record(false, false, true);
    mix.record(true, true, false);
    mix.record(true, false, true);
    mix.record(false, true, true);
    mix.record(false, false, false); // no operands: ignored
    EXPECT_EQ(mix.total(), 6u);
    for (unsigned b = 0; b < OperandMix::NumBuckets; ++b)
        EXPECT_EQ(mix.counts[b], 1u) << OperandMix::bucketName(b);
    EXPECT_DOUBLE_EQ(mix.fraction(OperandMix::OnlySimple), 1.0 / 6.0);
}

} // namespace carf::core

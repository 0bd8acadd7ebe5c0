/**
 * @file
 * Reorder buffer and the in-flight instruction record.
 */

#ifndef CARF_CORE_ROB_HH
#define CARF_CORE_ROB_HH

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "emu/trace.hh"

namespace carf::core
{

/** Lifecycle of an in-flight instruction. */
enum class InstState : u8
{
    Dispatched, //!< in ROB + issue queue, waiting for operands
    Issued,     //!< executing; completeCycle is known
    Completed,  //!< result on bypass; awaiting writeback
    WrittenBack, //!< register file updated; may commit
};

/** A dynamic instruction in the out-of-order window. */
struct InFlightInst
{
    emu::DynOp op;

    // Renamed registers. invalidIndex when absent.
    u32 destTag = invalidIndex;
    u32 oldDestTag = invalidIndex;
    u32 src1Tag = invalidIndex;
    u32 src2Tag = invalidIndex;
    bool destIsFp = false;
    bool src1IsFp = false;
    bool src2IsFp = false;

    InstState state = InstState::Dispatched;

    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;
    Cycle issueCycle = 0;
    /** First cycle a dependent may begin execution. */
    Cycle completeCycle = 0;
    /** Cycle the register file write finished. */
    Cycle wbCycle = 0;

    /** Mispredicted by the front end: fetch stalls until resolution. */
    bool mispredicted = false;
    /** Writeback attempted but stalled on Long allocation. */
    bool wbStalledOnLong = false;

    /** Next consumer on the same producer tag's waiter list. */
    InFlightInst *nextWaiter = nullptr;

    bool hasDest() const { return destTag != invalidIndex; }
    bool writesIntDest() const { return hasDest() && !destIsFp; }
};

/**
 * In-order window of in-flight instructions.
 *
 * Backed by a fixed ring: entries never move between push and pop, so
 * pointers to in-flight instructions stay valid while the instruction
 * is in the window (the pipeline's issue/writeback scan lists rely on
 * this).
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity) : entries_(capacity) {}

    bool full() const { return entries_.full(); }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    unsigned capacity() const
    {
        return static_cast<unsigned>(entries_.capacity());
    }

    InFlightInst &push(const emu::DynOp &op);
    InFlightInst &head() { return entries_.front(); }
    const InFlightInst &head() const { return entries_.front(); }
    void popHead() { entries_.popFront(); }

    /** Age-ordered iteration. */
    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    RingBuffer<InFlightInst> entries_;
};

} // namespace carf::core

#endif // CARF_CORE_ROB_HH

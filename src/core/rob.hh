/**
 * @file
 * The instruction window (fetch buffer + reorder buffer in one ring)
 * and the in-flight instruction record.
 */

#ifndef CARF_CORE_ROB_HH
#define CARF_CORE_ROB_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/fetch_stream.hh"
#include "emu/trace.hh"

namespace carf::core
{

/** Lifecycle of an in-flight instruction. */
enum class InstState : u8
{
    Dispatched, //!< in ROB + issue queue, waiting for operands
    Issued,     //!< executing, or complete and awaiting writeback
    WrittenBack, //!< register file updated; may commit
};

struct InFlightInst;

/**
 * Everything an instruction gains at rename. A window slot is reused
 * in place, so InFlightInst::resetRenameState() overwrites this whole
 * part when the slot enters the ROB: no field can keep a previous
 * occupant's value.
 */
struct RenameState
{
    // (Widest fields first: the record packs into 64 bytes.)
    Cycle renameCycle = 0;
    Cycle issueCycle = 0;
    /** First cycle a dependent may begin execution. */
    Cycle completeCycle = 0;
    /** Cycle the register file write finished. */
    Cycle wbCycle = 0;

    /** Next consumer on the same producer tag's waiter list. */
    InFlightInst *nextWaiter = nullptr;

    // Renamed registers. invalidIndex when absent.
    u32 destTag = invalidIndex;
    u32 oldDestTag = invalidIndex;
    u32 src1Tag = invalidIndex;
    u32 src2Tag = invalidIndex;
    bool destIsFp = false;
    bool src1IsFp = false;
    bool src2IsFp = false;

    InstState state = InstState::Dispatched;

    /** Writeback attempted but stalled on Long allocation. */
    bool wbStalledOnLong = false;

    bool hasDest() const { return destTag != invalidIndex; }
    bool writesIntDest() const { return hasDest() && !destIsFp; }
};

/**
 * A dynamic instruction in the window. The FetchEntry part (the trace
 * record and its prediction; !predictedCorrect means fetch stalls
 * until the branch resolves) and fetchCycle are written once at
 * fetch; the RenameState part at rename.
 */
struct InFlightInst : FetchEntry, RenameState
{
    Cycle fetchCycle = 0;

    /** Enter the ROB at @p rename_cycle with fresh rename state. */
    void
    resetRenameState(Cycle rename_cycle)
    {
        static_cast<RenameState &>(*this) = RenameState{};
        renameCycle = rename_cycle;
    }
};

/**
 * The instruction window: one fixed ring of robCapacity +
 * fetchCapacity slots holding the reorder buffer (head ... head+size)
 * followed by the fetch buffer (the next fetchSize() slots).
 *
 * Fetch writes a record straight into fetchTail(), the free slot past
 * the fetch region, and counts it with pushFetched(); dispatch() moves
 * the oldest fetched entry into the ROB by moving the boundary, and
 * popHead() retires. Entries never move between fetch and retirement,
 * so pointers to in-flight instructions stay valid while they are in
 * the window (the pipeline's issue/writeback scan lists rely on
 * this), and fetchTail() stays the same slot until the next
 * pushFetched(): dispatch and retirement both keep head + size +
 * fetchSize fixed.
 *
 * full(), size() and capacity() describe the ROB alone.
 */
class Rob
{
  public:
    explicit Rob(unsigned rob_capacity, unsigned fetch_capacity = 0);

    // --- ROB region ---
    bool full() const { return count_ >= robCapacity_; }
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    unsigned capacity() const { return robCapacity_; }

    InFlightInst &head() { return slots_[head_]; }
    const InFlightInst &head() const { return slots_[head_]; }
    void popHead();

    /** True when @p inst is a slot of the ROB region. */
    bool inRob(const InFlightInst *inst) const;

    // --- fetch region ---
    bool fetchFull() const { return fetchCount_ >= fetchCapacity_; }
    bool fetchEmpty() const { return fetchCount_ == 0; }
    size_t fetchSize() const { return fetchCount_; }
    InFlightInst &fetchFront() { return at(count_); }
    const InFlightInst &fetchFront() const { return at(count_); }
    /** The @p i-th oldest fetched entry. */
    const InFlightInst &fetched(size_t i) const { return at(count_ + i); }

    /** The free slot past the fetch region (requires !fetchFull()). */
    InFlightInst &fetchTail();
    /** Count the filled fetchTail() into the fetch region. */
    void pushFetched();

    /**
     * Move the oldest fetched entry into the ROB at @p rename_cycle,
     * resetting its rename state; returns it.
     */
    InFlightInst &dispatch(Cycle rename_cycle);

    /** Age-ordered iteration over the ROB region. */
    template <typename Window, typename Value>
    class Iter
    {
      public:
        Iter(Window *window, size_t index) : window_(window), index_(index)
        {
        }

        Value &operator*() const { return window_->at(index_); }
        Value *operator->() const { return &**this; }
        Iter &
        operator++()
        {
            ++index_;
            return *this;
        }
        bool operator==(const Iter &o) const { return index_ == o.index_; }
        bool operator!=(const Iter &o) const { return index_ != o.index_; }

      private:
        Window *window_;
        size_t index_;
    };

    Iter<Rob, InFlightInst> begin() { return {this, 0}; }
    Iter<Rob, InFlightInst> end() { return {this, count_}; }
    Iter<const Rob, const InFlightInst> begin() const { return {this, 0}; }
    Iter<const Rob, const InFlightInst> end() const
    {
        return {this, count_};
    }

  private:
    /** The slot @p offset places past the head (offset < slots). */
    InFlightInst &
    at(size_t offset)
    {
        return slots_[wrap(head_ + offset)];
    }
    const InFlightInst &
    at(size_t offset) const
    {
        return slots_[wrap(head_ + offset)];
    }

    size_t
    wrap(size_t index) const
    {
        // Window sizes are runtime parameters (ROB sizes are swept by
        // the ablation harnesses), so no power-of-two masking.
        return index < slots_.size() ? index : index - slots_.size();
    }

    std::vector<InFlightInst> slots_;
    unsigned robCapacity_;
    unsigned fetchCapacity_;
    size_t head_ = 0;
    /** ROB entries. */
    size_t count_ = 0;
    /** Fetched entries following the ROB region. */
    size_t fetchCount_ = 0;
};

inline void
Rob::popHead()
{
    if (empty())
        panic("Rob: pop from empty ROB");
    head_ = wrap(head_ + 1);
    --count_;
}

inline InFlightInst &
Rob::fetchTail()
{
    if (fetchFull())
        panic("Rob: fetch into full fetch buffer");
    return at(count_ + fetchCount_);
}

inline void
Rob::pushFetched()
{
    if (fetchFull())
        panic("Rob: fetch into full fetch buffer");
    ++fetchCount_;
}

inline InFlightInst &
Rob::dispatch(Cycle rename_cycle)
{
    if (full())
        panic("Rob: dispatch into full ROB");
    if (fetchEmpty())
        panic("Rob: dispatch from empty fetch buffer");
    InFlightInst &inst = at(count_);
    inst.resetRenameState(rename_cycle);
    ++count_;
    --fetchCount_;
    return inst;
}

} // namespace carf::core

#endif // CARF_CORE_ROB_HH

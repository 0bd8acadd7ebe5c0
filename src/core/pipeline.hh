/**
 * @file
 * The out-of-order superscalar core (paper Table 1), driven by a
 * program-order dynamic instruction trace.
 *
 * Timing model summary:
 *  - 8-wide fetch/rename/issue/commit; 128-entry ROB, 64-entry LSQ,
 *    32+32 issue queue slots; gshare+BTB+RAS front end; two-level
 *    cache hierarchy.
 *  - A result completing at cycle c is forwardable via bypass for
 *    `bypassWindow` cycles; afterwards consumers read the register
 *    file (subject to read-port arbitration at issue).
 *  - The content-aware organization adds a second register-read stage
 *    (RF1/RF2) and a two-stage writeback (WR1 classification, WR2
 *    write + Long allocation); Long exhaustion stalls the writeback,
 *    and an issue-stall threshold on free Long entries plus a
 *    head-of-ROB forced allocation implement the paper's
 *    pseudo-deadlock avoidance/recovery.
 *
 * The front end never fetches wrong-path instructions; a mispredicted
 * branch stalls fetch until the branch executes, charging the full
 * redirect-plus-refill latency (see DESIGN.md substitutions).
 *
 * A Pipeline is a resumable lane: beginRun()/stepCycle()/finishRun()
 * expose the cycle loop so the lockstep engine (src/sim/lockstep.cc)
 * can interleave many configurations over one decoded FetchStream.
 * The classic run(TraceSource&) entry point wraps the same loop
 * around an owned PredictingFetchStream and is bit-identical to the
 * pre-lockstep pipeline.
 */

#ifndef CARF_CORE_PIPELINE_HH
#define CARF_CORE_PIPELINE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/core_stats.hh"
#include "core/fetch_stream.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "emu/trace.hh"
#include "mem/hierarchy.hh"
#include "regfile/regfile.hh"

namespace carf::core
{

/**
 * Per-cycle observer hook; the live-value oracle (src/sim) implements
 * this to sample the integer register file.
 */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;
    virtual void sampleCycle(Cycle cycle,
                             const regfile::RegisterFile &int_rf) = 0;
};

/** Trace-driven out-of-order pipeline. */
class Pipeline
{
  public:
    explicit Pipeline(const CoreParams &params);
    ~Pipeline();

    /**
     * Simulate @p source to exhaustion and return the run summary.
     * @param observer optional per-cycle register file sampler
     */
    RunResult run(emu::TraceSource &source,
                  CycleObserver *observer = nullptr);

    /** As above over an externally predicted stream. */
    RunResult run(FetchStream &stream, CycleObserver *observer = nullptr);

    /**
     * Fast-forward: functionally consume up to @p insts instructions
     * from @p source before timed simulation, warming the branch
     * predictor, caches, the Short file, and the architectural
     * register values (the paper measures representative windows
     * after a SimPoint-style skip). Call before run(), at most once.
     */
    void warmUp(emu::TraceSource &source, u64 insts);

    /** As above over an externally predicted stream. */
    void warmUp(FetchStream &stream, u64 insts);

    // --- resumable-lane interface (lockstep engine) ---

    /**
     * Architectural values accumulated across chunked warm-up calls;
     * zero-initialized, passed to every warmUpRange() of one warm-up
     * and installed by finishWarmUp().
     */
    struct WarmupScratch
    {
        std::array<u64, isa::numArchRegs> intVals{};
        std::array<bool, isa::numArchRegs> intSet{};
        std::array<u64, isa::numArchRegs> fpVals{};
        std::array<bool, isa::numArchRegs> fpSet{};
    };

    /**
     * Functionally consume up to @p insts records of @p stream into
     * @p scratch (one slice of a possibly chunked warm-up). Stops
     * early only when the stream ends.
     */
    void warmUpRange(FetchStream &stream, u64 insts,
                     WarmupScratch &scratch);

    /**
     * Install the warm-up's architectural values and reset statistics
     * for the timed window. Call once, after the last warmUpRange().
     */
    void finishWarmUp(const WarmupScratch &scratch);

    /**
     * Install the architectural values gathered by warmUpRange()
     * *without* resetting statistics — the sampling engine's variant
     * of finishWarmUp(), used between measurement intervals of one
     * timed window (issue cross-checks every RegFile operand against
     * the trace, so resumed execution needs current values).
     */
    void installWarmState(const WarmupScratch &scratch);

    /**
     * Re-arm a drained lane for more trace records after a functional
     * fast-forward gap (sampling mode): clears the trace-exhausted
     * and fetch-pacing latches while keeping cycle_, caches, the
     * predictor, rename state, and all statistics. Call only when
     * !active().
     */
    void resetForResume();

    /** Arm the timed window: reset statistics and the cycle counter. */
    void beginRun(const std::string &workload_name,
                  CycleObserver *observer = nullptr);

    /**
     * True while the timed window still has work: trace records left
     * to fetch or instructions in flight. beginRun() must have run.
     */
    bool
    active() const
    {
        return !(traceExhausted_ && rob_.empty() && rob_.fetchEmpty() &&
                 !pendingFetchValid_);
    }

    /**
     * Advance the lane by one cycle, fetching from @p stream. The
     * caller may switch the stream object between calls as long as
     * the record sequence is the one uninterrupted program-order
     * trace the lane has been consuming.
     */
    void stepCycle(FetchStream &stream);

    /** Close the timed window and return the run summary. */
    RunResult finishRun();

    const CoreParams &params() const { return params_; }
    regfile::RegisterFile &intRegFile() { return *intRf_; }
    const regfile::RegisterFile &intRegFile() const { return *intRf_; }

    /**
     * Enable/disable the exact idle-cycle skip in stepCycle (default
     * on). Skipping is bit-identical to stepping — the flag exists so
     * tests and benches can run the stepped loop for differential
     * checks and honest speedup measurement.
     */
    void setFastPath(bool on) { fastPath_ = on; }

    /** Committed instructions so far in the current timed window. */
    u64 committedInsts() const { return result_.committedInsts; }
    /** Current cycle of the timed window. */
    Cycle currentCycle() const { return cycle_; }
    /** Cycle-bucket attribution so far (sums to currentCycle()). */
    const CycleAccounting &cycleAccounting() const
    {
        return result_.cycleAccounting;
    }

    /**
     * Architectural value of integer register @p idx through the
     * current rename mapping (valid once the pipeline has drained;
     * used to cross-check the timing model against pure functional
     * execution).
     */
    u64 archIntReg(unsigned idx) const;
    /** Architectural value (raw bits) of fp register @p idx. */
    u64 archFpReg(unsigned idx) const;

    /**
     * Check the issue bookkeeping and panic on the first violation:
     * every Dispatched ROB entry is in exactly one of dispatched_,
     * parked_ or one producer tag's waiter list; dispatched_ is sorted
     * by seq; every waiter's producer tag is Pending; and the waiting
     * count equals the summed list lengths. Also checks the window:
     * ROB and fetch-buffer occupancy within capacity, every listed
     * pointer (scan lists, heap, waiter lists) inside the ROB region,
     * and no fetched entry stamped later than the current cycle.
     * O(ROB + tags); meant for tests, called between stepCycle()
     * calls.
     */
    void checkIssueInvariants() const;

  private:
    /** Per-physical-tag timing state. */
    struct TagInfo
    {
        enum class State : u8 { Pending, Issued, Done };
        State state = State::Done;
        Cycle completeCycle = 0;
        /** First cycle the value is readable from the file. */
        Cycle rfReadableCycle = 0;
        /**
         * While Pending: head of the list (linked through
         * InFlightInst::nextWaiter) of dispatched consumers whose
         * operand check failed on this tag. They are out of the issue
         * scan until the producer issues and fixes completeCycle.
         */
        InFlightInst *waiters = nullptr;
    };

    struct SourceView
    {
        u32 tag = invalidIndex;
        bool isFp = false;
        u64 value = 0;
        bool used = false;
    };

    /**
     * Attribute the coming cycle to one CycleAccounting bucket, as a
     * pure function of pre-stage machine state (so stepped and
     * skipped execution classify identically).
     */
    unsigned classifyCycle() const;

    /**
     * Conservative fast-path bound: the first cycle > @p cur at which
     * any stage could observably act, given that no stage acts at
     * @p cur. Returns 0 when some structure cannot bound its next
     * event (or could act at @p cur itself) — the caller must step.
     */
    Cycle quiescentUntil(Cycle cur) const;

    // --- per-cycle stages (called newest-to-oldest pipeline order) ---
    void doCommit(Cycle cur);
    void doWriteback(Cycle cur);
    void doIssue(Cycle cur);
    void doRename(Cycle cur);
    void doFetch(Cycle cur, FetchStream &stream);

    /** Gather the register sources of @p inst. */
    void gatherSources(const InFlightInst &inst, SourceView &s1,
                       SourceView &s2) const;

    /**
     * Attempt the writeback of @p inst (state Issued, complete by
     * @p cur); true when it reached WrittenBack this cycle.
     */
    bool tryWriteback(InFlightInst &inst, Cycle cur,
                      unsigned &int_ports, unsigned &fp_ports);

    /** Tag timing lookup by class (hot; called per operand check). */
    TagInfo &tagInfo(u32 tag, bool is_fp)
    {
        return is_fp ? fpTags_[tag] : intTags_[tag];
    }
    const TagInfo &tagInfo(u32 tag, bool is_fp) const
    {
        return is_fp ? fpTags_[tag] : intTags_[tag];
    }

    /**
     * The owned serial front end backing the TraceSource entry
     * points. Created on first use and kept for the Pipeline's
     * lifetime so predictor state spans warmUp() and run().
     */
    FetchStream &serialStream(emu::TraceSource &source);

    CoreParams params_;

    std::unique_ptr<regfile::RegisterFile> intRf_;
    std::unique_ptr<regfile::RegisterFile> fpRf_;

    RenameMap intMap_;
    RenameMap fpMap_;
    std::vector<TagInfo> intTags_;
    std::vector<TagInfo> fpTags_;

    /**
     * The instruction window: the ROB followed by the fetch buffer in
     * one ring (fetchBufferCap slots past robSize). Fetch writes each
     * record into the slot it keeps until commit; rename moves the
     * region boundary.
     */
    Rob rob_;
    IssueQueue intIq_;
    IssueQueue fpIq_;
    Lsq lsq_;

    /**
     * Scan lists over the ROB region of the window, so the per-cycle
     * issue and writeback stages visit only live candidates instead
     * of walking the whole ROB. Entries are raw pointers into the
     * window ring: a slot is stable from fetch to commit, and only ROB
     * entries are ever listed, never the fetch region or the I-miss
     * stash past it (there is no flush path — the front end never
     * fetches wrong-path instructions).
     *
     * dispatched_ holds the state==Dispatched instructions not
     * waiting or parked (below) in program order (appended at rename,
     * compacted at issue). pendingWb_ holds
     * state==Issued instructions sorted by seq (binary-insert at
     * issue, compacted at writeback), which is exactly the age order
     * the full-ROB scan visited them in.
     */
    std::vector<InFlightInst *> dispatched_;
    std::vector<InFlightInst *> pendingWb_;

    /**
     * Dispatched instructions out of the issue scan, in one of two
     * places, only while their operand check is guaranteed to fail:
     *
     *  - waiting: a source's producer has not issued (tag Pending).
     *    The instruction sits on that tag's TagInfo::waiters list;
     *    when the producer issues, its waiters move to parked_ at
     *    completeCycle - regReadStages, the first cycle their check
     *    on that source could pass.
     *  - parked_: a min-heap keyed by a known retry cycle (an issued
     *    producer's completeCycle, a written-back producer's
     *    rfReadableCycle), entered directly when the wait exceeds
     *    parkThreshold, or from a waiter list on wakeup.
     *
     * Heap entries re-enter dispatched_ at their age-ordered position
     * when the cycle arrives, so issue decisions are bit-identical to
     * the full scan. A Long issue-stall cycle inspects every
     * dispatched instruction (issueStallCycles), so it first rebuilds
     * dispatched_ from the ROB and empties the heap and the lists.
     */
    std::vector<std::pair<Cycle, InFlightInst *>> parked_;
    /** Instructions on waiter lists (summed list lengths). */
    size_t waiting_ = 0;

    /** Move @p inst back into dispatched_ at its seq position. */
    void unpark(InFlightInst *inst);

    /**
     * Put every Dispatched ROB entry back into dispatched_ (age
     * order) and empty parked_ and the waiter lists.
     */
    void restoreFullScan();

    std::unique_ptr<PredictingFetchStream> serialStream_;

    mem::Hierarchy memory_;

    bool traceExhausted_ = false;
    bool pendingRedirect_ = false;
    Cycle fetchResumeCycle_ = 0;
    u64 lastFetchLine_ = ~u64{0};
    /**
     * A record pulled from the stream sits in rob_.fetchTail(),
     * stalled on an I-miss.
     */
    bool pendingFetchValid_ = false;

    u64 committedSinceInterval_ = 0;

    // --- timed-window cycle-loop state (spans stepCycle calls) ---
    bool fastPath_ = true;
    Cycle cycle_ = 0;
    u64 lastCommitCount_ = 0;
    Cycle lastProgressCycle_ = 0;
    stats::Average liveLong_;
    stats::Average liveShort_;
    CycleObserver *observer_ = nullptr;

    RunResult result_;
};

} // namespace carf::core

#endif // CARF_CORE_PIPELINE_HH

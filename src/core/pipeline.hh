/**
 * @file
 * The out-of-order superscalar core (paper Table 1), driven by one
 * program-order dynamic instruction trace per hardware thread.
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
 * Threads (paper §6, DESIGN.md §4.7): the core owns what hardware
 * threads share — the int and fp register files, the physical tag
 * free lists and per-tag timing state, the issue queues, functional
 * units, caches and the commit/writeback/issue bandwidth — and one
 * Thread per hardware thread holding its RATs, its slice of the
 * instruction window (robSize / T entries) and of the LSQ, its issue
 * scan lists and fetch latches, and its RunResult. Each stage is
 * written once and visits the threads in turn: commit, writeback and
 * issue rotate their starting thread every cycle; rename and fetch
 * go in ICOUNT order. With one thread this is the solo core.
 *
 * A one-thread Pipeline is also a resumable lane:
 * beginRun()/stepCycle()/finishRun() expose the cycle loop so a
 * sampled run (sim::simulate) can alternate functional and detailed
 * phases.
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

struct SmtResult;

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

/** Trace-driven out-of-order pipeline with one or more threads. */
class Pipeline
{
  public:
    /**
     * @param params core configuration; the ROB and LSQ capacities
     *        are split evenly across the threads
     * @param threads hardware threads (>= 1); each reserves
     *        isa::numArchRegs tags of each physical register file
     */
    explicit Pipeline(const CoreParams &params, unsigned threads = 1);
    ~Pipeline();

    /**
     * Simulate @p source to exhaustion on a one-thread core and
     * return the run summary.
     * @param observer optional per-cycle register file sampler
     */
    RunResult run(emu::TraceSource &source,
                  CycleObserver *observer = nullptr);

    /**
     * Run one trace per hardware thread (core/smt.hh). Each thread's
     * pcs are salted with its id and predicted by one shared
     * gshare+BTB+RAS front end, in fetch order.
     *
     * @param stop_on_first_drain end the measurement when the first
     *        thread completes (standard SMT methodology: per-thread
     *        IPC is only meaningful while all threads are active);
     *        when false, runs until every trace drains
     * @pre sources.size() == the thread count
     */
    SmtResult run(std::vector<emu::TraceSource *> sources,
                  bool stop_on_first_drain = true);

    /**
     * Fast-forward: functionally consume up to @p insts instructions
     * from @p source before timed simulation, warming the branch
     * predictor, caches, the Short file, and the architectural
     * register values (the paper measures representative windows
     * after a SimPoint-style skip). Call before run(), at most once.
     * The warm-up and lane interface below drive thread 0 of a
     * one-thread core.
     */
    void warmUp(emu::TraceSource &source, u64 insts);

    // --- resumable-lane interface (sampled runs) ---

    /**
     * Architectural values accumulated across chunked warm-up calls;
     * zero-initialized, passed to every warmUpRange() of one
     * functional gap and installed by installWarmState().
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
     * Install the architectural values gathered by warmUpRange()
     * *without* resetting statistics (unlike warmUp()), between
     * measurement intervals of one timed window: issue cross-checks
     * every RegFile operand against the trace, so resumed execution
     * needs current values.
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
    bool active() const { return !threads_[0].drained(); }

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

    /**
     * Enable/disable the exact idle-cycle skip (default on). Skipping
     * is bit-identical to stepping — the flag exists so tests and
     * benches can run the stepped loop for differential checks and
     * honest speedup measurement.
     */
    void setFastPath(bool on) { fastPath_ = on; }

    /** Committed instructions so far in the current timed window. */
    u64 committedInsts() const { return threads_[0].result.committedInsts; }
    /** Current cycle of the timed window. */
    Cycle currentCycle() const { return cycle_; }
    /** Cycle-bucket attribution so far (sums to currentCycle()). */
    const CycleAccounting &cycleAccounting() const
    {
        return threads_[0].result.cycleAccounting;
    }

    /**
     * Architectural value of thread 0's integer register @p idx
     * through the current rename mapping (valid once the pipeline has
     * drained; used to cross-check the timing model against pure
     * functional execution).
     */
    u64 archIntReg(unsigned idx) const;
    /** Architectural value (raw bits) of thread 0's fp register. */
    u64 archFpReg(unsigned idx) const;

    /**
     * Check every structural invariant and panic on the first
     * violation: the register-file model's checkInvariants(); rename
     * conservation (free + in-flight destination + architectural tags
     * = physical registers, per class); issue-queue and LSQ occupancy
     * against the threads' windows; and per thread, that every listed
     * pointer is in its ROB region, every Dispatched entry is in
     * exactly one of the scan list, the parking heap or one Pending
     * producer tag's waiter list, and the scan and writeback lists are
     * in seq order. O(ROB + tags) plus the model's check; for tests.
     */
    void checkInvariants() const;

    /** Run checkInvariants() after every simulated cycle. */
    void enableInvariantChecks() { checkEveryCycle_ = true; }

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
         * scan until the producer issues and fixes completeCycle. A
         * tag belongs to one thread, so its waiters all do too.
         */
        InFlightInst *waiters = nullptr;
    };

    /** A register source operand of an instruction at issue. */
    struct SourceView
    {
        u32 tag;
        bool isFp;
        u64 value;
        bool used;
    };

    /** Issue resources shared by all threads within one cycle. */
    struct IssueSlots
    {
        unsigned issue;
        unsigned intFu;
        unsigned fpFu;
        unsigned memPorts;
        unsigned intReads;
        unsigned fpReads;
    };

    /** One hardware thread's state. */
    struct Thread
    {
        Thread(const CoreParams &params, unsigned threads);

        /** Where fetch pulls records from (set per run or step). */
        FetchStream *stream = nullptr;

        std::array<u32, isa::numArchRegs> intRat{};
        std::array<u32, isa::numArchRegs> fpRat{};

        /**
         * The instruction window: the ROB followed by the fetch
         * buffer in one ring (fetchBufferCap slots past the ROB).
         * Fetch writes each record into the slot it keeps until
         * commit; rename moves the region boundary.
         */
        Rob rob;
        Lsq lsq;

        /**
         * Scan lists over the ROB region of the window, so the
         * per-cycle issue and writeback stages visit only live
         * candidates instead of walking the whole ROB. Entries are
         * raw pointers into the window ring: a slot is stable from
         * fetch to commit, and only ROB entries are ever listed,
         * never the fetch region or the I-miss stash past it (there
         * is no flush path — the front end never fetches wrong-path
         * instructions).
         *
         * dispatched holds the state==Dispatched instructions not
         * waiting or parked (below) in program order (appended at
         * rename, compacted at issue). pendingWb holds state==Issued
         * instructions sorted by seq (binary-insert at issue,
         * compacted at writeback), which is exactly the age order the
         * full-ROB scan visited them in.
         */
        std::vector<InFlightInst *> dispatched;
        std::vector<InFlightInst *> pendingWb;

        /**
         * Dispatched instructions out of the issue scan, in one of
         * two places, only while their operand check is guaranteed
         * to fail:
         *
         *  - waiting: a source's producer has not issued (tag
         *    Pending). The instruction sits on that tag's
         *    TagInfo::waiters list; when the producer issues, its
         *    waiters move to parked at completeCycle - regReadStages,
         *    the first cycle their check on that source could pass.
         *  - parked: a min-heap keyed by a known retry cycle (an
         *    issued producer's completeCycle, a written-back
         *    producer's rfReadableCycle), entered directly when the
         *    wait exceeds parkThreshold, or from a waiter list on
         *    wakeup.
         *
         * Heap entries re-enter dispatched at their age-ordered
         * position when the cycle arrives, so issue decisions are
         * bit-identical to the full scan. A Long issue-stall cycle
         * inspects every dispatched instruction (issueStallCycles),
         * so it first rebuilds dispatched from the ROB and empties
         * the heap and the lists.
         */
        std::vector<std::pair<Cycle, InFlightInst *>> parked;
        /** Instructions on waiter lists (summed list lengths). */
        size_t waiting = 0;

        bool traceExhausted = false;
        bool pendingRedirect = false;
        Cycle fetchResumeCycle = 0;
        u64 lastFetchLine = ~u64{0};
        /**
         * A record pulled from the stream sits in rob.fetchTail(),
         * stalled on an I-miss.
         */
        bool pendingFetchValid = false;

        /**
         * Dispatched-but-not-issued instructions per queue: the
         * ICOUNT metric, and bounded by the per-thread share cap.
         */
        unsigned intIqCount = 0;
        unsigned fpIqCount = 0;

        /** Consecutive cycles this ROB head waited for a forced grant. */
        u64 headStallWait = 0;

        RunResult result;

        bool
        drained() const
        {
            return traceExhausted && rob.empty() && rob.fetchEmpty() &&
                   !pendingFetchValid;
        }
    };

    /**
     * Attribute the coming cycle to one CycleAccounting bucket for
     * @p th, as a pure function of pre-stage machine state (so
     * stepped and skipped execution classify identically).
     */
    unsigned classify(const Thread &th) const;

    /**
     * Conservative fast-path bound: the first cycle > @p cur at which
     * any stage of any thread could observably act, given that none
     * acts at @p cur. Returns 0 when some structure cannot bound its
     * next event (or could act at @p cur itself) — the caller must
     * step.
     */
    Cycle quiescentUntil(Cycle cur) const;

    /** One cycle of every thread, fetching from each Thread::stream. */
    void step();

    // --- per-cycle stages (called newest-to-oldest pipeline order) ---
    void doCommit();
    void doWriteback(Cycle cur);
    void doIssue(Cycle cur);
    void doRename(Cycle cur);
    void doFetch(Cycle cur);

    // The per-thread bodies of the stages, forced inline into their
    // stage: out of line they cost the one-thread core several percent
    // of host time (carf-bench solo-int).

    /** Scan @p th's dispatched instructions for issue. */
    [[gnu::always_inline]] inline void
    issueThread(Thread &th, unsigned tid, Cycle cur, IssueSlots &slots,
                bool stall_int_writers);
    /** Rename @p th's oldest fetched instruction; false if blocked. */
    [[gnu::always_inline]] inline bool renameOne(Thread &th, Cycle cur);
    /** Fetch for @p th from its stream within @p budget. */
    [[gnu::always_inline]] inline void fetchThread(Thread &th, Cycle cur,
                                                   unsigned &budget);

    /** Thread index @p off places after the rotating start thread. */
    unsigned
    rotated(unsigned off) const
    {
        unsigned tid = rrCounter_ + off;
        return tid < numThreads_ ? tid : tid - numThreads_;
    }

    /**
     * Thread order for the front end: ICOUNT policy (Tullsen et
     * al.) — threads with fewer instructions waiting in the issue
     * queues go first (ties by thread id), preventing a
     * dependence-limited thread from clogging the shared queues and
     * starving its partners. Rewrites and returns order_.
     */
    const std::vector<unsigned> &icountOrder();

    /**
     * Attempt the writeback of @p inst (state Issued, complete by
     * @p cur); true when it reached WrittenBack this cycle. Inline for
     * the same reason as the stage bodies.
     */
    [[gnu::always_inline]] inline bool
    tryWriteback(Thread &th, InFlightInst &inst, Cycle cur,
                 unsigned &int_ports, unsigned &fp_ports,
                 bool &force_grant_used);

    /** Move @p inst back into @p th's dispatched list at its seq. */
    static void unpark(Thread &th, InFlightInst *inst);

    /**
     * Put every Dispatched ROB entry of @p th back into its
     * dispatched list (age order) and empty its heap and waiter
     * lists.
     */
    void restoreFullScan(Thread &th);

    /** Reset every thread's statistics for a new timed window. */
    void startWindow();
    /** Fill in the window's derived and shared-file statistics. */
    void closeWindow();
    /** The watchdog fired: report the oldest stuck instruction. */
    [[noreturn]] void watchdogPanic() const;

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
    unsigned numThreads_;

    std::unique_ptr<regfile::RegisterFile> intRf_;
    std::unique_ptr<regfile::RegisterFile> fpRf_;

    FreeList intFree_;
    FreeList fpFree_;
    std::vector<TagInfo> intTags_;
    std::vector<TagInfo> fpTags_;

    IssueQueue intIq_;
    IssueQueue fpIq_;
    /**
     * Per-thread issue-queue share caps: a dependence-limited thread
     * must not clog the shared scheduler and starve its partners, so
     * each partner keeps at least issue-width slots available.
     */
    unsigned intIqShare_;
    unsigned fpIqShare_;

    mem::Hierarchy memory_;

    std::vector<Thread> threads_;
    /** Scratch for icountOrder() (no per-cycle allocation). */
    std::vector<unsigned> order_;
    /** The thread commit, writeback and issue start from this cycle. */
    unsigned rrCounter_ = 0;

    std::unique_ptr<PredictingFetchStream> serialStream_;

    /** Commits toward the next ROB-interval epoch (all threads). */
    u64 committedSinceInterval_ = 0;

    // --- timed-window cycle-loop state (spans stepCycle calls) ---
    bool fastPath_ = true;
    bool checkEveryCycle_ = false;
    Cycle cycle_ = 0;
    /** Commits in the window, all threads (the watchdog's progress). */
    u64 committedTotal_ = 0;
    u64 lastCommitCount_ = 0;
    Cycle lastProgressCycle_ = 0;
    stats::Average liveLong_;
    stats::Average liveShort_;
    CycleObserver *observer_ = nullptr;
    /**
     * Machine-level cycle attribution: each cycle takes the
     * most-productive bucket across threads (SmtResult).
     */
    CycleAccounting machineAccounting_;
    /** Longest forced-grant wait of any ROB head (SmtResult). */
    u64 maxRecoveryWait_ = 0;
};

} // namespace carf::core

#endif // CARF_CORE_PIPELINE_HH

#include "core/pipeline.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "core/smt.hh"
#include "regfile/baseline.hh"
#include "regfile/registry.hh"

namespace carf::core
{

using emu::DynOp;
using isa::Opcode;
using regfile::ValueType;

namespace
{

/** Instruction bytes per trace pc slot (word-addressed ISA). */
constexpr u64 instBytes = 4;
/** Fetch buffer capacity in instructions, per thread. */
constexpr unsigned fetchBufferCap = 32;
/** Cycles without a commit before the simulator declares a bug. */
constexpr Cycle watchdogCycles = 200000;

/**
 * Minimum cycles of guaranteed stall before an instruction is parked
 * out of the issue scan. Short waits are cheaper to re-scan than to
 * round-trip through the heap; the payoff is cache-miss dependency
 * chains parking for tens of cycles.
 */
constexpr Cycle parkThreshold = 8;

/** Min-heap order for the parked-instruction heap (by wake cycle). */
struct ParkOrder
{
    bool
    operator()(const std::pair<Cycle, InFlightInst *> &a,
               const std::pair<Cycle, InFlightInst *> &b) const
    {
        return a.first > b.first;
    }
};

/** Age order of in-flight instructions (a closure, so it inlines). */
constexpr auto olderThan = [](const InFlightInst *a, const InFlightInst *b) {
    return a->op.seq < b->op.seq;
};

/**
 * One SMT thread's front end: pulls records from the thread's trace,
 * salts their pcs with the thread id, and predicts them through the
 * predictors every thread shares — at pull time, so in fetch order
 * across threads.
 *
 * All traces are linked at pc 0, so without salting every thread
 * would alias in the shared predictor/BTB/I-cache index bits; the
 * salt stands in for the distinct code addresses real processes
 * would have. Low bits are perturbed too, so the *index* bits differ.
 * Thread 0's salt is zero, so a one-thread core predicts exactly
 * like PredictingFetchStream.
 */
class ThreadFetchStream final : public FetchStream
{
  public:
    ThreadFetchStream(emu::TraceSource &source,
                      BranchPredictors &predictors, unsigned tid)
        : source_(&source), predictors_(&predictors),
          salt_(u64{tid} * 0x10000405ull)
    {
    }

    bool
    next(FetchEntry &out) override
    {
        if (!source_->next(out.op))
            return false;
        out.op.pc += salt_;
        out.op.nextPc += salt_;
        predictors_->predict(out.op, out);
        return true;
    }

    std::string name() const override { return source_->name(); }

  private:
    emu::TraceSource *source_;
    BranchPredictors *predictors_;
    u64 salt_;
};

/** The physical registers @p threads need, checked before any use. */
unsigned
checkedThreads(const CoreParams &params, unsigned threads)
{
    if (threads < 1)
        fatal("Pipeline: need at least one thread");
    if (params.physIntRegs <= isa::numArchRegs * threads ||
        params.physFpRegs <= isa::numArchRegs * threads) {
        fatal("Pipeline: %u thread(s) need more than %u physical "
              "registers per file", threads, isa::numArchRegs * threads);
    }
    return threads;
}

/** A thread's share of a queue of @p capacity (see intIqShare_). */
unsigned
iqShare(const CoreParams &params, unsigned capacity, unsigned threads)
{
    unsigned reserve = params.issueWidth * (threads - 1);
    return capacity > reserve ? capacity - reserve : 1;
}

} // namespace

double
SmtResult::fairness() const
{
    if (threads.empty())
        return 0.0;
    auto [lo, hi] = std::minmax_element(
        threads.begin(), threads.end(),
        [](const RunResult &a, const RunResult &b) { return a.ipc < b.ipc; });
    return hi->ipc > 0.0 ? lo->ipc / hi->ipc : 0.0;
}

RunResult
SmtResult::aggregate() const
{
    RunResult agg;
    if (threads.empty())
        return agg;

    // Thread 0 carries the shared-file statistics (access counts,
    // Short allocation writes, occupancy averages, port conflicts);
    // start from its record and fold the partners' per-thread
    // counters in.
    agg = threads[0];
    u64 bypassed_int = agg.bypass.bypassed(false);
    u64 bypassed_fp = agg.bypass.bypassed(true);
    u64 regfile_int = agg.bypass.regFileReads(false);
    u64 regfile_fp = agg.bypass.regFileReads(true);
    for (size_t t = 1; t < threads.size(); ++t) {
        const RunResult &r = threads[t];
        agg.workload += "+" + r.workload;
        agg.committedInsts += r.committedInsts;
        agg.condBranches += r.condBranches;
        agg.branchMispredicts += r.branchMispredicts;
        bypassed_int += r.bypass.bypassed(false);
        bypassed_fp += r.bypass.bypassed(true);
        regfile_int += r.bypass.regFileReads(false);
        regfile_fp += r.bypass.regFileReads(true);
        for (unsigned b = 0; b < OperandMix::NumBuckets; ++b)
            agg.operandMix.counts[b] += r.operandMix.counts[b];
        agg.cluster.localOperands += r.cluster.localOperands;
        agg.cluster.crossOperands += r.cluster.crossOperands;
        agg.longAllocStalls += r.longAllocStalls;
        agg.recoveries += r.recoveries;
        agg.issueStallCycles += r.issueStallCycles;
    }
    agg.bypass.restore(bypassed_int, bypassed_fp, regfile_int,
                       regfile_fp);
    agg.cycles = cycles;
    agg.cycleAccounting = machineAccounting;
    agg.ipc = cycles ? static_cast<double>(agg.committedInsts) / cycles
                     : 0.0;

    agg.smtThreads = static_cast<unsigned>(threads.size());
    agg.smtThreadInsts.clear();
    agg.smtThreadIpc.clear();
    for (const RunResult &r : threads) {
        agg.smtThreadInsts.push_back(r.committedInsts);
        agg.smtThreadIpc.push_back(r.ipc);
    }
    agg.smtShortHits = sharing.totalShortHits();
    agg.smtCrossShortHits = sharing.totalCrossShortHits();
    agg.smtMaxRecoveryWait = maxRecoveryWait;
    return agg;
}

Pipeline::Thread::Thread(const CoreParams &params, unsigned threads)
    : rob(params.robSize / threads, fetchBufferCap),
      lsq(params.lsqSize / threads)
{
    dispatched.reserve(rob.capacity());
    pendingWb.reserve(rob.capacity());
    parked.reserve(rob.capacity());
}

Pipeline::Pipeline(const CoreParams &params, unsigned threads)
    : params_(params),
      numThreads_(checkedThreads(params, threads)),
      intFree_(params.physIntRegs, isa::numArchRegs * threads),
      fpFree_(params.physFpRegs, isa::numArchRegs * threads),
      intTags_(params.physIntRegs),
      fpTags_(params.physFpRegs),
      intIq_(params.intIqSize),
      fpIq_(params.fpIqSize),
      intIqShare_(iqShare(params, params.intIqSize, threads)),
      fpIqShare_(iqShare(params, params.fpIqSize, threads)),
      memory_(params.memory),
      order_(threads)
{
    // An instruction may need one register file read per source
    // operand in a single cycle; fewer than two ports per file would
    // deadlock two-source consumers of non-bypassable operands.
    if (params_.intRfReadPorts < 2 || params_.fpRfReadPorts < 2)
        fatal("Pipeline: at least 2 read ports per register file "
              "are required");
    intRf_ = regfile::makeRegFile(params_.regFileBackend,
                                  params_.regFileParams(), "intRf");
    fpRf_ = std::make_unique<regfile::BaselineRegFile>(
        "fpRf", params_.physFpRegs);
    intRf_->setThreadCount(threads);

    // Thread t's architectural registers start mapped to tags
    // t * numArchRegs + i, live with value zero (matching the
    // emulator's initial state).
    threads_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        Thread &th = threads_.emplace_back(params_, threads);
        for (u32 i = 0; i < isa::numArchRegs; ++i) {
            u32 tag = t * isa::numArchRegs + i;
            th.intRat[i] = tag;
            th.fpRat[i] = tag;
            intRf_->write(tag, 0);
            fpRf_->write(tag, 0);
        }
    }
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
}

Pipeline::~Pipeline() = default;

u64
Pipeline::archIntReg(unsigned idx) const
{
    if (idx == 0)
        return 0;
    return intRf_->peekValue(threads_[0].intRat.at(idx));
}

u64
Pipeline::archFpReg(unsigned idx) const
{
    return fpRf_->peekValue(threads_[0].fpRat.at(idx));
}

FetchStream &
Pipeline::serialStream(emu::TraceSource &source)
{
    if (!serialStream_) {
        serialStream_ = std::make_unique<PredictingFetchStream>(
            source, params_);
    } else {
        serialStream_->rebind(source);
    }
    return *serialStream_;
}

const std::vector<unsigned> &
Pipeline::icountOrder()
{
    // Stable insertion sort of the thread ids by queued instructions.
    order_[0] = 0;
    for (unsigned t = 1; t < numThreads_; ++t) {
        unsigned count = threads_[t].intIqCount + threads_[t].fpIqCount;
        unsigned pos = t;
        for (; pos > 0; --pos) {
            const Thread &prev = threads_[order_[pos - 1]];
            if (prev.intIqCount + prev.fpIqCount <= count)
                break;
            order_[pos] = order_[pos - 1];
        }
        order_[pos] = t;
    }
    return order_;
}

void
Pipeline::doCommit()
{
    unsigned budget = params_.commitWidth;
    for (unsigned off = 0; off < numThreads_ && budget > 0; ++off) {
        Thread &th = threads_[rotated(off)];
        while (budget > 0 && !th.rob.empty()) {
            InFlightInst &head = th.rob.head();
            if (head.state != InstState::WrittenBack)
                break;

            if (head.hasDest()) {
                if (head.destIsFp) {
                    fpRf_->release(head.oldDestTag);
                    fpFree_.release(head.oldDestTag);
                } else {
                    intRf_->release(head.oldDestTag);
                    intFree_.release(head.oldDestTag);
                }
            }
            if (head.op.isLoad())
                th.lsq.commitLoad();
            else if (head.op.isStore())
                th.lsq.commitStore(head.op.seq);

            ++th.result.committedInsts;
            ++committedTotal_;
            // ROB-interval epochs of the shared file follow aggregate
            // commit progress, ticking between commits.
            if (++committedSinceInterval_ >= params_.robSize) {
                committedSinceInterval_ = 0;
                intRf_->onRobInterval();
            }

            th.rob.popHead();
            --budget;
        }
    }
}

bool
Pipeline::tryWriteback(Thread &th, InFlightInst &inst, Cycle cur,
                       unsigned &int_ports, unsigned &fp_ports,
                       bool &force_grant_used)
{
    if (inst.completeCycle > cur)
        return false;

    if (!inst.hasDest()) {
        inst.state = InstState::WrittenBack;
        inst.wbCycle = cur;
        return true;
    }

    if (inst.destIsFp) {
        if (fp_ports == 0)
            return false;
        fpRf_->write(inst.destTag, inst.op.rdValue);
        --fp_ports;
        TagInfo &ti = tagInfo(inst.destTag, true);
        ti.state = TagInfo::State::Done;
        ti.rfReadableCycle = cur + 1;
        inst.state = InstState::WrittenBack;
        inst.wbCycle = cur;
        return true;
    }

    if (int_ports == 0)
        return false;
    bool at_head = &inst == &th.rob.head();
    if (intRf_->write(inst.destTag, inst.op.rdValue).stalled) {
        ++th.result.longAllocStalls;
        // Long file exhausted. A stalled ROB head cannot be freed by
        // anything else: pseudo-deadlock recovery (§3.2), at most one
        // forced grant per cycle, to the first stalled head in the
        // rotating thread order.
        if (!at_head || force_grant_used) {
            if (at_head) {
                ++th.headStallWait;
                maxRecoveryWait_ =
                    std::max(maxRecoveryWait_, th.headStallWait);
            }
            inst.wbStalledOnLong = true;
            return false; // port not consumed; retry next cycle
        }
        force_grant_used = true;
        intRf_->writeForced(inst.destTag, inst.op.rdValue);
        ++th.result.recoveries;
    }
    if (at_head)
        th.headStallWait = 0;
    --int_ports;
    TagInfo &ti = tagInfo(inst.destTag, false);
    ti.state = TagInfo::State::Done;
    ti.rfReadableCycle = cur + params_.intWbStages;
    inst.state = InstState::WrittenBack;
    inst.wbCycle = cur;
    return true;
}

void
Pipeline::doWriteback(Cycle cur)
{
    unsigned int_ports = params_.intRfWritePorts;
    unsigned fp_ports = params_.fpRfWritePorts;
    bool force_grant_used = false;

    // Each pendingWb list is its thread's Issued ROB subset in age
    // order, so this visits exactly the instructions a full-ROB scan
    // would, in the same order, and makes identical port-arbitration
    // decisions. The rotating start thread guarantees every thread's
    // head periodically walks first for the forced grant, so no
    // thread can be locked out; headStallWait measures how long any
    // head actually waited.
    for (unsigned off = 0; off < numThreads_; ++off) {
        unsigned tid = rotated(off);
        Thread &th = threads_[tid];
        if (numThreads_ > 1)
            intRf_->setActiveThread(tid);
        size_t keep = 0;
        for (size_t i = 0; i < th.pendingWb.size(); ++i) {
            if (!tryWriteback(th, *th.pendingWb[i], cur, int_ports,
                              fp_ports, force_grant_used))
                th.pendingWb[keep++] = th.pendingWb[i];
        }
        th.pendingWb.resize(keep);
    }
}

void
Pipeline::unpark(Thread &th, InFlightInst *inst)
{
    th.dispatched.insert(std::upper_bound(th.dispatched.begin(),
                                          th.dispatched.end(), inst,
                                          olderThan),
                         inst);
}

void
Pipeline::restoreFullScan(Thread &th)
{
    th.dispatched.clear();
    for (InFlightInst &inst : th.rob) {
        if (inst.state != InstState::Dispatched)
            continue;
        th.dispatched.push_back(&inst);
        // Every waiter list hangs off the dest tag of a Dispatched
        // producer of the same thread, so this empties them all.
        if (inst.hasDest())
            tagInfo(inst.destTag, inst.destIsFp).waiters = nullptr;
    }
    th.parked.clear();
    th.waiting = 0;
}

void
Pipeline::doIssue(Cycle cur)
{
    IssueSlots slots{params_.issueWidth,     params_.intFuCount,
                     params_.fpFuCount,      memory_.dl1Ports(),
                     params_.intRfReadPorts, params_.fpRfReadPorts};
    bool stall_int_writers = intRf_->shouldStallIssue();

    for (Thread &th : threads_) {
        if (stall_int_writers) {
            // The Long issue-stall path inspects every dispatched
            // instruction: restore the full scan.
            if (!th.parked.empty() || th.waiting != 0)
                restoreFullScan(th);
        } else {
            while (!th.parked.empty() && th.parked.front().first <= cur) {
                unpark(th, th.parked.front().second);
                std::pop_heap(th.parked.begin(), th.parked.end(),
                              ParkOrder{});
                th.parked.pop_back();
            }
        }
    }

    for (unsigned off = 0; off < numThreads_ && slots.issue > 0; ++off) {
        unsigned tid = rotated(off);
        if (numThreads_ > 1)
            intRf_->setActiveThread(tid);
        issueThread(threads_[tid], tid, cur, slots, stall_int_writers);
    }
}

void
Pipeline::issueThread(Thread &th, unsigned tid, Cycle cur,
                      IssueSlots &slots, bool stall_int_writers)
{
    bool long_stall_seen = false;
    Cycle exec = cur + params_.regReadStages;
    std::vector<InFlightInst *> &dispatched = th.dispatched;

    // dispatched is the Dispatched subset of the ROB in age order,
    // less instructions whose check cannot pass this cycle: same
    // arbitration decisions as the full-ROB scan, without touching
    // issued/completed or provably blocked entries.
    size_t scan = 0;
    size_t keep = 0;
    for (; scan < dispatched.size() && slots.issue > 0; ++scan) {
        InFlightInst &inst = *dispatched[scan];
        // Assume the instruction stays dispatched; the issue path at
        // the bottom un-keeps it.
        dispatched[keep++] = &inst;

        bool fpq = usesFpQueue(inst.op.op);
        bool is_load = inst.op.isLoad();
        bool is_store = inst.op.isStore();
        bool is_mem = is_load || is_store;

        if (fpq ? slots.fpFu == 0 : slots.intFu == 0)
            continue;
        if (is_mem && slots.memPorts == 0)
            continue;
        // The ROB head is exempt from the free-Long issue stall:
        // stalling it would deadlock (younger completed instructions
        // hold Long entries they can only release by committing
        // behind the head). The head's writeback can always fall back
        // to the forced-recovery path.
        if (stall_int_writers && inst.writesIntDest() &&
            &inst != &th.rob.head()) {
            long_stall_seen = true;
            continue;
        }

        SourceView s1{inst.src1Tag, inst.src1IsFp, inst.op.rs1Value,
                      inst.src1Tag != invalidIndex};
        SourceView s2{inst.src2Tag, inst.src2IsFp, inst.op.rs2Value,
                      inst.src2Tag != invalidIndex};

        OperandSource so1 = OperandSource::None;
        OperandSource so2 = OperandSource::None;
        // Why the check below failed: the producer tag that has not
        // issued yet, or else the first cycle the check could pass
        // again (cur+1 when the timing is not yet pinned down).
        TagInfo *unissued = nullptr;
        Cycle retry = 0;
        auto check_src = [&](const SourceView &s, OperandSource &out) {
            if (!s.used) {
                out = OperandSource::None;
                return true;
            }
            TagInfo &ti = tagInfo(s.tag, s.isFp);
            if (ti.state == TagInfo::State::Pending) {
                unissued = &ti;
                return false;
            }
            if (exec < ti.completeCycle) {
                // completeCycle is fixed at issue: the check keeps
                // failing until exec reaches it.
                retry = ti.completeCycle - params_.regReadStages;
                return false;
            }
            unsigned window = s.isFp ? params_.fpBypassWindow()
                                     : params_.intBypassWindow();
            if (exec < ti.completeCycle + window) {
                out = OperandSource::Bypass;
                return true;
            }
            if (ti.state != TagInfo::State::Done ||
                exec - 1 < ti.rfReadableCycle) {
                // Past the bypass window: only the file can supply
                // the value, first readable at rfReadableCycle (known
                // once written back, i.e. state Done).
                retry = ti.state == TagInfo::State::Done
                            ? ti.rfReadableCycle + 1 -
                                  params_.regReadStages
                            : cur + 1;
                return false; // value in the writeback gap
            }
            out = OperandSource::RegFile;
            return true;
        };
        if (!check_src(s1, so1) || !check_src(s2, so2)) {
            // Leave the scan while the check cannot pass (not in stall
            // cycles: the next one would only rebuild the full scan).
            if (stall_int_writers)
                continue;
            if (unissued) {
                // Nothing passes before the producer issues: wait on
                // its tag.
                --keep;
                inst.nextWaiter = unissued->waiters;
                unissued->waiters = &inst;
                ++th.waiting;
            } else if (retry > cur + parkThreshold) {
                --keep;
                th.parked.emplace_back(retry, &inst);
                std::push_heap(th.parked.begin(), th.parked.end(),
                               ParkOrder{});
            }
            continue;
        }

        unsigned need_int_rd = 0, need_fp_rd = 0;
        auto count_port = [&](const SourceView &s, OperandSource so) {
            if (so != OperandSource::RegFile)
                return;
            if (s.isFp)
                ++need_fp_rd;
            else
                ++need_int_rd;
        };
        count_port(s1, so1);
        count_port(s2, so2);
        if (need_int_rd > slots.intReads || need_fp_rd > slots.fpReads)
            continue;
        // The model may impose its own per-cycle port limit below the
        // core's (port-reduction backends); a refusal is a conflict
        // stall and the instruction retries next cycle.
        if (need_int_rd != 0 && !intRf_->canServeReads(need_int_rd))
            continue;

        Cycle latency = inst.op.info().latency;
        if (is_load) {
            Cycle dep_ready = 0;
            if (!th.lsq.loadReadyCycle(inst.op.seq, inst.op.effAddr,
                                       inst.op.info().memBytes,
                                       dep_ready)) {
                continue;
            }
            if (dep_ready > exec)
                continue;
            latency = 1 + memory_.dataAccess(inst.op.effAddr);
        } else if (is_store) {
            latency = 1;
            memory_.dataAccess(inst.op.effAddr);
        }

        // --- commit to issuing this instruction ---
        --keep; // leaves the dispatched list
        --slots.issue;
        if (fpq)
            --slots.fpFu;
        else
            --slots.intFu;
        if (is_mem)
            --slots.memPorts;
        slots.intReads -= need_int_rd;
        slots.fpReads -= need_fp_rd;
        if (need_int_rd != 0)
            intRf_->consumeReadPorts(need_int_rd);

        inst.state = InstState::Issued;
        inst.issueCycle = cur;
        inst.completeCycle = exec + latency;
        if (fpq) {
            fpIq_.remove();
            --th.fpIqCount;
        } else {
            intIq_.remove();
            --th.intIqCount;
        }

        // Issue order across cycles is not age order, so keep the
        // writeback list sorted by seq (= age) as entries arrive.
        th.pendingWb.insert(std::upper_bound(th.pendingWb.begin(),
                                             th.pendingWb.end(), &inst,
                                             olderThan),
                            &inst);

        if (inst.hasDest()) {
            TagInfo &ti = tagInfo(inst.destTag, inst.destIsFp);
            ti.state = TagInfo::State::Issued;
            ti.completeCycle = inst.completeCycle;
            ti.rfReadableCycle = ~Cycle{0};
            // Wake the waiters: their check on this tag first passes
            // once exec reaches completeCycle (always after cur, as
            // every latency is at least one cycle).
            Cycle wake = inst.completeCycle - params_.regReadStages;
            for (InFlightInst *w = ti.waiters; w; w = w->nextWaiter) {
                th.parked.emplace_back(wake, w);
                std::push_heap(th.parked.begin(), th.parked.end(),
                               ParkOrder{});
                --th.waiting;
            }
            ti.waiters = nullptr;
        }

        auto consume_src = [&](const SourceView &s, OperandSource so) {
            if (!s.used)
                return;
            th.result.bypass.record(so, s.isFp);
            if (so == OperandSource::RegFile) {
                regfile::RegisterFile &rf = s.isFp ? *fpRf_ : *intRf_;
                regfile::ReadAccess read = rf.read(s.tag);
                if (read.value != s.value) {
                    panic("operand mismatch: thread %u seq %llu tag %u "
                          "rf=%llx trace=%llx",
                          tid, (unsigned long long)inst.op.seq, s.tag,
                          (unsigned long long)read.value,
                          (unsigned long long)s.value);
                }
            }
        };
        consume_src(s1, so1);
        consume_src(s2, so2);

        // Table 4: source operand type mix over integer operands,
        // and the §6 clustering estimate (steer by result type; a
        // source of another type crosses clusters).
        if (intRf_->hasValueTaxonomy()) {
            bool u1 = s1.used && !s1.isFp;
            bool u2 = s2.used && !s2.isFp;
            ValueType t1 = u1 ? intRf_->classifyPeek(s1.value)
                              : ValueType::Simple;
            ValueType t2 = u2 ? intRf_->classifyPeek(s2.value)
                              : ValueType::Simple;
            auto has = [&](ValueType t) {
                return (u1 && t1 == t) || (u2 && t2 == t);
            };
            th.result.operandMix.record(has(ValueType::Simple),
                                        has(ValueType::Short),
                                        has(ValueType::Long));

            // Clustering estimate: steer the instruction to the
            // cluster holding (the majority of) its integer operands;
            // with two differing operands, prefer the cluster of the
            // result type so the writeback stays local, and the other
            // operand crosses.
            if (u1 && u2) {
                if (t1 == t2) {
                    th.result.cluster.localOperands += 2;
                } else {
                    ++th.result.cluster.localOperands;
                    ++th.result.cluster.crossOperands;
                }
            } else if (u1 || u2) {
                ++th.result.cluster.localOperands;
            }
        }

        if (is_mem)
            intRf_->noteAddress(inst.op.effAddr);
        if (is_store)
            th.lsq.storeIssued(inst.op.seq, inst.completeCycle);

        if (!inst.predictedCorrect) {
            th.fetchResumeCycle = inst.completeCycle;
            th.pendingRedirect = false;
        }
    }

    // Budget exhausted: keep the unexamined tail.
    for (; scan < dispatched.size(); ++scan)
        dispatched[keep++] = dispatched[scan];
    dispatched.resize(keep);

    if (long_stall_seen)
        ++th.result.issueStallCycles;
}

bool
Pipeline::renameOne(Thread &th, Cycle cur)
{
    if (th.rob.fetchEmpty())
        return false;
    const InFlightInst &fetched = th.rob.fetchFront();
    if (fetched.fetchCycle + params_.frontendDepth > cur)
        return false;
    if (th.rob.full())
        return false;

    const DynOp &op = fetched.op;
    const isa::OpInfo &info = isa::opInfo(op.op);
    bool fpq = usesFpQueue(op.op);
    IssueQueue &iq = fpq ? fpIq_ : intIq_;
    if (iq.full())
        return false;
    if (fpq ? th.fpIqCount >= fpIqShare_ : th.intIqCount >= intIqShare_)
        return false;
    bool is_mem = op.isLoad() || op.isStore();
    if (is_mem && th.lsq.full())
        return false;
    bool int_dest = op.writesIntReg();
    bool fp_dest = op.writesFpReg();
    if (int_dest && intFree_.empty())
        return false;
    if (fp_dest && fpFree_.empty())
        return false;

    // The fetched slot becomes the ROB entry in place (op stays
    // valid: it is that slot's record).
    InFlightInst &inst = th.rob.dispatch(cur);
    th.dispatched.push_back(&inst);

    if (info.rs1Class == isa::RegClass::Int) {
        if (op.rs1 != 0) {
            inst.src1Tag = th.intRat[op.rs1];
            inst.src1IsFp = false;
        }
    } else if (info.rs1Class == isa::RegClass::Fp) {
        inst.src1Tag = th.fpRat[op.rs1];
        inst.src1IsFp = true;
    }
    if (info.rs2Class == isa::RegClass::Int) {
        if (op.rs2 != 0) {
            inst.src2Tag = th.intRat[op.rs2];
            inst.src2IsFp = false;
        }
    } else if (info.rs2Class == isa::RegClass::Fp) {
        inst.src2Tag = th.fpRat[op.rs2];
        inst.src2IsFp = true;
    }

    if (int_dest) {
        inst.oldDestTag = th.intRat[op.rd];
        inst.destTag = intFree_.allocate();
        th.intRat[op.rd] = inst.destTag;
        inst.destIsFp = false;
        tagInfo(inst.destTag, false).state = TagInfo::State::Pending;
    } else if (fp_dest) {
        inst.oldDestTag = th.fpRat[op.rd];
        inst.destTag = fpFree_.allocate();
        th.fpRat[op.rd] = inst.destTag;
        inst.destIsFp = true;
        tagInfo(inst.destTag, true).state = TagInfo::State::Pending;
    }

    iq.insert();
    ++(fpq ? th.fpIqCount : th.intIqCount);
    if (op.isLoad())
        th.lsq.dispatchLoad(op.seq);
    else if (op.isStore())
        th.lsq.dispatchStore(op.seq, op.effAddr, info.memBytes);
    return true;
}

void
Pipeline::doRename(Cycle cur)
{
    // ICOUNT rename: one instruction per thread per pass, until the
    // width is spent or no thread can make progress. A thread blocked
    // once stays blocked for the cycle, so a lone thread's passes are
    // it renaming straight through; that loop is the hot one-thread
    // path.
    unsigned budget = params_.fetchWidth;
    if (numThreads_ == 1) {
        while (budget > 0 && renameOne(threads_[0], cur))
            --budget;
        return;
    }
    const std::vector<unsigned> &order = icountOrder();
    bool progress = true;
    while (budget > 0 && progress) {
        progress = false;
        for (unsigned i = 0; i < numThreads_ && budget > 0; ++i) {
            if (renameOne(threads_[order[i]], cur)) {
                --budget;
                progress = true;
            }
        }
    }
}

void
Pipeline::fetchThread(Thread &th, Cycle cur, unsigned &budget)
{
    if (th.traceExhausted || th.pendingRedirect ||
        cur < th.fetchResumeCycle)
        return;

    unsigned line_shift = 6; // 64B fetch lines

    // One call consumes at most fetchWidth stream records: each
    // iteration pulls at most one, and at most fetchWidth iterations
    // make progress.
    while (budget > 0 && !th.rob.fetchFull()) {
        // Records are materialized straight into the window slot they
        // keep until commit. A record stashed by an I-miss is still in
        // that slot: rename and commit never move the fetch tail.
        InFlightInst &entry = th.rob.fetchTail();
        if (th.pendingFetchValid) {
            th.pendingFetchValid = false;
        } else if (!th.stream->next(entry)) {
            th.traceExhausted = true;
            return;
        }
        const DynOp &op = entry.op;

        u64 line = (op.pc * instBytes) >> line_shift;
        if (line != th.lastFetchLine) {
            Cycle lat = memory_.instAccess(op.pc * instBytes);
            th.lastFetchLine = line;
            if (lat > params_.memory.il1.hitLatency) {
                // I-cache miss: leave the record in the (uncounted)
                // fetch tail and stall.
                th.pendingFetchValid = true;
                th.lastFetchLine = ~u64{0}; // re-check after refill
                th.fetchResumeCycle = cur + lat;
                return;
            }
        }

        if (entry.isCondBranch) {
            ++th.result.condBranches;
            if (!entry.predictedCorrect)
                ++th.result.branchMispredicts;
        }
        entry.fetchCycle = cur;
        th.rob.pushFetched();
        --budget;

        if (!entry.predictedCorrect) {
            th.pendingRedirect = true;
            return;
        }
        if (op.isBranch() && op.taken)
            return; // taken branch ends the fetch group
    }
}

void
Pipeline::doFetch(Cycle cur)
{
    // ICOUNT fetch: the least-clogging thread may use the full
    // width; leftover slots go to the others. A lone thread needs no
    // order.
    unsigned budget = params_.fetchWidth;
    if (numThreads_ == 1) {
        fetchThread(threads_[0], cur, budget);
        return;
    }
    const std::vector<unsigned> &order = icountOrder();
    for (unsigned i = 0; i < numThreads_ && budget > 0; ++i)
        fetchThread(threads_[order[i]], cur, budget);
}

void
Pipeline::warmUp(emu::TraceSource &source, u64 insts)
{
    WarmupScratch scratch;
    warmUpRange(serialStream(source), insts, scratch);
    installWarmState(scratch);
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
    threads_[0].result = RunResult{};
}

void
Pipeline::warmUpRange(FetchStream &stream, u64 insts,
                      WarmupScratch &scratch)
{
    FetchEntry entry;
    for (u64 i = 0; i < insts && stream.next(entry); ++i) {
        const DynOp &op = entry.op;
        memory_.instAccess(op.pc * instBytes);
        if (op.isLoad() || op.isStore()) {
            memory_.dataAccess(op.effAddr);
            intRf_->noteAddress(op.effAddr);
        }
        if (op.writesIntReg()) {
            scratch.intVals[op.rd] = op.rdValue;
            scratch.intSet[op.rd] = true;
        } else if (op.writesFpReg()) {
            scratch.fpVals[op.rd] = op.rdValue;
            scratch.fpSet[op.rd] = true;
        }
    }
}

void
Pipeline::installWarmState(const WarmupScratch &scratch)
{
    // Install the fast-forwarded architectural values so the timed
    // window reads consistent register state. A Long-file stall here
    // is forced through and counted like a timed one.
    Thread &th = threads_[0];
    for (unsigned r = 0; r < isa::numArchRegs; ++r) {
        if (scratch.intSet[r]) {
            u32 tag = th.intRat[r];
            intRf_->release(tag);
            if (intRf_->write(tag, scratch.intVals[r]).stalled) {
                ++th.result.longAllocStalls;
                intRf_->writeForced(tag, scratch.intVals[r]);
                ++th.result.recoveries;
            }
        }
        if (scratch.fpSet[r]) {
            u32 tag = th.fpRat[r];
            fpRf_->release(tag);
            fpRf_->write(tag, scratch.fpVals[r]);
        }
    }
}

void
Pipeline::resetForResume()
{
    Thread &th = threads_[0];
    if (!th.rob.empty() || !th.rob.fetchEmpty() || th.pendingFetchValid)
        panic("resetForResume: lane still has work in flight");
    th.traceExhausted = false;
    // Fetch pacing latches from the drained episode are stale; the
    // redirect latch is provably clear (it drops when the mispredicted
    // branch issues, and a drained ROB has issued everything), and the
    // I-miss stash is empty by active()'s definition.
    th.fetchResumeCycle = 0;
    th.lastFetchLine = ~u64{0};
    // No cycles elapse during a functional gap, but re-arm the
    // watchdog base so episode boundaries never look like hangs.
    lastProgressCycle_ = cycle_;
}

unsigned
Pipeline::classify(const Thread &th) const
{
    if (!th.rob.empty()) {
        const InFlightInst &head = th.rob.head();
        if (head.state == InstState::WrittenBack)
            return CycleAccounting::Commit;
        if (head.state == InstState::Issued) {
            if (head.wbStalledOnLong)
                return CycleAccounting::LongStall;
            if (head.completeCycle > cycle_)
                return head.op.isLoad() ? CycleAccounting::MemWait
                                        : CycleAccounting::ExecWait;
            return CycleAccounting::WbWait;
        }
        return th.rob.full() ? CycleAccounting::RobFull
                             : CycleAccounting::IssueBound;
    }
    if (!th.rob.fetchEmpty())
        return CycleAccounting::FrontendFill;
    if (th.pendingFetchValid)
        return CycleAccounting::IcacheWait;
    return CycleAccounting::FetchEmpty;
}

Cycle
Pipeline::quiescentUntil(Cycle cur) const
{
    Cycle next = ~Cycle{0};
    auto candidate = [&next](Cycle c) { next = std::min(next, c); };

    for (const Thread &th : threads_) {
        // Commit: a written-back head commits this very cycle.
        if (!th.rob.empty() &&
            th.rob.head().state == InstState::WrittenBack)
            return 0;

        // Issue: any dispatched candidate gets scanned each cycle, and
        // a scan can consume model read-port budget or issue outright
        // — only a window whose waiting instructions are all parked
        // (known wake cycles) or on waiter lists is skippable. A
        // waiter wakes only when its producer issues; the oldest
        // producer of every chain is dispatched or parked, so the
        // parked bound covers it.
        if (!th.dispatched.empty())
            return 0;

        // A Long issue-stall cycle with parked or waiting instructions
        // restores the full scan and counts issueStallCycles per
        // cycle: never skip it.
        if ((!th.parked.empty() || th.waiting != 0) &&
            intRf_->shouldStallIssue())
            return 0;

        // Fetch: eligible to pull a record right now — step. (A
        // redirect blocks fetch until the mispredicted branch issues,
        // which is bounded by the parked/writeback candidates below;
        // a full fetch buffer blocks until rename drains it, bounded
        // likewise.)
        bool can_fetch = !th.traceExhausted && !th.pendingRedirect &&
                         !th.rob.fetchFull();
        if (can_fetch && cur >= th.fetchResumeCycle)
            return 0;
        if (can_fetch)
            candidate(th.fetchResumeCycle);

        if (!th.parked.empty())
            candidate(th.parked.front().first);

        // Writeback: every issued instruction must complete strictly
        // later. An already-complete entry (including a Long-stalled
        // one) retries every cycle, and retries touch model counters
        // and the forced-grant wait — step.
        for (const InFlightInst *inst : th.pendingWb) {
            if (inst->completeCycle <= cur)
                return 0;
            candidate(inst->completeCycle);
        }

        // Rename: blocked on pipeline depth until a known cycle, or on
        // a structural resource (ROB/IQ/share cap/LSQ/free list) whose
        // release needs a commit/issue/writeback event already
        // bounded above.
        if (!th.rob.fetchEmpty()) {
            const InFlightInst &fetched = th.rob.fetchFront();
            Cycle ready = fetched.fetchCycle + params_.frontendDepth;
            if (ready > cur) {
                candidate(ready);
            } else {
                const DynOp &op = fetched.op;
                bool fpq = usesFpQueue(op.op);
                bool blocked =
                    th.rob.full() || (fpq ? fpIq_ : intIq_).full() ||
                    (fpq ? th.fpIqCount >= fpIqShare_
                         : th.intIqCount >= intIqShare_) ||
                    ((op.isLoad() || op.isStore()) && th.lsq.full()) ||
                    (op.writesIntReg() && intFree_.empty()) ||
                    (op.writesFpReg() && fpFree_.empty());
                if (!blocked)
                    return 0; // rename makes progress this cycle
            }
        }
    }

    if (next == ~Cycle{0})
        return 0; // nothing can bound the next event
    return next;
}

void
Pipeline::checkInvariants() const
{
    auto fail = [this](const std::string &what) {
        panic("pipeline invariant at cycle %llu: %s",
              (unsigned long long)cycle_, what.c_str());
    };
    std::string model = intRf_->checkInvariants();
    if (!model.empty())
        fail("register file: " + model);

    // Rename conservation, per class: every physical tag is free, an
    // architectural mapping, or the destination of an in-flight
    // instruction (whose previous mapping commit will free). Queue
    // occupancy: the shared issue queues hold exactly the threads'
    // Dispatched entries, each LSQ its thread's memory operations.
    size_t arch = size_t{isa::numArchRegs} * numThreads_;
    size_t int_dests = 0, fp_dests = 0;
    unsigned int_queued = 0, fp_queued = 0;
    for (const Thread &th : threads_) {
        unsigned int_iq = 0, fp_iq = 0, mem = 0;
        for (const InFlightInst &inst : th.rob) {
            if (inst.hasDest())
                ++(inst.destIsFp ? fp_dests : int_dests);
            if (inst.state == InstState::Dispatched)
                ++(usesFpQueue(inst.op.op) ? fp_iq : int_iq);
            mem += inst.op.isLoad() || inst.op.isStore();
        }
        if (int_iq != th.intIqCount || fp_iq != th.fpIqCount ||
            mem != th.lsq.occupancy()) {
            fail(strprintf("a thread counts int %u fp %u lsq %u queued "
                           "but its ROB holds %u, %u and %u",
                           th.intIqCount, th.fpIqCount, th.lsq.occupancy(),
                           int_iq, fp_iq, mem));
        }
        int_queued += th.intIqCount;
        fp_queued += th.fpIqCount;
    }
    if (intFree_.freeCount() + int_dests + arch != params_.physIntRegs ||
        fpFree_.freeCount() + fp_dests + arch != params_.physFpRegs) {
        fail(strprintf("free + in-flight + architectural tags are int "
                       "%zu + %zu + %zu of %u, fp %zu + %zu + %zu of %u",
                       intFree_.freeCount(), int_dests, arch,
                       params_.physIntRegs, fpFree_.freeCount(), fp_dests,
                       arch, params_.physFpRegs));
    }
    if (intIq_.occupancy() != int_queued || fpIq_.occupancy() != fp_queued) {
        fail(strprintf("issue queues hold int %u fp %u but the threads "
                       "count %u and %u",
                       intIq_.occupancy(), fpIq_.occupancy(), int_queued,
                       fp_queued));
    }

    // Per thread: the Dispatched ROB entries in age (= seq) order, and
    // how many issue structures hold each one.
    std::vector<std::vector<const InFlightInst *>> live(numThreads_);
    std::vector<std::vector<unsigned>> holders(numThreads_);
    auto hold = [&](unsigned tid, const InFlightInst *inst,
                    const char *where) {
        if (!threads_[tid].rob.inRob(inst))
            fail(strprintf("thread %u %s points outside its ROB", tid,
                           where));
        auto it = std::lower_bound(live[tid].begin(), live[tid].end(),
                                   inst, olderThan);
        if (it == live[tid].end() || *it != inst)
            fail(strprintf("thread %u %s holds an instruction that is "
                           "not a Dispatched ROB entry", tid, where));
        ++holders[tid][it - live[tid].begin()];
    };
    size_t live_total = 0;
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        const Thread &th = threads_[tid];
        // The window: both regions within capacity, and every fetched
        // entry stamped no later than now.
        if (th.rob.size() > th.rob.capacity() ||
            th.rob.fetchSize() > fetchBufferCap)
            fail(strprintf("thread %u holds %zu ROB and %zu fetched "
                           "entries", tid, th.rob.size(),
                           th.rob.fetchSize()));
        for (size_t i = 0; i < th.rob.fetchSize(); ++i) {
            if (th.rob.fetched(i).fetchCycle > cycle_)
                fail(strprintf("thread %u fetched seq %llu in the future",
                               tid, (unsigned long long)
                                        th.rob.fetched(i).op.seq));
        }

        // The writeback list is exactly the Issued entries, in order.
        size_t issued = 0;
        for (const InFlightInst &inst : th.rob) {
            issued += inst.state == InstState::Issued;
            if (inst.state == InstState::Dispatched)
                live[tid].push_back(&inst);
        }
        live_total += live[tid].size();
        holders[tid].assign(live[tid].size(), 0);
        if (th.pendingWb.size() != issued)
            fail(strprintf("thread %u has %zu Issued ROB entries but "
                           "pendingWb holds %zu", tid, issued,
                           th.pendingWb.size()));
        for (size_t i = 0; i < th.pendingWb.size(); ++i) {
            const InFlightInst *inst = th.pendingWb[i];
            if (!th.rob.inRob(inst) || inst->state != InstState::Issued ||
                (i > 0 && !olderThan(th.pendingWb[i - 1], inst)))
                fail(strprintf("thread %u pendingWb entry %zu is not an "
                               "Issued ROB entry in seq order", tid, i));
        }

        for (size_t i = 0; i < th.dispatched.size(); ++i) {
            hold(tid, th.dispatched[i], "dispatched");
            if (i > 0 && !olderThan(th.dispatched[i - 1], th.dispatched[i]))
                fail(strprintf("thread %u dispatched not sorted by seq at "
                               "index %zu", tid, i));
        }
        for (const auto &entry : th.parked)
            hold(tid, entry.second, "parked");
    }

    // Waiter lists: a tag's waiters belong to the thread that renamed
    // it, found by window.
    std::vector<size_t> listed(numThreads_, 0);
    size_t listed_total = 0;
    for (const auto *tags : {&intTags_, &fpTags_}) {
        for (const TagInfo &ti : *tags) {
            if (ti.waiters && ti.state != TagInfo::State::Pending)
                fail("a tag that is not Pending has waiters");
            for (const InFlightInst *w = ti.waiters; w; w = w->nextWaiter) {
                if (++listed_total > live_total)
                    fail("waiter lists hold more entries than the ROBs");
                unsigned tid = 0;
                while (tid + 1 < numThreads_ && !threads_[tid].rob.inRob(w))
                    ++tid;
                hold(tid, w, "a waiter list");
                ++listed[tid];
            }
        }
    }

    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        if (listed[tid] != threads_[tid].waiting)
            fail(strprintf("thread %u waiting count %zu but the lists hold "
                           "%zu", tid, threads_[tid].waiting, listed[tid]));
        for (size_t i = 0; i < live[tid].size(); ++i) {
            if (holders[tid][i] != 1)
                fail(strprintf("thread %u Dispatched seq %llu is held by "
                               "%u issue structures, not 1", tid,
                               (unsigned long long)live[tid][i]->op.seq,
                               holders[tid][i]));
        }
    }
}

void
Pipeline::startWindow()
{
    for (Thread &th : threads_) {
        th.result = RunResult{};
        th.result.config = params_.regFileBackend;
    }
    machineAccounting_ = CycleAccounting{};
    cycle_ = 0;
    committedTotal_ = 0;
    lastCommitCount_ = 0;
    lastProgressCycle_ = 0;
    maxRecoveryWait_ = 0;
    liveLong_.reset();
    liveShort_.reset();
}

void
Pipeline::beginRun(const std::string &workload_name,
                   CycleObserver *observer)
{
    if (numThreads_ != 1)
        panic("Pipeline::beginRun: the lane interface drives one thread, "
              "not %u", numThreads_);
    startWindow();
    threads_[0].result.workload = workload_name;
    observer_ = observer;
}

void
Pipeline::stepCycle(FetchStream &stream)
{
    threads_[0].stream = &stream;
    step();
}

void
Pipeline::step()
{
    Cycle cur = cycle_;

    // Exact idle-cycle skip: when every stage provably no-ops until a
    // known future cycle, jump the clock in O(1) and advance the
    // per-cycle statistics by the same amounts the stepped loop would
    // have accumulated. The per-cycle observer (live-value oracle)
    // samples mid-stretch, so its presence forces stepping.
    Cycle span = 1;
    if (fastPath_ && !observer_) {
        Cycle next = quiescentUntil(cur);
        // Never jump past the cycle the stepped loop's watchdog would
        // have fired on.
        Cycle cap = lastProgressCycle_ + watchdogCycles + 1;
        if (next > cap)
            next = cap;
        if (next > cur + 1)
            span = next - cur;
    }

    // Attribute the cycles before any stage runs: per thread (each
    // thread's buckets sum to the machine cycles) and machine-level
    // (the most-productive bucket across threads).
    unsigned machine = CycleAccounting::FetchEmpty;
    for (Thread &th : threads_) {
        unsigned bucket = classify(th);
        th.result.cycleAccounting.counts[bucket] += span;
        machine = std::min(machine, bucket);
    }
    machineAccounting_.counts[machine] += span;

    if (span > 1) {
        regfile::RegisterFile::Occupancy occ = intRf_->occupancy();
        liveLong_.sampleN(occ.liveLong, span);
        liveShort_.sampleN(occ.liveShort, span);
        RunResult &first = threads_[0].result;
        ++first.fastPathSkips;
        first.fastPathSkippedCycles += span;
        rrCounter_ = static_cast<unsigned>((rrCounter_ + span) %
                                           numThreads_);
        cycle_ += span;
        return;
    }

    intRf_->beginCycle();
    doCommit();
    doWriteback(cur);
    doIssue(cur);
    doRename(cur);
    doFetch(cur);

    if (observer_ && params_.oracleSamplePeriod &&
        cur % params_.oracleSamplePeriod == 0) {
        observer_->sampleCycle(cur, *intRf_);
    }
    regfile::RegisterFile::Occupancy occ = intRf_->occupancy();
    liveLong_.sample(occ.liveLong);
    liveShort_.sample(occ.liveShort);
    if (checkEveryCycle_)
        checkInvariants();

    if (committedTotal_ != lastCommitCount_) {
        lastCommitCount_ = committedTotal_;
        lastProgressCycle_ = cur;
    } else if (cur - lastProgressCycle_ > watchdogCycles) {
        watchdogPanic();
    }
    if (++rrCounter_ == numThreads_)
        rrCounter_ = 0;
    ++cycle_;
}

void
Pipeline::watchdogPanic() const
{
    auto stuck = std::find_if(threads_.begin(), threads_.end(),
                              [](const Thread &th) { return !th.rob.empty(); });
    if (stuck == threads_.end()) {
        panic("pipeline: no commit for %llu cycles, ROB empty",
              (unsigned long long)watchdogCycles);
    }
    const InFlightInst &head = stuck->rob.head();
    std::string src_state = "";
    auto describe = [&](const char *name, u32 tag, bool is_fp) {
        if (tag == invalidIndex)
            return;
        const TagInfo &ti = tagInfo(tag, is_fp);
        src_state += strprintf(" %s[tag=%u st=%d c=%llu r=%llu]", name, tag,
                               (int)ti.state,
                               (unsigned long long)ti.completeCycle,
                               (unsigned long long)ti.rfReadableCycle);
    };
    describe("src1", head.src1Tag, head.src1IsFp);
    describe("src2", head.src2Tag, head.src2IsFp);
    panic("pipeline: no commit for %llu cycles: thread %zu head seq %llu "
          "op %s state %d stallIssue %d%s",
          (unsigned long long)watchdogCycles,
          static_cast<size_t>(stuck - threads_.begin()),
          (unsigned long long)head.op.seq,
          isa::opcodeName(head.op.op).c_str(), (int)head.state,
          (int)intRf_->shouldStallIssue(), src_state.c_str());
}

void
Pipeline::closeWindow()
{
    for (Thread &th : threads_) {
        RunResult &r = th.result;
        r.cycles = cycle_;
        r.ipc = cycle_ ? static_cast<double>(r.committedInsts) / cycle_
                       : 0.0;
        // The file is shared, so its occupancy averages describe the
        // run, not a thread; replicated so any thread's record reads
        // like a solo RunResult.
        r.avgLiveLong = liveLong_.mean();
        r.avgLiveShort = liveShort_.mean();
    }
    // Shared-file access counts and allocation/port totals land on
    // the first thread's record (and thus on the aggregate).
    RunResult &first = threads_[0].result;
    first.intRfAccesses = intRf_->accessCounts();
    first.shortFileWrites = intRf_->shortAllocWrites();
    regfile::RegisterFile::PortStats ps = intRf_->portStats();
    first.portConflictOps = ps.conflictOps;
    first.portConflictCycles = ps.conflictCycles;
}

RunResult
Pipeline::finishRun()
{
    closeWindow();
    observer_ = nullptr;
    return threads_[0].result;
}

RunResult
Pipeline::run(emu::TraceSource &source, CycleObserver *observer)
{
    FetchStream &stream = serialStream(source);
    beginRun(source.name(), observer);
    while (active())
        stepCycle(stream);
    return finishRun();
}

SmtResult
Pipeline::run(std::vector<emu::TraceSource *> sources,
              bool stop_on_first_drain)
{
    if (sources.size() != numThreads_)
        fatal("Pipeline::run: %zu sources for %u threads",
              sources.size(), numThreads_);
    BranchPredictors predictors(params_);
    std::vector<ThreadFetchStream> streams;
    streams.reserve(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        streams.emplace_back(*sources[t], predictors, t);
        threads_[t].stream = &streams[t];
    }
    startWindow();
    for (unsigned t = 0; t < numThreads_; ++t)
        threads_[t].result.workload = sources[t]->name();

    auto stopped = [&] {
        bool any_drained = false, all_drained = true;
        for (const Thread &th : threads_) {
            bool d = th.drained();
            any_drained |= d;
            all_drained &= d;
        }
        return stop_on_first_drain ? any_drained : all_drained;
    };
    while (!stopped())
        step();
    closeWindow();

    SmtResult result;
    result.cycles = cycle_;
    for (Thread &th : threads_) {
        result.threads.push_back(th.result);
        th.stream = nullptr;
    }
    result.sharing = intRf_->sharingStats();
    result.maxRecoveryWait = maxRecoveryWait_;
    result.machineAccounting = machineAccounting_;
    return result;
}

} // namespace carf::core

#include "core/pipeline.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.hh"
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
/** Fetch buffer capacity in instructions. */
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

} // namespace

Pipeline::Pipeline(const CoreParams &params)
    : params_(params),
      intMap_(isa::numArchRegs, params.physIntRegs),
      fpMap_(isa::numArchRegs, params.physFpRegs),
      intTags_(params.physIntRegs),
      fpTags_(params.physFpRegs),
      rob_(params.robSize, fetchBufferCap),
      intIq_(params.intIqSize),
      fpIq_(params.fpIqSize),
      lsq_(params.lsqSize),
      memory_(params.memory)
{
    dispatched_.reserve(params.robSize);
    pendingWb_.reserve(params.robSize);
    parked_.reserve(params.robSize);
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

    // Architectural registers start live with value zero (matching
    // the emulator's initial state).
    for (u32 tag = 0; tag < isa::numArchRegs; ++tag) {
        intRf_->write(tag, 0);
        fpRf_->write(tag, 0);
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
    return intRf_->peekValue(intMap_.lookup(idx));
}

u64
Pipeline::archFpReg(unsigned idx) const
{
    return fpRf_->peekValue(fpMap_.lookup(idx));
}

void
Pipeline::gatherSources(const InFlightInst &inst, SourceView &s1,
                        SourceView &s2) const
{
    s1 = SourceView{};
    s2 = SourceView{};
    if (inst.src1Tag != invalidIndex) {
        s1.used = true;
        s1.tag = inst.src1Tag;
        s1.isFp = inst.src1IsFp;
        s1.value = inst.op.rs1Value;
    }
    if (inst.src2Tag != invalidIndex) {
        s2.used = true;
        s2.tag = inst.src2Tag;
        s2.isFp = inst.src2IsFp;
        s2.value = inst.op.rs2Value;
    }
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

void
Pipeline::doCommit(Cycle cur)
{
    (void)cur;
    unsigned budget = params_.commitWidth;
    while (budget > 0 && !rob_.empty()) {
        InFlightInst &head = rob_.head();
        if (head.state != InstState::WrittenBack)
            break;

        if (head.hasDest()) {
            if (head.destIsFp) {
                fpRf_->release(head.oldDestTag);
                fpMap_.releaseTag(head.oldDestTag);
            } else {
                intRf_->release(head.oldDestTag);
                intMap_.releaseTag(head.oldDestTag);
            }
        }
        if (head.op.isLoad())
            lsq_.commitLoad();
        else if (head.op.isStore())
            lsq_.commitStore(head.op.seq);

        ++result_.committedInsts;
        ++committedSinceInterval_;
        if (committedSinceInterval_ >= rob_.capacity()) {
            committedSinceInterval_ = 0;
            intRf_->onRobInterval();
        }

        rob_.popHead();
        --budget;
    }
}

bool
Pipeline::tryWriteback(InFlightInst &inst, Cycle cur,
                       unsigned &int_ports, unsigned &fp_ports)
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
    regfile::WriteAccess access =
        intRf_->write(inst.destTag, inst.op.rdValue);
    if (access.stalled) {
        // Long file exhausted. If this is the ROB head nothing
        // can free an entry: pseudo-deadlock recovery (§3.2).
        if (&inst == &rob_.head()) {
            access = intRf_->writeForced(inst.destTag, inst.op.rdValue);
        } else {
            inst.wbStalledOnLong = true;
            return false; // port not consumed; retry next cycle
        }
    }
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

    // pendingWb_ is the Issued subset of the ROB in age order, so
    // this visits exactly the instructions the full-ROB scan did, in
    // the same order, and makes identical port-arbitration decisions.
    size_t keep = 0;
    for (size_t i = 0; i < pendingWb_.size(); ++i) {
        if (!tryWriteback(*pendingWb_[i], cur, int_ports, fp_ports))
            pendingWb_[keep++] = pendingWb_[i];
    }
    pendingWb_.resize(keep);
}

void
Pipeline::unpark(InFlightInst *inst)
{
    dispatched_.insert(
        std::upper_bound(dispatched_.begin(), dispatched_.end(), inst,
                         [](const InFlightInst *a,
                            const InFlightInst *b) {
                             return a->op.seq < b->op.seq;
                         }),
        inst);
}

void
Pipeline::restoreFullScan()
{
    dispatched_.clear();
    for (InFlightInst &inst : rob_) {
        if (inst.state != InstState::Dispatched)
            continue;
        dispatched_.push_back(&inst);
        // Every waiter list hangs off the dest tag of a Dispatched
        // producer, so this empties them all.
        if (inst.hasDest())
            tagInfo(inst.destTag, inst.destIsFp).waiters = nullptr;
    }
    parked_.clear();
    waiting_ = 0;
}

void
Pipeline::doIssue(Cycle cur)
{
    unsigned budget = params_.issueWidth;
    unsigned int_fu = params_.intFuCount;
    unsigned fp_fu = params_.fpFuCount;
    unsigned mem_ports = memory_.dl1Ports();
    unsigned int_read_ports = params_.intRfReadPorts;
    unsigned fp_read_ports = params_.fpRfReadPorts;

    bool stall_int_writers = intRf_->shouldStallIssue();
    bool long_stall_seen = false;

    if (stall_int_writers) {
        // The Long issue-stall path inspects every dispatched
        // instruction (long_stall_seen): restore the full scan.
        if (!parked_.empty() || waiting_ != 0)
            restoreFullScan();
    } else {
        while (!parked_.empty() && parked_.front().first <= cur) {
            unpark(parked_.front().second);
            std::pop_heap(parked_.begin(), parked_.end(), ParkOrder{});
            parked_.pop_back();
        }
    }

    Cycle exec = cur + params_.regReadStages;

    // dispatched_ is the Dispatched subset of the ROB in age order,
    // less instructions whose check cannot pass this cycle: same
    // arbitration decisions as the full-ROB scan, without touching
    // issued/completed or provably blocked entries.
    size_t scan = 0;
    size_t keep = 0;
    for (; scan < dispatched_.size() && budget > 0; ++scan) {
        InFlightInst &inst = *dispatched_[scan];
        // Assume the instruction stays dispatched; the issue path at
        // the bottom un-keeps it.
        dispatched_[keep++] = &inst;

        bool fpq = usesFpQueue(inst.op.op);
        bool is_load = inst.op.isLoad();
        bool is_store = inst.op.isStore();
        bool is_mem = is_load || is_store;

        if (fpq ? fp_fu == 0 : int_fu == 0)
            continue;
        if (is_mem && mem_ports == 0)
            continue;
        // The ROB head is exempt from the free-Long issue stall:
        // stalling it would deadlock (younger completed instructions
        // hold Long entries they can only release by committing
        // behind the head). The head's writeback can always fall back
        // to the forced-recovery path.
        if (stall_int_writers && inst.writesIntDest() &&
            &inst != &rob_.head()) {
            long_stall_seen = true;
            continue;
        }

        SourceView s1, s2;
        gatherSources(inst, s1, s2);

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
                ++waiting_;
            } else if (retry > cur + parkThreshold) {
                --keep;
                parked_.emplace_back(retry, &inst);
                std::push_heap(parked_.begin(), parked_.end(),
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
        if (need_int_rd > int_read_ports || need_fp_rd > fp_read_ports)
            continue;
        // The model may impose its own per-cycle port limit below the
        // core's (port-reduction backends); a refusal is a conflict
        // stall and the instruction retries next cycle.
        if (need_int_rd != 0 && !intRf_->canServeReads(need_int_rd))
            continue;

        Cycle latency = inst.op.info().latency;
        if (is_load) {
            Cycle dep_ready = 0;
            if (!lsq_.loadReadyCycle(inst.op.seq, inst.op.effAddr,
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
        --budget;
        if (fpq)
            --fp_fu;
        else
            --int_fu;
        if (is_mem)
            --mem_ports;
        int_read_ports -= need_int_rd;
        fp_read_ports -= need_fp_rd;
        if (need_int_rd != 0)
            intRf_->consumeReadPorts(need_int_rd);

        inst.state = InstState::Issued;
        inst.issueCycle = cur;
        inst.completeCycle = exec + latency;
        (fpq ? fpIq_ : intIq_).remove();

        // Issue order across cycles is not age order, so keep the
        // writeback list sorted by seq (= age) as entries arrive.
        pendingWb_.insert(
            std::upper_bound(pendingWb_.begin(), pendingWb_.end(),
                             &inst,
                             [](const InFlightInst *a,
                                const InFlightInst *b) {
                                 return a->op.seq < b->op.seq;
                             }),
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
                parked_.emplace_back(wake, w);
                std::push_heap(parked_.begin(), parked_.end(),
                               ParkOrder{});
                --waiting_;
            }
            ti.waiters = nullptr;
        }

        auto consume_src = [&](const SourceView &s, OperandSource so) {
            if (!s.used)
                return;
            result_.bypass.record(so, s.isFp);
            if (so == OperandSource::RegFile) {
                regfile::RegisterFile &rf = s.isFp ? *fpRf_ : *intRf_;
                regfile::ReadAccess read = rf.read(s.tag);
                if (read.value != s.value) {
                    panic("operand mismatch: seq %llu tag %u "
                          "rf=%llx trace=%llx",
                          (unsigned long long)inst.op.seq, s.tag,
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
            result_.operandMix.record(has(ValueType::Simple),
                                      has(ValueType::Short),
                                      has(ValueType::Long));

            // Clustering estimate: steer the instruction to the
            // cluster holding (the majority of) its integer operands;
            // with two differing operands, prefer the cluster of the
            // result type so the writeback stays local, and the other
            // operand crosses.
            if (u1 && u2) {
                if (t1 == t2) {
                    result_.cluster.localOperands += 2;
                } else {
                    ++result_.cluster.localOperands;
                    ++result_.cluster.crossOperands;
                }
            } else if (u1 || u2) {
                ++result_.cluster.localOperands;
            }
        }

        if (is_mem)
            intRf_->noteAddress(inst.op.effAddr);
        if (is_store)
            lsq_.storeIssued(inst.op.seq, inst.completeCycle);

        if (!inst.predictedCorrect) {
            fetchResumeCycle_ = inst.completeCycle;
            pendingRedirect_ = false;
        }
    }

    // Budget exhausted: keep the unexamined tail.
    for (; scan < dispatched_.size(); ++scan)
        dispatched_[keep++] = dispatched_[scan];
    dispatched_.resize(keep);

    if (long_stall_seen)
        ++result_.issueStallCycles;
}

void
Pipeline::doRename(Cycle cur)
{
    unsigned budget = params_.fetchWidth;
    while (budget > 0 && !rob_.fetchEmpty()) {
        const InFlightInst &fetched = rob_.fetchFront();
        if (fetched.fetchCycle + params_.frontendDepth > cur)
            break;
        if (rob_.full())
            break;

        const DynOp &op = fetched.op;
        const isa::OpInfo &info = isa::opInfo(op.op);
        bool fpq = usesFpQueue(op.op);
        IssueQueue &iq = fpq ? fpIq_ : intIq_;
        if (iq.full())
            break;
        bool is_mem = op.isLoad() || op.isStore();
        if (is_mem && lsq_.full())
            break;
        bool int_dest = op.writesIntReg();
        bool fp_dest = op.writesFpReg();
        if (int_dest && !intMap_.canRename())
            break;
        if (fp_dest && !fpMap_.canRename())
            break;

        // The fetched slot becomes the ROB entry in place (op stays
        // valid: it is that slot's record).
        InFlightInst &inst = rob_.dispatch(cur);
        dispatched_.push_back(&inst);

        if (info.rs1Class == isa::RegClass::Int) {
            if (op.rs1 != 0) {
                inst.src1Tag = intMap_.lookup(op.rs1);
                inst.src1IsFp = false;
            }
        } else if (info.rs1Class == isa::RegClass::Fp) {
            inst.src1Tag = fpMap_.lookup(op.rs1);
            inst.src1IsFp = true;
        }
        if (info.rs2Class == isa::RegClass::Int) {
            if (op.rs2 != 0) {
                inst.src2Tag = intMap_.lookup(op.rs2);
                inst.src2IsFp = false;
            }
        } else if (info.rs2Class == isa::RegClass::Fp) {
            inst.src2Tag = fpMap_.lookup(op.rs2);
            inst.src2IsFp = true;
        }

        if (int_dest) {
            inst.destTag = intMap_.rename(op.rd, inst.oldDestTag);
            inst.destIsFp = false;
            tagInfo(inst.destTag, false).state = TagInfo::State::Pending;
        } else if (fp_dest) {
            inst.destTag = fpMap_.rename(op.rd, inst.oldDestTag);
            inst.destIsFp = true;
            tagInfo(inst.destTag, true).state = TagInfo::State::Pending;
        }

        iq.insert();
        if (op.isLoad())
            lsq_.dispatchLoad(op.seq);
        else if (op.isStore())
            lsq_.dispatchStore(op.seq, op.effAddr, info.memBytes);

        --budget;
    }
}

void
Pipeline::doFetch(Cycle cur, FetchStream &stream)
{
    static_assert(instBytes > 0);
    if (traceExhausted_ || pendingRedirect_ || cur < fetchResumeCycle_)
        return;

    unsigned budget = params_.fetchWidth;
    unsigned line_shift = 6; // 64B fetch lines

    // One call consumes at most fetchWidth stream records (each
    // iteration pulls at most one, and at most fetchWidth iterations
    // make progress); the lockstep chunk pause relies on this bound.
    while (budget > 0 && !rob_.fetchFull()) {
        // Records are materialized straight into the window slot they
        // keep until commit. A record stashed by an I-miss is still in
        // that slot: rename and commit never move the fetch tail.
        InFlightInst &entry = rob_.fetchTail();
        if (pendingFetchValid_) {
            pendingFetchValid_ = false;
        } else if (!stream.next(entry)) {
            traceExhausted_ = true;
            return;
        }
        const DynOp &op = entry.op;

        u64 line = (op.pc * instBytes) >> line_shift;
        if (line != lastFetchLine_) {
            Cycle lat = memory_.instAccess(op.pc * instBytes);
            lastFetchLine_ = line;
            if (lat > params_.memory.il1.hitLatency) {
                // I-cache miss: leave the record in the (uncounted)
                // fetch tail and stall.
                pendingFetchValid_ = true;
                lastFetchLine_ = ~u64{0}; // re-check after refill
                fetchResumeCycle_ = cur + lat;
                return;
            }
        }

        if (entry.isCondBranch) {
            ++result_.condBranches;
            if (!entry.predictedCorrect)
                ++result_.branchMispredicts;
        }
        entry.fetchCycle = cur;
        rob_.pushFetched();
        --budget;

        if (!entry.predictedCorrect) {
            pendingRedirect_ = true;
            return;
        }
        if (op.isBranch() && op.taken)
            return; // taken branch ends the fetch group
    }
}

void
Pipeline::warmUp(emu::TraceSource &source, u64 insts)
{
    warmUp(serialStream(source), insts);
}

void
Pipeline::warmUp(FetchStream &stream, u64 insts)
{
    WarmupScratch scratch;
    warmUpRange(stream, insts, scratch);
    finishWarmUp(scratch);
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
    // window reads consistent register state.
    for (unsigned r = 0; r < isa::numArchRegs; ++r) {
        if (scratch.intSet[r]) {
            u32 tag = intMap_.lookup(r);
            intRf_->release(tag);
            regfile::WriteAccess access =
                intRf_->write(tag, scratch.intVals[r]);
            if (access.stalled)
                intRf_->writeForced(tag, scratch.intVals[r]);
        }
        if (scratch.fpSet[r]) {
            u32 tag = fpMap_.lookup(r);
            fpRf_->release(tag);
            fpRf_->write(tag, scratch.fpVals[r]);
        }
    }
}

void
Pipeline::finishWarmUp(const WarmupScratch &scratch)
{
    installWarmState(scratch);
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
    result_ = RunResult{};
}

void
Pipeline::resetForResume()
{
    if (!rob_.empty() || !rob_.fetchEmpty() || pendingFetchValid_)
        panic("resetForResume: lane still has work in flight");
    traceExhausted_ = false;
    // Fetch pacing latches from the drained episode are stale; the
    // redirect latch is provably clear (it drops when the mispredicted
    // branch issues, and a drained ROB has issued everything), and the
    // I-miss stash is empty by active()'s definition.
    fetchResumeCycle_ = 0;
    lastFetchLine_ = ~u64{0};
    // No cycles elapse during a functional gap, but re-arm the
    // watchdog base so episode boundaries never look like hangs.
    lastProgressCycle_ = cycle_;
}

unsigned
Pipeline::classifyCycle() const
{
    if (!rob_.empty()) {
        const InFlightInst &head = rob_.head();
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
        return rob_.full() ? CycleAccounting::RobFull
                           : CycleAccounting::IssueBound;
    }
    if (!rob_.fetchEmpty())
        return CycleAccounting::FrontendFill;
    if (pendingFetchValid_)
        return CycleAccounting::IcacheWait;
    return CycleAccounting::FetchEmpty;
}

Cycle
Pipeline::quiescentUntil(Cycle cur) const
{
    // Commit: a written-back head commits this very cycle.
    if (!rob_.empty() && rob_.head().state == InstState::WrittenBack)
        return 0;

    // Issue: any dispatched candidate gets scanned each cycle, and a
    // scan can consume model read-port budget or issue outright —
    // only a window whose waiting instructions are all parked (known
    // wake cycles) or on waiter lists is skippable. A waiter wakes
    // only when its producer issues; the oldest producer of every
    // chain is dispatched or parked, so the parked bound covers it.
    if (!dispatched_.empty())
        return 0;

    // A Long issue-stall cycle with parked or waiting instructions
    // restores the full scan and counts issueStallCycles per cycle:
    // never skip it.
    if ((!parked_.empty() || waiting_ != 0) && intRf_->shouldStallIssue())
        return 0;

    // Fetch: eligible to pull a record right now — step. (A redirect
    // blocks fetch until the mispredicted branch issues, which is
    // bounded by the parked/writeback candidates below; a full fetch
    // buffer blocks until rename drains it, bounded likewise.)
    if (!traceExhausted_ && !pendingRedirect_ && !rob_.fetchFull() &&
        cur >= fetchResumeCycle_)
        return 0;

    Cycle next = ~Cycle{0};
    auto candidate = [&next](Cycle c) { next = std::min(next, c); };

    if (!traceExhausted_ && !pendingRedirect_ && !rob_.fetchFull())
        candidate(fetchResumeCycle_);

    if (!parked_.empty())
        candidate(parked_.front().first);

    // Writeback: every issued instruction must complete strictly
    // later. An already-complete entry (including a Long-stalled one)
    // retries every cycle, and retries touch model counters — step.
    for (const InFlightInst *inst : pendingWb_) {
        if (inst->completeCycle <= cur)
            return 0;
        candidate(inst->completeCycle);
    }

    // Rename: blocked on pipeline depth until a known cycle, or on a
    // structural resource (ROB/IQ/LSQ/free list) whose release needs
    // a commit/issue/writeback event already bounded above.
    if (!rob_.fetchEmpty()) {
        const InFlightInst &fetched = rob_.fetchFront();
        Cycle ready = fetched.fetchCycle + params_.frontendDepth;
        if (ready > cur) {
            candidate(ready);
        } else {
            const DynOp &op = fetched.op;
            bool blocked =
                rob_.full() ||
                (usesFpQueue(op.op) ? fpIq_ : intIq_).full() ||
                ((op.isLoad() || op.isStore()) && lsq_.full()) ||
                (op.writesIntReg() && !intMap_.canRename()) ||
                (op.writesFpReg() && !fpMap_.canRename());
            if (!blocked)
                return 0; // rename makes progress this cycle
        }
    }

    if (next == ~Cycle{0})
        return 0; // nothing can bound the next event
    return next;
}

void
Pipeline::checkIssueInvariants() const
{
    // The window: both regions within capacity, and every fetched
    // entry stamped no later than now.
    if (rob_.size() > params_.robSize ||
        rob_.fetchSize() > fetchBufferCap) {
        panic("window invariant: %zu ROB and %zu fetched entries exceed "
              "%u + %u slots (cycle %llu)",
              rob_.size(), rob_.fetchSize(), params_.robSize,
              fetchBufferCap, (unsigned long long)cycle_);
    }
    for (size_t i = 0; i < rob_.fetchSize(); ++i) {
        if (rob_.fetched(i).fetchCycle > cycle_) {
            panic("window invariant: fetched seq %llu has fetchCycle "
                  "%llu (cycle %llu)",
                  (unsigned long long)rob_.fetched(i).op.seq,
                  (unsigned long long)rob_.fetched(i).fetchCycle,
                  (unsigned long long)cycle_);
        }
    }
    // Every pointer the issue and writeback bookkeeping holds is a ROB
    // slot, never a fetched entry or the I-miss stash past them.
    auto in_rob = [&](const InFlightInst *inst, const char *where) {
        if (!rob_.inRob(inst)) {
            panic("window invariant: %s points outside the ROB region "
                  "(cycle %llu)",
                  where, (unsigned long long)cycle_);
        }
    };
    size_t issued = 0;
    for (const InFlightInst &inst : rob_)
        issued += inst.state == InstState::Issued;
    if (pendingWb_.size() != issued) {
        panic("issue invariant: %zu Issued ROB entries but pendingWb_ "
              "holds %zu (cycle %llu)",
              issued, pendingWb_.size(), (unsigned long long)cycle_);
    }
    for (size_t i = 0; i < pendingWb_.size(); ++i) {
        in_rob(pendingWb_[i], "pendingWb_");
        if (pendingWb_[i]->state != InstState::Issued ||
            (i > 0 && pendingWb_[i - 1]->op.seq >= pendingWb_[i]->op.seq)) {
            panic("issue invariant: pendingWb_ entry %zu is not Issued "
                  "or not in seq order (cycle %llu)",
                  i, (unsigned long long)cycle_);
        }
    }

    // The Dispatched ROB entries, in age (= seq) order, and how many
    // issue structures hold each one.
    std::vector<const InFlightInst *> live;
    for (const InFlightInst &inst : rob_) {
        if (inst.state == InstState::Dispatched)
            live.push_back(&inst);
    }
    std::vector<unsigned> holders(live.size(), 0);
    auto hold = [&](const InFlightInst *inst, const char *where) {
        in_rob(inst, where);
        auto it = std::lower_bound(
            live.begin(), live.end(), inst,
            [](const InFlightInst *a, const InFlightInst *b) {
                return a->op.seq < b->op.seq;
            });
        if (it == live.end() || *it != inst) {
            panic("issue invariant: %s holds an instruction that is not "
                  "a Dispatched ROB entry (cycle %llu)",
                  where, (unsigned long long)cycle_);
        }
        ++holders[it - live.begin()];
    };

    for (size_t i = 0; i < dispatched_.size(); ++i) {
        hold(dispatched_[i], "dispatched_");
        if (i > 0 && dispatched_[i - 1]->op.seq >= dispatched_[i]->op.seq) {
            panic("issue invariant: dispatched_ not sorted by seq at "
                  "index %zu (cycle %llu)",
                  i, (unsigned long long)cycle_);
        }
    }
    for (const auto &entry : parked_)
        hold(entry.second, "parked_");

    size_t listed = 0;
    auto walk = [&](const std::vector<TagInfo> &tags, const char *file) {
        for (size_t tag = 0; tag < tags.size(); ++tag) {
            const TagInfo &ti = tags[tag];
            if (ti.waiters && ti.state != TagInfo::State::Pending) {
                panic("issue invariant: %s tag %zu has waiters but is "
                      "not Pending (cycle %llu)",
                      file, tag, (unsigned long long)cycle_);
            }
            for (const InFlightInst *w = ti.waiters; w; w = w->nextWaiter) {
                hold(w, "a waiter list");
                if (++listed > live.size()) {
                    panic("issue invariant: waiter lists hold more "
                          "entries than the ROB (cycle %llu)",
                          (unsigned long long)cycle_);
                }
            }
        }
    };
    walk(intTags_, "int");
    walk(fpTags_, "fp");
    if (listed != waiting_) {
        panic("issue invariant: waiting count %zu but the lists hold "
              "%zu (cycle %llu)",
              waiting_, listed, (unsigned long long)cycle_);
    }

    for (size_t i = 0; i < live.size(); ++i) {
        if (holders[i] != 1) {
            panic("issue invariant: Dispatched seq %llu is held by %u "
                  "issue structures, not 1 (cycle %llu)",
                  (unsigned long long)live[i]->op.seq, holders[i],
                  (unsigned long long)cycle_);
        }
    }
}

void
Pipeline::beginRun(const std::string &workload_name,
                   CycleObserver *observer)
{
    result_ = RunResult{};
    result_.workload = workload_name;
    result_.config = params_.regFileBackend;
    observer_ = observer;
    cycle_ = 0;
    lastCommitCount_ = 0;
    lastProgressCycle_ = 0;
    liveLong_.reset();
    liveShort_.reset();
}

void
Pipeline::stepCycle(FetchStream &stream)
{
    Cycle cur = cycle_;
    unsigned bucket = classifyCycle();

    // Exact idle-cycle skip: when every stage provably no-ops until a
    // known future cycle, jump the clock in O(1) and advance the
    // per-cycle statistics by the same amounts the stepped loop would
    // have accumulated. The per-cycle observer (live-value oracle)
    // samples mid-stretch, so its presence forces stepping.
    if (fastPath_ && !observer_) {
        Cycle next = quiescentUntil(cur);
        if (next != 0) {
            // Never jump past the cycle the stepped loop's watchdog
            // would have fired on.
            Cycle cap = lastProgressCycle_ + watchdogCycles + 1;
            if (next > cap)
                next = cap;
            if (next > cur + 1) {
                Cycle span = next - cur;
                result_.cycleAccounting.counts[bucket] += span;
                regfile::RegisterFile::Occupancy occ =
                    intRf_->occupancy();
                liveLong_.sampleN(occ.liveLong, span);
                liveShort_.sampleN(occ.liveShort, span);
                ++result_.fastPathSkips;
                result_.fastPathSkippedCycles += span;
                cycle_ = next;
                return;
            }
        }
    }

    ++result_.cycleAccounting.counts[bucket];
    intRf_->beginCycle();
    doCommit(cur);
    doWriteback(cur);
    doIssue(cur);
    doRename(cur);
    doFetch(cur, stream);

    if (observer_ && params_.oracleSamplePeriod &&
        cur % params_.oracleSamplePeriod == 0) {
        observer_->sampleCycle(cur, *intRf_);
    }
    regfile::RegisterFile::Occupancy occ = intRf_->occupancy();
    liveLong_.sample(occ.liveLong);
    liveShort_.sample(occ.liveShort);

    if (result_.committedInsts != lastCommitCount_) {
        lastCommitCount_ = result_.committedInsts;
        lastProgressCycle_ = cur;
    } else if (cur - lastProgressCycle_ > watchdogCycles) {
        if (rob_.empty()) {
            panic("pipeline: no commit for %llu cycles, ROB empty",
                  (unsigned long long)watchdogCycles);
        }
        const InFlightInst &head = rob_.head();
        std::string src_state = "";
        if (head.src1Tag != invalidIndex) {
            const TagInfo &ti = tagInfo(head.src1Tag, head.src1IsFp);
            src_state += strprintf(" src1[tag=%u st=%d c=%llu r=%llu]",
                head.src1Tag, (int)ti.state,
                (unsigned long long)ti.completeCycle,
                (unsigned long long)ti.rfReadableCycle);
        }
        if (head.src2Tag != invalidIndex) {
            const TagInfo &ti = tagInfo(head.src2Tag, head.src2IsFp);
            src_state += strprintf(" src2[tag=%u st=%d c=%llu r=%llu]",
                head.src2Tag, (int)ti.state,
                (unsigned long long)ti.completeCycle,
                (unsigned long long)ti.rfReadableCycle);
        }
        panic("pipeline: no commit for %llu cycles: head seq %llu "
              "op %s state %d stallIssue %d%s",
              (unsigned long long)watchdogCycles,
              (unsigned long long)head.op.seq,
              isa::opcodeName(head.op.op).c_str(), (int)head.state,
              (int)intRf_->shouldStallIssue(), src_state.c_str());
    }
    ++cycle_;
}

RunResult
Pipeline::finishRun()
{
    result_.cycles = cycle_;
    result_.ipc = cycle_ ? static_cast<double>(result_.committedInsts) /
                               cycle_
                         : 0.0;
    result_.intRfAccesses = intRf_->accessCounts();
    result_.shortFileWrites = intRf_->shortAllocWrites();
    result_.longAllocStalls = intRf_->writeStalls();
    result_.recoveries = intRf_->recoveries();
    result_.avgLiveLong = liveLong_.mean();
    result_.avgLiveShort = liveShort_.mean();
    regfile::RegisterFile::PortStats ps = intRf_->portStats();
    result_.portConflictOps = ps.conflictOps;
    result_.portConflictCycles = ps.conflictCycles;
    observer_ = nullptr;
    return result_;
}

RunResult
Pipeline::run(emu::TraceSource &source, CycleObserver *observer)
{
    return run(serialStream(source), observer);
}

RunResult
Pipeline::run(FetchStream &stream, CycleObserver *observer)
{
    beginRun(stream.name(), observer);
    while (active())
        stepCycle(stream);
    return finishRun();
}

} // namespace carf::core

#include "core/smt.hh"

#include <algorithm>

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

constexpr u64 instBytes = 4;
constexpr size_t fetchBufferCap = 32;
constexpr Cycle watchdogCycles = 200000;

} // namespace

double
SmtResult::fairness() const
{
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const RunResult &t : threads) {
        if (first) {
            lo = hi = t.ipc;
            first = false;
        } else {
            lo = std::min(lo, t.ipc);
            hi = std::max(hi, t.ipc);
        }
    }
    return hi > 0.0 ? lo / hi : 0.0;
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

SmtPipeline::SmtPipeline(const CoreParams &params, unsigned num_threads)
    : params_(params),
      numThreads_(num_threads),
      intFreeList_(params.physIntRegs,
                   isa::numArchRegs * num_threads),
      fpFreeList_(params.physFpRegs, isa::numArchRegs * num_threads),
      intTags_(params.physIntRegs),
      fpTags_(params.physFpRegs),
      intIq_(params.intIqSize),
      fpIq_(params.fpIqSize),
      predictors_(params),
      memory_(params.memory),
      threads_(num_threads)
{
    if (num_threads < 1)
        fatal("SmtPipeline: need at least one thread");
    if (params_.physIntRegs <= isa::numArchRegs * num_threads ||
        params_.physFpRegs <= isa::numArchRegs * num_threads) {
        fatal("SmtPipeline: %u threads need more than %u physical "
              "registers", num_threads,
              isa::numArchRegs * num_threads);
    }
    if (params_.intRfReadPorts < 2 || params_.fpRfReadPorts < 2)
        fatal("SmtPipeline: at least 2 read ports are required");

    intRf_ = regfile::makeRegFile(params_.regFileBackend,
                                  params_.regFileParams(), "intRf");
    fpRf_ = std::make_unique<regfile::BaselineRegFile>(
        "fpRf", params_.physFpRegs);
    intRf_->setThreadCount(num_threads);

    unsigned rob_each = params_.robSize / num_threads;
    unsigned lsq_each = params_.lsqSize / num_threads;
    for (unsigned t = 0; t < num_threads; ++t) {
        Thread &thread = threads_[t];
        thread.rob = std::make_unique<Rob>(rob_each);
        thread.lsq = std::make_unique<Lsq>(lsq_each);
        thread.intRat.resize(isa::numArchRegs);
        thread.fpRat.resize(isa::numArchRegs);
        for (unsigned i = 0; i < isa::numArchRegs; ++i) {
            u32 tag = t * isa::numArchRegs + i;
            thread.intRat[i] = tag;
            thread.fpRat[i] = tag;
            intRf_->write(tag, 0);
            fpRf_->write(tag, 0);
        }
    }
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
}

SmtPipeline::~SmtPipeline() = default;

std::vector<unsigned>
SmtPipeline::icountOrder() const
{
    std::vector<unsigned> order(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t)
        order[t] = t;
    std::stable_sort(order.begin(), order.end(),
                     [this](unsigned a, unsigned b) {
                         return threads_[a].iqCount <
                                threads_[b].iqCount;
                     });
    return order;
}

unsigned
SmtPipeline::classifyThread(const Thread &thread, Cycle cur) const
{
    if (!thread.rob->empty()) {
        const InFlightInst &head = thread.rob->head();
        if (head.state == InstState::WrittenBack)
            return CycleAccounting::Commit;
        if (head.state == InstState::Issued) {
            if (head.wbStalledOnLong)
                return CycleAccounting::LongStall;
            if (head.completeCycle > cur)
                return head.op.isLoad() ? CycleAccounting::MemWait
                                        : CycleAccounting::ExecWait;
            return CycleAccounting::WbWait;
        }
        return thread.rob->full() ? CycleAccounting::RobFull
                                  : CycleAccounting::IssueBound;
    }
    if (!thread.fetchBuffer.empty())
        return CycleAccounting::FrontendFill;
    if (thread.pendingFetchValid)
        return CycleAccounting::IcacheWait;
    return CycleAccounting::FetchEmpty;
}

void
SmtPipeline::doCommit(Cycle cur)
{
    (void)cur;
    unsigned budget = params_.commitWidth;
    for (unsigned off = 0; off < numThreads_ && budget > 0; ++off) {
        unsigned tid = (rrCounter_ + off) % numThreads_;
        Thread &thread = threads_[tid];
        while (budget > 0 && !thread.rob->empty()) {
            InFlightInst &head = thread.rob->head();
            if (head.state != InstState::WrittenBack)
                break;
            if (head.hasDest()) {
                if (head.destIsFp) {
                    fpRf_->release(head.oldDestTag);
                    fpFreeList_.release(head.oldDestTag);
                } else {
                    intRf_->release(head.oldDestTag);
                    intFreeList_.release(head.oldDestTag);
                }
            }
            if (head.op.isLoad())
                thread.lsq->commitLoad();
            else if (head.op.isStore())
                thread.lsq->commitStore(head.op.seq);
            ++thread.result.committedInsts;
            // ROB-interval epochs for the shared Short file are driven
            // by aggregate commit progress; the tick fires between
            // commits, exactly as the solo pipeline's does.
            ++committedTick_;
            if (committedTick_ >= params_.robSize) {
                committedTick_ = 0;
                intRf_->onRobInterval();
            }
            thread.rob->popHead();
            --budget;
        }
    }
}

void
SmtPipeline::doWriteback(Cycle cur)
{
    unsigned int_ports = params_.intRfWritePorts;
    unsigned fp_ports = params_.fpRfWritePorts;
    // §3.2 pseudo-deadlock recovery under contention: at most one
    // forced Long grant per cycle, awarded to the first stalled ROB
    // head in rotating thread order. The rotation (rrCounter_
    // advances every cycle) guarantees every thread's head
    // periodically walks first, so no thread can be locked out;
    // headStallWait measures how long any head actually waited.
    bool force_grant_used = false;

    for (unsigned off = 0; off < numThreads_; ++off) {
        unsigned tid = (rrCounter_ + off) % numThreads_;
        Thread &thread = threads_[tid];
        for (InFlightInst &inst : *thread.rob) {
            if (inst.state != InstState::Issued ||
                inst.completeCycle > cur) {
                continue;
            }
            if (!inst.hasDest()) {
                inst.state = InstState::WrittenBack;
                inst.wbCycle = cur;
                continue;
            }
            if (inst.destIsFp) {
                if (fp_ports == 0)
                    continue;
                fpRf_->write(inst.destTag, inst.op.rdValue);
                --fp_ports;
                TagInfo &ti = tagInfo(inst.destTag, true);
                ti.state = TagInfo::State::Done;
                ti.rfReadableCycle = cur + 1;
                inst.state = InstState::WrittenBack;
                inst.wbCycle = cur;
                continue;
            }
            if (int_ports == 0)
                continue;
            intRf_->setActiveThread(tid);
            regfile::WriteAccess access =
                intRf_->write(inst.destTag, inst.op.rdValue);
            if (access.stalled) {
                ++thread.result.longAllocStalls;
                bool at_head = &inst == &thread.rob->head();
                if (at_head && !force_grant_used) {
                    force_grant_used = true;
                    access = intRf_->writeForced(inst.destTag,
                                                 inst.op.rdValue);
                    ++thread.result.recoveries;
                    thread.headStallWait = 0;
                } else {
                    if (at_head) {
                        ++thread.headStallWait;
                        maxRecoveryWait_ = std::max(
                            maxRecoveryWait_, thread.headStallWait);
                    }
                    inst.wbStalledOnLong = true;
                    continue;
                }
            } else if (&inst == &thread.rob->head()) {
                thread.headStallWait = 0;
            }
            --int_ports;
            TagInfo &ti = tagInfo(inst.destTag, false);
            ti.state = TagInfo::State::Done;
            ti.rfReadableCycle = cur + params_.intWbStages;
            inst.state = InstState::WrittenBack;
            inst.wbCycle = cur;
        }
    }
}

bool
SmtPipeline::tryIssueOne(Cycle cur, unsigned tid, InFlightInst &inst,
                         unsigned &int_fu, unsigned &fp_fu,
                         unsigned &mem_ports, unsigned &int_rd,
                         unsigned &fp_rd, bool stall_int_writers)
{
    Thread &thread = threads_[tid];
    bool fpq = usesFpQueue(inst.op.op);
    bool is_load = inst.op.isLoad();
    bool is_store = inst.op.isStore();
    bool is_mem = is_load || is_store;

    if (fpq ? fp_fu == 0 : int_fu == 0)
        return false;
    if (is_mem && mem_ports == 0)
        return false;
    if (stall_int_writers && inst.writesIntDest() &&
        &inst != &thread.rob->head()) {
        thread.longStallSeen = true;
        return false;
    }

    Cycle exec = cur + params_.regReadStages;

    struct Src
    {
        u32 tag;
        bool isFp;
        u64 value;
        bool used;
    };
    Src s1{inst.src1Tag, inst.src1IsFp, inst.op.rs1Value,
           inst.src1Tag != invalidIndex};
    Src s2{inst.src2Tag, inst.src2IsFp, inst.op.rs2Value,
           inst.src2Tag != invalidIndex};

    OperandSource so1 = OperandSource::None;
    OperandSource so2 = OperandSource::None;
    auto check_src = [&](const Src &s, OperandSource &out) {
        if (!s.used) {
            out = OperandSource::None;
            return true;
        }
        const TagInfo &ti =
            s.isFp ? fpTags_[s.tag] : intTags_[s.tag];
        if (ti.state == TagInfo::State::Pending)
            return false;
        if (exec < ti.completeCycle)
            return false;
        unsigned window = s.isFp ? params_.fpBypassWindow()
                                 : params_.intBypassWindow();
        if (exec < ti.completeCycle + window) {
            out = OperandSource::Bypass;
            return true;
        }
        if (ti.state != TagInfo::State::Done ||
            exec - 1 < ti.rfReadableCycle) {
            return false;
        }
        out = OperandSource::RegFile;
        return true;
    };
    if (!check_src(s1, so1) || !check_src(s2, so2))
        return false;

    unsigned need_int_rd = 0, need_fp_rd = 0;
    auto count_port = [&](const Src &s, OperandSource so) {
        if (so != OperandSource::RegFile)
            return;
        (s.isFp ? need_fp_rd : need_int_rd) += 1;
    };
    count_port(s1, so1);
    count_port(s2, so2);
    if (need_int_rd > int_rd || need_fp_rd > fp_rd)
        return false;
    // Model-level per-cycle port limit (port-reduction backends).
    if (need_int_rd != 0 && !intRf_->canServeReads(need_int_rd))
        return false;

    Cycle latency = inst.op.info().latency;
    if (is_load) {
        Cycle dep_ready = 0;
        if (!thread.lsq->loadReadyCycle(inst.op.seq, inst.op.effAddr,
                                        inst.op.info().memBytes,
                                        dep_ready)) {
            return false;
        }
        if (dep_ready > exec)
            return false;
        latency = 1 + memory_.dataAccess(inst.op.effAddr);
    } else if (is_store) {
        latency = 1;
        memory_.dataAccess(inst.op.effAddr);
    }

    // Commit to issuing.
    if (fpq)
        --fp_fu;
    else
        --int_fu;
    if (is_mem)
        --mem_ports;
    int_rd -= need_int_rd;
    fp_rd -= need_fp_rd;
    if (need_int_rd != 0)
        intRf_->consumeReadPorts(need_int_rd);

    inst.state = InstState::Issued;
    inst.issueCycle = cur;
    inst.completeCycle = exec + latency;
    (fpq ? fpIq_ : intIq_).remove();
    --thread.iqCount;
    --(fpq ? thread.fpIqCount : thread.intIqCount);

    if (inst.hasDest()) {
        TagInfo &ti = tagInfo(inst.destTag, inst.destIsFp);
        ti.state = TagInfo::State::Issued;
        ti.completeCycle = inst.completeCycle;
        ti.rfReadableCycle = ~Cycle{0};
    }

    auto consume_src = [&](const Src &s, OperandSource so) {
        if (!s.used)
            return;
        thread.result.bypass.record(so, s.isFp);
        if (so == OperandSource::RegFile) {
            regfile::RegisterFile &rf = s.isFp ? *fpRf_ : *intRf_;
            regfile::ReadAccess read = rf.read(s.tag);
            if (read.value != s.value) {
                panic("smt operand mismatch: tid %u seq %llu tag %u",
                      tid, (unsigned long long)inst.op.seq, s.tag);
            }
        }
    };
    consume_src(s1, so1);
    consume_src(s2, so2);

    // Table 4: source operand type mix over integer operands, and the
    // §6 clustering estimate — same accounting as the solo pipeline,
    // attributed to the issuing thread.
    if (intRf_->hasValueTaxonomy()) {
        bool has_simple = false, has_short = false, has_long = false;
        auto type_of = [&](const Src &s) {
            return intRf_->classifyPeek(s.value);
        };
        auto mix_src = [&](const Src &s) {
            if (!s.used || s.isFp)
                return;
            switch (type_of(s)) {
              case ValueType::Simple: has_simple = true; break;
              case ValueType::Short: has_short = true; break;
              case ValueType::Long: has_long = true; break;
            }
        };
        mix_src(s1);
        mix_src(s2);
        thread.result.operandMix.record(has_simple, has_short,
                                        has_long);

        bool u1 = s1.used && !s1.isFp;
        bool u2 = s2.used && !s2.isFp;
        if (u1 && u2) {
            ValueType t1 = type_of(s1);
            ValueType t2 = type_of(s2);
            if (t1 == t2) {
                thread.result.cluster.localOperands += 2;
            } else {
                ++thread.result.cluster.localOperands;
                ++thread.result.cluster.crossOperands;
            }
        } else if (u1 || u2) {
            ++thread.result.cluster.localOperands;
        }
    }

    if (is_mem) {
        intRf_->setActiveThread(tid);
        intRf_->noteAddress(inst.op.effAddr);
    }
    if (is_store)
        thread.lsq->storeIssued(inst.op.seq, inst.completeCycle);
    if (!inst.predictedCorrect) {
        thread.fetchResumeCycle = inst.completeCycle;
        thread.pendingRedirect = false;
    }
    return true;
}

void
SmtPipeline::doIssue(Cycle cur)
{
    unsigned budget = params_.issueWidth;
    unsigned int_fu = params_.intFuCount;
    unsigned fp_fu = params_.fpFuCount;
    unsigned mem_ports = memory_.dl1Ports();
    unsigned int_rd = params_.intRfReadPorts;
    unsigned fp_rd = params_.fpRfReadPorts;
    bool stall_int_writers = intRf_->shouldStallIssue();

    for (Thread &thread : threads_)
        thread.longStallSeen = false;

    for (unsigned off = 0; off < numThreads_ && budget > 0; ++off) {
        unsigned tid = (rrCounter_ + off) % numThreads_;
        for (InFlightInst &inst : *threads_[tid].rob) {
            if (budget == 0)
                break;
            if (inst.state != InstState::Dispatched ||
                inst.renameCycle >= cur) {
                continue;
            }
            if (tryIssueOne(cur, tid, inst, int_fu, fp_fu, mem_ports,
                            int_rd, fp_rd, stall_int_writers)) {
                --budget;
            }
        }
    }

    for (Thread &thread : threads_) {
        if (thread.longStallSeen)
            ++thread.result.issueStallCycles;
    }
}

bool
SmtPipeline::renameOne(Cycle cur, unsigned tid)
{
    Thread &thread = threads_[tid];
    if (thread.fetchBuffer.empty())
        return false;
    FetchedInst &fetched = thread.fetchBuffer.front();
    if (fetched.fetchCycle + params_.frontendDepth > cur)
        return false;
    if (thread.rob->full())
        return false;

    const DynOp &op = fetched.op;
    const isa::OpInfo &info = isa::opInfo(op.op);
    bool fpq = usesFpQueue(op.op);
    IssueQueue &iq = fpq ? fpIq_ : intIq_;
    if (iq.full())
        return false;
    // Per-thread issue-queue share cap: a dependence-limited thread
    // must not clog the shared scheduler and starve its partners
    // (each partner keeps at least issue-width slots available).
    unsigned reserve = params_.issueWidth * (numThreads_ - 1);
    unsigned cap = iq.capacity() > reserve
                       ? iq.capacity() - reserve
                       : 1;
    if ((fpq ? thread.fpIqCount : thread.intIqCount) >= cap)
        return false;
    bool is_mem = op.isLoad() || op.isStore();
    if (is_mem && thread.lsq->full())
        return false;
    bool int_dest = op.writesIntReg();
    bool fp_dest = op.writesFpReg();
    if (int_dest && intFreeList_.empty())
        return false;
    if (fp_dest && fpFreeList_.empty())
        return false;

    InFlightInst &inst = thread.rob->push(op);
    inst.fetchCycle = fetched.fetchCycle;
    inst.renameCycle = cur;
    inst.predictedCorrect = !fetched.mispredicted;

    if (info.rs1Class == isa::RegClass::Int) {
        if (op.rs1 != 0) {
            inst.src1Tag = thread.intRat[op.rs1];
            inst.src1IsFp = false;
        }
    } else if (info.rs1Class == isa::RegClass::Fp) {
        inst.src1Tag = thread.fpRat[op.rs1];
        inst.src1IsFp = true;
    }
    if (info.rs2Class == isa::RegClass::Int) {
        if (op.rs2 != 0) {
            inst.src2Tag = thread.intRat[op.rs2];
            inst.src2IsFp = false;
        }
    } else if (info.rs2Class == isa::RegClass::Fp) {
        inst.src2Tag = thread.fpRat[op.rs2];
        inst.src2IsFp = true;
    }

    if (int_dest) {
        inst.oldDestTag = thread.intRat[op.rd];
        inst.destTag = intFreeList_.allocate();
        thread.intRat[op.rd] = inst.destTag;
        inst.destIsFp = false;
        tagInfo(inst.destTag, false).state = TagInfo::State::Pending;
    } else if (fp_dest) {
        inst.oldDestTag = thread.fpRat[op.rd];
        inst.destTag = fpFreeList_.allocate();
        thread.fpRat[op.rd] = inst.destTag;
        inst.destIsFp = true;
        tagInfo(inst.destTag, true).state = TagInfo::State::Pending;
    }

    iq.insert();
    ++thread.iqCount;
    ++(fpq ? thread.fpIqCount : thread.intIqCount);
    if (op.isLoad())
        thread.lsq->dispatchLoad(op.seq);
    else if (op.isStore())
        thread.lsq->dispatchStore(op.seq, op.effAddr, info.memBytes);

    thread.fetchBuffer.pop_front();
    return true;
}

void
SmtPipeline::doRename(Cycle cur)
{
    unsigned budget = params_.fetchWidth;
    std::vector<unsigned> order = icountOrder();
    bool progress = true;
    while (budget > 0 && progress) {
        progress = false;
        for (unsigned off = 0; off < numThreads_ && budget > 0; ++off) {
            if (renameOne(cur, order[off])) {
                --budget;
                progress = true;
            }
        }
    }
}

void
SmtPipeline::fetchThread(Cycle cur, unsigned tid, unsigned &budget)
{
    Thread &thread = threads_[tid];
    if (thread.traceExhausted || thread.pendingRedirect ||
        cur < thread.fetchResumeCycle) {
        return;
    }
    unsigned line_shift = 6;
    while (budget > 0 && thread.fetchBuffer.size() < fetchBufferCap) {
        FetchEntry entry;
        if (thread.pendingFetchValid) {
            entry = thread.pendingFetch;
            thread.pendingFetchValid = false;
        } else {
            if (!thread.source->next(entry.op)) {
                thread.traceExhausted = true;
                return;
            }
            // Salt the code addresses before they touch any shared
            // structure; the record then flows through the shared
            // predictors exactly like a solo stream (thread 0's salt
            // is zero, so its predictions are bit-identical to the
            // solo pipeline's).
            entry.op.pc = saltedPc(tid, entry.op.pc);
            entry.op.nextPc = saltedPc(tid, entry.op.nextPc);
            predictors_.predict(entry.op, entry);
        }
        const DynOp &op = entry.op;

        u64 line = (op.pc * instBytes) >> line_shift;
        if (line != thread.lastFetchLine) {
            Cycle lat = memory_.instAccess(op.pc * instBytes);
            thread.lastFetchLine = line;
            if (lat > params_.memory.il1.hitLatency) {
                // I-cache miss: stash the predicted record and stall.
                thread.pendingFetch = entry;
                thread.pendingFetchValid = true;
                thread.lastFetchLine = ~u64{0};
                thread.fetchResumeCycle = cur + lat;
                return;
            }
        }

        if (entry.isCondBranch) {
            ++thread.result.condBranches;
            if (!entry.predictedCorrect)
                ++thread.result.branchMispredicts;
        }
        bool correct = entry.predictedCorrect;

        thread.fetchBuffer.push_back({op, cur, !correct});
        --budget;
        if (!correct) {
            thread.pendingRedirect = true;
            return;
        }
        if (op.isBranch() && op.taken)
            return;
    }
}

void
SmtPipeline::doFetch(Cycle cur)
{
    // ICOUNT fetch: the least-clogging thread may use the full
    // width; leftover slots go to the others.
    unsigned budget = params_.fetchWidth;
    std::vector<unsigned> order = icountOrder();
    for (unsigned off = 0; off < numThreads_ && budget > 0; ++off)
        fetchThread(cur, order[off], budget);
}

SmtResult
SmtPipeline::run(std::vector<emu::TraceSource *> sources,
                 bool stop_on_first_drain)
{
    if (sources.size() != numThreads_)
        fatal("SmtPipeline::run: %zu sources for %u threads",
              sources.size(), numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        threads_[t].source = sources[t];
        threads_[t].result.workload = sources[t]->name();
        threads_[t].result.config = params_.regFileBackend;
    }

    Cycle cur = 0;
    u64 last_total = 0;
    Cycle last_progress = 0;
    liveLong_.reset();
    liveShort_.reset();

    auto should_stop = [&] {
        bool any_drained = false, all_drained = true;
        for (const Thread &t : threads_) {
            bool d = t.drained();
            any_drained |= d;
            all_drained &= d;
        }
        return stop_on_first_drain ? any_drained : all_drained;
    };

    CycleAccounting machine_acc;
    while (!should_stop()) {
        // Attribute the cycle before any stage runs: per thread (each
        // thread's buckets sum to machine cycles) and machine-level
        // (most-productive bucket across threads).
        unsigned machine_bucket = CycleAccounting::FetchEmpty;
        for (Thread &thread : threads_) {
            unsigned b = classifyThread(thread, cur);
            ++thread.result.cycleAccounting.counts[b];
            machine_bucket = std::min(machine_bucket, b);
        }
        ++machine_acc.counts[machine_bucket];

        intRf_->beginCycle();
        doCommit(cur);
        doWriteback(cur);
        doIssue(cur);
        doRename(cur);
        doFetch(cur);

        regfile::RegisterFile::Occupancy occ = intRf_->occupancy();
        liveLong_.sample(occ.liveLong);
        liveShort_.sample(occ.liveShort);

        if (checkInvariantsEveryCycle_) {
            std::string err = intRf_->checkInvariants();
            if (!err.empty()) {
                panic("smt pipeline: invariant violation at cycle "
                      "%llu: %s", (unsigned long long)cur,
                      err.c_str());
            }
        }

        u64 total = 0;
        for (const Thread &t : threads_)
            total += t.result.committedInsts;
        if (total != last_total) {
            last_total = total;
            last_progress = cur;
        } else if (cur - last_progress > watchdogCycles) {
            panic("smt pipeline: no commit for %llu cycles",
                  (unsigned long long)watchdogCycles);
        }
        rrCounter_ = (rrCounter_ + 1) % numThreads_;
        ++cur;
    }

    SmtResult result;
    result.cycles = cur;
    for (Thread &thread : threads_) {
        thread.result.cycles = cur;
        thread.result.ipc =
            cur ? static_cast<double>(thread.result.committedInsts) /
                      cur
                : 0.0;
        // The file is shared, so its occupancy averages describe the
        // run, not a thread; replicated so any thread's record reads
        // like a solo RunResult.
        thread.result.avgLiveLong = liveLong_.mean();
        thread.result.avgLiveShort = liveShort_.mean();
        result.threads.push_back(thread.result);
    }
    // Shared-file access counts and allocation/port totals land on
    // the first thread's record (and thus on the aggregate).
    if (!result.threads.empty()) {
        RunResult &first = result.threads[0];
        first.intRfAccesses = intRf_->accessCounts();
        first.shortFileWrites = intRf_->shortAllocWrites();
        regfile::RegisterFile::PortStats ps = intRf_->portStats();
        first.portConflictOps = ps.conflictOps;
        first.portConflictCycles = ps.conflictCycles;
    }
    result.sharing = intRf_->sharingStats();
    result.maxRecoveryWait = maxRecoveryWait_;
    result.machineAccounting = machine_acc;
    return result;
}

} // namespace carf::core

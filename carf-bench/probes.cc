/**
 * @file
 * Per-layer probes of the traced run. Each probe times the benchmark's
 * own calls into one layer's public functions over the workload's
 * cached traces, so a layer's cost is measured from outside the
 * simulator with no instrumentation inside it.
 */

#include <algorithm>

#include "bench.hh"
#include "core/fetch_stream.hh"
#include "core/pipeline.hh"
#include "core/smt.hh"
#include "mem/hierarchy.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"

namespace carf::bench
{

namespace
{

/** Bytes per instruction in the core's fetch addresses (pc * 4). */
constexpr u64 kInstBytes = 4;

double
nsPer(double seconds, u64 count)
{
    return count ? seconds * 1e9 / static_cast<double>(count) : 0.0;
}

double
fraction(u64 part, u64 whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

/** Order-dependent hash of a dynamic stream, one record at a time. */
u64
mixRecord(u64 hash, const emu::DynOp &op)
{
    u64 v = op.pc ^ (op.rdValue * 31) ^ (op.effAddr * 131) ^
            (static_cast<u64>(op.op) << 56) ^ (op.taken ? 1 : 0);
    return (hash ^ v) * 0x100000001b3ull;
}

std::vector<emu::DynOp>
decode(const TraceRef &trace)
{
    std::vector<emu::DynOp> ops;
    ops.reserve(trace.budget);
    emu::TraceBuffer::Cursor cursor(*trace.buffer, trace.budget);
    emu::DynOp op;
    while (cursor.next(op))
        ops.push_back(op);
    return ops;
}

/** Branch-predictor replay totals. */
struct BranchTotals
{
    double seconds = 0.0;
    u64 ops = 0;
    u64 condBranches = 0;
    u64 mispredicts = 0;
};

void
replayBranches(const std::vector<emu::DynOp> &ops, BranchTotals &totals)
{
    core::BranchPredictors predictors(core::CoreParams::baseline());
    core::FetchEntry entry;
    auto start = Clock::now();
    for (const emu::DynOp &op : ops) {
        predictors.predict(op, entry);
        totals.condBranches += entry.isCondBranch ? 1 : 0;
        totals.mispredicts +=
            entry.isCondBranch && !entry.predictedCorrect ? 1 : 0;
    }
    totals.seconds += secondsSince(start);
    totals.ops += ops.size();
}

/** Cache-hierarchy replay totals. */
struct MemTotals
{
    double seconds = 0.0;
    u64 accesses = 0;
    u64 l1dHits = 0;
    u64 l1dMisses = 0;
    u64 l2Hits = 0;
    u64 l2Misses = 0;
};

void
replayMemory(const std::vector<emu::DynOp> &ops, MemTotals &totals)
{
    const mem::HierarchyParams params =
        core::CoreParams::baseline().memory;
    mem::Hierarchy hierarchy(params);
    unsigned line_shift = 0;
    while ((u64{1} << line_shift) < params.il1.lineBytes)
        ++line_shift;
    u64 last_line = ~u64{0};
    u64 accesses = 0;
    auto start = Clock::now();
    for (const emu::DynOp &op : ops) {
        // The fetch stage touches the I-cache once per new line.
        u64 line = (op.pc * kInstBytes) >> line_shift;
        if (line != last_line) {
            hierarchy.instAccess(op.pc * kInstBytes);
            last_line = line;
            ++accesses;
        }
        if (op.isLoad() || op.isStore()) {
            hierarchy.dataAccess(op.effAddr);
            ++accesses;
        }
    }
    totals.seconds += secondsSince(start);
    totals.accesses += accesses;
    totals.l1dHits += hierarchy.dl1().hits();
    totals.l1dMisses += hierarchy.dl1().misses();
    totals.l2Hits += hierarchy.l2().hits();
    totals.l2Misses += hierarchy.l2().misses();
}

/** Register-file replay totals for one backend. */
struct RegfileTotals
{
    double seconds = 0.0;
    u64 ops = 0;
    regfile::AccessCounts counts;
};

/**
 * Replay integer reads, writes, address notes and releases through
 * backend @p params behind an in-order renamer: each destination takes
 * a free tag and releases the previous mapping at once. Returns false
 * when a read returned another value than the trace's operand.
 */
bool
replayRegfile(const std::vector<emu::DynOp> &ops,
              const core::CoreParams &params, RegfileTotals &totals)
{
    auto rf = regfile::makeRegFile(params.regFileBackend,
                                   params.regFileParams(), "probeRf");
    std::vector<u32> map(isa::numArchRegs);
    std::vector<u32> free_tags;
    for (u32 tag = 0; tag < isa::numArchRegs; ++tag) {
        map[tag] = tag;
        rf->write(tag, 0); // the emulator's initial register state
    }
    for (u32 tag = rf->entries(); tag-- > isa::numArchRegs;)
        free_tags.push_back(tag);
    rf->clearAccessCounts();

    bool values_match = true;
    u64 count = 0;
    u64 since_interval = 0;
    auto read = [&](isa::RegClass cls, u8 reg, u64 value) {
        if (cls != isa::RegClass::Int || reg == 0)
            return;
        values_match &= rf->read(map[reg]).value == value;
        ++count;
    };
    auto start = Clock::now();
    for (const emu::DynOp &op : ops) {
        const isa::OpInfo &info = op.info();
        read(info.rs1Class, op.rs1, op.rs1Value);
        read(info.rs2Class, op.rs2, op.rs2Value);
        if (op.isLoad() || op.isStore()) {
            rf->noteAddress(op.effAddr);
            ++count;
        }
        if (op.writesIntReg()) {
            u32 tag = free_tags.back();
            free_tags.pop_back();
            if (rf->write(tag, op.rdValue).stalled)
                rf->writeForced(tag, op.rdValue);
            rf->release(map[op.rd]);
            free_tags.push_back(map[op.rd]);
            map[op.rd] = tag;
            count += 2;
        }
        if (++since_interval == params.robSize) {
            since_interval = 0;
            rf->onRobInterval();
        }
    }
    totals.seconds += secondsSince(start);
    totals.ops += count;
    const regfile::AccessCounts &c = rf->accessCounts();
    for (unsigned i = 0; i < 3; ++i) {
        totals.counts.reads[i] += c.reads[i];
        totals.counts.writes[i] += c.writes[i];
    }
    return values_match;
}

/**
 * Content-aware (K=48) on an SMT core of @p threads threads. The
 * rename pools scale with the thread count as in bench/ablation_smt;
 * the Long file does not.
 */
core::CoreParams
smtParams(unsigned threads)
{
    core::CoreParams params = core::CoreParams::contentAware();
    params.smtThreads = threads;
    params.physIntRegs = 80 + 32 * threads;
    params.physFpRegs = 96 + 32 * threads;
    return params;
}

} // namespace

void
probeEmu(const std::vector<TraceRef> &traces, Spans &spans,
         Checks &checks, Metrics &out)
{
    SpanScope layer(spans, "emu");
    double emu_s = 0.0, replay_s = 0.0;
    u64 emu_n = 0, replay_n = 0, bytes = 0, records = 0;
    for (const TraceRef &trace : traces) {
        u64 emu_hash = 0, replay_hash = 0, n = 0, m = 0;
        {
            SpanScope span(spans, "emu.makeTrace", layer.id());
            auto start = Clock::now();
            auto source = workloads::makeTrace(*trace.workload, trace.budget);
            emu::DynOp op;
            while (source->next(op)) {
                emu_hash = mixRecord(emu_hash, op);
                ++n;
            }
            emu_s += secondsSince(start);
            span.setCount(n);
        }
        {
            SpanScope span(spans, "emu.cursor", layer.id());
            auto start = Clock::now();
            emu::TraceBuffer::Cursor cursor(*trace.buffer, trace.budget);
            emu::DynOp op;
            while (cursor.next(op)) {
                replay_hash = mixRecord(replay_hash, op);
                ++m;
            }
            replay_s += secondsSince(start);
            span.setCount(m);
        }
        checks.expect(n == m && emu_hash == replay_hash,
                      "emu: streamed and cached traces of " +
                          trace.workload->name + " differ");
        emu_n += n;
        replay_n += m;
        bytes += trace.buffer->memoryBytes();
        records += trace.buffer->size();
    }
    layer.setCount(emu_n);
    out["emu.ns_per_inst"] = {nsPer(emu_s, emu_n), "ns"};
    out["emu.replay_ns_per_inst"] = {nsPer(replay_s, replay_n), "ns"};
    out["emu.trace_bytes_per_inst"] = {fraction(bytes, records), "B"};
}

void
probeOpLayers(const std::vector<TraceRef> &traces, Spans &spans,
              Checks &checks, Metrics &out)
{
    const core::CoreParams backends[] = {core::CoreParams::baseline(),
                                         core::CoreParams::contentAware()};
    BranchTotals branch;
    MemTotals memory;
    RegfileTotals regs[2];
    for (const TraceRef &trace : traces) {
        std::vector<emu::DynOp> ops = decode(trace);
        {
            SpanScope span(spans, "branch.predict");
            replayBranches(ops, branch);
            span.setCount(ops.size());
        }
        {
            SpanScope span(spans, "mem.hierarchy");
            replayMemory(ops, memory);
            span.setCount(ops.size());
        }
        for (unsigned b = 0; b < 2; ++b) {
            SpanScope span(spans, "regfile.replay");
            bool ok = replayRegfile(ops, backends[b], regs[b]);
            checks.expect(ok, "regfile: " + backends[b].regFileBackend +
                                  " read back a wrong value on " +
                                  trace.workload->name);
            span.setCount(ops.size());
        }
    }
    out["branch.ns_per_op"] = {nsPer(branch.seconds, branch.ops), "ns"};
    out["branch.mispredict_frac"] = {
        fraction(branch.mispredicts, branch.condBranches), "frac"};
    out["mem.ns_per_access"] = {nsPer(memory.seconds, memory.accesses),
                                "ns"};
    out["mem.l1d_miss_frac"] = {
        fraction(memory.l1dMisses, memory.l1dHits + memory.l1dMisses),
        "frac"};
    out["mem.l2_miss_frac"] = {
        fraction(memory.l2Misses, memory.l2Hits + memory.l2Misses), "frac"};
    for (unsigned b = 0; b < 2; ++b)
        out["regfile.ns_per_op." + backends[b].regFileBackend] = {
            nsPer(regs[b].seconds, regs[b].ops), "ns"};
    const char *classes[] = {"simple", "short", "long"};
    for (unsigned i = 0; i < 3; ++i)
        out[std::string("regfile.writes.") + classes[i]] = {
            static_cast<double>(regs[1].counts.writes[i]), "count"};
}

void
probeCore(const std::vector<TraceRef> &traces,
          const ReferenceRuns &reference, Spans &spans, Checks &checks,
          Metrics &out)
{
    const core::CoreParams backends[] = {core::CoreParams::baseline(),
                                         core::CoreParams::contentAware()};
    double seconds[2] = {0.0, 0.0};
    u64 cycles = 0, insts = 0;
    for (const TraceRef &trace : traces) {
        for (unsigned b = 0; b < 2; ++b) {
            SpanScope span(spans, "core.pipeline");
            auto start = Clock::now();
            core::Pipeline pipeline(backends[b]);
            emu::TraceBuffer::Cursor cursor(*trace.buffer, trace.budget);
            core::PredictingFetchStream stream(cursor, backends[b]);
            pipeline.beginRun(trace.workload->name);
            while (pipeline.active())
                pipeline.stepCycle(stream);
            core::RunResult result = pipeline.finishRun();
            seconds[b] += secondsSince(start);
            cycles += result.cycles;
            insts += result.committedInsts;
            span.setCount(result.committedInsts);

            auto ref = reference.find(
                {trace.workload->name, backends[b].regFileBackend});
            if (ref != reference.end())
                checks.expect(sim::runResultJsonFull(result, false) ==
                                  ref->second,
                              "core: stepCycle loop differs from simulate() "
                              "on " + trace.workload->name + "/" +
                                  backends[b].regFileBackend);
        }
    }
    out["core.ns_per_cycle"] = {nsPer(seconds[0] + seconds[1], cycles),
                                "ns"};
    out["core.ns_per_inst"] = {nsPer(seconds[0] + seconds[1], insts), "ns"};
    out["core.ca_over_baseline"] = {
        seconds[0] > 0.0 ? seconds[1] / seconds[0] : 0.0, "ratio"};

    // Two threads over each trace and its neighbour (at most four pairs).
    const core::CoreParams smt = smtParams(2);
    double smt_s = 0.0;
    u64 smt_insts = 0;
    size_t pairs = std::min<size_t>(traces.size(), 4);
    for (size_t i = 0; i < pairs; ++i) {
        const TraceRef &a = traces[i];
        const TraceRef &b = traces[(i + 1) % traces.size()];
        SpanScope span(spans, "core.smt");
        auto start = Clock::now();
        emu::TraceBuffer::Cursor ca(*a.buffer, a.budget);
        emu::TraceBuffer::Cursor cb(*b.buffer, b.budget);
        core::SmtPipeline pipeline(smt, 2);
        core::SmtResult result = pipeline.run({&ca, &cb});
        smt_s += secondsSince(start);
        smt_insts += result.totalInsts();
        span.setCount(result.totalInsts());
    }
    out["core.smt.ns_per_inst"] = {nsPer(smt_s, smt_insts), "ns"};
}

} // namespace carf::bench

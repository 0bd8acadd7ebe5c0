/**
 * @file
 * Shared pieces of carf-bench: the in-memory span recorder of the
 * traced run, the metric map carf_bench prints, the failure tally,
 * and the per-layer probes (probes.cc).
 */

#ifndef CARF_BENCH_BENCH_HH
#define CARF_BENCH_BENCH_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/core_stats.hh"
#include "emu/trace_buffer.hh"
#include "workloads/workload.hh"

namespace carf::bench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> values);

/**
 * Spans of the traced run. A span is one call the benchmark makes into
 * a layer: its name, start and end in seconds since the recorder was
 * made, the span that caused it, the job it belongs to (spans of one
 * job share the id), and a work count. Spans stay in memory and are
 * written once at exit; while recording is off, open() returns kNone
 * and costs one branch.
 */
class Spans
{
  public:
    static constexpr int kNone = -1;

    Spans() : origin_(Clock::now()) {}

    void setActive(bool on) { active_ = on; }

    int open(const char *name, int parent = kNone, long job = -1);
    void close(int id, u64 count);

    /** Per span name: summed duration minus the time its children cover. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span and the self-time table as one JSON file. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        long job;
        double start;
        double end;
        u64 count;
    };

    Clock::time_point origin_;
    bool active_ = false;
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed with its count on exit. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const char *name, int parent = Spans::kNone,
              long job = -1)
        : spans_(spans), id_(spans.open(name, parent, job))
    {
    }
    ~SpanScope() { spans_.close(id_, count_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }
    void setCount(u64 count) { count_ = count; }

  private:
    Spans &spans_;
    int id_;
    u64 count_ = 0;
};

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Correctness tally over operations: a job execution or one probe
 * replay counts once as attempted, and once as failed if any of its
 * checks failed.
 */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> notes;

    /** Record one operation; @p what describes a failure. */
    bool expect(bool ok, const std::string &what);
};

/** A cached trace the probes replay. */
struct TraceRef
{
    const workloads::Workload *workload;
    const emu::TraceBuffer *buffer;
    /** Replayed records: the job budget, capped by a halted program. */
    u64 budget;
};

/**
 * Round results the core probe must reproduce: stripped JSON of the
 * timed pass's result, keyed by workload name and backend.
 */
using ReferenceRuns = std::map<std::pair<std::string, std::string>,
                               std::string>;

/**
 * emu: drain workloads::makeTrace and a TraceBuffer cursor over each
 * trace (the two streams must hash equal). Emits emu.ns_per_inst,
 * emu.replay_ns_per_inst and emu.trace_bytes_per_inst.
 */
void probeEmu(const std::vector<TraceRef> &traces, Spans &spans,
              Checks &checks, Metrics &out);

/**
 * branch, mem and regfile: replay each decoded trace through
 * core::BranchPredictors, a fresh mem::Hierarchy, and the baseline and
 * content-aware RegisterFile behind a minimal renamer (every read
 * must return the trace's operand value).
 */
void probeOpLayers(const std::vector<TraceRef> &traces, Spans &spans,
                   Checks &checks, Metrics &out);

/**
 * core: a Pipeline beginRun/stepCycle/finishRun loop over a
 * PredictingFetchStream on baseline and content-aware (d+n=20), plus
 * a two-thread SmtPipeline over neighbouring traces. Each solo result
 * must match its entry in @p reference when there is one.
 */
void probeCore(const std::vector<TraceRef> &traces,
               const ReferenceRuns &reference, Spans &spans,
               Checks &checks, Metrics &out);

} // namespace carf::bench

#endif // CARF_BENCH_BENCH_HH

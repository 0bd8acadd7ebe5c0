#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/smt.hh"

namespace carf::sim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Wraps a streaming trace source and accumulates the host time spent
 * producing records, so the emulation cost interleaved with the cycle
 * loop can be attributed to traceBuildSeconds instead of silently
 * inflating simSeconds (the buffered path measures its build up
 * front; this is the streaming path's equivalent).
 */
class TimedSource final : public emu::TraceSource
{
  public:
    explicit TimedSource(emu::TraceSource &inner) : inner_(&inner) {}

    bool
    next(emu::DynOp &out) override
    {
        auto start = std::chrono::steady_clock::now();
        bool ok = inner_->next(out);
        seconds_ += secondsSince(start);
        return ok;
    }

    std::string name() const override { return inner_->name(); }

    double seconds() const { return seconds_; }

  private:
    emu::TraceSource *inner_;
    double seconds_ = 0.0;
};

/**
 * Caps the records one sampling phase may pull from the predicted
 * stream, and remembers when the underlying stream itself ran dry
 * (the pipeline cannot distinguish a closed window from a finished
 * trace — both end the episode; the engine needs to).
 */
class WindowedStream final : public core::FetchStream
{
  public:
    explicit WindowedStream(core::FetchStream &inner) : inner_(&inner)
    {
    }

    void allow(u64 n) { left_ = n; }
    u64 left() const { return left_; }
    bool exhausted() const { return exhausted_; }

    bool
    next(core::FetchEntry &out) override
    {
        if (left_ == 0 || exhausted_)
            return false;
        if (!inner_->next(out)) {
            exhausted_ = true;
            return false;
        }
        --left_;
        return true;
    }

    std::string name() const override { return inner_->name(); }

  private:
    core::FetchStream *inner_;
    u64 left_ = 0;
    bool exhausted_ = false;
};

/**
 * The dynamic traces one run consumes, one per hardware thread, each
 * over its own functional memory: thread 0 runs the job's workload
 * (lead_insts records), partners cycle through options.smtMix
 * (options.maxInsts each). With a trace cache, the (possibly shared)
 * buffer is materialized up front and replayed zero-copy, threads
 * running the same workload through distinct cursors; without one,
 * the emulator streams lazily inside the cycle loop, metered at the
 * source to keep the simulate-vs-build split honest.
 */
class RunTraces
{
  public:
    RunTraces(const workloads::Workload &workload, unsigned threads,
              u64 lead_insts, const SimOptions &options)
    {
        for (unsigned t = 0; t < threads; ++t) {
            const workloads::Workload &w =
                t == 0 || options.smtMix.empty()
                    ? workload
                    : workloads::findWorkload(
                          options.smtMix[(t - 1) % options.smtMix.size()]);
            u64 insts = t == 0 ? lead_insts : options.maxInsts;
            std::shared_ptr<const emu::TraceBuffer> buffer;
            if (options.traceCache) {
                buffer = options.traceCache->acquire(
                    w.name, insts,
                    [&w, insts] { return workloads::makeTrace(w, insts); });
            }
            if (buffer) {
                owned_.push_back(std::make_unique<emu::TraceBuffer::Cursor>(
                    *buffer, insts));
                sources.push_back(owned_.back().get());
                buffers_.push_back(std::move(buffer));
            } else {
                owned_.push_back(workloads::makeTrace(w, insts));
                timed_.push_back(
                    std::make_unique<TimedSource>(*owned_.back()));
                sources.push_back(timed_.back().get());
            }
        }
        built_ = std::chrono::steady_clock::now();
    }

    /** Thread t's trace. */
    std::vector<emu::TraceSource *> sources;

    /**
     * Fill @p r's host times: trace building is the set-up before the
     * run plus the emulation streamed during it; the rest since the
     * set-up is simulation.
     */
    void
    stampHostTimes(core::RunResult &r) const
    {
        double streamed = 0.0;
        for (const auto &src : timed_)
            streamed += src->seconds();
        r.traceBuildSeconds =
            std::chrono::duration<double>(built_ - start_).count() +
            streamed;
        r.simSeconds = secondsSince(built_) - streamed;
        r.wallSeconds = r.traceBuildSeconds + r.simSeconds;
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point built_;
    std::vector<std::shared_ptr<const emu::TraceBuffer>> buffers_;
    std::vector<std::unique_ptr<emu::TraceSource>> owned_;
    std::vector<std::unique_ptr<TimedSource>> timed_;
};

/**
 * The sampled run (SimOptions::samplingPeriod > 0) of a one-thread
 * @p pipeline over @p source: functional gaps alternate with detailed
 * episodes, and the returned result describes the measured windows.
 */
core::RunResult
runSampled(core::Pipeline &pipeline, emu::TraceSource &source,
           const std::string &workload_name, const SimOptions &options)
{
    core::PredictingFetchStream predicted(source, pipeline.params());
    WindowedStream window(predicted);

    pipeline.beginRun(workload_name);

    u64 gap = options.samplingPeriod - options.samplingWarmup -
              options.samplingMeasure;
    u64 measured_cycles = 0;
    u64 measured_insts = 0;
    u64 skipped_insts = 0;
    core::CycleAccounting measured_acc;
    std::vector<double> interval_ipc;

    while (!window.exhausted()) {
        // Functional gap: emulate through the predictor so the
        // caches, branch state, the Short file's address heuristics,
        // and the architectural register values all stay warm at zero
        // cycle cost.
        if (gap > 0) {
            core::Pipeline::WarmupScratch scratch;
            window.allow(gap);
            pipeline.warmUpRange(window, gap, scratch);
            skipped_insts += gap - window.left();
            if (window.exhausted())
                break;
            pipeline.installWarmState(scratch);
        }
        pipeline.resetForResume();

        // Detailed episode: the warm-up portion refills the pipeline
        // after the gap; the measured portion is delimited by commit
        // marks. The lane then drains (all fetched records commit),
        // so the next gap resumes from clean in-flight state.
        window.allow(options.samplingWarmup + options.samplingMeasure);
        u64 warm_mark =
            pipeline.committedInsts() + options.samplingWarmup;
        u64 end_mark = warm_mark + options.samplingMeasure;
        while (pipeline.active() &&
               pipeline.committedInsts() < warm_mark) {
            pipeline.stepCycle(window);
        }
        if (pipeline.committedInsts() < warm_mark)
            break; // trace dried inside the warm-up: nothing to measure

        Cycle c0 = pipeline.currentCycle();
        core::CycleAccounting a0 = pipeline.cycleAccounting();
        u64 i0 = pipeline.committedInsts();
        while (pipeline.active() &&
               pipeline.committedInsts() < end_mark) {
            pipeline.stepCycle(window);
        }
        u64 insts = pipeline.committedInsts() - i0;
        Cycle cycles = pipeline.currentCycle() - c0;
        const core::CycleAccounting &a1 = pipeline.cycleAccounting();
        for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
            measured_acc.counts[b] += a1.counts[b] - a0.counts[b];
        measured_insts += insts;
        measured_cycles += cycles;
        if (insts > 0 && cycles > 0) {
            interval_ipc.push_back(static_cast<double>(insts) /
                                   static_cast<double>(cycles));
        }

        // Drain any leftover in-flight work outside the measurement.
        while (pipeline.active())
            pipeline.stepCycle(window);
    }

    core::RunResult result = pipeline.finishRun();
    result.cycles = measured_cycles;
    result.committedInsts = measured_insts;
    result.ipc = measured_cycles
                     ? static_cast<double>(measured_insts) /
                           static_cast<double>(measured_cycles)
                     : 0.0;
    result.cycleAccounting = measured_acc;
    result.samplingPeriod = options.samplingPeriod;
    result.samplingWarmup = options.samplingWarmup;
    result.samplingMeasure = options.samplingMeasure;
    result.samplingIntervals = interval_ipc.size();
    result.samplingSkippedInsts = skipped_insts;
    if (interval_ipc.size() >= 2) {
        double mean = 0.0;
        for (double x : interval_ipc)
            mean += x;
        mean /= static_cast<double>(interval_ipc.size());
        double var = 0.0;
        for (double x : interval_ipc)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(interval_ipc.size() - 1);
        result.samplingIpcCi95 =
            1.96 * std::sqrt(var /
                             static_cast<double>(interval_ipc.size()));
    }

    return result;
}

} // namespace

void
SimOptions::validate() const
{
    if (samplingPeriod == 0)
        return;
    if (oracleSamplePeriod > 0) {
        fatal("SimOptions: statistical sampling is incompatible with "
              "the live-value oracle (oracleSamplePeriod > 0) — the "
              "oracle needs every cycle of one continuous window");
    }
    if (fastForward > 0) {
        fatal("SimOptions: fastForward overlaps the sampling engine's "
              "own functional gaps; use samplingPeriod/samplingWarmup/"
              "samplingMeasure alone");
    }
    if (samplingMeasure == 0)
        fatal("SimOptions: samplingMeasure must be > 0");
    if (samplingWarmup + samplingMeasure > samplingPeriod) {
        fatal("SimOptions: samplingWarmup + samplingMeasure (%llu) "
              "exceeds samplingPeriod (%llu)",
              (unsigned long long)(samplingWarmup + samplingMeasure),
              (unsigned long long)samplingPeriod);
    }
}

core::RunResult
simulate(const workloads::Workload &workload,
         const core::CoreParams &params, const SimOptions &options,
         LiveValueOracle *oracle)
{
    options.validate();
    unsigned threads = std::max(1u, params.smtThreads);
    if (threads > 1 && options.fastForward > 0)
        fatal("simulate: fast-forward needs a one-thread core, not %u "
              "threads", threads);
    if (threads > 1 && options.oracleSamplePeriod > 0)
        fatal("simulate: the live-value oracle needs a one-thread core, "
              "not %u threads", threads);
    if (threads > 1 && options.samplingPeriod > 0)
        fatal("simulate: statistical sampling needs a one-thread core, "
              "not %u threads", threads);

    core::CoreParams run_params = params;
    run_params.oracleSamplePeriod = options.oracleSamplePeriod;
    RunTraces traces(workload, threads,
                     options.fastForward + options.maxInsts, options);

    core::Pipeline pipeline(run_params, threads);
    pipeline.setFastPath(options.fastPath);
    core::RunResult result;
    if (options.samplingPeriod > 0) {
        result = runSampled(pipeline, *traces.sources[0], workload.name,
                            options);
    } else if (threads == 1) {
        if (options.fastForward > 0)
            pipeline.warmUp(*traces.sources[0], options.fastForward);
        result = pipeline.run(*traces.sources[0], oracle);
    } else {
        result = pipeline.run(traces.sources).aggregate();
    }
    traces.stampHostTimes(result);
    return result;
}

} // namespace carf::sim

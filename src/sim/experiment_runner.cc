#include "sim/experiment_runner.hh"

#include <atomic>
#include <mutex>
#include <thread>

#include "sim/result_store.hh"

namespace carf::sim
{

unsigned
ExperimentRunner::hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

void
ExperimentRunner::runTasks(size_t count,
                           const std::function<void(size_t)> &task) const
{
    // Serial fast path: no pool, no synchronization.
    if (jobs_ <= 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    // Work-stealing over an atomic cursor: each worker claims the
    // next unclaimed index, so every index runs exactly once. The
    // calling thread participates as a worker.
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1))
            task(i);
    };

    size_t workers = std::min<size_t>(jobs_, count);
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        pool.emplace_back(work);
    work();
    for (auto &thread : pool)
        thread.join();
}

namespace
{

/** A job the lockstep engine could ever share a front end for. */
bool
lockstepEligible(const ExperimentJob &job)
{
    // SMT jobs interleave multiple traces, so there is no single
    // front end to share; they always run as singletons. Sampled jobs
    // alternate functional and detailed phases per lane, so no shared
    // front end exists for them either (validate() also rejects
    // lockstep=true with sampling, but a runner batch may legitimately
    // mix sampled and full jobs).
    return job.options.lockstep && !job.oracle &&
           job.options.oracleSamplePeriod == 0 &&
           job.options.samplingPeriod == 0 &&
           job.params.smtThreads <= 1;
}

/** Whether two eligible jobs can share one lockstep replay. */
bool
sameLockstepGroup(const ExperimentJob &a, const ExperimentJob &b)
{
    return a.workload.name == b.workload.name &&
           a.options.maxInsts == b.options.maxInsts &&
           a.options.fastForward == b.options.fastForward &&
           a.options.traceCache == b.options.traceCache &&
           a.params.gshareHistoryBits == b.params.gshareHistoryBits &&
           a.params.btbEntries == b.params.btbEntries &&
           a.params.rasDepth == b.params.rasDepth;
}

/**
 * Partition the jobs named by @p pending (submission indices into
 * @p batch) into schedulable units: each unit is the list of indices
 * that run together through one simulateGroup() call (or a singleton
 * running plain simulate()). Greedy in submission order — a unit
 * collects every later compatible job up to lockstepMaxGroup — so
 * unit membership is deterministic.
 */
std::vector<std::vector<size_t>>
partitionBatch(const std::vector<ExperimentJob> &batch,
               const std::vector<size_t> &pending)
{
    std::vector<std::vector<size_t>> units;
    std::vector<bool> assigned(pending.size(), false);
    for (size_t a = 0; a < pending.size(); ++a) {
        if (assigned[a])
            continue;
        size_t i = pending[a];
        std::vector<size_t> unit{i};
        assigned[a] = true;
        if (lockstepEligible(batch[i])) {
            size_t cap = batch[i].options.lockstepMaxGroup
                             ? batch[i].options.lockstepMaxGroup
                             : pending.size();
            for (size_t b = a + 1;
                 b < pending.size() && unit.size() < cap; ++b) {
                size_t j = pending[b];
                if (!assigned[b] && lockstepEligible(batch[j]) &&
                    sameLockstepGroup(batch[i], batch[j])) {
                    unit.push_back(j);
                    assigned[b] = true;
                }
            }
        }
        units.push_back(std::move(unit));
    }
    return units;
}

/** Whether @p job may read/write its options.resultStore. */
bool
storeEligible(const ExperimentJob &job)
{
    // An oracle is an out-of-band side channel: serving the run from
    // the cache would silently skip its samples.
    return job.options.resultStore && !job.oracle;
}

} // namespace

std::vector<core::RunResult>
ExperimentRunner::run(const std::vector<ExperimentJob> &batch,
                      const ProgressFn &progress) const
{
    std::vector<core::RunResult> results(batch.size());

    // Resolve content-addressed cache hits up front: a hit fills its
    // submission slot with the stored bit-identical result and never
    // reaches the pool, so a fully warm batch costs one key
    // derivation plus one map lookup per job. Misses keep their key
    // so completion can write straight back.
    std::vector<std::string> keys(batch.size());
    std::vector<char> cached(batch.size(), 0);
    std::vector<size_t> pending;
    pending.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const ExperimentJob &job = batch[i];
        if (storeEligible(job)) {
            keys[i] = job.options.resultStore->key(job.workload.name,
                                                   job.params,
                                                   job.options);
            if (auto hit = job.options.resultStore->get(keys[i])) {
                results[i] = std::move(*hit);
                cached[i] = 1;
                continue;
            }
        }
        pending.push_back(i);
    }

    // Jobs sharing a workload and run options collapse into lockstep
    // units (decode once, step every config — see simulateGroup());
    // the pool then schedules whole units. Results still land in
    // submission-order slots, and lockstep replay is bit-identical to
    // solo simulation, so the result vector is unchanged by grouping.
    std::vector<std::vector<size_t>> units = partitionBatch(batch,
                                                            pending);

    // The mutex both serializes progress callbacks and publishes each
    // result slot.
    std::mutex progress_mutex;
    size_t completed = 0;

    // Cached jobs report first, in submission order.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (!cached[i])
            continue;
        ++completed;
        if (progress)
            progress({completed, batch.size(), batch[i], results[i],
                      true});
    }

    runTasks(units.size(), [&](size_t u) {
        const std::vector<size_t> &unit = units[u];
        std::vector<core::RunResult> unit_results;
        if (unit.size() == 1) {
            const ExperimentJob &job = batch[unit[0]];
            if (job.options.samplingPeriod > 0)
                unit_results.push_back(simulateSampled(
                    job.workload, job.params, job.options));
            else
                unit_results.push_back(simulate(job.workload, job.params,
                                                job.options, job.oracle));
        } else {
            std::vector<core::CoreParams> configs;
            configs.reserve(unit.size());
            for (size_t i : unit)
                configs.push_back(batch[i].params);
            unit_results = simulateGroup(
                batch[unit[0]].workload, configs, batch[unit[0]].options);
        }
        // Write-back before the results are even published: a kill
        // between here and the progress callback loses nothing.
        for (size_t k = 0; k < unit.size(); ++k) {
            size_t i = unit[k];
            if (storeEligible(batch[i]))
                batch[i].options.resultStore->put(keys[i],
                                                  unit_results[k]);
        }
        std::lock_guard<std::mutex> lock(progress_mutex);
        for (size_t k = 0; k < unit.size(); ++k) {
            size_t i = unit[k];
            results[i] = std::move(unit_results[k]);
            ++completed;
            if (progress)
                progress({completed, batch.size(), batch[i], results[i]});
        }
    });
    return results;
}

} // namespace carf::sim

/**
 * @file
 * Fast-path engine test wall (DESIGN.md §4.8).
 *
 * The exact idle-cycle skip claims bit-identity, so the anchor test
 * compares the full-fidelity RunResult serialization of a stepped and
 * a skipping run for EVERY registered workload on EVERY registered
 * register-file backend, and of two- and four-thread cores over the
 * INT and stall suites. Around it: cycle-accounting conservation
 * (the buckets sum exactly to cycles on solo, SMT, and sampled runs),
 * evidence that the skip actually fires on the stall kernels, the
 * SMARTS sampling estimator's determinism and pinned accuracy, the
 * SimOptions::validate() rejection matrix, and result-store key
 * separation between sampled and full runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/fingerprint.hh"
#include "core/pipeline.hh"
#include "core/smt.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

/**
 * Run through the public facade with the skip on or off; @p mix
 * names the partner threads of a multithreaded core.
 */
core::RunResult
soloRun(const workloads::Workload &workload,
        const core::CoreParams &params, u64 insts, bool fast_path,
        std::vector<std::string> mix = {})
{
    sim::SimOptions options;
    options.maxInsts = insts;
    options.fastPath = fast_path;
    options.smtMix = std::move(mix);
    return sim::simulate(workload, params, options);
}

u64
bucketTotal(const core::CycleAccounting &acc)
{
    return acc.total();
}

/** (workload, configuration, hardware threads). */
using FastPathCase = std::tuple<std::string, std::string, unsigned>;

class FastPathDifferential : public ::testing::TestWithParam<FastPathCase>
{
};

/** A registered backend's defaults, or d+n=8 with 32 Long entries. */
core::CoreParams
fastPathParams(const std::string &config)
{
    if (config == "ca8_k32")
        return core::CoreParams::contentAware(8, 3, 32);
    return core::CoreParams::forBackend(config);
}

/** The INT and stall suites, the multithreaded cases' workloads. */
std::vector<std::string>
intAndStallNames()
{
    std::vector<std::string> names;
    for (const auto *suite : {&workloads::intSuite(),
                              &workloads::stallSuite()}) {
        for (const auto &w : *suite)
            names.push_back(w.name);
    }
    return names;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

std::string
fastPathCaseName(const ::testing::TestParamInfo<FastPathCase> &info)
{
    std::string name =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    if (std::get<2>(info.param) > 1)
        name += "_t" + std::to_string(std::get<2>(info.param));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

} // namespace

TEST_P(FastPathDifferential, SkippingRunIsBitIdenticalToStepped)
{
    auto [workload_name, config, threads] = GetParam();
    const u64 insts = 15000;
    const auto &workload = workloads::findWorkload(workload_name);
    core::CoreParams params = fastPathParams(config);
    // Partners: the next kernels of the INT + stall list.
    std::vector<std::string> mix;
    if (threads > 1) {
        params = params.scaledForThreads(threads);
        std::vector<std::string> names = intAndStallNames();
        size_t first = std::find(names.begin(), names.end(),
                                 workload_name) - names.begin();
        for (unsigned t = 1; t < threads; ++t)
            mix.push_back(names[(first + t) % names.size()]);
    }

    core::RunResult stepped = soloRun(workload, params, insts, false, mix);
    core::RunResult skipping = soloRun(workload, params, insts, true, mix);

    EXPECT_EQ(stepped.fastPathSkips, 0u);
    EXPECT_EQ(stepped.fastPathSkippedCycles, 0u);
    // Full-fidelity comparison, host times excluded. The fastPath*
    // counters are deliberately outside the serialization (like host
    // times, they describe how the run was executed, not what it
    // computed), so this asserts every simulated statistic at once.
    EXPECT_EQ(sim::runResultJsonFull(stepped, false),
              sim::runResultJsonFull(skipping, false));

    // Conservation on both runs: every cycle lands in exactly one
    // bucket.
    EXPECT_EQ(bucketTotal(stepped.cycleAccounting), stepped.cycles);
    EXPECT_EQ(bucketTotal(skipping.cycleAccounting), skipping.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsTimesBackends, FastPathDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloadNames()),
                       ::testing::ValuesIn(regfile::registry().names()),
                       ::testing::Values(1u)),
    fastPathCaseName);

INSTANTIATE_TEST_SUITE_P(
    SmtIntAndStallSuites, FastPathDifferential,
    ::testing::Combine(::testing::ValuesIn(intAndStallNames()),
                       ::testing::Values("baseline", "ca8_k32"),
                       ::testing::Values(2u, 4u)),
    fastPathCaseName);

TEST(FastPath, SkipsActuallyFireOnStallKernels)
{
    // Guards against the skip silently degenerating to stepping
    // (quiescentUntil returning 0 everywhere would pass the
    // differential wall trivially). mem_chase serializes on off-chip
    // misses, so the overwhelming majority of its cycles must be
    // skipped, in big strides.
    const auto &workload = workloads::findWorkload("mem_chase");
    core::RunResult run = soloRun(
        workload, core::CoreParams::contentAware(20), 100000, true);
    ASSERT_GT(run.cycles, 0u);
    EXPECT_GT(run.fastPathSkips, 0u);
    EXPECT_GT(run.fastPathSkippedCycles, run.cycles / 2);
    EXPECT_GT(run.fastPathSkippedCycles / run.fastPathSkips, 10u);
    // And the accounting must say why: memory waits dominate.
    EXPECT_GT(
        run.cycleAccounting.counts[core::CycleAccounting::MemWait],
        run.cycles / 2);
}

TEST(FastPath, SkipsActuallyFireOnSmtStallKernels)
{
    // The multithreaded core skips too: two threads over the stall
    // suite spend most cycles with every thread waiting on memory.
    auto params = core::CoreParams::contentAware(20).scaledForThreads(2);
    for (const auto &w : workloads::stallSuite()) {
        core::RunResult run =
            soloRun(w, params, 20000, true, {"mem_chase"});
        ASSERT_GT(run.cycles, 0u) << w.name;
        EXPECT_EQ(run.smtThreads, 2u);
        EXPECT_GT(run.fastPathSkips, 0u) << w.name;
        EXPECT_GT(run.fastPathSkippedCycles, run.cycles / 4) << w.name;
    }
}

TEST(FastPath, SkipsFireOnTheIcacheSide)
{
    const auto &workload = workloads::findWorkload("fetch_wall");
    core::RunResult run = soloRun(
        workload, core::CoreParams::contentAware(20), 100000, true);
    EXPECT_GT(run.fastPathSkippedCycles, run.cycles / 10);
    EXPECT_GT(
        run.cycleAccounting.counts[core::CycleAccounting::IcacheWait],
        0u);
}

TEST(CycleAccounting, SumsToCyclesOnSmtRuns)
{
    const u64 insts = 20000;
    core::CoreParams params = core::CoreParams::contentAware(20);
    params.smtThreads = 2;
    sim::SimOptions options;
    options.maxInsts = insts;
    options.smtMix = {"counters"};
    core::RunResult agg = sim::simulate(
        workloads::findWorkload("pointer_chase"), params, options);
    // The aggregate carries the machine-level accounting: one bucket
    // per machine cycle, so it sums to the (shared) cycle count, not
    // to the per-thread sum.
    EXPECT_EQ(bucketTotal(agg.cycleAccounting), agg.cycles);
}

TEST(CycleAccounting, NamesCoverEveryBucket)
{
    for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b) {
        std::string name = core::CycleAccounting::bucketName(b);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
}

TEST(Sampling, DeterministicAndConserving)
{
    const auto &workload = workloads::findWorkload("graph_walk");
    core::CoreParams params = core::CoreParams::contentAware(20);
    sim::SimOptions options;
    options.maxInsts = 200000;
    options.samplingPeriod = 10000;

    core::RunResult a = sim::simulate(workload, params, options);
    core::RunResult b = sim::simulate(workload, params, options);
    EXPECT_EQ(sim::runResultJsonFull(a, false),
              sim::runResultJsonFull(b, false));

    // Measured-window cycles only, and the buckets cover exactly
    // those cycles.
    EXPECT_EQ(bucketTotal(a.cycleAccounting), a.cycles);
    EXPECT_EQ(a.samplingPeriod, 10000u);
    EXPECT_GT(a.samplingIntervals, 10u);
    EXPECT_GT(a.samplingSkippedInsts, 0u);
    EXPECT_GT(a.samplingIpcCi95, 0.0);
}

TEST(Sampling, PinnedAccuracyOnIntKernels)
{
    // Accuracy regression anchor: the sampled IPC estimate for two
    // memory-bound INT kernels must stay within 5% of the full
    // detailed run at this interval shape (measured ~0.0-1.2% when
    // the estimator landed; see BENCH fastpath). A methodology bug —
    // stale warm state, mis-placed snapshots, wrong denominators —
    // moves these by far more than 5%.
    core::CoreParams params = core::CoreParams::contentAware(20);
    for (const char *name : {"bst_search", "graph_walk"}) {
        const auto &workload = workloads::findWorkload(name);
        sim::SimOptions full;
        full.maxInsts = 200000;
        core::RunResult f = sim::simulate(workload, params, full);

        sim::SimOptions sampled = full;
        sampled.samplingPeriod = 10000;
        core::RunResult s =
            sim::simulate(workload, params, sampled);
        ASSERT_GT(f.ipc, 0.0);
        EXPECT_NEAR(s.ipc, f.ipc, f.ipc * 0.05) << name;
    }
}

TEST(Sampling, StoreKeysSeparateSampledFromFullRuns)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("carf_fastpath_key_test_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    {
        sim::ResultStore store(dir.string(), buildFingerprint());
        core::CoreParams params = core::CoreParams::contentAware(20);
        sim::SimOptions full;
        full.maxInsts = 50000;

        sim::SimOptions sampled = full;
        sampled.samplingPeriod = 10000;

        std::string key_full = store.key("w", params, full);
        std::string key_sampled = store.key("w", params, sampled);
        EXPECT_NE(key_full, key_sampled);

        // A different interval shape is a different estimate.
        sim::SimOptions sampled2 = sampled;
        sampled2.samplingMeasure += 500;
        EXPECT_NE(store.key("w", params, sampled2), key_sampled);

        // The skip is bit-identical by contract, so it must NOT key;
        // and with sampling off the interval-shape knobs are inert,
        // so they must not key either.
        sim::SimOptions stepped = full;
        stepped.fastPath = false;
        EXPECT_EQ(store.key("w", params, stepped), key_full);
        sim::SimOptions inert = full;
        inert.samplingWarmup += 123;
        EXPECT_EQ(store.key("w", params, inert), key_full);
    }
    fs::remove_all(dir);
}

TEST(SamplingDeathTest, ValidateRejectsIncompatibleOptions)
{
    const auto &workload = workloads::findWorkload("counters");
    core::CoreParams params = core::CoreParams::contentAware(20);

    sim::SimOptions with_oracle;
    with_oracle.samplingPeriod = 10000;
    with_oracle.oracleSamplePeriod = 100;
    EXPECT_DEATH(with_oracle.validate(), "live-value oracle");

    sim::SimOptions with_ff;
    with_ff.samplingPeriod = 10000;
    with_ff.fastForward = 1000;
    EXPECT_DEATH(with_ff.validate(), "fastForward");

    sim::SimOptions zero_measure;
    zero_measure.samplingPeriod = 10000;
    zero_measure.samplingMeasure = 0;
    EXPECT_DEATH(zero_measure.validate(), "samplingMeasure");

    sim::SimOptions oversized;
    oversized.samplingPeriod = 1000;
    oversized.samplingWarmup = 900;
    oversized.samplingMeasure = 200;
    EXPECT_DEATH(oversized.validate(), "exceeds samplingPeriod");

    // Sampling needs a one-thread core.
    sim::SimOptions sampled;
    sampled.maxInsts = 20000;
    sampled.samplingPeriod = 10000;
    core::CoreParams smt = params;
    smt.smtThreads = 2;
    EXPECT_DEATH((void)sim::simulate(workload, smt, sampled),
                 "sampling needs a one-thread core");
}

} // namespace carf

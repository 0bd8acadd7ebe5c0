/**
 * @file
 * One-thread entry-point anchor: the multithreaded entry point of the
 * core (Pipeline::run over a vector of trace sources, with its
 * per-thread salted fetch streams over shared predictors, and
 * SmtResult::aggregate()) run at one thread must be bit-identical to
 * the single-trace entry point — not merely "same cycles", but every
 * counter in the full-fidelity RunResult serialization — for every
 * INT-suite workload on every registered backend.
 *
 * Both entry points drive the same core; the golden-output wall
 * (test_golden.cc) pins the core's one-thread and multithreaded
 * output, including the full-scan issue reference, against files
 * generated from an independent full-scan SMT core. The Long-stall
 * points (content-aware d+n=8 with a 32-entry Long file; at the
 * default 48 entries five INT kernels never stall) keep the
 * stall-cycle rebuild of the issue scan in the comparison: each must
 * see issue-stall cycles.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/smt.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

class SmtSoloDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

/** Long issue-stall heavy config label: d+n=8, 32 Long entries. */
const std::string longStallConfig = "content-aware-dn8-k32";

/** A registered backend's defaults, or the Long-stall point. */
core::CoreParams
configParams(const std::string &config)
{
    if (config == longStallConfig)
        return core::CoreParams::contentAware(8, 3, 32);
    return core::CoreParams::forBackend(config);
}

std::vector<std::string>
intSuiteNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::intSuite())
        names.push_back(w.name);
    return names;
}

} // namespace

TEST_P(SmtSoloDifferential, OneThreadSmtMatchesSoloBitIdentical)
{
    auto [workload_name, config] = GetParam();
    const u64 insts = 20000;
    const auto &workload = workloads::findWorkload(workload_name);
    core::CoreParams params = configParams(config);

    auto solo_trace = workloads::makeTrace(workload, insts);
    core::Pipeline pipeline(params);
    core::RunResult solo = pipeline.run(*solo_trace);

    auto smt_trace = workloads::makeTrace(workload, insts);
    core::SmtPipeline smt(params, 1);
    core::SmtResult multi = smt.run({smt_trace.get()}, false);
    ASSERT_EQ(multi.threads.size(), 1u);

    // Full-fidelity JSON comparison (host times excluded: both runs
    // leave them 0 here, but the exclusion documents the contract).
    EXPECT_EQ(sim::runResultJsonFull(multi.threads[0], false),
              sim::runResultJsonFull(solo, false));

    // The aggregate of a one-thread run carries the same counters
    // plus the trivial smt* fields.
    core::RunResult agg = multi.aggregate();
    EXPECT_EQ(agg.cycles, solo.cycles);
    EXPECT_EQ(agg.committedInsts, solo.committedInsts);
    EXPECT_EQ(agg.smtThreads, 1u);

    if (config == longStallConfig) {
        EXPECT_GT(solo.issueStallCycles, 0u);
    }
}

namespace
{

std::string
smtDifferentialName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>
        &info)
{
    std::string name =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    IntSuiteTimesBackends, SmtSoloDifferential,
    ::testing::Combine(::testing::ValuesIn(intSuiteNames()),
                       ::testing::ValuesIn(regfile::registry().names())),
    smtDifferentialName);

INSTANTIATE_TEST_SUITE_P(
    IntSuiteLongStall, SmtSoloDifferential,
    ::testing::Combine(::testing::ValuesIn(intSuiteNames()),
                       ::testing::Values(longStallConfig)),
    smtDifferentialName);

} // namespace carf

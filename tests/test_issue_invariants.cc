/**
 * @file
 * Issue-bookkeeping invariant wall: drives the solo Pipeline one
 * cycle at a time through its resumable-lane interface and checks,
 * after every cycle, that each dispatched instruction sits in exactly
 * one of the issue scan list, the timed parking heap, or one producer
 * tag's waiter list (Pipeline::checkIssueInvariants, which panics on
 * a violation). The INT and stall suites on baseline, content-aware
 * d+n=20, content-aware d+n=8 with a 32-entry Long file (Long
 * issue-stall heavy, so the stall-cycle rebuild of the scan list runs
 * often) and port-reduction cover waiting, waking, parking,
 * rebuilding and the idle-cycle skip.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/fetch_stream.hh"
#include "core/pipeline.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

/** The checked configurations, by test-name label. */
core::CoreParams
configParams(const std::string &label)
{
    if (label == "baseline")
        return core::CoreParams::baseline();
    if (label == "ca20")
        return core::CoreParams::contentAware(20);
    if (label == "ca8_k32")
        return core::CoreParams::contentAware(8, 3, 32);
    if (label == "port_reduction")
        return core::CoreParams::portReduction();
    ADD_FAILURE() << "unknown config label " << label;
    return core::CoreParams::baseline();
}

std::vector<std::string>
intAndStallNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::intSuite())
        names.push_back(w.name);
    for (const auto &w : workloads::stallSuite())
        names.push_back(w.name);
    return names;
}

class PipelineIssueInvariants
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

std::string
issueInvariantCaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>
        &info)
{
    return std::get<0>(info.param) + "_" + std::get<1>(info.param);
}

} // namespace

TEST_P(PipelineIssueInvariants, HoldAfterEveryCycle)
{
    auto [workload_name, label] = GetParam();
    const u64 insts = 10000;
    core::CoreParams params = configParams(label);

    auto trace =
        workloads::makeTrace(workloads::findWorkload(workload_name), insts);
    core::PredictingFetchStream stream(*trace, params);
    core::Pipeline pipeline(params);
    pipeline.beginRun(workload_name);
    pipeline.checkIssueInvariants();
    while (pipeline.active()) {
        pipeline.stepCycle(stream);
        pipeline.checkIssueInvariants();
    }
    EXPECT_EQ(pipeline.finishRun().committedInsts, insts);
}

INSTANTIATE_TEST_SUITE_P(
    IntAndStallSuites, PipelineIssueInvariants,
    ::testing::Combine(::testing::ValuesIn(intAndStallNames()),
                       ::testing::Values("baseline", "ca20", "ca8_k32",
                                         "port_reduction")),
    issueInvariantCaseName);

} // namespace carf

/**
 * @file
 * Invariant wall: runs the Pipeline and checks, after every cycle,
 * every structural invariant it has (Pipeline::checkInvariants, which
 * panics on a violation): the register-file model's own check, rename
 * conservation, issue-queue and LSQ occupancy against the threads'
 * windows, and per thread that each dispatched instruction sits in
 * exactly one of the issue scan list, the timed parking heap, or one
 * producer tag's waiter list. The INT and stall suites on baseline,
 * content-aware d+n=20, content-aware d+n=8 with a 32-entry Long file
 * (Long issue-stall heavy, so the stall-cycle rebuild of the scan
 * list runs often) and port-reduction cover waiting, waking, parking,
 * rebuilding and the idle-cycle skip. One thread drives the
 * resumable-lane interface; two and four threads (rename pools scaled
 * as CoreParams::scaledForThreads does, thread t running the t-th
 * next kernel of the list) run with the per-cycle check enabled.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/fetch_stream.hh"
#include "core/pipeline.hh"
#include "core/smt.hh"
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

using InvariantCase = std::tuple<std::string, std::string, unsigned>;

class PipelineIssueInvariants
    : public ::testing::TestWithParam<InvariantCase>
{
};

std::string
issueInvariantCaseName(const ::testing::TestParamInfo<InvariantCase> &info)
{
    std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
    if (std::get<2>(info.param) > 1)
        name += "_t" + std::to_string(std::get<2>(info.param));
    return name;
}

} // namespace

TEST_P(PipelineIssueInvariants, HoldAfterEveryCycle)
{
    auto [workload_name, label, threads] = GetParam();
    const u64 insts = 10000;
    core::CoreParams params = configParams(label);

    if (threads == 1) {
        auto trace = workloads::makeTrace(
            workloads::findWorkload(workload_name), insts);
        core::PredictingFetchStream stream(*trace, params);
        core::Pipeline pipeline(params);
        pipeline.beginRun(workload_name);
        pipeline.checkInvariants();
        while (pipeline.active()) {
            pipeline.stepCycle(stream);
            pipeline.checkInvariants();
        }
        EXPECT_EQ(pipeline.finishRun().committedInsts, insts);
        return;
    }

    std::vector<std::string> names = intAndStallNames();
    size_t first = std::find(names.begin(), names.end(), workload_name) -
                   names.begin();
    std::vector<std::unique_ptr<emu::TraceSource>> traces;
    std::vector<emu::TraceSource *> sources;
    for (unsigned t = 0; t < threads; ++t) {
        traces.push_back(workloads::makeTrace(
            workloads::findWorkload(names[(first + t) % names.size()]),
            insts));
        sources.push_back(traces.back().get());
    }
    core::Pipeline pipeline(params.scaledForThreads(threads), threads);
    pipeline.enableInvariantChecks();
    core::SmtResult result = pipeline.run(sources, false);
    pipeline.checkInvariants();
    for (const core::RunResult &r : result.threads)
        EXPECT_EQ(r.committedInsts, insts);
}

INSTANTIATE_TEST_SUITE_P(
    IntAndStallSuites, PipelineIssueInvariants,
    ::testing::Combine(::testing::ValuesIn(intAndStallNames()),
                       ::testing::Values("baseline", "ca20", "ca8_k32",
                                         "port_reduction"),
                       ::testing::Values(1u, 2u, 4u)),
    issueInvariantCaseName);

} // namespace carf

/**
 * @file
 * The golden-output wall's cases and their serialization, shared by
 * the GoldenJson test (test_golden.cc) and the carf_golden tool that
 * regenerates the committed file, so the two cannot drift apart.
 *
 * Each case runs one workload on one core configuration through the
 * sim::simulate() facade (idle-cycle skip on, the default) and pins
 * its full RunResult serialization with host times stripped. The
 * file holds one JSON object per line:
 *   {"case":"<name>","result":{...runResultJsonFull(r, false)...}}
 */

#ifndef CARF_TESTS_GOLDEN_HH
#define CARF_TESTS_GOLDEN_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/params.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf::golden
{

/** One pinned run. */
struct Case
{
    std::string workload;
    /** Configuration label; see params(). */
    std::string config;
    u64 insts = 0;

    /** Unique name: `<workload>_<config>_<insts>`, identifier-safe. */
    std::string
    name() const
    {
        std::string n = workload + "_" + config + "_" + std::to_string(insts);
        for (char &c : n) {
            bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
            if (!ok)
                c = '_';
        }
        return n;
    }
};

/** Core configuration for a case's label. */
inline core::CoreParams
params(const std::string &config)
{
    if (config == "baseline")
        return core::CoreParams::baseline();
    if (config == "unlimited")
        return core::CoreParams::unlimited();
    if (config == "ca20")
        return core::CoreParams::contentAware(20);
    if (config == "ca8_k32")
        return core::CoreParams::contentAware(8, 3, 32);
    if (config == "port_reduction")
        return core::CoreParams::portReduction();
    fatal("golden: unknown config label '%s'", config.c_str());
}

/**
 * Every pinned case: the INT, FP and stall suites on five
 * configurations at 10k instructions, plus the INT suite at 100k on
 * baseline and content-aware d+n=20.
 */
inline std::vector<Case>
cases()
{
    const std::vector<std::string> configs = {
        "baseline", "unlimited", "ca20", "ca8_k32", "port_reduction"};
    std::vector<Case> out;
    for (const auto *suite : {&workloads::intSuite(),
                              &workloads::fpSuite(),
                              &workloads::stallSuite()}) {
        for (const auto &w : *suite) {
            for (const auto &config : configs)
                out.push_back({w.name, config, 10000});
        }
    }
    for (const auto &w : workloads::intSuite()) {
        for (const char *config : {"baseline", "ca20"})
            out.push_back({w.name, config, 100000});
    }
    return out;
}

/** The golden-file line for @p c (no trailing newline). */
inline std::string
line(const Case &c)
{
    sim::SimOptions options;
    options.maxInsts = c.insts;
    core::RunResult r = sim::simulate(workloads::findWorkload(c.workload),
                                      params(c.config), options);
    return "{\"case\":" + sim::jsonString(c.name()) +
           ",\"result\":" + sim::runResultJsonFull(r, false) + "}";
}

} // namespace carf::golden

#endif // CARF_TESTS_GOLDEN_HH

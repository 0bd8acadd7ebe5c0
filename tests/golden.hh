/**
 * @file
 * The golden-output wall's cases and their serialization, shared by
 * the GoldenJson test (test_golden.cc) and the carf_golden tool that
 * regenerates the committed file, so the two cannot drift apart.
 *
 * Each case runs one workload on one core configuration through the
 * sim facade (idle-cycle skip on, the default) and pins its full
 * RunResult serialization with host times stripped; an SMT case pins
 * the aggregate RunResult of its thread mix. The file holds one JSON
 * object per line:
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
    /** Hardware threads; thread 0 runs workload. */
    unsigned threads = 1;
    /** Partner workloads (SimOptions::smtMix) when threads > 1. */
    std::vector<std::string> mix;

    /**
     * Unique name: `<workload>_<config>_<insts>`, with `_t<threads>`
     * before the instruction count for SMT cases; identifier-safe.
     */
    std::string
    name() const
    {
        std::string n = workload + "_" + config + "_";
        if (threads > 1)
            n += "t" + std::to_string(threads) + "_";
        n += std::to_string(insts);
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
    if (config == "ca20_k32")
        return core::CoreParams::contentAware(20, 3, 32);
    if (config == "ca20_k64")
        return core::CoreParams::contentAware(20, 3, 64);
    if (config == "ca8_k32")
        return core::CoreParams::contentAware(8, 3, 32);
    if (config == "port_reduction")
        return core::CoreParams::portReduction();
    fatal("golden: unknown config label '%s'", config.c_str());
}

/**
 * Every pinned case: the INT, FP and stall suites on five
 * configurations at 10k instructions, plus the INT suite at 100k on
 * baseline and content-aware d+n=20; then the SMT core: the
 * bench/ablation_smt grid at 10k instructions per thread (its six
 * organizations x T in {2, 4, 8} over its default mix, thread t
 * running counters, crc, hash_table, rle by t mod 4), and each
 * stall-suite kernel paired with the next one at T=2 on baseline and
 * content-aware d+n=8 with 32 Long entries. SMT cases scale the
 * rename pools as the bench does (CoreParams::scaledForThreads).
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
                out.push_back({w.name, config, 10000, 1, {}});
        }
    }
    for (const auto &w : workloads::intSuite()) {
        for (const char *config : {"baseline", "ca20"})
            out.push_back({w.name, config, 100000, 1, {}});
    }

    for (const char *config : {"baseline", "port_reduction", "ca20_k32",
                               "ca20", "ca20_k64", "unlimited"}) {
        for (unsigned t : {2u, 4u, 8u})
            out.push_back({"counters", config, 10000, t,
                           {"crc", "hash_table", "rle", "counters"}});
    }
    const auto &stall = workloads::stallSuite();
    for (size_t i = 0; i < stall.size(); ++i) {
        const std::string &partner = stall[(i + 1) % stall.size()].name;
        for (const char *config : {"baseline", "ca8_k32"})
            out.push_back({stall[i].name, config, 10000, 2, {partner}});
    }
    return out;
}

/** The golden-file line for @p c (no trailing newline). */
inline std::string
line(const Case &c)
{
    sim::SimOptions options;
    options.maxInsts = c.insts;
    options.smtMix = c.mix;
    const workloads::Workload &w = workloads::findWorkload(c.workload);
    core::CoreParams p = params(c.config);
    if (c.threads > 1)
        p = p.scaledForThreads(c.threads);
    core::RunResult r = sim::simulate(w, p, options);
    return "{\"case\":" + sim::jsonString(c.name()) +
           ",\"result\":" + sim::runResultJsonFull(r, false) + "}";
}

} // namespace carf::golden

#endif // CARF_TESTS_GOLDEN_HH

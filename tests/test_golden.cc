/**
 * @file
 * Golden-output wall: every case in golden.hh must reproduce its line
 * in golden/run_results.jsonl byte for byte. The file pins the full
 * stripped RunResult serialization of the core over the INT, FP and
 * stall suites and five configurations, and of SMT runs at two to
 * eight threads (the ablation_smt grid and stall-suite pairs), so a
 * data-path refactor of the core (which must not change a single
 * simulated statistic) is checked against a fixed reference rather
 * than against a second copy of the core.
 *
 * After an intended change to simulated behaviour, regenerate the
 * file with
 *   ./build/tools/carf_golden > tests/golden/run_results.jsonl
 * and say in the change log why the numbers moved.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "golden.hh"

namespace carf
{

namespace golden
{

/** Name the case in gtest output instead of dumping its bytes. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name();
}

} // namespace golden

namespace
{

/** The committed golden lines, keyed by case name. */
const std::map<std::string, std::string> &
goldenLines()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> out;
        std::ifstream in(CARF_GOLDEN_FILE);
        if (!in)
            return out;
        const std::string prefix = "{\"case\":\"";
        std::string line;
        while (std::getline(in, line)) {
            if (line.compare(0, prefix.size(), prefix) != 0)
                continue;
            size_t end = line.find('"', prefix.size());
            if (end == std::string::npos)
                continue;
            out[line.substr(prefix.size(), end - prefix.size())] = line;
        }
        return out;
    }();
    return lines;
}

class GoldenJson : public ::testing::TestWithParam<golden::Case>
{
};

} // namespace

TEST_P(GoldenJson, MatchesCommittedRun)
{
    const golden::Case &c = GetParam();
    auto it = goldenLines().find(c.name());
    ASSERT_NE(it, goldenLines().end())
        << c.name() << " is missing from " << CARF_GOLDEN_FILE;
    EXPECT_EQ(golden::line(c), it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Suites, GoldenJson, ::testing::ValuesIn(golden::cases()),
    [](const ::testing::TestParamInfo<golden::Case> &info) {
        return info.param.name();
    });

TEST(GoldenJsonFile, ListsExactlyTheCases)
{
    std::set<std::string> expected;
    for (const golden::Case &c : golden::cases())
        expected.insert(c.name());
    std::set<std::string> listed;
    for (const auto &entry : goldenLines())
        listed.insert(entry.first);
    EXPECT_EQ(listed, expected);
}

} // namespace carf

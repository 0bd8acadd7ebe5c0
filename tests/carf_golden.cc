/**
 * @file
 * Regenerate the golden-output wall's reference file: runs every case
 * in golden.hh and prints one line per case to stdout.
 *
 *   ./build/tools/carf_golden > tests/golden/run_results.jsonl
 */

#include <cstdio>

#include "golden.hh"

int
main()
{
    for (const carf::golden::Case &c : carf::golden::cases())
        std::printf("%s\n", carf::golden::line(c).c_str());
    return 0;
}

#!/usr/bin/env python3
"""Build carf-bench from source and run it.

    python3 carf-bench/run.py --workload solo-int --seed 1 --seconds 10 --trace 0

The simulator library (../src, through its own CMakeLists.txt) and the
carf_bench binary are built with CMake under .bench_build/ at the
repository root; build output goes to stderr. All arguments are passed
to carf_bench, whose last stdout line is the benchmark result. Exits non-zero without
a result when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "carf-bench")
# Compiler and library temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("carf-bench: simulator sources (src/) not found next to "
              "carf-bench/", file=sys.stderr)
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=ENV).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                "carf_bench"]
    return subprocess.run(compile_, stdout=sys.stderr,
                          env=ENV).returncode == 0


def main():
    if not build():
        return 3
    bench = [os.path.join(BUILD, "carf_bench"), *sys.argv[1:],
             "--work-dir", WORK]
    return subprocess.run(bench, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())

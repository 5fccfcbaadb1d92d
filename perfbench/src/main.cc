// xdb_perfbench: one run of one workload.
//   xdb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --dir <scratch database directory>
// Prints human-readable progress on stderr and, as the last line of stdout,
// one JSON object with correct/attempted/failed/metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) o.workload = v;
    else if (std::strcmp(k, "--seed") == 0) o.seed = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(k, "--seconds") == 0) o.seconds = std::atof(v);
    else if (std::strcmp(k, "--trace") == 0) o.trace = std::atoi(v) != 0;
    else if (std::strcmp(k, "--dir") == 0) o.dir = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k);
      return 2;
    }
  }
  if (o.workload.empty() || o.dir.empty() || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: xdb_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --dir D\n");
    return 2;
  }
  return perfbench::RunBenchmark(o);
}

#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

size_t PickWeighted(Rng* rng, const std::vector<unsigned>& weights) {
  unsigned total = 0;
  for (unsigned w : weights) total += w;
  uint64_t r = rng->Uniform(total);
  for (size_t i = 0; i < weights.size(); i++) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

std::string FormatCents(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

std::string ChildId(unsigned n) {
  return std::string(1, static_cast<char>(2 * n));
}

int NodeDepth(const std::string& abs_id) {
  int depth = 0;
  for (char c : abs_id)
    if ((static_cast<unsigned char>(c) & 1) == 0) depth++;
  return depth;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<MetricOut>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char num[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.9g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

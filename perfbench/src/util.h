// Small helpers shared by the benchmark driver, its workloads and the oracle
// self-test: a seeded generator independent of the engine's own, timing,
// order statistics and the one-line JSON result.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: every input the benchmark generates comes from one of these,
/// seeded from --seed, so the same seed gives the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Uniform(hi - lo + 1); }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Picks an index from integer weights.
size_t PickWeighted(Rng* rng, const std::vector<unsigned>& weights);

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

/// "12.34" from 1234.
std::string FormatCents(int64_t cents);

/// Relative node ID of the n-th child (1 <= n <= 126): the single even byte
/// 2n of the paper's prefix encoding (Section 3.1). The workloads keep every
/// ordinal in that range, so IDs of freshly inserted documents follow from
/// their structure alone.
std::string ChildId(unsigned n);

/// Number of levels of an absolute node ID: each level ends with an even
/// byte.
int NodeDepth(const std::string& abs_id);

/// Identity of one query result as the oracle compares it.
using Identity = std::pair<uint64_t, std::string>;

struct MetricOut {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last output line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<MetricOut>& metrics);

/// Resident-set high-water mark of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_

#pragma once
// Shared pieces of the lbbench binary: metric/outcome types, statistics,
// host probes, result digests and the pinned-digest table.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/json.hpp"
#include "service/scenario.hpp"

namespace lbbench {

using Clock = std::chrono::steady_clock;
using lb::service::Json;
using lb::service::Scenario;
using lb::service::ScenarioResult;

inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double secondsSince(Clock::time_point start) {
  return seconds(Clock::now() - start);
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Ordered metric list: name -> (value, unit).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `detail` is printed on its own line
/// before the result line (host calibration, per-phase counts, notes).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;  ///< false also when a check could not be made
  std::vector<Metric> metrics;
  Json detail = Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
};

/// The input variant a --seed selects.  Pinned digests exist for every
/// variant, so any seed maps onto checked inputs.
inline constexpr std::uint64_t kVariants = 32;
inline std::uint64_t variantOf(std::uint64_t seed) { return seed % kVariants; }

/// SplitMix64 of `x`: derives scenario seeds from (variant, index).
std::uint64_t mix(std::uint64_t x);

/// Four explicit bus weights, so the master count never comes from the
/// `masters` field: the rotation of {1,2,3,4} by `r % 4`.
std::vector<std::uint32_t> weightsFor(std::uint64_t r);

// ---- host probes (host.cpp) ------------------------------------------------

/// Process CPU time (user + system, all threads) in seconds.
double processCpuSeconds();
/// Peak resident set size of the process in MiB.
double peakRssMib();
/// The interval two back-to-back steady_clock::now() calls measure, in ns
/// (median of batch means): what a timed span reads for an empty body.
double clockPairNs();
/// Host-calibration block: one-thread spin rate and the parallel speedup of
/// the same spin kernel at nproc threads.  Recorded only, never used to
/// rescale a metric.
Json hostCalibration();

// ---- correctness -----------------------------------------------------------

/// 64-bit FNV-1a over the result's JSON encoding (every field, every bit of
/// every double).
std::uint64_t resultDigest(const ScenarioResult& result);
std::string hex64(std::uint64_t value);

/// Digests pinned per (workload, variant, scenario index), loaded from
/// lbbench/pinned_digests.txt.
class PinTable {
public:
  /// Throws std::runtime_error when the file is missing or malformed.
  static PinTable load(const std::string& path);
  std::optional<std::uint64_t> find(const std::string& workload,
                                    std::uint64_t variant,
                                    std::size_t index) const;

private:
  std::map<std::string, std::uint64_t> pins_;
};

// ---- workloads -------------------------------------------------------------

bool isSimWorkload(const std::string& workload);
/// The scenario list of a sim workload for one variant, in run order.
std::vector<Scenario> simScenarios(const std::string& workload,
                                   std::uint64_t variant);
Outcome runSimWorkload(const RunArgs& args, const PinTable& pins);
Outcome runLbdMixed(const RunArgs& args);

/// Prints "<workload> <variant> <index> <digest>" for every sim scenario of
/// every variant (the pinned table), or cross-checks the table against
/// kernel_mode "naive".  Return process exit codes.
int writePins();
int checkPinsAgainstNaive(const PinTable& pins,
                          const std::vector<std::uint64_t>& variants);

}  // namespace lbbench

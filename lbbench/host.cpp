// Host probes and small shared utilities for the lbbench binary.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "sim/rng.hpp"

namespace lbbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix(std::uint64_t x) { return lb::sim::SplitMix64(x).next(); }

std::vector<std::uint32_t> weightsFor(std::uint64_t r) {
  std::vector<std::uint32_t> w = {1, 2, 3, 4};
  std::rotate(w.begin(), w.begin() + static_cast<long>(r % 4), w.end());
  return w;
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peakRssMib() {
  // VmHWM is this program's own peak.  ru_maxrss is not: it keeps the
  // high-water mark of the process image that forked and exec'd it (the
  // Python wrapper), so it serves only as a fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double clockPairNs() {
  constexpr int kPairs = 20000;
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    double sum_ns = 0;
    for (int i = 0; i < kPairs; ++i) {
      const auto a = Clock::now();
      const auto c = Clock::now();
      sum_ns += std::chrono::duration<double, std::nano>(c - a).count();
    }
    batches.push_back(sum_ns / kPairs);
  }
  return median(batches);
}

namespace {

/// Fixed integer spin kernel: `iters` dependent multiply-xorshift steps.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  return x;
}

}  // namespace

Json hostCalibration() {
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};

  std::vector<double> single;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    sink += spin(kIters, static_cast<std::uint64_t>(rep));
    single.push_back(secondsSince(start));
  }
  const double one = median(single);

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const auto start = Clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&sink, t] { sink += spin(kIters, t + 11); });
    for (std::thread& thread : pool) thread.join();
  }
  const double all = secondsSince(start);

  Json block = Json::object();
  block.set("nproc", Json(static_cast<std::uint64_t>(threads)))
      .set("spin_mops_1t", Json(static_cast<double>(kIters) / one / 1e6))
      .set("parallel_speedup",
           Json(static_cast<double>(threads) * one / all));
  return block;
}

std::uint64_t resultDigest(const ScenarioResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : lb::service::toJson(result).dump()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

namespace {
std::string pinKey(const std::string& workload, std::uint64_t variant,
                   std::size_t index) {
  return workload + ' ' + std::to_string(variant) + ' ' +
         std::to_string(index);
}
}  // namespace

PinTable PinTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned digests: " + path);
  PinTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, digest;
    std::uint64_t variant = 0;
    std::size_t index = 0;
    if (!(fields >> workload >> variant >> index >> digest) ||
        digest.size() != 16)
      throw std::runtime_error("malformed pinned digest line: " + line);
    table.pins_[pinKey(workload, variant, index)] =
        std::stoull(digest, nullptr, 16);
  }
  if (table.pins_.empty())
    throw std::runtime_error("no pinned digests in " + path);
  return table;
}

std::optional<std::uint64_t> PinTable::find(const std::string& workload,
                                            std::uint64_t variant,
                                            std::size_t index) const {
  const auto it = pins_.find(pinKey(workload, variant, index));
  if (it == pins_.end()) return std::nullopt;
  return it->second;
}

}  // namespace lbbench

// sim_saturated and sim_sparse: closed loops on one thread over a fixed
// scenario list, one service::runScenario call at a time.

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "layers.hpp"
#include "sim/parallel.hpp"

namespace lbbench {

namespace svc = lb::service;

namespace {

// Sizes.  A pass (one run of the list) must be short next to --seconds so
// a run holds enough passes for a median.
constexpr lb::sim::Cycle kSaturatedCycles = 2'000'000;
constexpr lb::sim::Cycle kReplicaCycles = 1'000'000;
constexpr std::uint32_t kReplicas = 16;
constexpr lb::sim::Cycle kSparseCycles = 8'000'000;
constexpr lb::sim::Cycle kWarmupCycles = 10'000;
constexpr int kSetupReps = 5;

Scenario busScenario(const std::string& arbiter, const std::string& cls,
                     lb::sim::Cycle cycles, std::uint64_t variant,
                     std::uint64_t seed) {
  Scenario s;
  s.arbiter = arbiter;
  s.traffic_class = cls;
  s.weights = weightsFor(variant);
  s.cycles = cycles;
  s.seed = seed;
  return s;
}

Scenario presetScenario(const std::string& name, std::uint64_t seed) {
  Scenario s = svc::meshPreset(name);
  s.seed = seed;
  return s;
}

std::uint64_t simulatedCycles(const Scenario& s) {
  return s.cycles * s.replicas;
}

Json jsonArray(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double v : values) array.push(Json(v));
  return array;
}

bool tracedAsBus(const Scenario& s) {
  return !s.mesh.enabled() && s.replicas == 1;
}

}  // namespace

bool isSimWorkload(const std::string& workload) {
  return workload == "sim_saturated" || workload == "sim_sparse";
}

std::vector<Scenario> simScenarios(const std::string& workload,
                                   std::uint64_t variant) {
  std::vector<Scenario> list;
  auto seed = [&] {
    return mix((variant << 32) ^ (list.size() + 1) ^
               (workload == "sim_sparse" ? 0x5a5a0000ULL : 0));
  };
  if (workload == "sim_saturated") {
    // Backlogged T2 under every known arbiter, lottery on T8, one batched
    // 16-replica run and the 4x4 lottery mesh.
    for (const std::string& arbiter : svc::knownArbiters())
      list.push_back(
          busScenario(arbiter, "T2", kSaturatedCycles, variant, seed()));
    list.push_back(
        busScenario("lottery", "T8", kSaturatedCycles, variant, seed()));
    Scenario replicated =
        busScenario("lottery", "T2", kReplicaCycles, variant, seed());
    replicated.replicas = kReplicas;
    list.push_back(replicated);
    list.push_back(presetScenario("mesh4x4-lottery", seed()));
  } else if (workload == "sim_sparse") {
    // Mostly idle (T3), sparse (T5) and the Fig. 5 phase-locked ON/OFF class
    // (T6), each under lottery, tdma and priority, plus the 6x6 SESC mesh.
    for (const char* cls : {"T3", "T5", "T6"})
      for (const char* arbiter : {"lottery", "tdma", "priority"})
        list.push_back(
            busScenario(arbiter, cls, kSparseCycles, variant, seed()));
    list.push_back(presetScenario("mesh6x6-sesc", seed()));
  } else {
    throw std::invalid_argument("not a sim workload: " + workload);
  }
  for (Scenario& s : list) s = svc::normalized(s);
  return list;
}

namespace {

/// One pass over the scenario list.
struct Pass {
  double wall_s = 0, cpu_s = 0;
  double spans_s = 0;  ///< traced passes: build + run + collect spans
  std::uint64_t cycles = 0;
  std::vector<double> call_ms;
};

class SimRun {
public:
  SimRun(const RunArgs& args, const PinTable& pins)
      : args_(args), pins_(pins), variant_(variantOf(args.seed)) {}

  Outcome run();

private:
  void check(std::size_t index, const ScenarioResult& result) {
    ++out_.attempted;
    const auto pin = pins_.find(args_.workload, variant_, index);
    if (!pin || *pin != resultDigest(result)) {
      ++out_.failed;
      if (mismatches_.size() < 8)
        mismatches_.push(Json("scenario " + std::to_string(index) + ": " +
                              (pin ? "digest " + hex64(resultDigest(result)) +
                                         " != pinned " + hex64(*pin)
                                   : std::string("no pinned digest"))));
    }
  }

  Pass untracedPass();
  Pass tracedPass(std::vector<ScenarioResult>& results);

  const RunArgs& args_;
  const PinTable& pins_;
  std::uint64_t variant_;
  std::vector<Scenario> scenarios_;
  Outcome out_;
  Json mismatches_ = Json::array();

  // Traced-only accumulators.
  BusLayerTotals bus_;
  ScaleLayerTotals scale_;
  double singles_before_ = 0;
};

Pass SimRun::untracedPass() {
  Pass pass;
  const double cpu0 = processCpuSeconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const auto t0 = Clock::now();
    const ScenarioResult result = svc::runScenario(scenarios_[i]);
    pass.call_ms.push_back(secondsSince(t0) * 1e3);
    check(i, result);
    pass.cycles += simulatedCycles(scenarios_[i]);
  }
  pass.wall_s = secondsSince(start);
  pass.cpu_s = processCpuSeconds() - cpu0;
  return pass;
}

Pass SimRun::tracedPass(std::vector<ScenarioResult>& results) {
  Pass pass;
  results.clear();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const Scenario& s = scenarios_[i];
    ScenarioResult result;
    if (tracedAsBus(s)) {
      const BusTrace trace = traceBusScenario(s);
      bus_.add(trace);
      pass.spans_s += trace.build_s + trace.run_s + trace.collect_s;
      result = trace.result;
    } else if (s.replicas > 1) {
      const BatchedTrace trace = traceBatchedScenario(s);
      scale_.add(trace);
      pass.spans_s += trace.wall_s;
      result = trace.result;
    } else {
      const MeshTrace trace = traceMeshScenario(s);
      scale_.add(trace);
      pass.spans_s += trace.wall_s;
      result = trace.result;
      if (trace.router_grants != result.grants) {
        ++out_.failed;
        mismatches_.push(Json("mesh trace holds " +
                              std::to_string(trace.router_grants) +
                              " grants, result reports " +
                              std::to_string(result.grants)));
      }
    }
    check(i, result);
    results.push_back(result);
  }
  // The replicas' single runs are a comparison, not part of the pass.
  pass.wall_s = secondsSince(start) - (scale_.singles_s - singles_before_);
  singles_before_ = scale_.singles_s;
  return pass;
}

Outcome SimRun::run() {
  // Set-up: generate and normalize the scenario list, then run every
  // scenario briefly so one-time costs (metric families, the shared thread
  // pool, first-touch allocation) are paid before timing.  Repeated; the
  // median is reported.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    scenarios_ = simScenarios(args_.workload, variant_);
    for (Scenario s : scenarios_) {
      s.cycles = std::min(s.cycles, kWarmupCycles);
      svc::runScenario(s);
    }
    setup.push_back(secondsSince(t0));
  }

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<ScenarioResult> results;
  const auto start = Clock::now();
  // Traced runs alternate untraced and traced passes so the difference is
  // the tracing overhead under the same host conditions.
  do {
    untraced.push_back(untracedPass());
    if (args_.trace) traced.push_back(tracedPass(results));
  } while (secondsSince(start) < args_.seconds);

  // Every figure is taken per pass and reported as the median over passes.
  std::vector<double> rate, cpu, wall, p50, p99, rps;
  std::uint64_t requests = 0;
  for (const Pass& p : untraced) {
    rate.push_back(static_cast<double>(p.cycles) / p.wall_s / 1e6);
    cpu.push_back(p.cpu_s);
    wall.push_back(p.wall_s);
    p50.push_back(quantile(p.call_ms, 0.5));
    p99.push_back(quantile(p.call_ms, 0.99));
    rps.push_back(static_cast<double>(p.call_ms.size()) / p.wall_s);
    requests += p.call_ms.size();
  }

  if (!args_.trace) {
    out_.add("setup_s", median(setup), "s");
    out_.add("mcycles_per_s", median(rate), "Mcycles/s");
    out_.add("cpu_s", median(cpu), "s");
    out_.add("peak_rss_mb", peakRssMib(), "MiB");
  } else {
    std::vector<double> traced_wall, spans;
    for (const Pass& p : traced) {
      traced_wall.push_back(p.wall_s);
      spans.push_back(p.spans_s);
    }
    bus_.report(out_, clockPairNs(), traced.size());
    scale_.report(out_);
    reportServiceCodec(out_, measureServiceCodec(scenarios_, results));

    const double coverage = median(spans) / median(wall);
    out_.add("trace.overhead_s", median(traced_wall) - median(wall), "s");
    out_.add("trace.coverage", coverage, "ratio");
    out_.detail.set("traced_passes", Json(static_cast<std::uint64_t>(
                                          traced.size())));
    out_.detail.set("coverage_ok", Json(coverage >= 0.95));
  }

  out_.detail.set("workload", Json(args_.workload))
      .set("variant", Json(variant_))
      .set("scenarios", Json(static_cast<std::uint64_t>(scenarios_.size())))
      .set("passes", Json(static_cast<std::uint64_t>(untraced.size())))
      .set("requests", Json(requests))
      .set("pass_wall_s", jsonArray(wall))
      .set("pass_cpu_s", jsonArray(cpu))
      .set("call_p50_ms", Json(median(p50)))
      .set("call_p99_ms", Json(median(p99)))
      .set("calls_per_s", Json(median(rps)));
  Json per_scenario = Json::array();
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    std::vector<double> ms;
    for (const Pass& p : untraced) ms.push_back(p.call_ms[i]);
    per_scenario.push(Json(median(ms)));
  }
  out_.detail.set("scenario_ms_median", per_scenario);
  if (mismatches_.size() > 0) out_.detail.set("mismatches", mismatches_);
  out_.correct = out_.failed == 0;
  return out_;
}

}  // namespace

Outcome runSimWorkload(const RunArgs& args, const PinTable& pins) {
  return SimRun(args, pins).run();
}

namespace {

/// Digest of every sim scenario of every variant, computed in parallel with
/// `kernel_mode` forced; index order preserved.
struct PinRow {
  std::string workload;
  std::uint64_t variant = 0;
  std::size_t index = 0;
  Scenario scenario;
};

std::vector<PinRow> pinRows(const std::vector<std::uint64_t>& variants) {
  std::vector<PinRow> rows;
  for (const char* workload : {"sim_saturated", "sim_sparse"})
    for (const std::uint64_t v : variants) {
      const std::vector<Scenario> list = simScenarios(workload, v);
      for (std::size_t i = 0; i < list.size(); ++i)
        rows.push_back({workload, v, i, list[i]});
    }
  return rows;
}

std::vector<std::uint64_t> digestRows(const std::vector<PinRow>& rows,
                                      const std::string& kernel_mode) {
  return lb::sim::parallelMap<std::uint64_t>(
      rows.size(), [&](std::size_t i) {
        Scenario s = rows[i].scenario;
        s.kernel_mode = kernel_mode;
        lb::service::RunOptions options;
        options.instrument = false;
        return resultDigest(svc::runScenario(s, options));
      });
}

}  // namespace

int writePins() {
  std::vector<std::uint64_t> variants;
  for (std::uint64_t v = 0; v < kVariants; ++v) variants.push_back(v);
  const std::vector<PinRow> rows = pinRows(variants);
  const std::vector<std::uint64_t> digests = digestRows(rows, "fast");
  std::printf(
      "# lbbench pinned ScenarioResult digests: workload variant index "
      "fnv1a64(toJson(result).dump())\n");
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::printf("%s %llu %zu %s\n", rows[i].workload.c_str(),
                static_cast<unsigned long long>(rows[i].variant),
                rows[i].index, hex64(digests[i]).c_str());
  return 0;
}

int checkPinsAgainstNaive(const PinTable& pins,
                          const std::vector<std::uint64_t>& variants) {
  const std::vector<PinRow> rows = pinRows(variants);
  const std::vector<std::uint64_t> digests = digestRows(rows, "naive");
  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto pin = pins.find(rows[i].workload, rows[i].variant, rows[i].index);
    if (!pin || *pin != digests[i]) {
      ++bad;
      std::printf("MISMATCH %s %llu %zu naive=%s pinned=%s\n",
                  rows[i].workload.c_str(),
                  static_cast<unsigned long long>(rows[i].variant),
                  rows[i].index, hex64(digests[i]).c_str(),
                  pin ? hex64(*pin).c_str() : "none");
    }
  }
  std::printf("checked %zu pinned digests against kernel_mode naive: %zu "
              "mismatches\n",
              rows.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace lbbench

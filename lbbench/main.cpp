// lbbench: the repository benchmark.
//
//   lbbench --workload <sim_saturated|sim_sparse|lbd_mixed> --seed N
//           --seconds S --trace 0|1 --pins lbbench/pinned_digests.txt
//   lbbench --write-pins                 regenerate the pinned digest table
//   lbbench --check-naive --pins FILE [--variants a,b,...]
//                                        cross-check the table against the
//                                        naive kernel
//
// A workload run prints a detail line, then as its last line one JSON
// object {"correct","attempted","failed","metrics"}.  It exits 1 when any
// output failed its correctness check.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace lbbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lbbench: %s\nusage: lbbench --workload W --seed N --seconds S "
               "--trace 0|1 --pins FILE\n       lbbench --write-pins\n"
               "       lbbench --check-naive --pins FILE [--variants a,b]\n",
               why);
  std::exit(2);
}

std::uint64_t parseU64(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used, 10);
    if (used != text.size() || text[0] == '-') throw std::invalid_argument("");
    return v;
  } catch (const std::exception&) {
    usage((std::string("bad ") + what + ": " + text).c_str());
  }
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric names BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"mcycles_per_s", "Mcycles/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"sim.kernel.executed_cycles", "count"},
    {"sim.kernel.skipped_cycles", "count"},
    {"sim.kernel.skip_frac", "ratio"},
    {"sim.kernel.run_s", "s"},
    {"sim.kernel.ns_per_executed_cycle", "ns"},
    {"sim.batched.wall_s", "s"},
    {"sim.batched.parallel_speedup", "ratio"},
    {"traffic.testbed.build_us", "us"},
    {"traffic.testbed.collect_us", "us"},
    {"arbiters.arbitrate_calls", "count"},
    {"arbiters.valid_grant_frac", "ratio"},
    {"arbiters.ns_per_decide", "ns"},
    {"bus.grants", "count"},
    {"bus.messages_completed", "count"},
    {"bus.unutilized_frac", "ratio"},
    {"noc.run_s", "s"},
    {"noc.ns_per_node_cycle", "ns"},
    {"noc.router_grants", "count"},
    {"service.codec.parse_us", "us"},
    {"service.scenario.hash_us", "us"},
    {"service.cache.get_us", "us"},
    {"service.cache.put_us", "us"},
    {"service.cache.hit_frac", "ratio"},
    {"service.job_engine.queue_wait_us.p50", "us"},
    {"service.job_engine.queue_wait_us.p99", "us"},
    {"service.job_engine.execute_us", "us"},
    {"service.codec.serialize_us", "us"},
    {"service.server.overhead_us", "us"},
    {"service.server.stage_us", "us"},
    {"service.server.high.p50_ms", "ms"},
    {"service.server.high.p99_ms", "ms"},
    {"service.server.high.achieved_rps", "1/s"},
    {"service.server.low.p50_ms", "ms"},
    {"service.server.low.p99_ms", "ms"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
    {"host.spin_mops_1t", "Mops/s"},
    {"host.parallel_speedup", "ratio"},
};

/// Orders the reported metrics as declared.  A per-layer metric a workload
/// never reaches (e.g. the server layers on a sim workload) reads 0 and is
/// listed in the detail line; a missing end-to-end metric is a bug.
void conform(Outcome& out, bool trace) {
  std::vector<Metric> ordered;
  Json absent = Json::array();
  auto take = [&](const MetricSpec& spec, bool required) {
    for (const Metric& m : out.metrics)
      if (m.name == spec.name) {
        if (m.unit != spec.unit)
          throw std::logic_error(std::string("unit mismatch for ") +
                                 spec.name);
        ordered.push_back(m);
        return;
      }
    if (required)
      throw std::logic_error(std::string("missing metric ") + spec.name);
    ordered.push_back({spec.name, 0.0, spec.unit});
    absent.push(Json(spec.name));
  };
  if (trace)
    for (const MetricSpec& spec : kPerLayer) take(spec, false);
  else
    for (const MetricSpec& spec : kEndToEnd) take(spec, true);
  if (ordered.size() != out.metrics.size() + absent.size())
    throw std::logic_error("undeclared metric reported");
  out.metrics = std::move(ordered);
  if (absent.size() > 0) out.detail.set("not_on_this_path", absent);
}

void print(const Outcome& out) {
  Json detail = Json::object();
  detail.set("detail", out.detail);
  std::cout << detail.dump() << "\n";
  Json metrics = Json::object();
  for (const Metric& m : out.metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value)).set("unit", Json(m.unit));
    metrics.set(m.name, entry);
  }
  Json line = Json::object();
  line.set("correct", Json(out.correct))
      .set("attempted", Json(out.attempted))
      .set("failed", Json(out.failed))
      .set("metrics", metrics);
  std::cout << line.dump() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool write_pins = false, check_naive = false;
  std::vector<std::uint64_t> variants;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = parseU64(value(), "seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = static_cast<double>(parseU64(value(), "seconds"));
      have_seconds = args.seconds >= 1;
    } else if (arg == "--trace") {
      const std::uint64_t t = parseU64(value(), "trace");
      if (t > 1) usage("--trace takes 0 or 1");
      args.trace = t == 1;
      have_trace = true;
    } else if (arg == "--pins") {
      args.pins_path = value();
    } else if (arg == "--write-pins") {
      write_pins = true;
    } else if (arg == "--check-naive") {
      check_naive = true;
    } else if (arg == "--variants") {
      const std::string list = value();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        variants.push_back(parseU64(list.substr(pos, comma - pos), "variant"));
        pos = comma + 1;
      }
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    if (write_pins) return writePins();
    if (check_naive) {
      if (variants.empty())
        for (std::uint64_t v = 0; v < kVariants; ++v) variants.push_back(v);
      return checkPinsAgainstNaive(PinTable::load(args.pins_path), variants);
    }
    if (!have_seed || !have_seconds || !have_trace)
      usage("--seed, --seconds (>= 1) and --trace are required");

    Outcome out;
    if (isSimWorkload(args.workload)) {
      out = runSimWorkload(args, PinTable::load(args.pins_path));
    } else if (args.workload == "lbd_mixed") {
      out = runLbdMixed(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    const Json host = hostCalibration();
    out.detail.set("host", host);
    if (args.trace) {
      out.add("host.spin_mops_1t", host.at("spin_mops_1t").asDouble(),
              "Mops/s");
      out.add("host.parallel_speedup", host.at("parallel_speedup").asDouble(),
              "ratio");
    }
    conform(out, args.trace);
    print(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbbench: %s\n", e.what());
    return 1;
  }
}

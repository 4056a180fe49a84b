#pragma once
// Per-layer instruments for the traced run.  Everything here is assembled
// from the simulator's public API and times calls from the outside; the
// program itself is not instrumented.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace lbbench {

/// One bus scenario run through the traced path: the pieces runScenario
/// uses (defaultBusConfig, makeArbiter, paramsFor, TestbedInstance,
/// kernel().run, finish), with the arbiter wrapped in a timing forwarder.
/// `result` must equal runScenario's bit for bit.
struct BusTrace {
  ScenarioResult result;
  double build_s = 0, run_s = 0, collect_s = 0;
  std::uint64_t executed_cycles = 0, skipped_cycles = 0;
  std::uint64_t arbitrate_calls = 0, valid_grants = 0;
  double arbitrate_ns = 0;  ///< summed, clock-pair cost included
};

/// Single-run bus scenarios only (no mesh, replicas == 1).
BusTrace traceBusScenario(const Scenario& scenario);

/// Running totals of the bus-path layers over a set of scenarios.
struct BusLayerTotals {
  std::uint64_t scenarios = 0;
  double build_s = 0, run_s = 0, collect_s = 0;
  std::uint64_t executed_cycles = 0, skipped_cycles = 0;
  std::uint64_t arbitrate_calls = 0, valid_grants = 0;
  double arbitrate_ns = 0;
  std::uint64_t grants = 0, messages = 0;
  double unutilized_sum = 0;

  void add(const BusTrace& trace);
  /// Appends the sim.kernel / traffic / arbiters / bus metrics, per pass
  /// over `passes` identical passes.
  void report(Outcome& out, double clock_pair_ns, std::size_t passes) const;
};

/// A replicated scenario timed through runScenario (the batched runner),
/// and the same replicas run singly one after another with replicaSeed.
struct BatchedTrace {
  ScenarioResult result;
  double wall_s = 0, singles_s = 0;
};
BatchedTrace traceBatchedScenario(const Scenario& scenario);

/// A mesh scenario timed through runScenario with its router grant trace
/// captured.
struct MeshTrace {
  ScenarioResult result;
  double wall_s = 0;
  double node_cycles = 0;
  std::uint64_t router_grants = 0;
};
MeshTrace traceMeshScenario(const Scenario& scenario);

/// Running totals of the batched-runner and mesh layers.
struct ScaleLayerTotals {
  std::size_t batched_runs = 0, mesh_runs = 0;
  double batched_wall_s = 0, singles_s = 0;
  double mesh_wall_s = 0, node_cycles = 0;
  std::uint64_t router_grants = 0;

  void add(const BatchedTrace& trace);
  void add(const MeshTrace& trace);
  /// Appends the sim.batched and noc metrics (per run).
  void report(Outcome& out) const;
};

/// Per-call service-layer costs over a stream of scenarios (codec, content
/// hash, cache, serialization), each a vector of microseconds.
struct ServiceCodecTimes {
  std::vector<double> parse_us, hash_us, get_us, put_us, serialize_us;
  std::uint64_t gets = 0, hits = 0;
  std::uint64_t serialized_bytes = 0;  ///< uses every timed dump
};

/// Times the service's per-request pure work on `scenarios` with the
/// matching `results`: Json::parse + scenarioFromJson of the wire form,
/// normalized + scenarioHash, ResultCache get and put, toJson(result) +
/// dump.  The cache starts empty and a miss is followed by a put, as on the
/// server, so repeats in the stream are hits.
ServiceCodecTimes measureServiceCodec(
    const std::vector<Scenario>& scenarios,
    const std::vector<ScenarioResult>& results);

/// Appends the codec / hash / cache / serialize metrics.
void reportServiceCodec(Outcome& out, const ServiceCodecTimes& times);

}  // namespace lbbench

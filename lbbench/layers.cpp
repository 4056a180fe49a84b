// Traced-run instruments: the timing arbiter forwarder, the traced bus
// path and the service per-request cost probes.

#include "layers.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "traffic/testbed.hpp"

namespace lbbench {

namespace {

using lb::bus::Grant;
using lb::bus::IArbiter;
using lb::bus::MasterId;
using lb::bus::RequestView;
using lb::sim::Cycle;

/// Forwards every IArbiter call to the wrapped arbiter and times
/// arbitrate().  The wrapped arbiter keeps no observer; the bus attaches its
/// observer to this forwarder, which reports the same decisions.
class TimingArbiter final : public IArbiter {
public:
  explicit TimingArbiter(std::unique_ptr<IArbiter> inner)
      : inner_(std::move(inner)) {}

  Cycle nextGrantOpportunity(const RequestView& requests,
                             Cycle now) const override {
    return inner_->nextGrantOpportunity(requests, now);
  }
  std::string name() const override { return inner_->name(); }
  bool shouldPreempt(MasterId current, const RequestView& requests,
                     Cycle now) override {
    return inner_->shouldPreempt(current, requests, now);
  }
  void reset() override { inner_->reset(); }

  std::uint64_t calls = 0;
  std::uint64_t valid = 0;
  double ns = 0;

protected:
  Grant decide(const RequestView& requests, Cycle now) override {
    const auto start = Clock::now();
    const Grant grant = inner_->arbitrate(requests, now);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count();
    ++calls;
    valid += grant.valid() ? 1 : 0;
    return grant;
  }

private:
  std::unique_ptr<IArbiter> inner_;
};

double micros(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

BusTrace traceBusScenario(const Scenario& raw) {
  namespace svc = lb::service;
  namespace traffic = lb::traffic;
  const Scenario scenario = svc::normalized(raw);

  BusTrace trace;
  const auto build_start = Clock::now();
  lb::bus::BusConfig config = traffic::defaultBusConfig(scenario.masters);
  config.max_burst_words = scenario.burst;
  auto timing = std::make_unique<TimingArbiter>(svc::makeArbiter(scenario));
  TimingArbiter* arbiter = timing.get();

  // Same instruments runScenario installs by default, so both paths do the
  // same work per cycle.
  lb::obs::MetricsRegistry& registry = lb::obs::registry();
  svc::GrantTally tally(scenario.masters);
  lb::sim::CycleKernel* kernel = nullptr;
  traffic::TestbedOptions options;
  options.kernel_mode = scenario.kernel_mode == "naive"
                            ? lb::sim::KernelMode::kNaive
                            : lb::sim::KernelMode::kFast;
  const std::size_t masters = scenario.masters;
  options.setup = [&](lb::bus::Bus& bus, lb::sim::CycleKernel& k) {
    bus.setMetricsSinks(
        svc::makeBusSinks(registry, bus.arbiter().name(), masters));
    bus.arbiter().setObserver(&tally);
    kernel = &k;
  };
  traffic::TestbedInstance testbed(
      std::move(config), std::move(timing),
      traffic::paramsFor(traffic::trafficClass(scenario.traffic_class),
                         scenario.masters, scenario.seed),
      std::move(options));
  const auto run_start = Clock::now();
  testbed.runWarmup();
  testbed.kernel().run(scenario.cycles);
  const auto collect_start = Clock::now();
  const traffic::TestbedResult run = testbed.finish(scenario.cycles);
  testbed.bus().arbiter().setObserver(nullptr);
  tally.publish(registry, testbed.bus().arbiter().name());
  ScenarioResult& result = trace.result;
  result.bandwidth_fraction = run.bandwidth_fraction;
  result.traffic_share = run.traffic_share;
  result.cycles_per_word = run.cycles_per_word;
  result.mean_message_latency = run.mean_message_latency;
  result.messages_completed = run.messages_completed;
  result.unutilized_fraction = run.unutilized_fraction;
  result.grants = run.grants;
  result.preemptions = run.preemptions;
  result.cycles = run.cycles;
  const auto end = Clock::now();

  trace.build_s = seconds(run_start - build_start);
  trace.run_s = seconds(collect_start - run_start);
  trace.collect_s = seconds(end - collect_start);
  trace.skipped_cycles = kernel->cyclesSkipped();
  trace.executed_cycles = kernel->now() - trace.skipped_cycles;
  trace.arbitrate_calls = arbiter->calls;
  trace.valid_grants = arbiter->valid;
  trace.arbitrate_ns = arbiter->ns;
  return trace;
}

void BusLayerTotals::add(const BusTrace& trace) {
  ++scenarios;
  build_s += trace.build_s;
  run_s += trace.run_s;
  collect_s += trace.collect_s;
  executed_cycles += trace.executed_cycles;
  skipped_cycles += trace.skipped_cycles;
  arbitrate_calls += trace.arbitrate_calls;
  valid_grants += trace.valid_grants;
  arbitrate_ns += trace.arbitrate_ns;
  grants += trace.result.grants;
  for (const std::uint64_t m : trace.result.messages_completed) messages += m;
  unutilized_sum += trace.result.unutilized_fraction;
}

namespace {
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
}  // namespace

void BusLayerTotals::report(Outcome& out, double clock_pair_ns,
                            std::size_t passes) const {
  const auto p = static_cast<double>(passes);
  const auto n = static_cast<double>(scenarios);
  const auto executed = static_cast<double>(executed_cycles);
  const auto skipped = static_cast<double>(skipped_cycles);
  const auto calls = static_cast<double>(arbitrate_calls);
  out.add("sim.kernel.executed_cycles", ratio(executed, p), "count");
  out.add("sim.kernel.skipped_cycles", ratio(skipped, p), "count");
  out.add("sim.kernel.skip_frac", ratio(skipped, executed + skipped), "ratio");
  out.add("sim.kernel.run_s", ratio(run_s, p), "s");
  out.add("sim.kernel.ns_per_executed_cycle", ratio(run_s * 1e9, executed),
          "ns");
  out.add("traffic.testbed.build_us", ratio(build_s * 1e6, n), "us");
  out.add("traffic.testbed.collect_us", ratio(collect_s * 1e6, n), "us");
  out.add("arbiters.arbitrate_calls", ratio(calls, p), "count");
  out.add("arbiters.valid_grant_frac",
          ratio(static_cast<double>(valid_grants), calls), "ratio");
  // The forwarder's clock pair is charged once per call; take it out.
  out.add("arbiters.ns_per_decide",
          ratio(arbitrate_ns - calls * clock_pair_ns, calls), "ns");
  out.add("bus.grants", ratio(static_cast<double>(grants), p), "count");
  out.add("bus.messages_completed", ratio(static_cast<double>(messages), p),
          "count");
  out.add("bus.unutilized_frac", ratio(unutilized_sum, n), "ratio");
}

BatchedTrace traceBatchedScenario(const Scenario& scenario) {
  namespace svc = lb::service;
  BatchedTrace trace;
  const auto start = Clock::now();
  trace.result = svc::runScenario(scenario);
  trace.wall_s = secondsSince(start);
  for (std::uint32_t r = 0; r < scenario.replicas; ++r) {
    Scenario single = scenario;
    single.replicas = 1;
    single.seed = svc::replicaSeed(scenario.seed, r);
    const auto t0 = Clock::now();
    svc::runScenario(single);
    trace.singles_s += secondsSince(t0);
  }
  return trace;
}

MeshTrace traceMeshScenario(const Scenario& raw) {
  namespace svc = lb::service;
  const Scenario scenario = svc::normalized(raw);
  std::vector<lb::noc::NocGrantRecord> grants;
  svc::RunOptions options;
  options.capture_mesh_trace = &grants;
  MeshTrace trace;
  const auto start = Clock::now();
  trace.result = svc::runScenario(scenario, options);
  trace.wall_s = secondsSince(start);
  trace.node_cycles = static_cast<double>(scenario.masters) *
                      static_cast<double>(scenario.cycles);
  trace.router_grants = grants.size();
  return trace;
}

void ScaleLayerTotals::add(const BatchedTrace& trace) {
  ++batched_runs;
  batched_wall_s += trace.wall_s;
  singles_s += trace.singles_s;
}

void ScaleLayerTotals::add(const MeshTrace& trace) {
  ++mesh_runs;
  mesh_wall_s += trace.wall_s;
  node_cycles += trace.node_cycles;
  router_grants += trace.router_grants;
}

void ScaleLayerTotals::report(Outcome& out) const {
  out.add("sim.batched.wall_s",
          ratio(batched_wall_s, static_cast<double>(batched_runs)), "s");
  out.add("sim.batched.parallel_speedup", ratio(singles_s, batched_wall_s),
          "ratio");
  out.add("noc.run_s", ratio(mesh_wall_s, static_cast<double>(mesh_runs)),
          "s");
  out.add("noc.ns_per_node_cycle", ratio(mesh_wall_s * 1e9, node_cycles),
          "ns");
  out.add("noc.router_grants",
          ratio(static_cast<double>(router_grants),
                static_cast<double>(mesh_runs)),
          "count");
}

ServiceCodecTimes measureServiceCodec(
    const std::vector<Scenario>& scenarios,
    const std::vector<ScenarioResult>& results) {
  namespace svc = lb::service;
  // A private registry keeps the probe's lb_cache_* counts out of the
  // process-wide one the server reports.
  lb::obs::MetricsRegistry registry;
  svc::ResultCache cache(1024, "", &registry);
  ServiceCodecTimes times;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string wire = svc::toJson(scenarios[i]).dump();

    auto t0 = Clock::now();
    const Scenario parsed = svc::scenarioFromJson(Json::parse(wire));
    auto t1 = Clock::now();
    times.parse_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const std::uint64_t hash = svc::scenarioHash(svc::normalized(parsed));
    t1 = Clock::now();
    times.hash_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const bool hit = cache.get(hash).has_value();
    t1 = Clock::now();
    times.get_us.push_back(micros(t0, t1));
    ++times.gets;
    if (hit) {
      ++times.hits;
    } else {
      t0 = Clock::now();
      cache.put(hash, parsed, results[i]);
      t1 = Clock::now();
      times.put_us.push_back(micros(t0, t1));
    }

    t0 = Clock::now();
    times.serialized_bytes += svc::toJson(results[i]).dump().size();
    t1 = Clock::now();
    times.serialize_us.push_back(micros(t0, t1));
  }
  return times;
}

void reportServiceCodec(Outcome& out, const ServiceCodecTimes& times) {
  out.add("service.codec.parse_us", median(times.parse_us), "us");
  out.add("service.scenario.hash_us", median(times.hash_us), "us");
  out.add("service.cache.get_us", median(times.get_us), "us");
  out.add("service.cache.put_us", median(times.put_us), "us");
  out.add("service.cache.hit_frac",
          times.gets > 0 ? static_cast<double>(times.hits) /
                               static_cast<double>(times.gets)
                         : 0.0,
          "ratio");
  out.add("service.codec.serialize_us", median(times.serialize_us), "us");
}

}  // namespace lbbench

// lbd_mixed: an open loop of `run` requests over loopback to an in-process
// service::Server configured like lbd's defaults (flight recorder on,
// shedding on), with 2 engine workers.
//
// About 80% of requests hit a hot set prewarmed during set-up (parse, hash,
// cache get, serialize); about 20% are fresh-seed 20k-cycle bus scenarios
// (queue, execute, cache put).  Two phases at fixed absolute rates: `low`
// and `high`.  Requests are sent on a fixed schedule by one sender thread
// over 4 pipelined connections and read back by one receiver thread; every
// request is timed from its due time.  Every response is checked against
// an in-process runScenario of the same scenario.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/flight_recorder.hpp"
#include "service/server.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

namespace lbbench {

namespace svc = lb::service;

namespace {

constexpr double kLowRate = 1500;    // req/s
/// About half the rate at which p99 crosses the limit (near 5k req/s on a
/// quiet 4-vCPU host, where the 2 workers saturate on fresh scenarios).
constexpr double kHighRate = 2500;   // req/s
constexpr double kLimitMs = 10;      // latency limit on p99
constexpr double kMissShare = 0.2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kEngineWorkers = 2;
constexpr lb::sim::Cycle kMissCycles = 20'000;
constexpr int kSetupReps = 5;
/// Requests still unanswered this long after the last send time out.
constexpr double kDrainSeconds = 5;
/// Fresh scenarios the traced run sends through the traced bus path.
constexpr std::size_t kTracedMisses = 400;

// ---- inputs ----------------------------------------------------------------

/// The hot set: bus scenarios over several arbiters and classes, plus one
/// mesh and one replicated scenario, so the hit path serializes every
/// result shape.
std::vector<Scenario> hotSet(std::uint64_t variant) {
  const char* arbiters[] = {"lottery", "tdma", "priority", "rr", "wrr",
                            "token", "random", "fcfs", "lottery-dynamic"};
  const char* classes[] = {"T2", "T3", "T5", "T8"};
  std::vector<Scenario> hot;
  for (std::size_t i = 0; i < 30; ++i) {
    Scenario s;
    s.arbiter = arbiters[i % 9];
    s.traffic_class = classes[(i / 9) % 4];
    s.weights = weightsFor(i + variant);
    s.cycles = kMissCycles;
    s.seed = mix((variant << 40) ^ (0x401ULL + i));
    hot.push_back(svc::normalized(s));
  }
  Scenario mesh = svc::meshPreset("mesh4x4-lottery");
  mesh.cycles = kMissCycles;
  mesh.seed = mix((variant << 40) ^ 0x7771ULL);
  hot.push_back(svc::normalized(mesh));
  Scenario replicated = hot.front();
  replicated.replicas = 4;
  replicated.seed = mix((variant << 40) ^ 0x7772ULL);
  hot.push_back(svc::normalized(replicated));
  return hot;
}

/// A fresh bus scenario (never repeated within a run, never in the hot set).
Scenario freshScenario(std::uint64_t variant, std::uint64_t seed,
                       std::size_t phase, std::size_t i) {
  const char* arbiters[] = {"lottery", "tdma", "priority", "rr", "wrr"};
  Scenario s;
  s.arbiter = arbiters[i % 5];
  s.traffic_class = "T2";
  s.weights = weightsFor(i / 5 + variant);
  s.cycles = kMissCycles;
  s.seed = mix(seed * 0x10001ULL + (phase << 40) + i + 0x9000000ULL);
  return svc::normalized(s);
}

struct Request {
  double due_s = 0;          ///< offset from phase start
  std::int64_t hot = -1;     ///< hot-set index, or -1 for a fresh scenario
  Scenario scenario;
  std::string line;          ///< wire form, newline-terminated
};

std::string runLine(const Scenario& s) {
  Json request = Json::object();
  request.set("verb", Json("run")).set("scenario", svc::toJson(s));
  return request.dump() + "\n";
}

std::vector<Request> makeStream(const std::vector<Scenario>& hot,
                                std::uint64_t seed, std::size_t phase,
                                double rate, double duration) {
  lb::sim::SplitMix64 rng(mix(seed ^ (0xabcdULL + phase)));
  const auto n = static_cast<std::size_t>(rate * duration);
  std::vector<Request> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = stream[i];
    r.due_s = static_cast<double>(i) / rate;
    const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
    if (u < kMissShare) {
      r.scenario = freshScenario(variantOf(seed), seed, phase, i);
    } else {
      r.hot = static_cast<std::int64_t>(rng.next() % hot.size());
      r.scenario = hot[static_cast<std::size_t>(r.hot)];
    }
    r.line = runLine(r.scenario);
  }
  return stream;
}

// ---- loopback client connections ------------------------------------------

class Connection {
public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void sendAll(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available; appends complete lines to `lines`.  False on
  /// EOF or error.
  bool readLines(std::vector<std::string>& lines) {
    char buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n <= 0) return false;
    pending_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1)
      lines.push_back(pending_.substr(start, nl - start));
    pending_.erase(0, start);
    return true;
  }

  /// Sends one line and blocks for its one-line response.
  std::string call(const std::string& line) {
    sendAll(line);
    std::vector<std::string> lines;
    while (lines.empty())
      if (!readLines(lines)) throw std::runtime_error("server closed");
    return lines.front();
  }

private:
  int fd_ = -1;
  std::string pending_;
};

// ---- server ----------------------------------------------------------------

/// A booted server with its recorder and client connections.
struct Rig {
  std::unique_ptr<lb::obs::FlightRecorder> recorder;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;

  ~Rig() {
    connections.clear();
    if (server) server->stop();
  }
};

svc::ServerOptions serverOptions(lb::obs::FlightRecorder* recorder) {
  // lbd's defaults (examples/lbd.cpp) with 2 engine workers.
  svc::ServerOptions options;
  options.port = 0;
  options.engine.workers = kEngineWorkers;
  options.engine.shed_when_full = true;
  options.read_deadline = std::chrono::milliseconds(300000);
  options.recorder = recorder;
  return options;
}

/// Boots the server, connects the clients and prewarms the hot set.
/// Returns the prewarm responses in hot-set order.
std::vector<std::string> bootAndPrewarm(Rig& rig,
                                        const std::vector<Scenario>& hot) {
  rig.recorder = std::make_unique<lb::obs::FlightRecorder>(4096);
  rig.server =
      std::make_unique<svc::Server>(serverOptions(rig.recorder.get()));
  rig.server->start();
  for (std::size_t c = 0; c < kConnections; ++c)
    rig.connections.push_back(
        std::make_unique<Connection>(rig.server->port()));
  // Pipelined over every connection, so set-up time is the two workers'
  // simulation rather than one round trip after another.
  std::vector<std::string> batches(kConnections);
  for (std::size_t i = 0; i < hot.size(); ++i)
    batches[i % kConnections] += runLine(hot[i]);
  for (std::size_t c = 0; c < kConnections; ++c)
    rig.connections[c]->sendAll(batches[c]);
  std::vector<std::string> responses(hot.size());
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::vector<std::string> lines;
    const std::size_t expected =
        (hot.size() + kConnections - 1 - c) / kConnections;
    while (lines.size() < expected)
      if (!rig.connections[c]->readLines(lines))
        throw std::runtime_error("server closed during prewarm");
    for (std::size_t k = 0; k < lines.size(); ++k)
      responses[c + k * kConnections] = std::move(lines[k]);
  }
  return responses;
}

// ---- open-loop phase ---------------------------------------------------------

struct PhaseRecord {
  std::vector<double> send_late_s;  ///< actual send - due
  std::vector<double> latency_ms;   ///< receive - due; NaN when unanswered
  std::vector<std::string> responses;
  double cpu_s = 0;
};

PhaseRecord runPhase(Rig& rig, const std::vector<Request>& stream) {
  const std::size_t n = stream.size();
  PhaseRecord rec;
  rec.send_late_s.assign(n, 0.0);
  rec.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  rec.responses.assign(n, std::string());
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double offset) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset));
  };
  const double horizon = (n > 0 ? stream.back().due_s : 0) + kDrainSeconds;
  bool send_failed = false;

  // Request i goes to connection i % kConnections; each connection answers
  // in request order, so its k-th response belongs to request c + k * conns.
  std::thread receiver([&] {
    std::vector<std::size_t> next(kConnections, 0);
    std::size_t received = 0;
    std::vector<pollfd> fds(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c)
      fds[c] = {rig.connections[c]->fd(), POLLIN, 0};
    std::vector<std::string> lines;
    while (received < n && Clock::now() < at(horizon)) {
      if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
      const auto now = Clock::now();
      for (std::size_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        lines.clear();
        if (!rig.connections[c]->readLines(lines)) fds[c].fd = -1;
        for (std::string& line : lines) {
          const std::size_t i = c + next[c]++ * kConnections;
          if (i >= n) continue;
          rec.latency_ms[i] =
              std::chrono::duration<double, std::milli>(now - at(stream[i].due_s))
                  .count();
          rec.responses[i] = std::move(line);
          ++received;
        }
      }
    }
  });

  for (std::size_t i = 0; i < n && !send_failed; ++i) {
    const auto due = at(stream[i].due_s);
    std::this_thread::sleep_until(due);
    rec.send_late_s[i] = seconds(Clock::now() - due);
    try {
      rig.connections[i % kConnections]->sendAll(stream[i].line);
    } catch (const std::exception&) {
      send_failed = true;
    }
  }
  receiver.join();
  rec.cpu_s = processCpuSeconds() - cpu0;
  return rec;
}

// ---- checking ----------------------------------------------------------------

enum class Verdict { kOk, kShed, kTimeout, kWrong };

struct Checked {
  std::vector<Verdict> verdicts;
  /// Simulation rate (cycles per engine-execute microsecond) of every
  /// fresh request the server executed.
  std::vector<double> fresh_rate;
};

/// Checks every response of a phase: hits against the hot set's in-process
/// results, fresh scenarios against runScenario computed here (after the
/// phase, in parallel).
Checked checkPhase(const std::vector<Request>& stream, const PhaseRecord& rec,
                   const std::vector<ScenarioResult>& hot_expected) {
  const std::size_t n = stream.size();
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < n; ++i)
    if (stream[i].hot < 0 && !rec.responses[i].empty()) fresh.push_back(i);
  const std::vector<ScenarioResult> fresh_expected =
      lb::sim::parallelMap<ScenarioResult>(fresh.size(), [&](std::size_t k) {
        return svc::runScenario(stream[fresh[k]].scenario);
      });
  std::vector<const ScenarioResult*> expected(n, nullptr);
  for (std::size_t k = 0; k < fresh.size(); ++k)
    expected[fresh[k]] = &fresh_expected[k];

  Checked checked;
  checked.verdicts.assign(n, Verdict::kWrong);
  for (std::size_t i = 0; i < n; ++i) {
    if (rec.responses[i].empty()) {
      checked.verdicts[i] = Verdict::kTimeout;
      continue;
    }
    try {
      const Json response = Json::parse(rec.responses[i]);
      const Json* ok = response.find("ok");
      if (ok == nullptr || !ok->asBool()) {
        const Json* overloaded = response.find("overloaded");
        const Json* timeout = response.find("timeout");
        checked.verdicts[i] =
            overloaded != nullptr && overloaded->asBool() ? Verdict::kShed
            : timeout != nullptr && timeout->asBool()     ? Verdict::kTimeout
                                                          : Verdict::kWrong;
        continue;
      }
      const ScenarioResult got = svc::resultFromJson(response.at("result"));
      const ScenarioResult& want =
          stream[i].hot >= 0
              ? hot_expected[static_cast<std::size_t>(stream[i].hot)]
              : *expected[i];
      if (!(got == want)) continue;
      checked.verdicts[i] = Verdict::kOk;
      if (stream[i].hot < 0 && !response.at("cached").asBool()) {
        const double us = response.at("execute_micros").asDouble();
        if (us > 0)
          checked.fresh_rate.push_back(
              static_cast<double>(stream[i].scenario.cycles) / us);
      }
    } catch (const std::exception&) {
      checked.verdicts[i] = Verdict::kWrong;
    }
  }
  return checked;
}

struct PhaseSummary {
  double p50_ms = 0, p99_ms = 0, achieved_rps = 0, late_p99_ms = 0;
  std::uint64_t attempted = 0, succeeded = 0, shed = 0, timed_out = 0,
                failed = 0, over_limit = 0;
  bool valid = true;
  Json json() const {
    Json j = Json::object();
    j.set("attempted", Json(attempted))
        .set("succeeded", Json(succeeded))
        .set("shed", Json(shed))
        .set("timed_out", Json(timed_out))
        .set("failed", Json(failed))
        .set("over_limit", Json(over_limit))
        .set("p50_ms", Json(p50_ms))
        .set("p99_ms", Json(p99_ms))
        .set("achieved_rps", Json(achieved_rps))
        .set("generator_late_p99_ms", Json(late_p99_ms))
        .set("valid", Json(valid));
    return j;
  }
};

PhaseSummary summarize(const PhaseRecord& rec, const Checked& checked,
                       double rate) {
  PhaseSummary s;
  std::vector<double> latency;
  for (std::size_t i = 0; i < rec.latency_ms.size(); ++i) {
    ++s.attempted;
    double ms = rec.latency_ms[i];
    switch (checked.verdicts[i]) {
      case Verdict::kOk: ++s.succeeded; break;
      case Verdict::kShed: ++s.shed; break;
      case Verdict::kTimeout: ++s.timed_out; break;
      case Verdict::kWrong: ++s.failed; break;
    }
    // A request that did not succeed misses the limit whatever its timing.
    if (checked.verdicts[i] != Verdict::kOk)
      ms = std::max(std::isnan(ms) ? kDrainSeconds * 1e3 : ms, kLimitMs);
    if (ms > kLimitMs) ++s.over_limit;
    latency.push_back(ms);
  }
  std::vector<double> late_ms;
  for (const double late : rec.send_late_s) late_ms.push_back(late * 1e3);
  s.p50_ms = quantile(latency, 0.5);
  s.p99_ms = quantile(latency, 0.99);
  s.late_p99_ms = quantile(late_ms, 0.99);
  s.valid = s.late_p99_ms <= kLimitMs;
  const double span = static_cast<double>(s.attempted) / rate;
  s.achieved_rps = static_cast<double>(s.succeeded) / std::max(span, 1e-9);
  return s;
}

/// Asks the server's `metrics` verb for its Prometheus text and parses
/// `lb_request_stage_micros_{sum,count}{stage="..."}` into (sum, count).
std::map<std::string, std::pair<double, double>> stageMicros(Rig& rig) {
  const std::string text =
      Json::parse(rig.connections[0]->call("{\"verb\":\"metrics\"}\n"))
          .at("metrics")
          .asString();
  std::map<std::string, std::pair<double, double>> stages;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = "lb_request_stage_micros_";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t brace = line.find("{stage=\"");
    const std::size_t close = line.find("\"}", brace);
    if (brace == std::string::npos || close == std::string::npos) continue;
    const std::string kind = line.substr(prefix.size(), brace - prefix.size());
    const std::string stage = line.substr(brace + 8, close - brace - 8);
    const double value = std::stod(line.substr(close + 2));
    if (kind == "sum") stages[stage].first = value;
    if (kind == "count") stages[stage].second = value;
  }
  return stages;
}

// ---- in-process replay (traced run) ------------------------------------------

struct Replay {
  std::vector<double> wall_us, execute_us;
  std::vector<bool> ok;
};

/// Replays `stream` open-loop through an in-process JobEngine configured
/// like the server's (submitAsync, the entry point the server's event loop
/// uses).  Wall time runs from submit to completion.
Replay replayInProcess(const std::vector<Scenario>& hot,
                       const std::vector<Request>& stream) {
  const std::size_t n = stream.size();
  Replay replay;
  replay.wall_us.assign(n, 0);
  replay.execute_us.assign(n, 0);
  replay.ok.assign(n, false);
  std::vector<Clock::time_point> submitted(n);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;

  // Declared after the state its callbacks write, so its destructor drains
  // every job while that state is alive.
  lb::obs::FlightRecorder recorder(4096);
  svc::JobEngineOptions options = serverOptions(&recorder).engine;
  options.recorder = &recorder;  // as the server hands its recorder down
  svc::JobEngine engine(options);
  for (const Scenario& s : hot) engine.run(s);

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(stream[i].due_s)));
    submitted[i] = Clock::now();
    engine.submitAsync(stream[i].scenario, {}, [&, i](svc::JobOutcome outcome) {
      const auto end = Clock::now();
      replay.wall_us[i] =
          std::chrono::duration<double, std::micro>(end - submitted[i]).count();
      replay.execute_us[i] = outcome.execute_micros;
      replay.ok[i] = outcome.status == svc::JobStatus::kOk;
      std::lock_guard<std::mutex> lock(mutex);
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait_for(lock, std::chrono::duration<double>(kDrainSeconds),
              [&] { return done == n; });
  if (done != n) throw std::runtime_error("in-process replay did not drain");
  lock.unlock();
  return replay;
}

// ---- the workload -------------------------------------------------------------

class LbdRun {
public:
  explicit LbdRun(const RunArgs& args)
      : args_(args), variant_(variantOf(args.seed)) {}
  Outcome run();

private:
  void traceLayers(const std::vector<Request>& stream, const PhaseRecord& rec,
                   const Checked& checked);

  const RunArgs& args_;
  std::uint64_t variant_;
  std::vector<Scenario> hot_;
  std::vector<ScenarioResult> hot_expected_;
  Outcome out_;
  std::uint64_t wrong_ = 0;  ///< wrong or unreadable results

  void countWrong(bool wrong) {
    out_.failed += wrong ? 1 : 0;
    wrong_ += wrong ? 1 : 0;
  }
};

void LbdRun::traceLayers(const std::vector<Request>& stream,
                         const PhaseRecord& rec, const Checked& checked) {
  // Engine layer: the same stream, in process, on the same schedule.
  const Replay replay = replayInProcess(hot_, stream);
  std::vector<double> queue_wait, execute, overhead;
  // Replay requests the in-process engine shed are a property of the probe
  // (its own queue), not of the server's output: reported, not failed.
  std::uint64_t replay_failed = 0, trace_mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (!replay.ok[i]) {
      ++replay_failed;
      continue;
    }
    queue_wait.push_back(replay.wall_us[i] - replay.execute_us[i]);
    if (replay.execute_us[i] > 0) execute.push_back(replay.execute_us[i]);
    // Client round trip from the actual send, minus the engine's share.
    if (checked.verdicts[i] == Verdict::kOk)
      overhead.push_back((rec.latency_ms[i] - rec.send_late_s[i] * 1e3) * 1e3 -
                         replay.wall_us[i]);
  }
  out_.add("service.job_engine.queue_wait_us.p50", quantile(queue_wait, 0.5),
           "us");
  out_.add("service.job_engine.queue_wait_us.p99", quantile(queue_wait, 0.99),
           "us");
  out_.add("service.job_engine.execute_us", median(execute), "us");
  out_.add("service.server.overhead_us", median(overhead), "us");

  // Codec, hash, cache and serialization on the hot set then the stream,
  // with the results the server returned (already checked).
  std::vector<Scenario> scenarios = hot_;
  std::vector<ScenarioResult> results = hot_expected_;
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (checked.verdicts[i] != Verdict::kOk) continue;
    scenarios.push_back(stream[i].scenario);
    results.push_back(
        svc::resultFromJson(Json::parse(rec.responses[i]).at("result")));
    if (stream[i].hot < 0 && fresh.size() < kTracedMisses) fresh.push_back(i);
  }
  reportServiceCodec(out_, measureServiceCodec(scenarios, results));

  // Bus-path layers on fresh scenarios, traced and untraced, each result
  // compared with what the server returned; the hot set's mesh and
  // replicated scenarios feed the noc and batched layers.
  BusLayerTotals bus;
  ScaleLayerTotals scale;
  double traced_s = 0, untraced_s = 0;
  for (const std::size_t i : fresh) {
    const auto t0 = Clock::now();
    const ScenarioResult plain = svc::runScenario(stream[i].scenario);
    untraced_s += secondsSince(t0);
    const BusTrace trace = traceBusScenario(stream[i].scenario);
    traced_s += trace.build_s + trace.run_s + trace.collect_s;
    bus.add(trace);
    ++out_.attempted;
    const ScenarioResult served =
        svc::resultFromJson(Json::parse(rec.responses[i]).at("result"));
    if (!(trace.result == plain) || !(trace.result == served))
      ++trace_mismatches;
  }
  for (std::size_t h = 0; h < hot_.size(); ++h) {
    ScenarioResult result;
    if (hot_[h].replicas > 1) {
      const BatchedTrace trace = traceBatchedScenario(hot_[h]);
      scale.add(trace);
      result = trace.result;
    } else if (hot_[h].mesh.enabled()) {
      const MeshTrace trace = traceMeshScenario(hot_[h]);
      scale.add(trace);
      result = trace.result;
      if (trace.router_grants != result.grants) ++trace_mismatches;
    } else {
      continue;
    }
    ++out_.attempted;
    if (!(result == hot_expected_[h])) ++trace_mismatches;
  }
  out_.failed += trace_mismatches;
  wrong_ += trace_mismatches;
  out_.detail.set("replay_not_ok", Json(replay_failed))
      .set("trace_mismatches", Json(trace_mismatches));
  bus.report(out_, clockPairNs(), 1);
  scale.report(out_);
  out_.add("trace.overhead_s", traced_s - untraced_s, "s");
  out_.add("trace.coverage", untraced_s > 0 ? traced_s / untraced_s : 0.0,
           "ratio");
}

Outcome LbdRun::run() {
  hot_ = hotSet(variant_);
  hot_expected_.clear();
  for (const Scenario& s : hot_) hot_expected_.push_back(svc::runScenario(s));

  // Set-up: server boot plus hot-set prewarm, repeated; the last rig stays.
  std::vector<double> setup;
  auto rig = std::make_unique<Rig>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig = std::make_unique<Rig>();
    const auto t0 = Clock::now();
    const std::vector<std::string> prewarm = bootAndPrewarm(*rig, hot_);
    setup.push_back(secondsSince(t0));
    for (std::size_t i = 0; i < hot_.size(); ++i) {
      ++out_.attempted;
      bool right = false;
      try {
        right = svc::resultFromJson(Json::parse(prewarm[i]).at("result")) ==
                hot_expected_[i];
      } catch (const std::exception&) {
      }
      countWrong(!right);
    }
  }

  // Phases: low then high.
  struct Phase {
    const char* name;
    double rate;
    double share;
  };
  // The traced run replays the high phase in process afterwards, so its
  // phases are shorter.
  const std::vector<Phase> phases =
      args_.trace ? std::vector<Phase>{{"low", kLowRate, 0.2},
                                       {"high", kHighRate, 0.4}}
                  : std::vector<Phase>{{"low", kLowRate, 0.3},
                                       {"high", kHighRate, 0.7}};
  Json phase_json = Json::object();
  std::vector<Request> high_stream;
  PhaseRecord high_rec;
  PhaseSummary high, low;
  double high_cpu = 0;
  Checked high_checked;
  std::map<std::string, std::pair<double, double>> stages_before;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    std::vector<Request> stream = makeStream(
        hot_, args_.seed, p, phase.rate, phase.share * args_.seconds);
    if (args_.trace && p + 1 == phases.size()) stages_before = stageMicros(*rig);
    PhaseRecord rec = runPhase(*rig, stream);
    const Checked checked = checkPhase(stream, rec, hot_expected_);
    const PhaseSummary summary = summarize(rec, checked, phase.rate);
    out_.attempted += summary.attempted;
    out_.failed += summary.attempted - summary.succeeded;
    wrong_ += summary.failed;
    phase_json.set(phase.name, summary.json());
    if (std::string(phase.name) == "low") {
      low = summary;
    } else {
      high = summary;
      high_cpu = rec.cpu_s;
      high_checked = checked;
      high_stream = std::move(stream);
      high_rec = std::move(rec);
    }
  }

  if (!args_.trace) {
    out_.add("setup_s", median(setup), "s");
    out_.add("mcycles_per_s", median(high_checked.fresh_rate), "Mcycles/s");
    out_.add("cpu_s",
             high_cpu * 1000.0 / static_cast<double>(high.attempted), "s");
    out_.add("peak_rss_mb", peakRssMib(), "MiB");
  } else {
    // Request latency is reported here, ungated: see lbbench/README.md.
    out_.add("service.server.high.p50_ms", high.p50_ms, "ms");
    out_.add("service.server.high.p99_ms", high.p99_ms, "ms");
    out_.add("service.server.high.achieved_rps", high.achieved_rps, "1/s");
    out_.add("service.server.low.p50_ms", low.p50_ms, "ms");
    out_.add("service.server.low.p99_ms", low.p99_ms, "ms");
    // Stage histograms of the daemon itself, over the high phase only.
    const auto stages_after = stageMicros(*rig);
    // The read stage includes a connection's idle time between pipelined
    // lines, so only parse and write are the server's own work.
    double stage_us = 0;
    for (const char* stage : {"parse", "write"}) {
      const auto after = stages_after.count(stage) ? stages_after.at(stage)
                                                   : std::make_pair(0.0, 0.0);
      const auto before = stages_before.count(stage)
                              ? stages_before.at(stage)
                              : std::make_pair(0.0, 0.0);
      const double count = after.second - before.second;
      if (count > 0) stage_us += (after.first - before.first) / count;
    }
    rig.reset();
    out_.add("service.server.stage_us", stage_us, "us");
    traceLayers(high_stream, high_rec, high_checked);
  }
  rig.reset();

  out_.detail.set("workload", Json(args_.workload))
      .set("variant", Json(variant_))
      .set("low_rps", Json(kLowRate))
      .set("high_rps", Json(kHighRate))
      .set("hot_set", Json(static_cast<std::uint64_t>(hot_.size())))
      .set("phases", phase_json);
  // Shed and timed-out requests are failed operations; a wrong or
  // unreadable result also makes the run incorrect.
  out_.correct = wrong_ == 0;
  return out_;
}

}  // namespace

Outcome runLbdMixed(const RunArgs& args) { return LbdRun(args).run(); }

}  // namespace lbbench

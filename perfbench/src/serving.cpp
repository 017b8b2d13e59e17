// The serving phases: set-up of the mesh and the streaming daemon, the
// open-loop interactive workload, the closed-loop stream workload, and the
// layer probes a traced run adds to each.
#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "bench.hpp"
#include "core/sample_features.hpp"
#include "serve/daemon.hpp"
#include "serve/hash_ring.hpp"
#include "serve/router.hpp"
#include "serve/wire.hpp"

namespace perfbench {

using namespace goodones;
namespace fs = std::filesystem;
using serve::wire::MessageType;

namespace {

/// Latency limit of the interactive workload: the p99 a rate must meet to
/// count toward max_rps_at_slo.
constexpr double kSloP99Us = 5000.0;
/// Interactive offered rates, requests per second.
constexpr double kLightRate = 2000.0;
constexpr double kLoadedRate = 5000.0;
constexpr double kLadderStart = 4000.0;
constexpr double kLadderFactor = 1.25;
constexpr std::size_t kLadderBisections = 2;
/// The open-loop senders spin for the last 100 us before a due time at the
/// fixed rates (a sleeping thread wakes tens of microseconds late, and that
/// delay is the client's, not the server's). The rate ladder sleeps only:
/// at its rates spinning senders would take cores from the servers.
constexpr std::uint64_t kSpinNs = 100'000;
/// Ticks per Ingest block (and windows per ScoreLatest) in the stream workload.
constexpr std::size_t kBlock = 16;
/// Measuring rounds of an untraced run (see measure_serving).
constexpr std::size_t kRounds = 8;
/// Untimed set-ups before the first timed one.
constexpr std::size_t kWarmUpSetups = 3;
constexpr std::size_t kWindowsPerEntity = 64;
const char* const kShardNames[2] = {"shard-0", "shard-1"};

std::size_t client_connections() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(cores - 1, 1, 3);
}

// --- inputs ------------------------------------------------------------------

/// Everything the servers will receive, generated from the seed: a fresh
/// telemetry series per entity (the domain simulator under a seed-derived
/// population seed) and a pool of single-window Score requests cut from it
/// at seeded offsets.
struct Traffic {
  std::vector<std::string> entities;
  std::vector<data::TelemetrySeries> series;
  std::vector<std::vector<serve::ScoreRequest>> pool;
  std::size_t seq_len = 0;

  /// Tick k of entity e's stream (the series repeats when exhausted).
  std::size_t row(std::size_t e, std::uint64_t k) const {
    return static_cast<std::size_t>(k % series[e].steps());
  }
  serve::TelemetryWindow window_ending(std::size_t e, std::uint64_t end_tick) const {
    const auto& values = series[e].values;
    serve::TelemetryWindow window{nn::Matrix(seq_len, values.cols()), data::Regime::kBaseline};
    for (std::size_t t = 0; t < seq_len; ++t) {
      const std::size_t r = row(e, end_tick + 1 - seq_len + t);
      for (std::size_t c = 0; c < values.cols(); ++c) window.features(t, c) = values(r, c);
    }
    window.regime = series[e].regimes[row(e, end_tick)];
    return window;
  }
  serve::wire::IngestRequest block(std::size_t e, std::uint64_t first, std::size_t count) const {
    const auto& values = series[e].values;
    serve::wire::IngestRequest request;
    request.entity = entities[e];
    request.ticks = nn::Matrix(count, values.cols());
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t r = row(e, first + t);
      for (std::size_t c = 0; c < values.cols(); ++c) request.ticks(t, c) = values(r, c);
      request.regimes.push_back(series[e].regimes[r]);
    }
    return request;
  }
};

Traffic make_traffic(const Fleet& fleet, Rng rng) {
  Traffic traffic;
  traffic.seq_len = fleet.config.window.seq_len;
  core::PopulationConfig population;
  population.train_steps = 200;
  population.test_steps = 3000;
  population.seed = rng.next();
  for (auto& entity : fleet.domain->make_entities(population)) {
    traffic.entities.push_back(entity.name);
    traffic.series.push_back(std::move(entity.test));
  }
  for (std::size_t e = 0; e < traffic.entities.size(); ++e) {
    auto& requests = traffic.pool.emplace_back();
    const std::size_t steps = traffic.series[e].steps();
    for (std::size_t w = 0; w < kWindowsPerEntity; ++w) {
      serve::ScoreRequest request;
      request.entity = traffic.entities[e];
      request.windows.push_back(
          traffic.window_ending(e, traffic.seq_len - 1 + rng.below(steps - traffic.seq_len)));
      requests.push_back(std::move(request));
    }
  }
  return traffic;
}

// --- the serving stack ---------------------------------------------------------

/// Two TCP shards behind an in-process router (the mesh) at goodonesd
/// defaults (adaptive loop on, routing-only refreshes, canary off), and one
/// daemon on a unix socket with a persisted column store (the stream
/// target).
struct Stack {
  fs::path root;
  std::vector<std::unique_ptr<serve::Daemon>> shards;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::Daemon> stream;

  ~Stack() {
    if (router) router->stop();
    for (auto& shard : shards) shard->stop();
    if (stream) stream->stop();
    router.reset();
    shards.clear();
    stream.reset();
    std::error_code ignored;
    fs::remove_all(root, ignored);
  }

  serve::Daemon& owner(const std::string& entity) const {
    return *shards[router->shard_for(entity) == kShardNames[0] ? 0 : 1];
  }
};

serve::DaemonConfig daemon_config(const common::Endpoint& listen, const fs::path& registry) {
  serve::DaemonConfig config;
  config.listen = listen;
  config.registry_root = registry;
  // One scoring thread per daemon: every request names one entity, so a
  // larger pool adds no parallelism here, only idle threads competing for
  // the cores the three in-process daemons, the router and the client share.
  config.scoring.threads = 1;
  return config;
}

std::unique_ptr<Stack> set_up_stack(core::RiskProfilingFramework& framework,
                                    const fs::path& root) {
  auto stack = std::make_unique<Stack>();
  stack->root = root;
  fs::create_directories(root);

  serve::ServingModel built = serve::build_serving_model(framework, detect::DetectorKind::kKnn);
  const serve::ModelRegistry registry(root / "registry");
  registry.save(built);
  serve::ServingModel model =
      registry.load(serve::registry_key(framework, detect::DetectorKind::kKnn));

  serve::HashRing ring;
  for (const char* name : kShardNames) ring.add(name);
  std::vector<std::string> members[2];
  for (const auto& entity : model.entity_names) {
    members[ring.owner(entity) == kShardNames[0] ? 0 : 1].push_back(entity);
  }
  serve::RouterConfig router_config;
  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  for (std::size_t s = 0; s < 2; ++s) {
    if (members[s].empty()) throw std::runtime_error("hash ring left a shard without entities");
    stack->shards.push_back(std::make_unique<serve::Daemon>(
        serve::slice_serving_model(model, members[s]),
        daemon_config(common::Endpoint::tcp("127.0.0.1", 0),
                      root / ("registry-" + std::string(kShardNames[s])))));
    stack->shards.back()->start();
    router_config.backends.push_back({kShardNames[s], stack->shards.back()->endpoint()});
  }
  stack->router = std::make_unique<serve::Router>(router_config);
  stack->router->start();

  serve::DaemonConfig stream_config =
      daemon_config(common::Endpoint::unix_socket(root / "stream.sock"), root / "registry-stream");
  stream_config.store_root = root / "store";
  stream_config.store_seq_len = framework.config().window.seq_len;
  // No adaptive loop on the stream target: at 16 windows per step it would
  // reassess every 16 steps and publish (clone and persist) a generation
  // almost every time, hundreds per second, and the stream figures would
  // measure that churn instead of the store and batched scoring. The mesh
  // shards keep it, so its cost shows in the interactive figures.
  stream_config.adaptive_enabled = false;
  stack->stream = std::make_unique<serve::Daemon>(std::move(model), stream_config);
  stack->stream->start();
  return stack;
}

/// In-process reference scorers built from the generation a daemon
/// persisted in its registry. The adaptive loop may publish many
/// generations in a run and samples arrive roughly in generation order, so
/// only the few most recently used scorers are kept.
class Reference {
 public:
  serve::ScoreResponse score(serve::Daemon& daemon, std::uint64_t generation,
                             const serve::ScoreRequest& request) {
    const std::pair<const void*, std::uint64_t> key{&daemon, generation};
    auto found = std::find_if(services_.begin(), services_.end(),
                              [&](const auto& entry) { return entry.first == key; });
    if (found == services_.end()) {
      if (services_.size() == kKept) services_.erase(services_.begin());
      const auto current = daemon.service().model();
      const serve::RegistryKey registry_key{current->domain_key, current->fingerprint,
                                            current->detector_kind, generation};
      services_.emplace_back(key, std::make_unique<serve::ScoringService>(
                                      daemon.registry().load(registry_key),
                                      serve::ScoringServiceConfig{.threads = 1}));
      found = services_.end() - 1;
    }
    return found->second->score(request);
  }

 private:
  static constexpr std::size_t kKept = 4;
  std::vector<std::pair<std::pair<const void*, std::uint64_t>,
                        std::unique_ptr<serve::ScoringService>>>
      services_;
};

struct Sample {
  std::size_t entity = 0;
  std::uint64_t key = 0;  ///< pool window (interactive) or end tick (stream)
  serve::ScoreResponse response;
};

/// Every 61st request of a phase, from a seeded offset, is kept for the
/// bitwise check against the in-process reference.
struct Sampler {
  std::size_t offset = 0;
  bool operator()(std::size_t i) const { return i % 61 == offset; }
};

// --- interactive ---------------------------------------------------------------

struct InteractiveRun {
  OpenLoopResult result;
  std::vector<Sample> samples;
};

/// One open-loop run through the router. With a tracer, every request
/// records its client-side spans.
InteractiveRun run_interactive(const Stack& stack, const Traffic& traffic, Rng& rng,
                               double rate, double seconds, Tracer* tracer,
                               std::uint64_t spin_ns = kSpinNs) {
  const Schedule schedule =
      make_schedule(rng, rate, seconds, traffic.entities.size(), kWindowsPerEntity);
  const std::size_t connections = client_connections();
  std::vector<std::unique_ptr<serve::wire::FrameChannel>> channels;
  std::vector<std::vector<Sample>> samples(connections);
  std::vector<SpanLog*> logs(connections, nullptr);
  for (std::size_t c = 0; c < connections; ++c) {
    channels.push_back(std::make_unique<serve::wire::FrameChannel>(stack.router->endpoint()));
    channels.back()->ensure_connected();
    if (tracer) logs[c] = tracer->new_log();
  }
  const Sampler sampled{rng.below(61)};

  InteractiveRun run;
  run.result = run_open_loop(schedule, connections, [&](std::size_t c, std::size_t i) {
    SpanLog* log = logs[c];
    Scope root(log, "interactive.request", -1, i);
    const std::size_t e = schedule.entity[i];
    std::string payload;
    {
      Scope span(log, "serve.wire.encode_score_request", root.id(), i);
      payload = serve::wire::encode_score_request(traffic.pool[e][schedule.window[i]]);
    }
    serve::wire::Frame reply;
    {
      Scope span(log, "serve.router.roundtrip", root.id(), i);
      reply = channels[c]->roundtrip(MessageType::kScore, payload, true);
    }
    if (reply.type != MessageType::kScoreReply) return false;
    serve::ScoreResponse response;
    {
      Scope span(log, "serve.wire.decode_score_response", root.id(), i);
      response = serve::wire::decode_score_response(reply.payload);
    }
    if (response.windows.size() != 1) return false;
    if (sampled(i)) samples[c].push_back({e, schedule.window[i], std::move(response)});
    return true;
  }, spin_ns);
  for (auto& list : samples) {
    for (auto& sample : list) run.samples.push_back(std::move(sample));
  }
  return run;
}

void verify_interactive(Stack& stack, const Traffic& traffic, Reference& reference,
                        const std::vector<Sample>& samples, Report& report) {
  for (const Sample& sample : samples) {
    const serve::ScoreRequest& request = traffic.pool[sample.entity][sample.key];
    serve::Daemon& owner = stack.owner(request.entity);
    report.check(verdicts_equal(sample.response,
                                reference.score(owner, sample.response.generation, request)),
                 "routed verdict differs from in-process score for " + request.entity);
  }
}

/// The highest offered rate whose p99 meets the SLO with no growing
/// backlog: a geometric ladder up to the first miss, then bisection.
double find_max_rps(Stack& stack, const Traffic& traffic, Rng& rng, double rung_s,
                    Reference& reference, Report& report) {
  double best = 0.0;
  double pass_rate = 0.0;
  double fail_rate = 0.0;
  std::string rungs;
  // A rate misses only when three attempts at it miss, so a transient
  // stall of the host does not end the ladder early.
  const auto attempt = [&](double rate) {
    for (int tries = 0; tries < 3; ++tries) {
      InteractiveRun run = run_interactive(stack, traffic, rng, rate, rung_s, nullptr, 0);
      verify_interactive(stack, traffic, reference, run.samples, report);
      const double p99 = quantile(run.result.latency_us, 0.99);
      const bool pass = !run.result.backlog && p99 <= kSloP99Us;
      rungs += (rungs.empty() ? "" : " ") + std::to_string(static_cast<long>(rate)) +
               (pass ? ":pass" : ":miss");
      if (pass) {
        if (rate > pass_rate) {
          pass_rate = rate;
          best = run.result.achieved_rate;
        }
        return true;
      }
    }
    return false;
  };
  for (double rate = kLadderStart; rate < 1e6; rate *= kLadderFactor) {
    if (!attempt(rate)) {
      fail_rate = rate;
      break;
    }
  }
  // Even the first rate missed: walk down until one meets the limit.
  for (double rate = kLadderStart / 2.0; pass_rate == 0.0 && rate >= 100.0; rate /= 2.0) {
    if (attempt(rate)) break;
    fail_rate = rate;
  }
  for (std::size_t b = 0; b < kLadderBisections && pass_rate > 0.0 && fail_rate > 0.0; ++b) {
    const double mid = std::sqrt(pass_rate * fail_rate);
    if (!attempt(mid)) fail_rate = mid;
  }
  report.note("max_rps_at_slo.rungs", rungs);
  return best;
}

/// The layer probes' timer: every call runs as a span under `parent`, and
/// its duration joins the samples of that span name.
class ProbeTimer {
 public:
  explicit ProbeTimer(SpanLog* log) : log_(log) {}

  template <typename Fn>
  void operator()(const char* name, std::int64_t parent, std::uint64_t id, Fn&& fn) {
    Scope span(log_, name, parent, id);
    const std::uint64_t begin = now_ns();
    fn();
    us_[name].push_back(static_cast<double>(now_ns() - begin) * 1e-3);
  }

  double median_us(const char* name) const {
    const auto found = us_.find(name);
    return found == us_.end() ? 0.0 : median(found->second);
  }

 private:
  SpanLog* log_;
  std::map<std::string, std::vector<double>> us_;
};

/// Layer probe for one single-window Score, closed loop on one thread:
/// the routed and the direct round trip of the same payload, both codecs,
/// and in-process scoring with its forecaster and detector calls.
void probe_interactive(Stack& stack, const Traffic& traffic, Rng& rng, std::size_t probes,
                       Tracer& tracer, Reference& reference, Report& report) {
  SpanLog* log = tracer.new_log();
  serve::wire::FrameChannel routed(stack.router->endpoint());
  std::vector<std::unique_ptr<serve::wire::FrameChannel>> direct;
  for (const auto& shard : stack.shards) {
    direct.push_back(std::make_unique<serve::wire::FrameChannel>(shard->endpoint()));
  }
  ProbeTimer timed(log);
  std::size_t request_bytes = 0, response_bytes = 0;
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t e = rng.below(traffic.entities.size());
    const serve::ScoreRequest& request = traffic.pool[e][rng.below(kWindowsPerEntity)];
    const std::size_t shard = stack.router->shard_for(request.entity) == kShardNames[0] ? 0 : 1;
    serve::Daemon& owner = *stack.shards[shard];
    Scope root(log, "interactive.probe", -1, p);
    std::string payload, response_payload;
    serve::wire::Frame reply;
    serve::ScoreResponse response;
    timed("serve.wire.encode_score_request", root.id(), p,
          [&] { payload = serve::wire::encode_score_request(request); });
    timed("serve.router.roundtrip", root.id(), p,
          [&] { reply = routed.roundtrip(MessageType::kScore, payload, true); });
    timed("serve.wire.decode_score_response", root.id(), p,
          [&] { response = serve::wire::decode_score_response(reply.payload); });
    timed("serve.daemon.roundtrip", root.id(), p,
          [&] { reply = direct[shard]->roundtrip(MessageType::kScore, payload, true); });
    timed("serve.wire.decode_score_request", root.id(), p,
          [&] { (void)serve::wire::decode_score_request(payload); });
    timed("serve.wire.encode_score_response", root.id(), p,
          [&] { response_payload = serve::wire::encode_score_response(response); });
    timed("serve.scoring_service.score", root.id(), p,
          [&] { (void)owner.service().score(request); });
    report.check(verdicts_equal(response, reference.score(owner, response.generation, request)),
                 "probe: routed verdict differs from in-process score");
    const auto model = owner.service().model();
    const std::size_t index = model->entity_index(request.entity);
    const nn::Matrix* window = &request.windows.front().features;
    timed("predict.predict_batch.b1", root.id(), p, [&] {
      (void)model->forecasters[index].predict_batch(std::span<const nn::Matrix* const>(&window, 1));
    });
    const detect::AnomalyDetector& detector = model->detector_for(index);
    timed("detect.score_batch.b1", root.id(), p, [&] {
      const nn::Matrix input =
          detector.granularity() == detect::InputGranularity::kSample
              ? core::window_sample(model->spec, model->detector_scaler, *window)
              : model->detector_scaler.transform(*window);
      (void)detector.score_batch(std::span<const nn::Matrix>(&input, 1));
    });
    request_bytes = payload.size();
    response_bytes = response_payload.size();
  }
  const auto m = [&](const char* name) { return timed.median_us(name); };
  const double client_codec =
      m("serve.wire.encode_score_request") + m("serve.wire.decode_score_response");
  const double server_codec =
      m("serve.wire.decode_score_request") + m("serve.wire.encode_score_response");
  const double score = m("serve.scoring_service.score");
  const double routed_rtt = m("serve.router.roundtrip");
  const double direct_rtt = m("serve.daemon.roundtrip");
  report.add("serve.router.hop_us", routed_rtt - direct_rtt, "us");
  report.add("serve.daemon.roundtrip_us", direct_rtt, "us");
  report.add("serve.wire.score_codec_us", client_codec + server_codec, "us");
  report.add("serve.wire.score_request_bytes", static_cast<double>(request_bytes), "B");
  report.add("serve.wire.score_response_bytes", static_cast<double>(response_bytes), "B");
  report.add("serve.scoring_service.score_us", score, "us");
  report.add("serve.scoring_service.score_self_us",
             score - m("predict.predict_batch.b1") - m("detect.score_batch.b1"), "us");
  report.add("predict.predict_batch_us.b1", m("predict.predict_batch.b1"), "us");
  report.add("detect.score_batch_us.b1", m("detect.score_batch.b1"), "us");
  report.add("serve.transport_residual_us", direct_rtt - server_codec - score, "us");
  // Coverage of one unloaded routed request as the client sees it: the
  // layer work measured directly (both codecs and scoring) over the whole.
  const double whole = client_codec + routed_rtt;
  report.add("trace.coverage.interactive", (client_codec + server_codec + score) / whole,
             "ratio");
  report.note("trace.coverage.interactive.residual",
              "router hop + transport (syscalls, loopback, connection-thread hand-offs)");
}

/// Traced: the light rate untraced then traced (their difference is the
/// tracing overhead), then the layer probe.
void trace_interactive(Stack& stack, const Traffic& traffic, Rng& rng, double budget_s,
                       Tracer& tracer, Reference& reference, Report& report) {
  const double phase_s = budget_s / 3.0;
  InteractiveRun plain = run_interactive(stack, traffic, rng, kLightRate, phase_s, nullptr);
  InteractiveRun traced = run_interactive(stack, traffic, rng, kLightRate, phase_s, &tracer);
  for (const auto* run : {&plain, &traced}) {
    verify_interactive(stack, traffic, reference, run->samples, report);
    report.check(run->result.failed == 0, "interactive requests failed");
  }
  report.add("interactive.generator_lag_p50_us", quantile(plain.result.lag_us, 0.5), "us");
  report.add("interactive.generator_lag_p99_us", quantile(plain.result.lag_us, 0.99), "us");
  report.add("trace.overhead_share.interactive",
             quantile(traced.result.latency_us, 0.5) / quantile(plain.result.latency_us, 0.5) - 1.0,
             "ratio");
  probe_interactive(stack, traffic, rng, 400, tracer, reference, report);
}

// --- stream --------------------------------------------------------------------

struct StreamStep {
  double ingest_us = 0.0, score_latest_us = 0.0, step_us = 0.0;
  std::size_t windows = 0;
};

struct StreamRun {
  std::vector<StreamStep> steps;
  std::uint64_t begin_ns = 0, end_ns = 0;
  std::vector<Sample> samples;
  std::uint64_t seals = 0;
};

/// The stream metrics of one run.
struct StreamFigures {
  double verdicts_per_s = 0.0, ingest_p50_us = 0.0, score_latest_p50_us = 0.0,
         step_p50_us = 0.0, step_p99_us = 0.0;
};

StreamFigures stream_figures(const StreamRun& run) {
  std::vector<double> ingest_us, latest_us, step_us;
  std::size_t windows = 0;
  for (const StreamStep& step : run.steps) {
    ingest_us.push_back(step.ingest_us);
    latest_us.push_back(step.score_latest_us);
    step_us.push_back(step.step_us);
    windows += step.windows;
  }
  return {static_cast<double>(windows) / seconds_between(run.begin_ns, run.end_ns),
          quantile(ingest_us, 0.5), quantile(latest_us, 0.5), quantile(step_us, 0.5),
          quantile(step_us, 0.99)};
}

/// Closed loop: every connection owns a disjoint set of entities and, per
/// entity in turn, sends Ingest with the next kBlock ticks and then
/// ScoreLatest count=kBlock, so every window is scored exactly once.
StreamRun run_stream(Stack& stack, const Traffic& traffic, std::vector<std::uint64_t>& sent,
                     const std::vector<std::vector<std::size_t>>& split, double seconds,
                     const Sampler& sampled, Tracer* tracer, Report& report) {
  const std::size_t connections = split.size();
  struct PerConnection {
    std::vector<StreamStep> steps;
    std::uint64_t checks = 0;
    std::vector<std::string> failures;
    std::vector<Sample> samples;
  };
  std::vector<PerConnection> results(connections);
  const std::uint64_t segments_before = stack.stream->store().stats().segments;
  const std::uint64_t begin = now_ns();
  const std::uint64_t deadline = begin + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PerConnection& out = results[c];
      SpanLog* log = tracer ? tracer->new_log() : nullptr;
      serve::wire::FrameChannel channel(stack.stream->endpoint());
      try {
        for (std::size_t step = 0; now_ns() < deadline; ++step) {
          const std::size_t e = split[c][step % split[c].size()];
          Scope root(log, "stream.step", -1, step);
          const std::uint64_t t0 = now_ns();
          const std::string ingest = serve::wire::encode_ingest_request(
              traffic.block(e, sent[e], kBlock));
          serve::wire::Frame reply;
          {
            Scope span(log, "serve.daemon.ingest_rtt", root.id(), step);
            reply = channel.roundtrip(MessageType::kIngest, ingest, false);
          }
          sent[e] += kBlock;
          ++out.checks;
          if (reply.type != MessageType::kIngestReply) {
            out.failures.push_back("ingest answered with an error frame");
            continue;
          }
          const auto ack = serve::wire::decode_ingest_reply(reply.payload);
          if (ack.accepted != kBlock || ack.total_ticks != sent[e]) {
            out.failures.push_back("IngestReply.total_ticks " + std::to_string(ack.total_ticks) +
                                   " != ticks sent " + std::to_string(sent[e]));
          }
          const std::uint64_t t1 = now_ns();
          const std::string latest = serve::wire::encode_score_latest_request(
              {traffic.entities[e], kBlock, traffic.seq_len});
          {
            Scope span(log, "serve.daemon.score_latest_rtt", root.id(), step);
            reply = channel.roundtrip(MessageType::kScoreLatest, latest, true);
          }
          ++out.checks;
          if (reply.type != MessageType::kScoreLatestReply) {
            out.failures.push_back("score-latest answered with an error frame");
            continue;
          }
          serve::ScoreResponse response = serve::wire::decode_score_response(reply.payload);
          const std::uint64_t t2 = now_ns();
          if (response.windows.size() != kBlock) {
            out.failures.push_back("score-latest returned a short batch");
          }
          out.steps.push_back({static_cast<double>(t1 - t0) * 1e-3,
                               static_cast<double>(t2 - t1) * 1e-3,
                               static_cast<double>(t2 - t0) * 1e-3, response.windows.size()});
          if (sampled(step)) out.samples.push_back({e, sent[e] - 1, std::move(response)});
        }
      } catch (const std::exception& error) {
        ++out.checks;
        out.failures.push_back(std::string("stream connection failed: ") + error.what());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  StreamRun run;
  run.begin_ns = begin;
  run.end_ns = now_ns();
  run.seals = stack.stream->store().stats().segments - segments_before;
  for (auto& out : results) {
    run.steps.insert(run.steps.end(), out.steps.begin(), out.steps.end());
    for (auto& sample : out.samples) run.samples.push_back(std::move(sample));
    const std::uint64_t failures = std::min<std::uint64_t>(out.checks, out.failures.size());
    for (std::uint64_t k = failures; k < out.checks; ++k) report.check(true, "");
    for (std::uint64_t k = 0; k < failures; ++k) report.check(false, out.failures[k]);
  }
  return run;
}

/// ScoreLatest must equal Score on the same window bytes: rebuild each
/// sampled batch's windows from the generated ticks and score them in
/// process against the generation the daemon named.
void verify_stream(Stack& stack, const Traffic& traffic, Reference& reference,
                   const std::vector<Sample>& samples, Report& report) {
  for (const Sample& sample : samples) {
    serve::ScoreRequest request;
    request.entity = traffic.entities[sample.entity];
    for (std::size_t w = 0; w < kBlock; ++w) {
      request.windows.push_back(traffic.window_ending(sample.entity, sample.key + 1 - kBlock + w));
    }
    report.check(verdicts_equal(sample.response,
                                reference.score(*stack.stream, sample.response.generation, request)),
                 "ScoreLatest verdict differs from Score on the same windows for " +
                     request.entity);
  }
}

/// Layer probe for the stream step, closed loop on one thread: the
/// unloaded Ingest / ScoreLatest round trips, their codecs, and the same
/// work replayed in process on a benchmark-owned persisted column store.
void probe_stream(Stack& stack, const Traffic& traffic, std::vector<std::uint64_t>& sent,
                  const std::vector<std::size_t>& entities, std::size_t probes, Tracer& tracer,
                  Report& report) {
  SpanLog* log = tracer.new_log();
  serve::wire::FrameChannel channel(stack.stream->endpoint());
  const auto model = stack.stream->service().model();
  data::ColumnStore store(
      {stack.root / "probe-store", serve::DaemonConfig{}.store_segment_capacity, true},
      model->spec.num_channels);
  std::vector<std::uint64_t> stored(traffic.entities.size(), 0);
  for (const std::size_t e : entities) {
    const auto warm = traffic.block(e, 0, traffic.seq_len - 1);
    store.append_block(warm.entity, warm.ticks, warm.regimes);
    stored[e] = traffic.seq_len - 1;
  }
  ProbeTimer timed(log);
  std::vector<double> step_us;
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t e = entities[p % entities.size()];
    const std::string& entity = traffic.entities[e];
    Scope root(log, "stream.probe", -1, p);
    // Over the wire, unloaded.
    const std::uint64_t t0 = now_ns();
    std::string payload;
    serve::wire::Frame reply;
    timed("serve.wire.encode_ingest_request", root.id(), p,
          [&] { payload = serve::wire::encode_ingest_request(traffic.block(e, sent[e], kBlock)); });
    timed("serve.daemon.ingest_rtt", root.id(), p,
          [&] { reply = channel.roundtrip(MessageType::kIngest, payload, false); });
    sent[e] += kBlock;
    serve::wire::IngestReply ack;
    timed("serve.wire.decode_ingest_reply", root.id(), p,
          [&] { ack = serve::wire::decode_ingest_reply(reply.payload); });
    report.check(ack.total_ticks == sent[e], "probe: IngestReply.total_ticks != ticks sent");
    timed("serve.wire.decode_ingest_request", root.id(), p,
          [&] { (void)serve::wire::decode_ingest_request(payload); });
    timed("serve.wire.encode_ingest_reply", root.id(), p,
          [&] { (void)serve::wire::encode_ingest_reply(ack); });
    const serve::wire::ScoreLatestRequest latest{entity, kBlock, traffic.seq_len};
    timed("serve.wire.encode_score_latest_request", root.id(), p,
          [&] { payload = serve::wire::encode_score_latest_request(latest); });
    timed("serve.daemon.score_latest_rtt", root.id(), p,
          [&] { reply = channel.roundtrip(MessageType::kScoreLatest, payload, true); });
    serve::ScoreResponse response;
    timed("serve.wire.decode_score_response", root.id(), p,
          [&] { response = serve::wire::decode_score_response(reply.payload); });
    step_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    timed("serve.wire.decode_score_latest_request", root.id(), p,
          [&] { (void)serve::wire::decode_score_latest_request(payload); });
    timed("serve.wire.encode_score_response", root.id(), p,
          [&] { (void)serve::wire::encode_score_response(response); });

    // The same step in process, layer by layer.
    const auto block = traffic.block(e, stored[e], kBlock);
    timed("data.column_store.append_block", root.id(), p,
          [&] { store.append_block(entity, block.ticks, block.regimes); });
    stored[e] += kBlock;
    std::vector<data::WindowView> views;
    timed("data.column_store.latest_windows", root.id(), p,
          [&] { views = store.latest_windows(entity, traffic.seq_len, kBlock); });
    std::vector<nn::Matrix> gathered(views.size());
    timed("data.window_view.gather", root.id(), p, [&] {
      for (std::size_t v = 0; v < views.size(); ++v) views[v].gather(gathered[v]);
    });
    timed("serve.scoring_service.score_views", root.id(), p,
          [&] { (void)stack.stream->service().score_views(entity, views); });
    std::vector<const nn::Matrix*> pointers;
    for (const auto& window : gathered) pointers.push_back(&window);
    const std::size_t index = model->entity_index(entity);
    timed("predict.predict_batch.bB", root.id(), p,
          [&] { (void)model->forecasters[index].predict_batch(pointers); });
    const detect::AnomalyDetector& detector = model->detector_for(index);
    timed("detect.score_batch.bB", root.id(), p, [&] {
      std::vector<nn::Matrix> inputs;
      for (const auto* window : pointers) {
        inputs.push_back(detector.granularity() == detect::InputGranularity::kSample
                             ? core::window_sample(model->spec, model->detector_scaler, *window)
                             : model->detector_scaler.transform(*window));
      }
      (void)detector.score_batch(std::span<const nn::Matrix>(inputs));
    });
  }
  // Flush cost: one block per entity lands in each partial segment first.
  std::vector<double> flush_us;
  for (std::size_t f = 0; f < 5; ++f) {
    for (const std::size_t e : entities) {
      const auto block = traffic.block(e, stored[e], kBlock);
      store.append_block(block.entity, block.ticks, block.regimes);
      stored[e] += kBlock;
    }
    Scope span(log, "data.column_store.flush");
    const std::uint64_t begin = now_ns();
    store.flush();
    flush_us.push_back(static_cast<double>(now_ns() - begin) * 1e-3);
  }

  const auto m = [&](const char* name) { return timed.median_us(name); };
  const std::string b = ".b" + std::to_string(kBlock);
  const double ingest_codec =
      m("serve.wire.encode_ingest_request") + m("serve.wire.decode_ingest_request") +
      m("serve.wire.encode_ingest_reply") + m("serve.wire.decode_ingest_reply");
  const double latest_codec =
      m("serve.wire.encode_score_latest_request") + m("serve.wire.decode_score_latest_request") +
      m("serve.wire.encode_score_response") + m("serve.wire.decode_score_response");
  report.add("serve.daemon.ingest_rtt_us", m("serve.daemon.ingest_rtt"), "us");
  report.add("serve.wire.ingest_codec_us", ingest_codec, "us");
  report.add("data.column_store.append_block_us", m("data.column_store.append_block"), "us");
  report.add("data.column_store.flush_us", median(flush_us), "us");
  report.add("serve.daemon.score_latest_rtt_us", m("serve.daemon.score_latest_rtt"), "us");
  report.add("data.column_store.latest_windows_us", m("data.column_store.latest_windows"), "us");
  report.add("data.window_view.gather_us", m("data.window_view.gather"), "us");
  report.add("serve.scoring_service.score_views_us" + b, m("serve.scoring_service.score_views"),
             "us");
  report.add("predict.predict_batch_us" + b, m("predict.predict_batch.bB"), "us");
  report.add("detect.score_batch_us" + b, m("detect.score_batch.bB"), "us");
  const double covered = ingest_codec + m("data.column_store.append_block") + latest_codec +
                         m("data.column_store.latest_windows") +
                         m("serve.scoring_service.score_views");
  report.add("trace.coverage.stream", covered / median(step_us), "ratio");
  report.note("trace.coverage.stream.residual",
              "transport (syscalls, unix socket, connection-thread hand-offs) + daemon dispatch");
}

/// The stream workload's per-run state: the seeded entity split and the
/// ticks sent so far per entity.
struct StreamState {
  std::vector<std::vector<std::size_t>> split;
  std::vector<std::uint64_t> sent;
  Sampler sampled;
};

/// Deals disjoint entity sets to the connections from a seeded shuffle,
/// ingests the history of every entity's first window, and warms the
/// connections and the store; none of it is timed.
StreamState prepare_stream(Stack& stack, const Traffic& traffic, Rng& rng, Reference& reference,
                           Report& report) {
  std::vector<std::size_t> order(traffic.entities.size());
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  StreamState state;
  state.split.resize(std::min(client_connections(), order.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    state.split[i % state.split.size()].push_back(order[i]);
  }
  state.sent.assign(traffic.entities.size(), 0);
  state.sampled = Sampler{rng.below(61)};
  serve::DaemonClient client(stack.stream->endpoint());
  for (std::size_t e = 0; e < traffic.entities.size(); ++e) {
    const auto reply = client.ingest(traffic.block(e, 0, traffic.seq_len - 1));
    state.sent[e] = traffic.seq_len - 1;
    report.check(reply.total_ticks == state.sent[e], "warm-up IngestReply.total_ticks mismatch");
  }
  verify_stream(stack, traffic, reference,
                run_stream(stack, traffic, state.sent, state.split, 0.3, state.sampled, nullptr,
                           report)
                    .samples,
                report);
  return state;
}

/// Traced: the stream untraced then traced (their difference is the
/// tracing overhead), then the layer probe.
void trace_stream(Stack& stack, const Traffic& traffic, StreamState& state, double budget_s,
                  Tracer& tracer, Reference& reference, Report& report) {
  const double phase_s = budget_s / 3.0;
  StreamRun plain = run_stream(stack, traffic, state.sent, state.split, phase_s, state.sampled,
                               nullptr, report);
  StreamRun traced = run_stream(stack, traffic, state.sent, state.split, phase_s, state.sampled,
                                &tracer, report);
  verify_stream(stack, traffic, reference, plain.samples, report);
  verify_stream(stack, traffic, reference, traced.samples, report);
  report.add("data.column_store.seals", static_cast<double>(plain.seals + traced.seals), "count");
  report.add("trace.overhead_share.stream",
             stream_figures(traced).step_p50_us / stream_figures(plain).step_p50_us - 1.0,
             "ratio");
  probe_stream(stack, traffic, state.sent, state.split.front(), 300, tracer, report);
}

/// Untraced: a throwaway set-up (with the caller's between-rounds work) and
/// stream, light and loaded blocks take turns over kRounds rounds, so every
/// metric's samples spread over the whole run. Contention from other
/// processes only ever adds time, so a gated figure is its best round; the
/// ungated ones are the median round. The rate ladder runs last.
void measure_serving(Stack& stack, const Traffic& traffic, StreamState& state, Rng& rng,
                     const ServingBudget& budget, Reference& reference,
                     const std::function<void()>& start_round, Report& report) {
  const double open_loop_s = 0.3 * budget.interactive_s / kRounds;
  const double stream_s = budget.stream_s / kRounds;
  std::map<std::string, std::vector<double>> rounds;
  std::size_t light_samples = 0, loaded_samples = 0, stream_steps = 0;
  std::uint64_t seals = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    start_round();
    // The stream block right after the set-up, not after the loaded block:
    // the mesh shards' adaptive loop may still be publishing generations
    // from the interactive traffic.
    StreamRun block = run_stream(stack, traffic, state.sent, state.split, stream_s,
                                 state.sampled, nullptr, report);
    verify_stream(stack, traffic, reference, block.samples, report);
    const StreamFigures figures = stream_figures(block);
    rounds["verdicts_per_s"].push_back(figures.verdicts_per_s);
    rounds["ingest_p50_us"].push_back(figures.ingest_p50_us);
    rounds["score_latest_p50_us"].push_back(figures.score_latest_p50_us);
    rounds["step_p99_us"].push_back(figures.step_p99_us);
    stream_steps += block.steps.size();
    seals += block.seals;
    for (const bool loaded : {false, true}) {
      InteractiveRun run = run_interactive(stack, traffic, rng, loaded ? kLoadedRate : kLightRate,
                                           open_loop_s, nullptr);
      verify_interactive(stack, traffic, reference, run.samples, report);
      report.check(run.result.failed == 0,
                   std::to_string(run.result.failed) + " interactive requests failed");
      const std::string suffix = loaded ? "loaded" : "light";
      rounds["p50_us." + suffix].push_back(quantile(run.result.latency_us, 0.5));
      rounds["p99_us." + suffix].push_back(quantile(run.result.latency_us, 0.99));
      rounds["lag_p99_us." + suffix].push_back(quantile(run.result.lag_us, 0.99));
      (loaded ? loaded_samples : light_samples) += run.result.latency_us.size();
    }
  }
  report.add("score_latest_p50_us", std::ranges::min(rounds["score_latest_p50_us"]), "us");
  for (const char* name : {"ingest_p50_us", "score_latest_p50_us"}) {
    report.note(std::string("rounds.") + name, rounds[name]);
  }
  for (const char* name : {"ingest_p50_us", "p50_us.light", "p99_us.light", "p50_us.loaded",
                           "p99_us.loaded", "step_p99_us"}) {
    report.add_ungated(name, median(rounds[name]), "us");
  }
  report.add_ungated("verdicts_per_s", median(rounds["verdicts_per_s"]), "1/s");
  report.note("samples.light", std::to_string(light_samples));
  report.note("samples.loaded", std::to_string(loaded_samples));
  report.note("samples.stream_steps", std::to_string(stream_steps));
  report.note("stream.seals", std::to_string(seals));
  report.note("generator_lag_p99_us.light", std::to_string(median(rounds["lag_p99_us.light"])));
  const double rung_s = std::clamp(budget.interactive_s / 40.0, 0.2, 0.4);
  report.add_ungated("max_rps_at_slo",
                     find_max_rps(stack, traffic, rng, rung_s, reference, report), "1/s");
}

}  // namespace

void run_serving_phases(const Fleet& fleet,
                        const fs::path& scratch, std::uint64_t seed, const ServingBudget& budget,
                        const std::function<void()>& between_rounds, Tracer& tracer,
                        Report& report) {
  Rng rng(seed);
  const Traffic traffic = make_traffic(fleet, rng.fork(1));

  // Every set-up after the warm-up is timed. An untraced run sets up once
  // more per measuring round, on a throwaway stack, so the samples spread
  // over the run like the serving rounds'; `setup_s` is their median.
  std::vector<double> setup_s;
  std::size_t stacks = 0;
  const auto set_up = [&] {
    const fs::path root = scratch / ("stack-" + std::to_string(stacks++));
    const std::uint64_t begin = now_ns();
    core::RiskProfilingFramework trained(fleet.domain, fleet.config);
    auto stack = set_up_stack(trained, root);
    setup_s.push_back(seconds_between(begin, now_ns()));
    return stack;
  };
  // A fresh process sets up slower for its first few set-ups (a profile
  // run's first one took 0.36 s against 0.19 s later), so warm up first.
  for (std::size_t warm_up = 0; warm_up < kWarmUpSetups; ++warm_up) (void)set_up();
  setup_s.clear();
  const std::unique_ptr<Stack> stack = set_up();

  Reference reference;
  Rng interactive_rng = rng.fork(2);
  Rng stream_rng = rng.fork(3);
  // Warm connections, pools and caches before anything is timed.
  (void)run_interactive(*stack, traffic, interactive_rng, kLightRate, 0.2, nullptr);
  StreamState state = prepare_stream(*stack, traffic, stream_rng, reference, report);
  if (tracer.enabled()) {
    trace_interactive(*stack, traffic, interactive_rng, budget.interactive_s, tracer, reference,
                      report);
    trace_stream(*stack, traffic, state, budget.stream_s, tracer, reference, report);
  } else {
    measure_serving(*stack, traffic, state, interactive_rng, budget, reference,
                    [&] {
                      (void)set_up();
                      between_rounds();
                    },
                    report);
    report.add("setup_s", median(setup_s), "s");
    report.note("setup_s.all", setup_s);
  }
  report.note("generations.shards", std::to_string(stack->shards[0]->generation()) + " " +
                                        std::to_string(stack->shards[1]->generation()));
  report.note("generations.stream", std::to_string(stack->stream->generation()));
}

}  // namespace perfbench

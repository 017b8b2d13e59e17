// Protocol fuzz for the wire layer — the acceptance gate behind the
// FrameServer error-containment contract, driven at BOTH transports:
//
//   * A seeded corpus of VALID frames (Score with real windows, Stats,
//     Health, Refresh, Drain, unknown types) is mutated byte-wise —
//     bit flips, truncation, random extension, and deliberate lies in the
//     length field — and thrown at a LIVE daemon over a Unix-domain and a
//     TCP listener. The server may answer with typed Error frames, answer
//     normally (some mutations stay valid), or close the connection; it
//     must never crash, never emit a malformed frame of its own, and never
//     wedge (the test side reads with a receive timeout; the daemon must
//     still serve a clean round trip after the whole barrage).
//   * The payload codecs are pinned and fuzzed directly from one table with
//     a sample of every message: each sample's exact payload bytes (the
//     golden hex — the layout contract), exact decode/re-encode round
//     trips, every decode bound (string and matrix caps, element counts,
//     enum ranges, trailing bytes), and a mutation sweep in which a
//     mutated payload may decode (mutation hit don't-care bytes) or throw
//     the typed common::SerializationError — anything else (length_error,
//     bad_alloc, a crash) fails the suite.
//
// Mutations are generated from a fixed splitmix64 seed: every CI run and
// every local repro fuzzes the exact same byte streams. The suite runs in
// the sanitizer lane (ASan+UBSan) in CI, where "no crash" also means no
// heap overflow and no UB on any of these paths.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "data/window.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/daemon.hpp"

namespace goodones::serve {
namespace {

std::shared_ptr<const core::DomainAdapter> mini_fleet() {
  static const auto domain = std::make_shared<synthtel::SynthtelDomain>(2);
  return domain;
}

core::FrameworkConfig mini_config() {
  core::FrameworkConfig config = mini_fleet()->prepare(core::FrameworkConfig::fast());
  config.population.train_steps = 1200;
  config.population.test_steps = 400;
  config.population.seed = 23;
  config.registry.forecaster.hidden = 8;
  config.registry.forecaster.head_hidden = 6;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 8;
  config.registry.aggregate_window_step = 50;
  config.profiling_campaign.window_step = 10;
  config.evaluation_campaign.window_step = 10;
  config.detector_benign_stride = 10;
  config.detectors.knn.max_points_per_class = 400;
  config.random_runs = 1;
  config.random_victims = 2;
  config.seed = 555;
  return config;
}

core::RiskProfilingFramework& framework() {
  static core::RiskProfilingFramework instance(mini_fleet(), mini_config());
  return instance;
}

std::filesystem::path unique_path(const char* stem, const char* suffix) {
  return std::filesystem::temp_directory_path() /
         (std::string(stem) + "_" + std::to_string(::getpid()) + suffix);
}

std::string frame_bytes(wire::MessageType type, const std::string& payload) {
  std::string bytes(20, '\0');
  const std::uint32_t magic = wire::kMagic;
  const std::uint32_t version = wire::kVersion;
  const std::uint32_t type_value = static_cast<std::uint32_t>(type);
  const std::uint64_t length = payload.size();
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &type_value, 4);
  std::memcpy(bytes.data() + 12, &length, 8);
  return bytes + payload;
}

/// A real Score request against the served bundle (mutations of this one
/// exercise the deepest decode path: strings, u64 counts, matrices).
ScoreRequest real_request() {
  auto& fw = framework();
  const auto& entity = fw.entities().front();
  data::WindowConfig window_config = fw.config().window;
  window_config.step = 30;
  ScoreRequest request;
  request.entity = entity.name;
  const auto windows = data::make_windows(entity.test, window_config);
  for (std::size_t i = 0; i < windows.size() && i < 2; ++i) {
    request.windows.push_back({windows[i].features, windows[i].regime});
  }
  return request;
}

/// The seeded corpus of well-formed frames the mutator starts from.
std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus;
  corpus.push_back(
      frame_bytes(wire::MessageType::kScore, wire::encode(real_request())));
  corpus.push_back(frame_bytes(wire::MessageType::kStats, {}));
  corpus.push_back(frame_bytes(wire::MessageType::kHealth, {}));
  corpus.push_back(frame_bytes(wire::MessageType::kRefresh, {}));
  corpus.push_back(
      frame_bytes(wire::MessageType::kDrain, wire::encode(wire::DrainRequest{"shard-a"})));
  corpus.push_back(frame_bytes(wire::MessageType::kPromote,
                               wire::encode(wire::CanaryAdminRequest{7})));
  // Bare form: whatever is staged.
  corpus.push_back(frame_bytes(wire::MessageType::kRollback,
                               wire::encode(wire::CanaryAdminRequest{0})));
  // A reply type a client should never send, and a type far outside the enum.
  corpus.push_back(frame_bytes(wire::MessageType::kScoreReply, "unexpected"));
  corpus.push_back(frame_bytes(static_cast<wire::MessageType>(0x7eadbeef), "future"));
  return corpus;
}

/// One deterministic mutation of `original` (never returns it unchanged).
std::string mutate(const std::string& original, std::uint64_t& rng) {
  std::string bytes = original;
  switch (common::splitmix64_next(rng) % 4) {
    case 0: {  // flip 1..8 random bytes
      const std::size_t flips = 1 + common::splitmix64_next(rng) % 8;
      for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t at = common::splitmix64_next(rng) % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^
                                      (1u << (common::splitmix64_next(rng) % 8)));
      }
      break;
    }
    case 1: {  // truncate (possibly mid-header, possibly mid-payload)
      const std::size_t keep = common::splitmix64_next(rng) % bytes.size();
      bytes.resize(keep);
      break;
    }
    case 2: {  // extend with random garbage
      const std::size_t extra = 1 + common::splitmix64_next(rng) % 64;
      for (std::size_t e = 0; e < extra; ++e) {
        bytes.push_back(static_cast<char>(common::splitmix64_next(rng) & 0xff));
      }
      break;
    }
    default: {  // lie in the length field (small lie, huge lie, zero)
      std::uint64_t lie = 0;
      switch (common::splitmix64_next(rng) % 3) {
        case 0: lie = common::splitmix64_next(rng) % 4096; break;
        case 1: lie = common::splitmix64_next(rng); break;  // absurd
        default: lie = 0; break;
      }
      if (bytes.size() >= 20) std::memcpy(bytes.data() + 12, &lie, 8);
      break;
    }
  }
  if (bytes == original) bytes.push_back('\0');  // guarantee a real mutation
  return bytes;
}

/// Sends one mutated byte stream and drains the server's answer. The ONLY
/// acceptable outcomes: well-formed reply frames (typed Error included),
/// a clean close, a transport reset, or the server waiting for more bytes
/// (our receive timeout fires; the close that follows unblocks it).
void drive_mutation(const common::Endpoint& endpoint, const std::string& bytes) {
  common::Socket socket = common::connect_endpoint(endpoint);
  // Backstop only: the write half-close below means a healthy server
  // always answers or closes promptly; hitting this timeout IS the wedge
  // the suite exists to catch.
  socket.set_recv_timeout_ms(2000);
  try {
    socket.write_all(bytes.data(), bytes.size());
  } catch (const common::SocketError&) {
    return;  // server already closed on us mid-write — a clean rejection
  }
  // Half-close: a server mid-frame (truncation/length lie) observes EOF
  // NOW instead of waiting out a timeout, so the whole barrage stays fast.
  socket.shutdown_write();
  try {
    for (int frames = 0; frames < 4; ++frames) {
      // recv_frame validates the SERVER's framing: a malformed reply frame
      // throws SerializationError here and fails the test below.
      const std::optional<wire::Frame> reply = wire::recv_frame(socket);
      if (!reply.has_value()) return;  // clean close
    }
  } catch (const common::SocketError& error) {
    // A reset is a legal close (our junk may still sit unread in the
    // server's buffer when it closes). A receive TIMEOUT is not: after the
    // half-close the server has everything it will ever get — silence
    // means a wedged handler.
    if (std::string_view(error.what()).find("timed out") != std::string_view::npos) {
      ADD_FAILURE() << "server went silent on a mutated stream: " << error.what();
    }
  } catch (const common::SerializationError& error) {
    ADD_FAILURE() << "server emitted a malformed frame: " << error.what();
  }
}

void fuzz_transport(const common::Endpoint& endpoint, std::uint64_t seed) {
  const std::vector<std::string> corpus = build_corpus();
  std::uint64_t rng = seed;
  for (const std::string& original : corpus) {
    for (int round = 0; round < 40; ++round) {
      drive_mutation(endpoint, mutate(original, rng));
    }
  }
  // Multi-frame streams: a valid frame, junk after it on the same
  // connection — the first must be answered before the junk kills the
  // stream.
  for (int round = 0; round < 10; ++round) {
    const std::string valid = frame_bytes(wire::MessageType::kStats, {});
    drive_mutation(endpoint, valid + mutate(corpus[round % corpus.size()], rng));
  }
}

long peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(WireFuzz, LyingLengthHeaderCostsOnlyTheBytesThatArrive) {
  // A header that declares a 1 GiB payload, then the peer hangs up: the
  // reader must fail typed without ever holding the declared length.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  common::Socket reader(fds[0]);
  {
    common::Socket peer(fds[1]);
    std::string header = frame_bytes(wire::MessageType::kScore, "");
    const std::uint64_t lie = std::uint64_t{1} << 30;
    ASSERT_LE(lie, wire::kMaxPayloadBytes);
    std::memcpy(header.data() + 12, &lie, 8);
    peer.write_all(header.data(), header.size());
  }
  const long before_kb = peak_rss_kb();
  EXPECT_THROW((void)wire::recv_frame(reader), common::SerializationError);
  EXPECT_LT(peak_rss_kb() - before_kb, 64L * 1024);
}

TEST(WireFuzz, ControlVerbsRefuseOversizedPayloadsAtTheHeader) {
  // A control verb whose header declares more than its cap fails typed at
  // the header: the payload bytes the peer streams behind it stay unread in
  // the socket, so none of them is ever buffered, however many follow.
  using wire::MessageType;
  const std::string body(std::size_t{64} << 10, 'x');
  for (const MessageType verb :
       {MessageType::kStats, MessageType::kRefresh, MessageType::kShutdown,
        MessageType::kHealth, MessageType::kDrain, MessageType::kScoreLatest,
        MessageType::kPromote, MessageType::kRollback}) {
    SCOPED_TRACE(wire::to_string(verb));
    EXPECT_EQ(wire::max_payload_bytes(verb), wire::kMaxControlPayloadBytes);
    for (const std::uint64_t declared :
         {wire::kMaxControlPayloadBytes + 1, std::uint64_t{1} << 30}) {
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      common::Socket reader(fds[0]);
      common::Socket peer(fds[1]);
      std::string header = frame_bytes(verb, "");
      std::memcpy(header.data() + 12, &declared, 8);
      const std::string stream = header + body;
      peer.write_all(stream.data(), stream.size());

      const long before_kb = peak_rss_kb();
      EXPECT_THROW((void)wire::recv_frame(reader), common::SerializationError);
      EXPECT_LT(peak_rss_kb() - before_kb, 1024L);
      std::string unread(body.size(), '\0');
      ASSERT_EQ(reader.read_exact(unread.data(), unread.size()),
                common::Socket::ReadResult::kOk);
      EXPECT_EQ(unread, body);
    }
  }

  // A control payload at exactly the cap is read whole; Score, Ingest and
  // unknown types keep the global cap, so the same length passes for them.
  const std::size_t cap = wire::kMaxControlPayloadBytes;
  for (const auto& [type, length] : std::vector<std::pair<MessageType, std::size_t>>{
           {MessageType::kDrain, cap},
           {MessageType::kScore, cap + 1},
           {MessageType::kIngest, cap + 1},
           {static_cast<MessageType>(0x7eadbeef), cap + 1}}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    common::Socket reader(fds[0]);
    common::Socket peer(fds[1]);
    const std::string frame = frame_bytes(type, std::string(length, 'y'));
    peer.write_all(frame.data(), frame.size());
    const std::optional<wire::Frame> got = wire::recv_frame(reader);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, type);
    EXPECT_EQ(got->payload.size(), length);
  }
}

TEST(WireFuzz, MutatedFramesNeverCrashOrWedgeEitherTransport) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);

  DaemonConfig unix_config;
  unix_config.listen = common::Endpoint::unix_socket(unique_path("go_fuzz", ".sock"));
  unix_config.registry_root = unique_path("go_fuzz", "_reg");
  unix_config.adaptive_enabled = false;
  // Finished connections close at the accept loop's reap tick; hundreds of
  // short-lived fuzz connections wait on it, so poll fast.
  unix_config.accept_poll_ms = 5;
  std::filesystem::remove_all(unix_config.registry_root);
  Daemon unix_daemon(clone_serving_model(bundle), unix_config);
  unix_daemon.start();

  DaemonConfig tcp_config;
  tcp_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  tcp_config.registry_root = unix_config.registry_root;
  tcp_config.adaptive_enabled = false;
  tcp_config.accept_poll_ms = 5;
  Daemon tcp_daemon(std::move(bundle), tcp_config);
  tcp_daemon.start();

  fuzz_transport(unix_daemon.endpoint(), /*seed=*/0x600d0e5f);
  fuzz_transport(tcp_daemon.endpoint(), /*seed=*/0x600d0e5f ^ 0x7c9);

  // The survival gate: after the barrage both daemons still serve clean
  // round trips — no crash, no wedged accept loop, no leaked-broken state.
  for (Daemon* daemon : {&unix_daemon, &tcp_daemon}) {
    EXPECT_TRUE(daemon->running());
    DaemonClient client(daemon->endpoint());
    const ScoreResponse response = client.score(real_request());
    EXPECT_FALSE(response.windows.empty());
    EXPECT_FALSE(client.stats().empty());
  }

  unix_daemon.stop();
  tcp_daemon.stop();
  std::filesystem::remove_all(unix_config.registry_root);
}

/// Lowercase hex of a byte string (the golden table's notation).
std::string hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// Hand-assembled payload bytes for the bound checks below.
struct Bytes {
  std::string data;
  Bytes& u32(std::uint32_t v) { return raw(&v, sizeof(v)); }
  Bytes& u64(std::uint64_t v) { return raw(&v, sizeof(v)); }
  Bytes& f64(double v) { return raw(&v, sizeof(v)); }
  Bytes& u8(std::uint8_t v) { return raw(&v, sizeof(v)); }
  Bytes& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    data += s;
    return *this;
  }
  Bytes& raw(const void* p, std::size_t n) {
    data.append(static_cast<const char*>(p), n);
    return *this;
  }
};

/// One message of the protocol: its sample's encoded payload, a decode that
/// re-encodes (so decode and encode are both pinned against the golden
/// bytes), and the payload bytes every commit must produce for the sample.
struct CodecCase {
  std::string name;
  std::string payload;
  std::function<std::string(const std::string&)> reencode;
  std::string golden_hex;
  /// Byte offset of a matrix header inside the payload (0 = no matrix).
  std::size_t matrix_at = 0;
};

template <class Message>
CodecCase codec_case(std::string name, const Message& sample, std::string golden_hex,
                     std::size_t matrix_at = 0) {
  return {std::move(name), wire::encode(sample),
          [](const std::string& p) { return wire::encode(wire::decode<Message>(p)); },
          std::move(golden_hex), matrix_at};
}

/// Every payload layout of protocol version 1, one small deterministic
/// sample each. The golden bytes are the layout contract of
/// docs/PROTOCOL.md written out: changing any of them is a protocol change
/// (and a kVersion bump), never a refactor.
std::vector<CodecCase> codec_table() {
  ScoreRequest score_request;
  score_request.entity = "SA_0";
  score_request.windows.push_back(
      {nn::Matrix{{0.5, 1.0, 1.5}, {2.0, 2.5, 3.0}}, data::Regime::kActive});
  score_request.windows.push_back({nn::Matrix{{-1.0, 0.0, 4.0}}, data::Regime::kBaseline});

  ScoreResponse score_response;
  score_response.entity_index = 2;
  score_response.cluster = Cluster::kMoreVulnerable;
  score_response.generation = 3;
  score_response.windows.push_back(
      {1.0, 2.0, data::StateLabel::kHigh, data::StateLabel::kNormal, 0.5, true, 0.25});
  score_response.windows.push_back(
      {-3.0, 0.125, data::StateLabel::kLow, data::StateLabel::kHigh, 8.0, false, 0.0});

  wire::IngestRequest ingest_request;
  ingest_request.entity = "SB_1";
  ingest_request.ticks = nn::Matrix{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  ingest_request.regimes = {data::Regime::kActive, data::Regime::kBaseline,
                            data::Regime::kActive};

  const std::vector<CodecCase> cases = {
      codec_case<ScoreRequest>("score_request", score_request,
                               "04000000" "53415f30"  // entity
                               "0200000000000000"     // u64 window count
                               "01000000" "02000000" "03000000"  // regime, u32 rows, u32 cols
                               "000000000000e03f" "000000000000f03f" "000000000000f83f"
                               "0000000000000040" "0000000000000440" "0000000000000840"
                               "00000000" "01000000" "03000000"
                               "000000000000f0bf" "0000000000000000" "0000000000001040",
                               4 + 4 + 8 + 4),
      codec_case<ScoreResponse>("score_response", score_response,
                                "0200000000000000" "01000000"  // entity index, cluster
                                "0300000000000000" "0200000000000000"  // generation, count
                                // forecast, residual, states, anomaly, flag, risk
                                "000000000000f03f" "0000000000000040" "02000000" "01000000"
                                "000000000000e03f" "01000000" "000000000000d03f"
                                "00000000000008c0" "000000000000c03f" "00000000" "02000000"
                                "0000000000002040" "00000000" "0000000000000000"),
      codec_case<wire::StatsSnapshot>(
          "stats", {{"serve.daemon.scores", 41}, {"serve.router.shards", 2}},
          "0200000000000000"
          "13000000" "73657276652e6461656d6f6e2e73636f726573" "2900000000000000"
          "13000000" "73657276652e726f757465722e736861726473" "0200000000000000"),
      codec_case<wire::RefreshReply>("refresh_reply", {true, 7}, "01000000" "0700000000000000"),
      codec_case<wire::ErrorFrame>("error", {wire::ErrorCode::kUnavailable, "shard down"},
                                   "05000000" "0a000000" "736861726420646f776e"),
      codec_case<wire::HealthReply>("health_reply", {true, 9}, "01000000" "0900000000000000"),
      codec_case<wire::DrainRequest>("drain_request", {"shard-b"}, "07000000" "73686172642d62"),
      codec_case<wire::DrainReply>("drain_reply", {true, "drained"},
                                   "01000000" "07000000" "647261696e6564"),
      codec_case<wire::IngestRequest>("ingest_request", ingest_request,
                                      "04000000" "53425f31"  // entity
                                      "03000000" "02000000"  // u32 rows, u32 cols
                                      "000000000000f03f" "0000000000000040"
                                      "0000000000000840" "0000000000001040"
                                      "0000000000001440" "0000000000001840"
                                      "0300000000000000" "010001",  // u64 count, u8 regimes
                                      4 + 4),
      codec_case<wire::IngestReply>("ingest_reply", {5, 25}, "0500000000000000" "1900000000000000"),
      codec_case<wire::ScoreLatestRequest>("score_latest_request", {"SA_0", 3, 12},
                                           "04000000" "53415f30" "0300000000000000"
                                           "0c00000000000000"),
      codec_case<wire::CanaryAdminRequest>("promote_request", {11}, "0b00000000000000"),
      codec_case<wire::CanaryAdminReply>("promote_reply", {true, 11},
                                         "01000000" "0b00000000000000"),
      codec_case<wire::CanaryAdminRequest>("rollback_request", {0}, "0000000000000000"),
      codec_case<wire::CanaryAdminReply>("rollback_reply", {false, 4},
                                         "00000000" "0400000000000000"),
  };
  return cases;
}

const CodecCase& table_case(const std::vector<CodecCase>& table, const std::string& name) {
  for (const CodecCase& c : table) {
    if (c.name == name) return c;
  }
  throw std::out_of_range("no codec case " + name);
}

TEST(WireCodec, GoldenPayloadBytesAndExactRoundTrip) {
  for (const CodecCase& codec : codec_table()) {
    EXPECT_EQ(hex(codec.payload), codec.golden_hex) << codec.name;
    EXPECT_EQ(codec.reencode(codec.payload), codec.payload) << codec.name;
  }
}

TEST(WireCodec, DecodeBoundsRejectWithTypedErrors) {
  const std::vector<CodecCase> table = codec_table();
  for (const CodecCase& codec : table) {
    // Trailing bytes mean the peer disagrees about the layout; a missing
    // last byte is a truncation. Both are corrupt, never silently accepted.
    EXPECT_THROW(codec.reencode(codec.payload + '\0'), common::SerializationError)
        << codec.name;
    EXPECT_THROW(codec.reencode(codec.payload.substr(0, codec.payload.size() - 1)),
                 common::SerializationError)
        << codec.name;
  }
  const auto rejects = [&](const char* name, const std::string& payload) {
    EXPECT_THROW(table_case(table, name).reencode(payload), common::SerializationError)
        << name << " accepted " << hex(payload).substr(0, 80);
  };
  const auto accepts = [&](const char* name, const std::string& payload) {
    EXPECT_NO_THROW(table_case(table, name).reencode(payload)) << name;
  };

  // Strings: at most 2^20 bytes.
  accepts("drain_request", Bytes{}.str(std::string(1u << 20, 'x')).data);
  rejects("drain_request", Bytes{}.u32((1u << 20) + 1).data + std::string((1u << 20) + 1, 'x'));
  // Matrices: at most 2^26 elements, and a header whose element count
  // overflows any byte arithmetic must not get past the check.
  rejects("ingest_request", Bytes{}.str("SB_1").u32((1u << 13) + 1).u32(1u << 13).data);
  rejects("ingest_request", Bytes{}.str("SB_1").u32(0xFFFFFFFFu).u32(0xFFFFFFFFu).data);
  rejects("ingest_request",
          Bytes{}.str("SB_1").u32(0x80000000u).u32(0x20000000u).u64(0).data);
  // Element counts: never more than the bytes left.
  rejects("score_request", Bytes{}.str("SA_0").u64(1ull << 40).data);
  rejects("score_response", Bytes{}.u64(0).u32(0).u64(0).u64(~0ull).data);
  rejects("stats", Bytes{}.u64(9).data);
  // Enum ranges.
  rejects("score_request", Bytes{}.str("SA_0").u64(1).u32(2).u32(0).u32(0).data);
  rejects("score_response", Bytes{}.u64(0).u32(2).u64(0).u64(0).data);
  const auto one_window = [](std::uint32_t observed, std::uint32_t predicted,
                             std::uint32_t flag) {
    return Bytes{}.u64(0).u32(0).u64(0).u64(1).f64(1).f64(2).u32(observed).u32(predicted)
        .f64(0.5).u32(flag).f64(0.25).data;
  };
  accepts("score_response", one_window(2, 2, 1));
  rejects("score_response", one_window(3, 0, 0));
  rejects("score_response", one_window(0, 3, 0));
  rejects("score_response", one_window(0, 0, 2));
  rejects("refresh_reply", Bytes{}.u32(2).u64(0).data);
  rejects("health_reply", Bytes{}.u32(2).u64(0).data);
  rejects("drain_reply", Bytes{}.u32(2).str("").data);
  rejects("promote_reply", Bytes{}.u32(2).u64(0).data);
  rejects("rollback_reply", Bytes{}.u32(2).u64(0).data);
  accepts("error", Bytes{}.u32(5).str("").data);
  rejects("error", Bytes{}.u32(0).str("").data);
  rejects("error", Bytes{}.u32(6).str("").data);
  const auto ingest_regimes = [](std::uint64_t count, std::uint8_t regime) {
    Bytes bytes;
    bytes.str("SB_1").u32(1).u32(1).f64(1.0).u64(count);
    for (std::uint64_t i = 0; i < count; ++i) bytes.u8(regime);
    return bytes.data;
  };
  accepts("ingest_request", ingest_regimes(1, 1));
  rejects("ingest_request", ingest_regimes(1, 2));
  // Regime count must equal the tick count.
  rejects("ingest_request", ingest_regimes(0, 0));
  rejects("ingest_request", ingest_regimes(2, 0));
  // ScoreLatest: count and seq_len capped at 2^20.
  accepts("score_latest_request", Bytes{}.str("SA_0").u64(1u << 20).u64(1u << 20).data);
  rejects("score_latest_request", Bytes{}.str("SA_0").u64((1u << 20) + 1).u64(0).data);
  rejects("score_latest_request", Bytes{}.str("SA_0").u64(1).u64((1u << 20) + 1).data);
}

TEST(WireFuzz, PayloadCodecsThrowOnlyTypedErrors) {
  const std::vector<CodecCase> table = codec_table();
  // The router's entity peek reads only the leading name of the three
  // entity-keyed payloads; it is swept over the same samples.
  std::vector<CodecCase> cases = table;
  for (const char* keyed : {"score_request", "ingest_request", "score_latest_request"}) {
    CodecCase peek = table_case(table, keyed);
    peek.name = std::string("peek:") + keyed;
    peek.reencode = [](const std::string& p) { return wire::peek_score_entity(p); };
    cases.push_back(std::move(peek));
  }

  const auto expect_typed = [](const CodecCase& codec, const std::string& mutated) {
    try {
      (void)codec.reencode(mutated);  // decoding fine means the mutation was benign
    } catch (const common::SerializationError&) {
      // the typed rejection — the only acceptable throw
    } catch (const std::exception& other) {
      ADD_FAILURE() << codec.name << " threw " << other.what()
                    << " instead of SerializationError";
    }
  };
  std::uint64_t rng = 0xfeedc0de;
  for (const CodecCase& codec : cases) {
    // Round-trip sanity first: the unmutated payload must decode.
    ASSERT_NO_THROW(codec.reencode(codec.payload)) << codec.name;
    for (int round = 0; round < 300; ++round) {
      expect_typed(codec, mutate(codec.payload, rng));
    }
    if (codec.matrix_at == 0) continue;
    // A lying matrix header: 0xFFFFFFFF x 0xFFFFFFFF elements, whose byte
    // size wraps 64-bit arithmetic. Only the peek may get past it (it never
    // reads that far); every full decode must reject it typed.
    std::string lying = codec.payload;
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(lying.data() + codec.matrix_at, &huge, 4);
    std::memcpy(lying.data() + codec.matrix_at + 4, &huge, 4);
    if (codec.name.rfind("peek:", 0) == 0) {
      expect_typed(codec, lying);
    } else {
      EXPECT_THROW(codec.reencode(lying), common::SerializationError) << codec.name;
    }
  }
}

}  // namespace
}  // namespace goodones::serve

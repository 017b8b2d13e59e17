#include "serve/wire.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace goodones::serve::wire {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;

void put_u32(char* out, std::uint32_t v) { std::memcpy(out, &v, sizeof(v)); }
void put_u64(char* out, std::uint64_t v) { std::memcpy(out, &v, sizeof(v)); }
std::uint32_t get_u32(const char* in) {
  std::uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}
std::uint64_t get_u64(const char* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

[[noreturn]] void corrupt(const std::string& message) {
  throw common::SerializationError("wire: " + message);
}

/// Caps shared with every persisted artifact (nn/serialize.cpp): strings
/// are names and labels, and one matrix holds at most 2^26 doubles.
constexpr std::uint32_t kMaxStringBytes = 1u << 20;
constexpr std::uint64_t kMaxMatrixElements = 1ull << 26;
/// ScoreLatest's count and seq_len: beyond this no request is legitimate,
/// and the cap keeps a hostile frame from driving giant allocations.
constexpr std::uint64_t kMaxLatest = 1ull << 20;

// A field list is `template <class IO> void fields(IO& io, Message& m)`:
// one call per wire field, in wire order. The Writer and the Reader below
// give the same calls their two meanings, so a layout is written once.
// Writers only read the message (encode() hands them a const_cast).

/// Encodes into a caller-sized span. With a null span it only counts, so
/// encode() sizes the payload exactly in a first pass and then fills it.
class Writer {
 public:
  explicit Writer(char* out) : out_(out) {}
  std::size_t size() const noexcept { return size_; }

  template <class U>
  void u64(const U& v, const char* /*what*/, std::uint64_t /*max*/ = ~0ull) {
    put_scalar(static_cast<std::uint64_t>(v));
  }
  void f64(const double& v, const char* /*what*/) { put_scalar(v); }
  void flag(const bool& v, const char* /*what*/) { put_scalar(std::uint32_t{v ? 1u : 0u}); }
  /// An enum as a u32 code in [lo, hi].
  template <class E>
  void code(const E& v, const char* /*what*/, std::uint32_t /*lo*/, std::uint32_t /*hi*/) {
    put_scalar(static_cast<std::uint32_t>(v));
  }
  /// An enum as one byte in [0, hi].
  template <class E>
  void byte_code(const E& v, const char* /*what*/, std::uint8_t /*hi*/) {
    put_scalar(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& s, const char* /*what*/) {
    put_scalar(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
  }
  void matrix(const nn::Matrix& m, const char* /*what*/) {
    put_scalar(static_cast<std::uint32_t>(m.rows()));
    put_scalar(static_cast<std::uint32_t>(m.cols()));
    put(m.data(), m.size() * sizeof(double));
  }
  /// A u64 element count, then each element's own fields.
  template <class T, class Fields>
  void seq(const std::vector<T>& v, const char* /*what*/, std::size_t /*min_bytes*/,
           Fields&& element) {
    put_scalar(static_cast<std::uint64_t>(v.size()));
    for (const T& e : v) element(const_cast<T&>(e));
  }
  void check(bool /*ok*/, const char* /*what*/) {}

 private:
  template <class T>
  void put_scalar(T v) {
    put(&v, sizeof(v));
  }
  void put(const void* data, std::size_t n) {
    if (out_ != nullptr && n > 0) std::memcpy(out_ + size_, data, n);
    size_ += n;
  }

  char* out_;
  std::size_t size_ = 0;
};

/// Decodes from a span, bounds-checking every read against the bytes left.
class Reader {
 public:
  explicit Reader(std::string_view in) : at_(in.data()), end_(in.data() + in.size()) {}

  template <class U>
  void u64(U& v, const char* what, std::uint64_t max = ~0ull) {
    const auto raw = take_scalar<std::uint64_t>(what);
    if (raw > max) corrupt(std::string(what) + " out of range: " + std::to_string(raw));
    v = static_cast<U>(raw);
  }
  void f64(double& v, const char* what) { v = take_scalar<double>(what); }
  void flag(bool& v, const char* what) {
    std::uint32_t raw = 0;
    code(raw, what, 0, 1);
    v = raw == 1;
  }
  template <class E>
  void code(E& v, const char* what, std::uint32_t lo, std::uint32_t hi) {
    const auto raw = take_scalar<std::uint32_t>(what);
    if (raw < lo || raw > hi) {
      corrupt(std::string(what) + " out of range: " + std::to_string(raw));
    }
    v = static_cast<E>(raw);
  }
  template <class E>
  void byte_code(E& v, const char* what, std::uint8_t hi) {
    const auto raw = take_scalar<std::uint8_t>(what);
    if (raw > hi) corrupt(std::string(what) + " out of range: " + std::to_string(raw));
    v = static_cast<E>(raw);
  }
  void str(std::string& s, const char* what) {
    const auto size = take_scalar<std::uint32_t>(what);
    if (size > kMaxStringBytes) corrupt(std::string("implausible length for ") + what);
    s.assign(take(size, what), size);
  }
  void matrix(nn::Matrix& m, const char* what) {
    const auto rows = take_scalar<std::uint32_t>(what);
    const auto cols = take_scalar<std::uint32_t>(what);
    // u32 x u32 cannot wrap in 64 bits; the element cap then bounds the
    // byte count far below any overflow.
    if (std::uint64_t{rows} * cols > kMaxMatrixElements) {
      corrupt(std::string("implausible matrix shape for ") + what);
    }
    const char* body = take(std::size_t{rows} * cols * sizeof(double), what);
    m = nn::Matrix(rows, cols);
    if (m.size() > 0) std::memcpy(m.data(), body, m.size() * sizeof(double));
  }
  /// Every element costs at least `min_bytes` of payload, so a count the
  /// bytes left cannot hold is corrupt before anything is allocated.
  template <class T, class Fields>
  void seq(std::vector<T>& v, const char* what, std::size_t min_bytes, Fields&& element) {
    const auto count = take_scalar<std::uint64_t>(what);
    if (count > left() / min_bytes) {
      corrupt(std::string(what) + " count " + std::to_string(count) +
              " exceeds the payload size");
    }
    v.resize(static_cast<std::size_t>(count));
    for (T& e : v) element(e);
  }
  void check(bool ok, const char* what) {
    if (!ok) corrupt(what);
  }
  /// All payloads must be consumed exactly; trailing bytes mean the peer
  /// and we disagree about the layout — corrupt, not ignorable.
  void finish() {
    if (left() != 0) corrupt("trailing bytes after the payload's last field");
  }

 private:
  std::size_t left() const noexcept { return static_cast<std::size_t>(end_ - at_); }
  const char* take(std::size_t n, const char* what) {
    if (n > left()) corrupt(std::string("payload truncated while reading ") + what);
    const char* at = at_;
    at_ += n;
    return at;
  }
  template <class T>
  T take_scalar(const char* what) {
    T v;
    std::memcpy(&v, take(sizeof(T), what), sizeof(T));
    return v;
  }

  const char* at_;
  const char* end_;
};

// --- field lists (the layouts of docs/PROTOCOL.md) ---------------------------

template <class IO>
void fields(IO& io, ScoreRequest& m) {
  io.str(m.entity, "score request entity");
  io.seq(m.windows, "score request window", 12, [&](TelemetryWindow& w) {
    io.code(w.regime, "window regime", 0, 1);
    io.matrix(w.features, "window features");
  });
}

template <class IO>
void fields(IO& io, ScoreResponse& m) {
  io.u64(m.entity_index, "score response entity index");
  io.code(m.cluster, "response cluster", 0, 1);
  io.u64(m.generation, "score response generation");
  io.seq(m.windows, "score response window", 44, [&](WindowScore& w) {
    io.f64(w.forecast, "window forecast");
    io.f64(w.residual, "window residual");
    io.code(w.observed_state, "observed state", 0, 2);
    io.code(w.predicted_state, "predicted state", 0, 2);
    io.f64(w.anomaly_score, "window anomaly score");
    io.flag(w.flagged, "window flag");
    io.f64(w.risk, "window risk");
  });
}

template <class IO>
void fields(IO& io, StatsSnapshot& m) {
  io.seq(m, "stats entry", 12, [&](std::pair<std::string, std::uint64_t>& entry) {
    io.str(entry.first, "stats counter name");
    io.u64(entry.second, "stats counter value");
  });
}

template <class IO>
void fields(IO& io, RefreshReply& m) {
  io.flag(m.refreshed, "refresh flag");
  io.u64(m.generation, "refresh generation");
}

template <class IO>
void fields(IO& io, ErrorFrame& m) {
  io.code(m.code, "error code", static_cast<std::uint32_t>(ErrorCode::kMalformedFrame),
          static_cast<std::uint32_t>(ErrorCode::kUnavailable));
  io.str(m.message, "error message");
}

template <class IO>
void fields(IO& io, HealthReply& m) {
  io.flag(m.draining, "health draining flag");
  io.u64(m.generation, "health generation");
}

template <class IO>
void fields(IO& io, DrainRequest& m) {
  io.str(m.shard, "drain shard name");
}

template <class IO>
void fields(IO& io, DrainReply& m) {
  io.flag(m.drained, "drain flag");
  io.str(m.message, "drain message");
}

template <class IO>
void fields(IO& io, IngestRequest& m) {
  io.str(m.entity, "ingest entity");
  io.matrix(m.ticks, "ingest ticks");
  io.seq(m.regimes, "ingest regime", 1, [&](data::Regime& r) {
    io.byte_code(r, "ingest regime", static_cast<std::uint8_t>(data::Regime::kActive));
  });
  io.check(m.regimes.size() <= kMaxMatrixElements, "implausible length for ingest regimes");
  io.check(m.regimes.size() == m.ticks.rows(), "ingest regime count disagrees with tick count");
}

template <class IO>
void fields(IO& io, IngestReply& m) {
  io.u64(m.accepted, "ingest accepted count");
  io.u64(m.total_ticks, "ingest total ticks");
}

template <class IO>
void fields(IO& io, ScoreLatestRequest& m) {
  io.str(m.entity, "score-latest entity");
  io.u64(m.count, "score-latest window count", kMaxLatest);
  io.u64(m.seq_len, "score-latest seq_len", kMaxLatest);
}

template <class IO>
void fields(IO& io, CanaryAdminRequest& m) {
  io.u64(m.generation, "canary admin generation");
}

template <class IO>
void fields(IO& io, CanaryAdminReply& m) {
  io.flag(m.applied, "canary admin applied flag");
  io.u64(m.generation, "canary admin reply generation");
}

template <class IO>
void fields(IO& /*io*/, Empty& /*m*/) {}

}  // namespace

void send_frame(common::Socket& socket, MessageType type, std::string_view payload) {
  std::string frame(kHeaderBytes + payload.size(), '\0');
  put_u32(frame.data(), kMagic);
  put_u32(frame.data() + 4, kVersion);
  put_u32(frame.data() + 8, static_cast<std::uint32_t>(type));
  put_u64(frame.data() + 12, payload.size());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  socket.write_all(frame.data(), frame.size());
}

std::optional<Frame> recv_frame(common::Socket& socket) {
  char header[kHeaderBytes];
  switch (socket.read_exact(header, sizeof(header))) {
    case common::Socket::ReadResult::kClosed:
      return std::nullopt;
    case common::Socket::ReadResult::kTruncated:
      throw common::SerializationError("wire: connection closed mid-header");
    case common::Socket::ReadResult::kOk:
      break;
  }
  if (get_u32(header) != kMagic) {
    throw common::SerializationError("wire: bad frame magic");
  }
  if (get_u32(header + 4) != kVersion) {
    throw ProtocolVersionError("wire: unsupported protocol version " +
                               std::to_string(get_u32(header + 4)));
  }
  // Any type value is accepted at this layer — the forward-compatibility
  // rule: a well-framed unknown type must reach the dispatcher (which
  // answers bad-request and keeps the connection), not read as corruption.
  Frame frame;
  frame.type = static_cast<MessageType>(get_u32(header + 8));
  const std::uint64_t length = get_u64(header + 12);
  const std::uint64_t limit = max_payload_bytes(frame.type);
  if (length > limit) {
    throw common::SerializationError("wire: payload length " + std::to_string(length) +
                                     " exceeds the " + std::to_string(limit) +
                                     "-byte limit of a " + to_string(frame.type) + " frame");
  }
  // The buffer grows only as payload bytes arrive: a header may lie about
  // the length, and a peer that declares 1 GiB and then sends nothing must
  // not cost 1 GiB.
  constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  const auto total = static_cast<std::size_t>(length);
  while (frame.payload.size() < total) {
    const std::size_t have = frame.payload.size();
    const std::size_t chunk = std::min(kChunkBytes, total - have);
    frame.payload.resize(have + chunk);
    if (socket.read_exact(frame.payload.data() + have, chunk) !=
        common::Socket::ReadResult::kOk) {
      throw common::SerializationError("wire: connection closed mid-payload");
    }
  }
  return frame;
}

template <class Message>
std::string encode(const Message& message) {
  auto& fields_of = const_cast<Message&>(message);
  Writer sizer(nullptr);
  fields(sizer, fields_of);
  std::string payload(sizer.size(), '\0');
  Writer writer(payload.data());
  fields(writer, fields_of);
  return payload;
}

template <class Message>
Message decode(std::string_view payload) {
  Message message;
  Reader reader(payload);
  fields(reader, message);
  reader.finish();
  return message;
}

#define GOODONES_WIRE_CODEC(Message)                    \
  template std::string encode<Message>(const Message&); \
  template Message decode<Message>(std::string_view);
GOODONES_WIRE_CODEC(ScoreRequest)
GOODONES_WIRE_CODEC(ScoreResponse)
GOODONES_WIRE_CODEC(StatsSnapshot)
GOODONES_WIRE_CODEC(RefreshReply)
GOODONES_WIRE_CODEC(ErrorFrame)
GOODONES_WIRE_CODEC(HealthReply)
GOODONES_WIRE_CODEC(DrainRequest)
GOODONES_WIRE_CODEC(DrainReply)
GOODONES_WIRE_CODEC(IngestRequest)
GOODONES_WIRE_CODEC(IngestReply)
GOODONES_WIRE_CODEC(ScoreLatestRequest)
GOODONES_WIRE_CODEC(CanaryAdminRequest)
GOODONES_WIRE_CODEC(CanaryAdminReply)
GOODONES_WIRE_CODEC(Empty)
#undef GOODONES_WIRE_CODEC

std::string peek_score_entity(std::string_view payload) {
  // Deliberately no finish(): the fields after the name are the backend's
  // to validate — the router routes on the name alone and forwards the
  // payload bytes untouched.
  std::string entity;
  Reader(payload).str(entity, "score request entity");
  return entity;
}

const char* to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kScore: return "Score";
    case MessageType::kScoreReply: return "ScoreReply";
    case MessageType::kStats: return "Stats";
    case MessageType::kStatsReply: return "StatsReply";
    case MessageType::kRefresh: return "Refresh";
    case MessageType::kRefreshReply: return "RefreshReply";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kShutdownReply: return "ShutdownReply";
    case MessageType::kError: return "Error";
    case MessageType::kHealth: return "Health";
    case MessageType::kHealthReply: return "HealthReply";
    case MessageType::kDrain: return "Drain";
    case MessageType::kDrainReply: return "DrainReply";
    case MessageType::kIngest: return "Ingest";
    case MessageType::kIngestReply: return "IngestReply";
    case MessageType::kScoreLatest: return "ScoreLatest";
    case MessageType::kScoreLatestReply: return "ScoreLatestReply";
    case MessageType::kPromote: return "Promote";
    case MessageType::kPromoteReply: return "PromoteReply";
    case MessageType::kRollback: return "Rollback";
    case MessageType::kRollbackReply: return "RollbackReply";
  }
  return "?";
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "?";
}

// --- FrameChannel ------------------------------------------------------------

FrameChannel::FrameChannel(common::Endpoint endpoint, FrameChannelConfig config)
    : endpoint_(std::move(endpoint)), config_(std::move(config)) {}

void FrameChannel::ensure_connected() {
  if (socket_.valid()) return;
  socket_ = common::connect_with_backoff(endpoint_, config_.backoff);
  if (config_.recv_timeout_ms > 0) socket_.set_recv_timeout_ms(config_.recv_timeout_ms);
  if (was_connected_) ++reconnects_;
  was_connected_ = true;
}

Frame FrameChannel::roundtrip(MessageType type, std::string_view payload, bool retryable) {
  const std::size_t rounds = (retryable && config_.reconnect) ? config_.retry_rounds : 1;
  for (std::size_t round = 1;; ++round) {
    try {
      ensure_connected();
      send_frame(socket_, type, payload);
      std::optional<Frame> reply = recv_frame(socket_);
      if (!reply) {
        // The server closed cleanly before answering: a restarting shard
        // draining its listener looks exactly like this, so it follows
        // the same retry rules as a torn connection.
        throw common::SocketError("server closed the connection before replying");
      }
      return std::move(*reply);
    } catch (const common::SocketError&) {
      // The connection is unusable (dial failed after its backoff budget,
      // or it died mid-exchange); the NEXT round starts from a fresh dial.
      socket_.close();
      if (round >= rounds) throw;
    }
    // Content-level SerializationErrors propagate immediately: the bytes
    // arrived fine, retrying would just replay the disagreement.
  }
}

void FrameChannel::close() noexcept { socket_.close(); }

// --- ChannelPool -------------------------------------------------------------

ChannelPool::ChannelPool(common::Endpoint endpoint, FrameChannelConfig config,
                         std::size_t capacity)
    : endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      capacity_(capacity == 0 ? 1 : capacity) {}

ChannelPool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      channel_(std::exchange(other.channel_, nullptr)) {}

ChannelPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(channel_);
}

ChannelPool::Lease ChannelPool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!free_.empty()) {
      FrameChannel* channel = free_.back();
      free_.pop_back();
      return Lease(this, channel);
    }
    if (channels_.size() < capacity_) {
      channels_.push_back(std::make_unique<FrameChannel>(endpoint_, config_));
      return Lease(this, channels_.back().get());
    }
    available_.wait(lock);
  }
}

void ChannelPool::release(FrameChannel* channel) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(channel);
  }
  available_.notify_one();
}

void ChannelPool::close_connections() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (FrameChannel* channel : free_) channel->close();
}

std::uint64_t ChannelPool::reconnects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->reconnects();
  return total;
}

}  // namespace goodones::serve::wire

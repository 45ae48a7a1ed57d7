#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "fault/failpoint.h"
#include "registry/model_name.h"
#include "server/payload.h"
#include "simd/simd.h"

namespace dbsvec::server {
namespace {

constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 64 * 1024;

std::string JsonError(const std::string& message) {
  // Error strings are library-generated (paths, numbers, site names); the
  // only JSON-hostile bytes they can carry are quotes and backslashes.
  std::string escaped;
  escaped.reserve(message.size());
  for (const char c : message) {
    if (c == '"' || c == '\\') {
      escaped += '\\';
    }
    escaped += c == '\n' ? ' ' : c;
  }
  return "{\"error\":\"" + escaped + "\"}";
}

/// Where a request target routes. Legacy unnamed routes alias the model
/// "default"; named routes are /v1/models[/<name>[/<action>]]. A name that
/// fails validation becomes kBadName with the validator's message — the
/// name is rejected before it can touch the filesystem or the map.
struct Route {
  enum class Kind {
    kHealthz,
    kStatz,
    kModels,
    kModel,
    kAssign,
    kReload,
    kSnapshot,
    kRefresh,
    kBadName,
    kUnknown,
  };
  Kind kind = Kind::kUnknown;
  std::string model;
  std::string error;  // kBadName only.
};

Route ParseRoute(const std::string& target) {
  Route route;
  if (target == "/v1/healthz") {
    route.kind = Route::Kind::kHealthz;
    return route;
  }
  if (target == "/v1/statz") {
    route.kind = Route::Kind::kStatz;
    return route;
  }
  if (target == "/v1/assign" || target == "/v1/reload" ||
      target == "/v1/snapshot" || target == "/v1/refresh") {
    route.kind = target == "/v1/assign"     ? Route::Kind::kAssign
                 : target == "/v1/reload"   ? Route::Kind::kReload
                 : target == "/v1/snapshot" ? Route::Kind::kSnapshot
                                            : Route::Kind::kRefresh;
    route.model = "default";
    return route;
  }
  if (target == "/v1/models") {
    route.kind = Route::Kind::kModels;
    return route;
  }
  constexpr std::string_view kPrefix = "/v1/models/";
  if (target.size() > kPrefix.size() &&
      std::string_view(target).substr(0, kPrefix.size()) == kPrefix) {
    std::string_view rest = std::string_view(target).substr(kPrefix.size());
    std::string_view name = rest;
    std::string_view action;
    if (const size_t slash = rest.find('/'); slash != std::string_view::npos) {
      name = rest.substr(0, slash);
      action = rest.substr(slash + 1);
    }
    if (const Status valid = registry::ValidateModelName(name); !valid.ok()) {
      route.kind = Route::Kind::kBadName;
      route.error = valid.message();
      return route;
    }
    route.model = std::string(name);
    if (action.empty()) {
      route.kind = Route::Kind::kModel;
    } else if (action == "assign") {
      route.kind = Route::Kind::kAssign;
    } else if (action == "reload") {
      route.kind = Route::Kind::kReload;
    } else if (action == "snapshot") {
      route.kind = Route::Kind::kSnapshot;
    } else if (action == "refresh") {
      route.kind = Route::Kind::kRefresh;
    } else {
      route.kind = Route::Kind::kUnknown;
    }
    return route;
  }
  return route;
}

/// Extracts a model path from a request body: either a plain-text path or
/// {"path": "..."} (no escapes) — the grammar /v1/reload has always spoken.
Status ExtractPathBody(std::string_view body, std::string* path) {
  while (!body.empty() && (body.front() == ' ' || body.front() == '\n' ||
                           body.front() == '\r' || body.front() == '\t')) {
    body.remove_prefix(1);
  }
  while (!body.empty() && (body.back() == ' ' || body.back() == '\n' ||
                           body.back() == '\r' || body.back() == '\t')) {
    body.remove_suffix(1);
  }
  if (!body.empty() && body.front() == '{') {
    const size_t key = body.find("\"path\"");
    const size_t colon =
        key == std::string_view::npos ? key : body.find(':', key);
    const size_t open =
        colon == std::string_view::npos ? colon : body.find('"', colon);
    const size_t close =
        open == std::string_view::npos ? open : body.find('"', open + 1);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument(
          "body must be a path or {\"path\": \"...\"}");
    }
    *path = std::string(body.substr(open + 1, close - open - 1));
  } else {
    *path = std::string(body);
  }
  if (path->empty()) {
    return Status::InvalidArgument("empty model path");
  }
  return Status::Ok();
}

/// The parser-level predicate that flips a request into streaming mode.
bool IsStreamRequest(const HttpRequest& request) {
  return request.method == "POST" &&
         AsciiCaseEqual(request.Header("Content-Type"), kStreamContentType);
}

std::string MethodNotAllowed(const HttpRequest& request) {
  return SerializeResponse(405, "text/plain", "method not allowed\n", {},
                           request.keep_alive);
}

}  // namespace

/// One streaming-assign session: the model entry + engine pinned at stream
/// start (every frame of a stream is answered by the same engine snapshot,
/// whatever reloads or deletes happen mid-stream), the frame cursor, and
/// the admission slots the stream holds for its whole life. Io thread and
/// worker hand the session back and forth through Connection::processing
/// (guarded by Connection::mutex), so the non-atomic fields never see
/// concurrent access.
struct Server::StreamSession {
  std::shared_ptr<registry::ModelEntry> entry;
  std::shared_ptr<AssignmentEngine> engine;
  Deadline deadline;
  bool keep_alive = true;
  bool counted = false;   ///< Holds a server-wide inflight_ slot.
  bool released = false;  ///< Slots given back (finish, error, or close).
  bool head_sent = false;  ///< Chunked response head already queued.
  // Frame cursor: 4-byte little-endian length prefix, then the payload.
  bool have_len = false;
  uint32_t frame_len = 0;
  std::string lenbuf;
  std::string frame;
  uint64_t frames = 0;
};

struct Server::Connection {
  Connection(int fd, size_t max_body) : fd(fd), parser(max_body) {
    parser.SetStreamPredicate(IsStreamRequest);
  }

  const int fd;
  IoLoop* loop = nullptr;

  // Io-thread-only state (socket + parser are driven by the owning loop).
  HttpParser parser;
  bool protocol_error = false;  ///< Parser poisoned; stop dispatching.
  bool want_epollout = false;
  bool read_paused = false;  ///< EPOLLIN off while a frame is in flight.

  // Cross-thread state: workers append responses, the loop flushes them.
  std::mutex mutex;
  bool processing = false;
  std::shared_ptr<StreamSession> stream;  ///< Active streaming session.
  std::string out;
  size_t out_offset = 0;
  int unflushed_responses = 0;
  bool close_after_write = false;
  bool closed = false;
};

struct Server::IoLoop {
  // Both fds outlive the loop thread: workers and Shutdown may still
  // WakeLoop a loop that has already left IoLoopMain, so they are closed
  // only when the IoLoop is destroyed, after every thread is joined.
  ~IoLoop() {
    if (event_fd >= 0) {
      ::close(event_fd);
    }
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
  }

  int epoll_fd = -1;
  int event_fd = -1;
  bool has_listener = false;
  std::thread thread;

  std::mutex mutex;  // Guards incoming + ready (the cross-thread mailbox).
  std::vector<int> incoming;
  std::vector<std::shared_ptr<Connection>> ready;

  // Io-thread-only connection table.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

struct Server::RequestWork {
  std::shared_ptr<Connection> conn;
  HttpRequest request;
  Route route;
  Deadline deadline;
  std::chrono::steady_clock::time_point start;
  bool counted = false;  ///< Holds an inflight_ slot (gated endpoints).
  // Streaming: one decoded frame for the session (request/route unused).
  std::shared_ptr<StreamSession> stream;
  std::string frame;
};

Server::Server(const ServerOptions& options) : options_(options) {
  registry::RegistryOptions registry_options;
  registry_options.data_dir = options_.data_dir;
  registry_options.engine_options = options_.engine_options;
  registry_options.retry = options_.reload_retry;
  registry_options.durable = options_.durability.enabled;
  registry_options.fsync = options_.durability.fsync;
  registry_options.fsync_interval_ms = options_.durability.fsync_interval_ms;
  registry_options.checkpoint_interval_ms =
      options_.durability.checkpoint_interval_ms;
  registry_options.max_models = options_.max_models;
  registry_options.model_max_inflight = options_.model_max_inflight;
  registry_ =
      std::make_unique<registry::ModelRegistry>(std::move(registry_options));
}

Status Server::Start(std::shared_ptr<AssignmentEngine> engine,
                     const ServerOptions& options,
                     std::unique_ptr<Server>* out) {
  if (engine == nullptr && options.data_dir.empty()) {
    return Status::InvalidArgument(
        "server: engine must not be null (set data_dir to start a "
        "registry-only server)");
  }
  if (options.num_io_threads < 1 || options.num_workers < 1 ||
      options.max_inflight < 1) {
    return Status::InvalidArgument(
        "server: num_io_threads, num_workers, and max_inflight must be >= 1");
  }
  if (options.max_models < 1) {
    return Status::InvalidArgument("server: max_models must be >= 1");
  }
  std::unique_ptr<Server> server(new Server(options));
  if (engine != nullptr) {
    DBSVEC_RETURN_IF_ERROR(server->registry_->Adopt(
        "default", std::move(engine), options.journal, options.durability,
        options.recovery, /*base_model_path=*/""));
  }
  if (!options.data_dir.empty()) {
    DBSVEC_RETURN_IF_ERROR(
        server->registry_->RecoverAll(&server->registry_recovery_));
  }
  DBSVEC_RETURN_IF_ERROR(server->Listen());
  DBSVEC_RETURN_IF_ERROR(server->SpawnThreads());
  *out = std::move(server);
  return Status::Ok();
}

std::shared_ptr<AssignmentEngine> Server::engine() const {
  const std::shared_ptr<registry::ModelEntry> entry =
      registry_->Find("default");
  return entry == nullptr ? nullptr : entry->engine();
}

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("server: socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("server: bad bind address '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IoError(
        "server: bind " + options_.host + ":" +
        std::to_string(options_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status =
        Status::IoError(std::string("server: listen: ") +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::Ok();
}

Status Server::SpawnThreads() {
  loops_.reserve(static_cast<size_t>(options_.num_io_threads));
  for (int i = 0; i < options_.num_io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      return Status::IoError("server: epoll/eventfd setup failed");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &event);
    if (i == 0) {
      loop->has_listener = true;
      epoll_event listen_event{};
      listen_event.events = EPOLLIN;
      listen_event.data.fd = listen_fd_;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &listen_event);
    }
    loops_.push_back(std::move(loop));
  }
  accepting_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { IoLoopMain(raw); });
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  if (options_.durability.enabled &&
      ((options_.durability.fsync == FsyncPolicy::kInterval &&
        options_.durability.fsync_interval_ms > 0) ||
       options_.durability.checkpoint_interval_ms > 0)) {
    durability_thread_ = std::thread([this] { DurabilityMain(); });
  }
  return Status::Ok();
}

void Server::WakeLoop(IoLoop* loop) {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; other errors are
  // unrecoverable here and surface as a stalled loop in tests.
  [[maybe_unused]] const ssize_t n =
      ::write(loop->event_fd, &one, sizeof(one));
}

void Server::IoLoopMain(IoLoop* loop) {
  epoll_event events[kMaxEpollEvents];
  while (true) {
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEpollEvents, 100);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->event_fd) {
        uint64_t drained = 0;
        while (::read(loop->event_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (loop->has_listener && fd == listen_fd_) {
        AcceptReady(loop);
        continue;
      }
      const auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) {
        continue;
      }
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        OnReadable(loop, conn);
      }
      if (events[i].events & EPOLLOUT) {
        FlushWrites(loop, conn);
      }
    }
    AdoptIncoming(loop);
    std::vector<std::shared_ptr<Connection>> ready;
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      ready.swap(loop->ready);
    }
    for (const auto& conn : ready) {
      FlushWrites(loop, conn);
      if (conn->closed) {
        continue;
      }
      if (conn->stream != nullptr) {
        // A frame answer just landed: resume cutting frames.
        PumpStream(loop, conn);
      }
      if (!conn->closed) {
        MaybeDispatch(loop, conn);
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
  }
  for (auto& [fd, conn] : loop->conns) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!conn->closed) {
      conn->closed = true;
      pending_responses_.fetch_sub(conn->unflushed_responses,
                                   std::memory_order_relaxed);
      conn->unflushed_responses = 0;
      if (conn->stream != nullptr && !conn->stream->released) {
        conn->stream->released = true;
        if (conn->stream->counted) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        }
        if (conn->stream->entry != nullptr) {
          conn->stream->entry->inflight.fetch_sub(1,
                                                  std::memory_order_acq_rel);
        }
      }
      ::close(fd);
    }
  }
  loop->conns.clear();
  if (loop->has_listener && listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

void Server::AcceptReady(IoLoop* loop) {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN or a transient accept error: wait for the next event.
    }
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    if (const Status status = FailpointCheck("server.accept"); !status.ok()) {
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    const size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    IoLoop* owner = loops_[target].get();
    if (owner == loop) {
      AdoptIncoming(loop);  // Flush any queued fds first to keep FIFO order.
      auto conn = std::make_shared<Connection>(fd, options_.max_body_bytes);
      conn->loop = loop;
      loop->conns.emplace(fd, conn);
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &event);
    } else {
      {
        std::lock_guard<std::mutex> lock(owner->mutex);
        owner->incoming.push_back(fd);
      }
      WakeLoop(owner);
    }
  }
}

void Server::AdoptIncoming(IoLoop* loop) {
  std::vector<int> incoming;
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    incoming.swap(loop->incoming);
  }
  for (const int fd : incoming) {
    auto conn = std::make_shared<Connection>(fd, options_.max_body_bytes);
    conn->loop = loop;
    loop->conns.emplace(fd, conn);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &event);
  }
}

void Server::CloseConnection(IoLoop* loop,
                             const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    pending_responses_.fetch_sub(conn->unflushed_responses,
                                 std::memory_order_relaxed);
    conn->unflushed_responses = 0;
    if (conn->stream != nullptr && !conn->stream->released) {
      // An aborted stream gives back its admission slots exactly once.
      conn->stream->released = true;
      if (conn->stream->counted) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (conn->stream->entry != nullptr) {
        conn->stream->entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    conn->stream.reset();
  }
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  loop->conns.erase(conn->fd);
}

void Server::SetReadPaused(IoLoop* loop,
                           const std::shared_ptr<Connection>& conn,
                           bool paused) {
  if (conn->read_paused == paused) {
    return;
  }
  conn->read_paused = paused;
  epoll_event event{};
  event.events = (paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                 (conn->want_epollout ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  event.data.fd = conn->fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &event);
}

void Server::OnReadable(IoLoop* loop,
                        const std::shared_ptr<Connection>& conn) {
  char buffer[kReadChunk];
  while (!conn->read_paused) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n == 0) {
      CloseConnection(loop, conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      CloseConnection(loop, conn);
      return;
    }
    if (conn->protocol_error) {
      continue;  // Drain and discard; the error response is on its way out.
    }
    if (const Status status =
            conn->parser.Feed(std::string_view(buffer, n));
        !status.ok()) {
      conn->protocol_error = true;
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
      const int code =
          status.code() == Status::Code::kResourceExhausted ? 413 : 400;
      RespondInline(loop, conn,
                    SerializeResponse(code, "application/json",
                                      JsonError(status.message()), {},
                                      /*keep_alive=*/false),
                    /*close_after=*/true);
      return;
    }
    // Dispatch as soon as a head is ready and pump streams per read chunk:
    // a streaming body must start draining (and pausing reads) instead of
    // accumulating in the parser buffer, or the memory bound is lost.
    if (conn->parser.HasReady()) {
      MaybeDispatch(loop, conn);
    }
    if (conn->stream != nullptr) {
      PumpStream(loop, conn);
    }
    if (conn->closed) {
      return;
    }
  }
  if (conn->closed || conn->protocol_error) {
    return;
  }
  MaybeDispatch(loop, conn);
  if (conn->stream != nullptr) {
    PumpStream(loop, conn);
  }
}

void Server::MaybeDispatch(IoLoop* loop,
                           const std::shared_ptr<Connection>& conn) {
  if (conn->protocol_error) {
    return;
  }
  HttpRequest request;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed || conn->processing || conn->stream != nullptr) {
      return;
    }
    if (!conn->parser.Next(&request)) {
      return;
    }
    conn->processing = true;
  }
  stats_.requests_total.fetch_add(1, std::memory_order_relaxed);

  // Per-request deadline: X-Deadline-Ms header, else the server default.
  int64_t deadline_ms = options_.default_deadline_ms;
  if (const std::string_view header = request.Header("X-Deadline-Ms");
      !header.empty()) {
    const std::string header_str(header);
    char* end = nullptr;
    const long long parsed = std::strtoll(header_str.c_str(), &end, 10);
    if (end == header_str.c_str() || *end != '\0' || parsed <= 0) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
      if (request.is_stream) {
        conn->protocol_error = true;  // Unread body bytes are inbound.
      }
      RespondInline(loop, conn,
                    SerializeResponse(
                        400, "application/json",
                        JsonError("bad X-Deadline-Ms '" + header_str + "'"),
                        {}, request.keep_alive && !request.is_stream),
                    !request.keep_alive || request.is_stream);
      return;
    }
    deadline_ms = parsed;
  }
  const Deadline deadline =
      deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms) : Deadline();

  if (request.is_stream) {
    BeginStream(loop, conn, std::move(request), deadline);
    return;
  }

  RequestWork work;
  work.deadline = deadline;
  work.start = std::chrono::steady_clock::now();
  work.route = ParseRoute(request.target);

  // Admission control covers the expensive endpoints; health and stats
  // always pass so the server stays observable under overload.
  const bool gated =
      work.route.kind == Route::Kind::kAssign ||
      work.route.kind == Route::Kind::kReload ||
      work.route.kind == Route::Kind::kRefresh ||
      (work.route.kind == Route::Kind::kModel && request.method == "PUT");
  if (gated) {
    const int current = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (current >= options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      RespondInline(
          loop, conn,
          SerializeResponse(503, "application/json",
                            JsonError("shed: " +
                                      std::to_string(options_.max_inflight) +
                                      " requests already in flight"),
                            {"Retry-After: 1"}, request.keep_alive),
          !request.keep_alive);
      return;
    }
    work.counted = true;
  }

  work.conn = conn;
  work.request = std::move(request);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(work));
  }
  queue_cv_.notify_one();
}

void Server::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                             std::string response, bool close_after) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->processing = false;
    if (conn->closed) {
      dropped = true;
    } else {
      conn->out += response;
      conn->close_after_write |= close_after;
      ++conn->unflushed_responses;
      pending_responses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (dropped) {
    return;
  }
  IoLoop* loop = conn->loop;
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->ready.push_back(conn);
  }
  WakeLoop(loop);
}

void Server::RespondInline(IoLoop* loop,
                           const std::shared_ptr<Connection>& conn,
                           std::string response, bool close_after) {
  EnqueueResponse(conn, std::move(response), close_after);
  FlushWrites(loop, conn);
}

void Server::FlushWrites(IoLoop* loop,
                         const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  bool want_out = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) {
      return;
    }
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_offset,
                 conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_out = true;
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      close_now = true;  // Peer vanished mid-response.
      break;
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
      pending_responses_.fetch_sub(conn->unflushed_responses,
                                   std::memory_order_relaxed);
      conn->unflushed_responses = 0;
      close_now |= conn->close_after_write;
    }
  }
  if (close_now) {
    CloseConnection(loop, conn);
    return;
  }
  if (want_out != conn->want_epollout) {
    conn->want_epollout = want_out;
    epoll_event event{};
    event.events =
        (conn->read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
        (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    event.data.fd = conn->fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &event);
  }
}

// ---------------------------------------------------------------------------
// Streaming assign

void Server::BeginStream(IoLoop* loop,
                         const std::shared_ptr<Connection>& conn,
                         HttpRequest request, const Deadline& deadline) {
  auto session = std::make_shared<StreamSession>();
  session->keep_alive = request.keep_alive;
  session->deadline = deadline;
  stats_.requests_stream.fetch_add(1, std::memory_order_relaxed);

  const Route route = ParseRoute(request.target);
  Status status;
  std::shared_ptr<registry::ModelEntry> entry;
  if (route.kind == Route::Kind::kBadName) {
    status = Status::InvalidArgument(route.error);
  } else if (route.kind != Route::Kind::kAssign) {
    status = Status::InvalidArgument(
        "stream: only assign targets accept " +
        std::string(kStreamContentType));
  } else {
    entry = registry_->Find(route.model);
    if (entry == nullptr) {
      status = Status::NotFound("no model named '" + route.model + "'");
    }
  }
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    // The declared body is still inbound: poison the parser path so it is
    // drained and discarded, answer, and close.
    conn->protocol_error = true;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->processing = false;
    }
    RespondInline(loop, conn,
                  SerializeResponse(code, "application/json",
                                    JsonError(status.ToString()), {},
                                    /*keep_alive=*/false),
                  /*close_after=*/true);
    return;
  }

  // Admission: a stream holds one server-wide slot (and one per-model
  // slot) for its entire life, however many frames it carries.
  const int current = inflight_.fetch_add(1, std::memory_order_acq_rel);
  const int model_current =
      entry->inflight.fetch_add(1, std::memory_order_acq_rel);
  if (current >= options_.max_inflight ||
      (options_.model_max_inflight > 0 &&
       model_current >= options_.model_max_inflight)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
    stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    entry->stats.requests_shed.fetch_add(1, std::memory_order_relaxed);
    conn->protocol_error = true;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->processing = false;
    }
    RespondInline(loop, conn,
                  SerializeResponse(503, "application/json",
                                    JsonError("shed: stream admission"),
                                    {"Retry-After: 1"},
                                    /*keep_alive=*/false),
                  /*close_after=*/true);
    return;
  }
  session->counted = true;
  session->entry = std::move(entry);
  // Pin the engine once: every frame of this stream is answered by the
  // same snapshot, whatever reloads or deletes happen mid-stream.
  session->engine = session->entry->engine();
  session->entry->stats.requests_stream.fetch_add(1,
                                                  std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->processing = false;
    conn->stream = session;
  }
  PumpStream(loop, conn);
}

void Server::PumpStream(IoLoop* loop,
                        const std::shared_ptr<Connection>& conn) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed || conn->processing) {
      return;  // A worker owns the connection; resume when it answers.
    }
    session = conn->stream;
  }
  if (session == nullptr) {
    return;
  }
  HttpParser& parser = conn->parser;
  while (true) {
    if (!session->have_len) {
      parser.TakeStreamBytes(4 - session->lenbuf.size(), &session->lenbuf);
      if (session->lenbuf.size() < 4) {
        if (!parser.stream_active()) {
          EndStreamWithError(
              loop, conn, session,
              Status::InvalidArgument(
                  "stream: body ended inside a frame header"));
          return;
        }
        SetReadPaused(loop, conn, false);
        return;  // Need more bytes.
      }
      const auto* p =
          reinterpret_cast<const unsigned char*>(session->lenbuf.data());
      const uint32_t frame_len =
          static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
          (static_cast<uint32_t>(p[2]) << 16) |
          (static_cast<uint32_t>(p[3]) << 24);
      session->lenbuf.clear();
      if (frame_len == 0) {
        FinishStream(loop, conn, session);
        return;
      }
      if (frame_len > options_.max_body_bytes) {
        EndStreamWithError(
            loop, conn, session,
            Status::ResourceExhausted(
                "stream: frame of " + std::to_string(frame_len) +
                " bytes exceeds the " +
                std::to_string(options_.max_body_bytes) + "-byte cap"));
        return;
      }
      session->frame_len = frame_len;
      session->have_len = true;
      session->frame.clear();
      session->frame.reserve(frame_len);
    }
    parser.TakeStreamBytes(session->frame_len - session->frame.size(),
                           &session->frame);
    if (session->frame.size() < session->frame_len) {
      if (!parser.stream_active()) {
        EndStreamWithError(
            loop, conn, session,
            Status::InvalidArgument("stream: body ended inside a frame"));
        return;
      }
      SetReadPaused(loop, conn, false);
      return;  // Need more bytes.
    }
    // Frame complete: hand it to a worker. Reads stay paused until the
    // frame answers — one frame in flight per connection is the
    // backpressure that bounds both queue depth and memory.
    session->have_len = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) {
        return;
      }
      conn->processing = true;
    }
    SetReadPaused(loop, conn, true);
    RequestWork work;
    work.conn = conn;
    work.stream = session;
    work.frame = std::move(session->frame);
    session->frame = std::string();
    work.deadline = session->deadline;
    work.start = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(std::move(work));
    }
    queue_cv_.notify_one();
    return;
  }
}

void Server::FinishStream(IoLoop* loop,
                          const std::shared_ptr<Connection>& conn,
                          const std::shared_ptr<StreamSession>& session) {
  if (conn->parser.stream_active()) {
    EndStreamWithError(
        loop, conn, session,
        Status::InvalidArgument(
            "stream: trailing bytes after the terminator frame"));
    return;
  }
  std::string out;
  if (!session->head_sent) {
    // Zero-frame stream: the response is just head + terminal chunk.
    out += SerializeChunkedResponseHead(200, "application/octet-stream", {},
                                        session->keep_alive);
  }
  out += EncodeChunk("");
  const bool close_after = !session->keep_alive;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!session->released) {
      session->released = true;
      if (session->counted) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
      }
      session->entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    conn->stream.reset();
  }
  SetReadPaused(loop, conn, false);
  RespondInline(loop, conn, std::move(out), close_after);
}

void Server::EndStreamWithError(IoLoop* loop,
                                const std::shared_ptr<Connection>& conn,
                                const std::shared_ptr<StreamSession>& session,
                                const Status& status) {
  stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
  std::string response;
  if (!session->head_sent) {
    response = SerializeResponse(HttpStatusFromStatus(status),
                                 "application/json",
                                 JsonError(status.ToString()), {},
                                 /*keep_alive=*/false);
  }
  // After the chunked head went out there is no in-band way to signal the
  // error: abort without the terminal chunk so the client sees a torn
  // stream, never a silently truncated success.
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!session->released) {
      session->released = true;
      if (session->counted) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
      }
      session->entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    conn->stream.reset();
  }
  conn->protocol_error = true;
  SetReadPaused(loop, conn, false);
  RespondInline(loop, conn, std::move(response), /*close_after=*/true);
}

void Server::ProcessStreamFrame(RequestWork& work) {
  const std::shared_ptr<StreamSession>& session = work.stream;
  const std::shared_ptr<registry::ModelEntry>& entry = session->entry;
  Dataset points(1);
  Status status = ParseAssignBody(work.frame, PayloadEncoding::kBinary,
                                  options_.max_points_per_request, &points);
  if (status.ok() && points.dim() != session->engine->dim()) {
    status = Status::InvalidArgument(
        "assign: frame has dimension " + std::to_string(points.dim()) +
        ", model expects " + std::to_string(session->engine->dim()));
  }
  std::vector<int32_t> labels;
  if (status.ok()) {
    status = session->engine->AssignBatch(points, &labels, work.deadline);
  }
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code == 504) {
      stats_.num_deadline_hits.fetch_add(1, std::memory_order_relaxed);
      entry->stats.deadline_hits.fetch_add(1, std::memory_order_relaxed);
    } else if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    std::string response;
    if (!session->head_sent) {
      response = SerializeResponse(code, "application/json",
                                   JsonError(status.ToString()), {},
                                   /*keep_alive=*/false);
    }
    // Empty response after the head => abrupt close (torn stream), which
    // is the only honest signal left mid-response.
    EnqueueResponse(work.conn, std::move(response), /*close_after=*/true);
    return;
  }
  stats_.stream_frames.fetch_add(1, std::memory_order_relaxed);
  stats_.points_assigned.fetch_add(static_cast<uint64_t>(points.size()),
                                   std::memory_order_relaxed);
  entry->stats.stream_frames.fetch_add(1, std::memory_order_relaxed);
  entry->stats.points_assigned.fetch_add(
      static_cast<uint64_t>(points.size()), std::memory_order_relaxed);
  ++session->frames;
  if (options_.online_refresh || entry->journal() != nullptr) {
    uint64_t absorbed = 0;
    const Status refresh =
        session->engine->AbsorbCoreAdjacent(points, labels, &absorbed);
    if (refresh.ok()) {
      stats_.cores_absorbed.fetch_add(absorbed, std::memory_order_relaxed);
      entry->stats.cores_absorbed.fetch_add(absorbed,
                                            std::memory_order_relaxed);
    } else {
      stats_.refresh_failures.fetch_add(1, std::memory_order_relaxed);
      entry->stats.refresh_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto elapsed = std::chrono::duration<double, std::micro>(
      std::chrono::steady_clock::now() - work.start);
  entry->stats.assign_latency.Record(elapsed.count());
  std::string out;
  if (!session->head_sent) {
    out += SerializeChunkedResponseHead(200, "application/octet-stream", {},
                                        session->keep_alive);
    session->head_sent = true;
  }
  out += EncodeChunk(EncodeAssignResponse(labels, PayloadEncoding::kBinary));
  EnqueueResponse(work.conn, std::move(out), /*close_after=*/false);
}

// ---------------------------------------------------------------------------
// Worker pool

void Server::WorkerMain() {
  while (true) {
    RequestWork work;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) {
          return;
        }
        continue;
      }
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    if (work.stream != nullptr) {
      // One stream frame; the session's admission slots outlive it.
      ProcessStreamFrame(work);
      continue;
    }
    std::string response = ProcessRequest(work);
    if (work.route.kind == Route::Kind::kAssign) {
      const auto elapsed = std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - work.start);
      stats_.assign_latency.Record(elapsed.count());
    }
    EnqueueResponse(work.conn, std::move(response),
                    !work.request.keep_alive);
    if (work.counted) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

std::string Server::ProcessRequest(const RequestWork& work) {
  const HttpRequest& request = work.request;
  const Deadline& deadline = work.deadline;
  const Route& route = work.route;
  switch (route.kind) {
    case Route::Kind::kHealthz: {
      if (request.method != "GET") {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return MethodNotAllowed(request);
      }
      // Still 200 while durability is degraded: the server keeps answering
      // queries correctly, it just cannot promise overlays survive a
      // crash. Probes that care grep the body.
      std::string body = "ok\n";
      bool degraded = false;
      for (const auto& entry : registry_->List()) {
        if (entry->journal() != nullptr && entry->journal()->degraded()) {
          degraded = true;
          break;
        }
      }
      if (degraded) {
        body += "durability: degraded\n";
      }
      return SerializeResponse(200, "text/plain", std::move(body), {},
                               request.keep_alive);
    }
    case Route::Kind::kStatz: {
      if (request.method != "GET") {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return MethodNotAllowed(request);
      }
      return SerializeResponse(200, "application/json", HandleStatz(), {},
                               request.keep_alive);
    }
    case Route::Kind::kModels: {
      if (request.method != "GET") {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return MethodNotAllowed(request);
      }
      return HandleModelList(request);
    }
    case Route::Kind::kModel: {
      if (request.method == "PUT") {
        return HandleModelCreate(request, route.model);
      }
      if (request.method == "GET") {
        return HandleModelGet(request, route.model);
      }
      if (request.method == "DELETE") {
        return HandleModelDelete(request, route.model);
      }
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
      return MethodNotAllowed(request);
    }
    case Route::Kind::kAssign:
    case Route::Kind::kRefresh: {
      if (request.method != "POST") {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return MethodNotAllowed(request);
      }
      const std::shared_ptr<registry::ModelEntry> entry =
          registry_->Find(route.model);
      if (entry == nullptr) {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return SerializeResponse(
            404, "application/json",
            JsonError("no model named '" + route.model + "'"), {},
            request.keep_alive);
      }
      // Per-model admission rides on top of the server-wide gate: one
      // tenant saturating its own limit cannot starve the others.
      const int model_current =
          entry->inflight.fetch_add(1, std::memory_order_acq_rel);
      if (options_.model_max_inflight > 0 &&
          model_current >= options_.model_max_inflight) {
        entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
        stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
        entry->stats.requests_shed.fetch_add(1, std::memory_order_relaxed);
        return SerializeResponse(
            503, "application/json",
            JsonError("shed: model '" + route.model + "' has " +
                      std::to_string(options_.model_max_inflight) +
                      " requests already in flight"),
            {"Retry-After: 1"}, request.keep_alive);
      }
      std::string response =
          route.kind == Route::Kind::kAssign
              ? HandleAssign(entry, request, deadline)
              : HandleRefresh(entry, request, deadline);
      entry->inflight.fetch_sub(1, std::memory_order_acq_rel);
      if (route.kind == Route::Kind::kAssign) {
        const auto elapsed = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - work.start);
        entry->stats.assign_latency.Record(elapsed.count());
      }
      return response;
    }
    case Route::Kind::kReload:
    case Route::Kind::kSnapshot: {
      if (request.method != "POST") {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return MethodNotAllowed(request);
      }
      const std::shared_ptr<registry::ModelEntry> entry =
          registry_->Find(route.model);
      if (entry == nullptr) {
        stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
        return SerializeResponse(
            404, "application/json",
            JsonError("no model named '" + route.model + "'"), {},
            request.keep_alive);
      }
      return route.kind == Route::Kind::kReload
                 ? HandleReload(entry, request, deadline)
                 : HandleSnapshot(entry, request);
    }
    case Route::Kind::kBadName: {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
      return SerializeResponse(400, "application/json",
                               JsonError(route.error), {},
                               request.keep_alive);
    }
    case Route::Kind::kUnknown:
      break;
  }
  stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
  return SerializeResponse(404, "application/json",
                           JsonError("no handler for " + request.target), {},
                           request.keep_alive);
}

// ---------------------------------------------------------------------------
// Handlers

std::string Server::HandleAssign(
    const std::shared_ptr<registry::ModelEntry>& entry,
    const HttpRequest& request, const Deadline& deadline) {
  PayloadEncoding encoding = PayloadEncoding::kJson;
  Status status =
      EncodingFromContentType(request.Header("Content-Type"), &encoding);
  Dataset points(1);
  if (status.ok()) {
    status = ParseAssignBody(request.body, encoding,
                             options_.max_points_per_request, &points);
  }
  std::shared_ptr<AssignmentEngine> engine = entry->engine();
  if (status.ok() && points.dim() != engine->dim()) {
    status = Status::InvalidArgument(
        "assign: request has dimension " + std::to_string(points.dim()) +
        ", model expects " + std::to_string(engine->dim()));
  }
  std::vector<int32_t> labels;
  if (status.ok()) {
    status = engine->AssignBatch(points, &labels, deadline);
  }
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code == 504) {
      // Deadline expiry is an expected production outcome: count it and
      // hand back the partial serving stats alongside the error.
      const uint64_t hits =
          stats_.num_deadline_hits.fetch_add(1, std::memory_order_relaxed) +
          1;
      entry->stats.deadline_hits.fetch_add(1, std::memory_order_relaxed);
      return SerializeResponse(
          504, "application/json",
          "{\"error\":\"deadline exceeded\",\"num_deadline_hits\":" +
              std::to_string(hits) + ",\"points_received\":" +
              std::to_string(points.size()) + "}",
          {}, request.keep_alive);
    }
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeResponse(code, "application/json",
                             JsonError(status.ToString()), {},
                             request.keep_alive);
  }
  stats_.requests_assign.fetch_add(1, std::memory_order_relaxed);
  stats_.points_assigned.fetch_add(static_cast<uint64_t>(points.size()),
                                   std::memory_order_relaxed);
  entry->stats.requests_assign.fetch_add(1, std::memory_order_relaxed);
  entry->stats.points_assigned.fetch_add(
      static_cast<uint64_t>(points.size()), std::memory_order_relaxed);
  if (options_.online_refresh || entry->journal() != nullptr) {
    uint64_t absorbed = 0;
    const Status refresh =
        engine->AbsorbCoreAdjacent(points, labels, &absorbed);
    if (refresh.ok()) {
      stats_.cores_absorbed.fetch_add(absorbed, std::memory_order_relaxed);
      entry->stats.cores_absorbed.fetch_add(absorbed,
                                            std::memory_order_relaxed);
    } else {
      // Refresh is best-effort: the labels are already correct for the
      // pinned snapshot, so a failed absorb pass degrades to no-op.
      stats_.refresh_failures.fetch_add(1, std::memory_order_relaxed);
      entry->stats.refresh_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return SerializeResponse(200, ContentTypeName(encoding),
                           EncodeAssignResponse(labels, encoding), {},
                           request.keep_alive);
}

std::string Server::HandleRefresh(
    const std::shared_ptr<registry::ModelEntry>& entry,
    const HttpRequest& request, const Deadline& deadline) {
  PayloadEncoding encoding = PayloadEncoding::kJson;
  Status status =
      EncodingFromContentType(request.Header("Content-Type"), &encoding);
  Dataset points(1);
  if (status.ok()) {
    status = ParseAssignBody(request.body, encoding,
                             options_.max_points_per_request, &points);
  }
  std::shared_ptr<AssignmentEngine> engine = entry->engine();
  if (status.ok() && points.dim() != engine->dim()) {
    status = Status::InvalidArgument(
        "refresh: request has dimension " + std::to_string(points.dim()) +
        ", model expects " + std::to_string(engine->dim()));
  }
  std::vector<int32_t> labels;
  if (status.ok()) {
    status = engine->AssignBatch(points, &labels, deadline);
  }
  uint64_t absorbed = 0;
  if (status.ok()) {
    // Unlike assign, refresh exists to feed the overlay: an absorb failure
    // is the request's failure, not a background shrug.
    status = engine->AbsorbCoreAdjacent(points, labels, &absorbed);
  }
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    entry->stats.refresh_failures.fetch_add(1, std::memory_order_relaxed);
    stats_.refresh_failures.fetch_add(1, std::memory_order_relaxed);
    return SerializeResponse(code, "application/json",
                             JsonError(status.ToString()), {},
                             request.keep_alive);
  }
  stats_.cores_absorbed.fetch_add(absorbed, std::memory_order_relaxed);
  entry->stats.cores_absorbed.fetch_add(absorbed, std::memory_order_relaxed);
  return SerializeResponse(
      200, "application/json",
      "{\"refreshed\":true,\"points\":" + std::to_string(points.size()) +
          ",\"absorbed\":" + std::to_string(absorbed) + "}",
      {}, request.keep_alive);
}

std::string Server::ModelJson(
    const std::shared_ptr<registry::ModelEntry>& entry) {
  const std::shared_ptr<AssignmentEngine> engine = entry->engine();
  const registry::ModelStats& s = entry->stats;
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", engine->model_crc());
  std::string out = "{";
  const auto field = [&out](const char* name, uint64_t value) {
    out += "\"";
    out += name;
    out += "\":" + std::to_string(value) + ",";
  };
  // The name charset is [a-z0-9_-], so it is JSON-safe by construction.
  out += "\"name\":\"" + entry->name() + "\",";
  out += "\"model_version\":" + std::to_string(engine->model_version()) + ",";
  out += "\"model_crc\":\"" + std::string(crc_hex) + "\",";
  out += "\"dim\":" + std::to_string(engine->dim()) + ",";
  field("requests_assign", s.requests_assign.load(std::memory_order_relaxed));
  field("points_assigned", s.points_assigned.load(std::memory_order_relaxed));
  field("requests_stream", s.requests_stream.load(std::memory_order_relaxed));
  field("stream_frames", s.stream_frames.load(std::memory_order_relaxed));
  field("requests_shed", s.requests_shed.load(std::memory_order_relaxed));
  field("deadline_hits", s.deadline_hits.load(std::memory_order_relaxed));
  field("cores_absorbed", s.cores_absorbed.load(std::memory_order_relaxed));
  field("refresh_failures",
        s.refresh_failures.load(std::memory_order_relaxed));
  field("reloads_ok", s.reloads_ok.load(std::memory_order_relaxed));
  field("reloads_failed", s.reloads_failed.load(std::memory_order_relaxed));
  field("reload_attempts", s.reload_attempts.load(std::memory_order_relaxed));
  field("checkpoints_ok", s.checkpoints_ok.load(std::memory_order_relaxed));
  field("checkpoints_failed",
        s.checkpoints_failed.load(std::memory_order_relaxed));
  out += "\"inflight\":" +
         std::to_string(entry->inflight.load(std::memory_order_relaxed)) +
         ",";
  out += "\"assign_latency_p50_us\":" +
         std::to_string(s.assign_latency.PercentileMicros(50.0)) + ",";
  out += "\"assign_latency_p99_us\":" +
         std::to_string(s.assign_latency.PercentileMicros(99.0)) + ",";
  out += std::string("\"durable\":") +
         (entry->journal() != nullptr ? "true" : "false") + ",";
  out += std::string("\"degraded\":") +
         (entry->journal() != nullptr && entry->journal()->degraded()
              ? "true"
              : "false");
  out += "}";
  return out;
}

std::string Server::ModelsJson() {
  std::string out = "{";
  bool first = true;
  for (const auto& entry : registry_->List()) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + entry->name() + "\":" + ModelJson(entry);
  }
  out += "}";
  return out;
}

std::string Server::HandleStatz() {
  // Legacy single-model identity fields come from the default model (the
  // one the unnamed routes alias); a registry-only server without one
  // reports zeros there and everything real under "models".
  const std::shared_ptr<registry::ModelEntry> default_entry =
      registry_->Find("default");
  const std::shared_ptr<AssignmentEngine> engine =
      default_entry == nullptr ? nullptr : default_entry->engine();
  AssignmentEngine::ServeStats engine_stats;
  if (engine != nullptr) {
    engine_stats = engine->stats();
  }

  // Per-site injected-fault hit counters (satellite observability of the
  // fault framework): always rendered, all zeros when nothing is armed.
  std::string failpoints = "{";
  bool first_site = true;
  for (const std::string_view site : FailpointRegistry::Sites()) {
    if (!first_site) {
      failpoints += ",";
    }
    first_site = false;
    failpoints += "\"";
    failpoints += site;
    failpoints += "\":" +
                  std::to_string(FailpointRegistry::Instance().HitCount(site));
  }
  failpoints += "}";

  std::string durability;
  if (default_entry != nullptr && default_entry->journal() != nullptr) {
    const std::shared_ptr<OverlayJournal>& journal = default_entry->journal();
    const RecoveryReport& recovery = default_entry->recovery();
    const OverlayJournalStats js = journal->stats();
    const auto field = [&durability](const char* name, uint64_t value) {
      durability += "\"";
      durability += name;
      durability += "\":" + std::to_string(value) + ",";
    };
    durability = "{";
    durability += "\"fsync\":\"";
    durability += FsyncPolicyName(journal->policy());
    durability += "\",";
    field("journal_records", js.records);
    field("journal_bytes", js.bytes);
    field("appends_ok", js.appends_ok);
    field("records_dropped", js.records_dropped);
    field("fsyncs", js.fsyncs);
    field("fsync_failures", js.fsync_failures);
    field("journal_resets", js.resets);
    field("records_replayed", recovery.records_replayed);
    field("torn_bytes_truncated", recovery.torn_bytes_truncated);
    field("journals_discarded", recovery.journals_discarded);
    field("recovery_load_attempts",
          static_cast<uint64_t>(recovery.load_attempts));
    durability += std::string("\"loaded_from_snapshot\":") +
                  (recovery.loaded_from_snapshot ? "true" : "false") + ",";
    durability += std::string("\"degraded\":") +
                  (journal->degraded() ? "true" : "false");
    durability += "}";
  }

  return stats_.ToJson(
      engine != nullptr ? engine->model_version() : 0,
      engine != nullptr ? engine->model_crc() : 0,
      engine != nullptr ? engine->model().sv_budget : 0,
      engine != nullptr ? engine->model().sample_threshold : 0,
      engine_stats.points_assigned, engine_stats.sphere_rejections,
      engine_stats.range_queries,
      inflight_.load(std::memory_order_relaxed), options_.max_inflight,
      simd::BackendName(simd::ActiveBackend()),
      engine != nullptr ? engine->shard_count() : 0,
      durability, failpoints, ModelsJson());
}

std::string Server::HandleReload(
    const std::shared_ptr<registry::ModelEntry>& entry,
    const HttpRequest& request, const Deadline& deadline) {
  std::string path;
  if (const Status parsed = ExtractPathBody(request.body, &path);
      !parsed.ok()) {
    stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    return SerializeResponse(400, "application/json",
                             JsonError("reload: " + parsed.message()), {},
                             request.keep_alive);
  }
  RetryReport report;
  const Status status = ReloadEntry(entry, path, deadline, &report);
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeResponse(
        code, "application/json",
        "{\"error\":\"" + status.ToString() + "\",\"attempts\":" +
            std::to_string(report.attempts) + "}",
        {}, request.keep_alive);
  }
  std::shared_ptr<AssignmentEngine> engine = entry->engine();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", engine->model_crc());
  return SerializeResponse(
      200, "application/json",
      "{\"reloaded\":true,\"model\":\"" + entry->name() +
          "\",\"model_version\":" +
          std::to_string(engine->model_version()) + ",\"model_crc\":\"" +
          crc_hex + "\",\"attempts\":" + std::to_string(report.attempts) +
          "}",
      {}, request.keep_alive);
}

std::string Server::HandleSnapshot(
    const std::shared_ptr<registry::ModelEntry>& entry,
    const HttpRequest& request) {
  uint32_t crc = 0;
  uint64_t folded = 0;
  const Status status = SnapshotEntry(entry, &crc, &folded);
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeResponse(code, "application/json",
                             JsonError(status.ToString()), {},
                             request.keep_alive);
  }
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
  return SerializeResponse(
      200, "application/json",
      "{\"snapshot\":true,\"path\":\"" + entry->durability().snapshot_path +
          "\",\"model_crc\":\"" + crc_hex +
          "\",\"folded_records\":" + std::to_string(folded) + "}",
      {}, request.keep_alive);
}

std::string Server::HandleModelCreate(const HttpRequest& request,
                                      const std::string& name) {
  Status status;
  std::shared_ptr<registry::ModelEntry> entry;
  if (AsciiCaseEqual(request.Header("Content-Type"),
                     "application/octet-stream")) {
    // Create-from-upload: the body is the serialized model artifact.
    status = registry_->CreateFromBytes(
        name,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(request.body.data()),
            request.body.size()),
        &entry);
  } else {
    // Create-from-path: plain text or {"path": "..."} like reload.
    std::string path;
    status = ExtractPathBody(request.body, &path);
    if (status.ok()) {
      status = registry_->CreateFromFile(name, path, &entry);
    }
  }
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeResponse(code, "application/json",
                             JsonError(status.ToString()), {},
                             request.keep_alive);
  }
  stats_.models_created.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<AssignmentEngine> engine = entry->engine();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", engine->model_crc());
  return SerializeResponse(
      201, "application/json",
      "{\"created\":true,\"model\":\"" + name + "\",\"model_version\":" +
          std::to_string(engine->model_version()) + ",\"model_crc\":\"" +
          crc_hex + "\",\"dim\":" + std::to_string(engine->dim()) + "}",
      {}, request.keep_alive);
}

std::string Server::HandleModelGet(const HttpRequest& request,
                                   const std::string& name) {
  const std::shared_ptr<registry::ModelEntry> entry = registry_->Find(name);
  if (entry == nullptr) {
    stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    return SerializeResponse(404, "application/json",
                             JsonError("no model named '" + name + "'"), {},
                             request.keep_alive);
  }
  return SerializeResponse(200, "application/json", ModelJson(entry), {},
                           request.keep_alive);
}

std::string Server::HandleModelDelete(const HttpRequest& request,
                                      const std::string& name) {
  const Status status = registry_->Remove(name);
  if (!status.ok()) {
    const int code = HttpStatusFromStatus(status);
    if (code >= 400 && code < 500) {
      stats_.requests_bad.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeResponse(code, "application/json",
                             JsonError(status.ToString()), {},
                             request.keep_alive);
  }
  stats_.models_deleted.fetch_add(1, std::memory_order_relaxed);
  return SerializeResponse(200, "application/json",
                           "{\"deleted\":true,\"model\":\"" + name + "\"}",
                           {}, request.keep_alive);
}

std::string Server::HandleModelList(const HttpRequest& request) {
  std::string body = "{\"models\":[";
  bool first = true;
  size_t count = 0;
  for (const auto& entry : registry_->List()) {
    if (!first) {
      body += ",";
    }
    first = false;
    body += ModelJson(entry);
    ++count;
  }
  body += "],\"count\":" + std::to_string(count) + "}";
  return SerializeResponse(200, "application/json", std::move(body), {},
                           request.keep_alive);
}

// ---------------------------------------------------------------------------
// Reload / snapshot / durability

Status Server::ReloadEntry(const std::shared_ptr<registry::ModelEntry>& entry,
                           const std::string& path, const Deadline& deadline,
                           RetryReport* report) {
  RetryReport local;
  RetryReport& out = report != nullptr ? *report : local;
  const Status status = entry->Reload(path, deadline, &out);
  stats_.reload_attempts.fetch_add(static_cast<uint64_t>(out.attempts),
                                   std::memory_order_relaxed);
  if (status.ok()) {
    stats_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status Server::SnapshotEntry(
    const std::shared_ptr<registry::ModelEntry>& entry,
    uint32_t* snapshot_crc, uint64_t* folded_records) {
  const Status status = entry->Snapshot(snapshot_crc, folded_records);
  if (status.ok()) {
    stats_.checkpoints_ok.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() != Status::Code::kFailedPrecondition) {
    // Asking a non-durable model for a snapshot is a client error, not a
    // failed checkpoint attempt.
    stats_.checkpoints_failed.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status Server::Reload(const std::string& path, const Deadline& deadline,
                      RetryReport* report) {
  const std::shared_ptr<registry::ModelEntry> entry =
      registry_->Find("default");
  if (entry == nullptr) {
    return Status::NotFound("reload: no default model registered");
  }
  return ReloadEntry(entry, path, deadline, report);
}

Status Server::Snapshot(uint32_t* snapshot_crc, uint64_t* folded_records) {
  const std::shared_ptr<registry::ModelEntry> entry =
      registry_->Find("default");
  if (entry == nullptr) {
    return Status::FailedPrecondition(
        "snapshot: no default model registered");
  }
  return SnapshotEntry(entry, snapshot_crc, folded_records);
}

void Server::DurabilityMain() {
  using Clock = std::chrono::steady_clock;
  const bool interval_fsync =
      options_.durability.fsync == FsyncPolicy::kInterval &&
      options_.durability.fsync_interval_ms > 0;
  const bool auto_checkpoint = options_.durability.checkpoint_interval_ms > 0;
  const auto fsync_period =
      std::chrono::milliseconds(options_.durability.fsync_interval_ms);
  const auto checkpoint_period =
      std::chrono::milliseconds(options_.durability.checkpoint_interval_ms);
  Clock::time_point next_fsync = Clock::now() + fsync_period;
  Clock::time_point next_checkpoint = Clock::now() + checkpoint_period;

  std::unique_lock<std::mutex> lock(durability_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    Clock::time_point wake = Clock::now() + std::chrono::seconds(1);
    if (interval_fsync) {
      wake = std::min(wake, next_fsync);
    }
    if (auto_checkpoint) {
      wake = std::min(wake, next_checkpoint);
    }
    durability_cv_.wait_until(lock, wake, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    lock.unlock();
    // One timer sweeps every registered model's journal: models created
    // after startup are picked up on the next tick automatically.
    if (interval_fsync && Clock::now() >= next_fsync) {
      for (const auto& entry : registry_->List()) {
        if (entry->journal() != nullptr) {
          // Failures are counted by the journal and surface as degraded
          // durability; the timer keeps ticking (the disk may come back).
          (void)entry->journal()->Sync();
        }
      }
      next_fsync = Clock::now() + fsync_period;
    }
    if (auto_checkpoint && Clock::now() >= next_checkpoint) {
      for (const auto& entry : registry_->List()) {
        if (entry->journal() != nullptr) {
          (void)SnapshotEntry(entry, nullptr, nullptr);
        }
      }
      next_checkpoint = Clock::now() + checkpoint_period;
    }
    lock.lock();
  }
}

void Server::Shutdown(const Deadline& drain) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shutdown_done_) {
      return;
    }
    shutdown_done_ = true;
  }
  // Phase 1: stop taking new work; connections already accepted keep
  // being served.
  accepting_.store(false, std::memory_order_release);
  // Phase 2: drain — every dispatched request answers and every response
  // reaches the socket (or its connection dies), bounded by `drain`.
  while (!drain.Expired() &&
         (inflight_.load(std::memory_order_acquire) > 0 ||
          pending_responses_.load(std::memory_order_relaxed) > 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear down loops, workers, and the durability timer. The flag
  // is stored under both condition-variable mutexes: a waiter that has
  // just checked the predicate then cannot miss the notify.
  {
    std::scoped_lock lock(queue_mutex_, durability_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
  durability_cv_.notify_all();
  for (auto& loop : loops_) {
    WakeLoop(loop.get());
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  for (auto& loop : loops_) {
    loop->thread.join();
  }
  if (durability_thread_.joinable()) {
    durability_thread_.join();
  }
  workers_.clear();
  loops_.clear();
  // Make everything absorbed up to the graceful stop durable, whatever
  // the fsync policy (failures already marked journals degraded).
  for (const auto& entry : registry_->List()) {
    if (entry->journal() != nullptr) {
      (void)entry->journal()->Sync();
    }
  }
}

Server::~Server() { Shutdown(); }

}  // namespace dbsvec::server

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "net/frame.h"
#include "obs/metrics.h"

namespace poiprivacy::net {

namespace {

struct NetMetrics {
  obs::Counter& connections;
  obs::Counter& frames;
  obs::Counter& protocol_errors;

  static NetMetrics& get() {
    obs::Registry& reg = obs::global_registry();
    static NetMetrics* metrics = new NetMetrics{
        reg.counter("net.connections_accepted"),
        reg.counter("net.frames_served"),
        reg.counter("net.protocol_errors"),
    };
    return *metrics;
  }
};

/// Bytes one read() asks for. A wake serves every whole frame the read
/// completes and answers them with one write.
constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

/// Serves one request body; nullopt when it decodes as neither request
/// kind (the kinds are disambiguated by body length, 36 vs 25 bytes).
std::optional<service::ReleaseResult> serve_body(
    service::ReleaseService& service, std::span<const std::uint8_t> body) {
  if (body.size() == kStreamRequestBodyBytes) {
    const std::optional<service::StreamRequest> request =
        decode_stream_request(body);
    if (!request) return std::nullopt;
    return service.serve_stream(*request);
  }
  const std::optional<service::ReleaseRequest> request = decode_request(body);
  if (!request) return std::nullopt;
  return service.serve_concurrent(*request);
}

}  // namespace

ReleaseServer::ReleaseServer(service::ReleaseService& service,
                             ServerConfig config)
    : service_(&service), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
}

ReleaseServer::~ReleaseServer() { stop(); }

void ReleaseServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("net: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, config_.backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: cannot bind " + config_.bind_address + ":" +
                             std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  closed_ = false;
  running_.store(true, std::memory_order_release);
  pool_ = std::make_unique<common::ThreadPool>(config_.workers);
  // run_tasks turns the fork-join pool into a plain worker group: each of
  // the `workers` tasks is one long-lived connection loop.
  dispatch_thread_ = std::thread([this] {
    pool_->run_tasks(config_.workers,
                     [this](std::size_t) { connection_loop(); });
  });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ReleaseServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(), then the queue, then any worker mid-read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  pool_.reset();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ReleaseServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken): stop accepting
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().connections.add(1);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        ::close(fd);
        return;
      }
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

bool ReleaseServer::pop_connection(int& fd) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
  if (pending_.empty()) return false;
  fd = pending_.front();
  pending_.pop_front();
  active_.push_back(fd);
  return true;
}

void ReleaseServer::connection_loop() {
  int fd = -1;
  while (pop_connection(fd)) {
    serve_connection(fd);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::find(active_.begin(), active_.end(), fd));
    }
    ::close(fd);
  }
}

void ReleaseServer::serve_connection(int fd) {
  NetMetrics& metrics = NetMetrics::get();
  std::vector<std::uint8_t> in;  // in[0, held): received, not yet served
  std::size_t held = 0;
  std::vector<std::uint8_t> out;  // this wake's reply frames
  std::uint64_t replies = 0;      // frames in `out`
  std::vector<std::uint8_t> reply;
  const auto flush = [&] {
    if (out.empty()) return true;
    if (!write_all(fd, out)) return false;
    frames_served_.fetch_add(replies, std::memory_order_relaxed);
    metrics.frames.add(replies);
    out.clear();
    replies = 0;
    return true;
  };
  // A protocol error still answers the frames before it, then closes.
  const auto protocol_error = [&] {
    flush();
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.protocol_errors.add(1);
  };
  for (;;) {
    if (in.size() < held + kReadChunkBytes) in.resize(held + kReadChunkBytes);
    ssize_t got = 0;
    do {
      got = ::read(fd, in.data() + held, kReadChunkBytes);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) {
      // EOF on a frame boundary closes quietly; EOF inside a frame or a
      // read error is a protocol error.
      if (got < 0 || held > 0) protocol_error();
      return;
    }
    held += static_cast<std::size_t>(got);
    std::size_t pos = 0;
    while (held - pos >= 4) {
      const std::uint32_t length = frame_length(in.data() + pos);
      if (length > config_.max_frame_bytes) {
        protocol_error();
        return;
      }
      if (held - pos - 4 < length) break;
      const std::optional<service::ReleaseResult> result =
          serve_body(*service_, {in.data() + pos + 4, length});
      if (!result) {
        protocol_error();
        return;
      }
      pos += 4 + length;
      encode_response(*result, reply);
      if (!append_frame(reply, out)) {
        flush();
        return;
      }
      ++replies;
    }
    if (pos > 0) {  // keep the partial frame's bytes at the front
      std::memmove(in.data(), in.data() + pos, held - pos);
      held -= pos;
    }
    if (!flush()) return;
  }
}

ServerStats ReleaseServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.frames_served = frames_served_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace poiprivacy::net

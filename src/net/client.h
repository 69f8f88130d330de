// Minimal blocking client for the release-service wire protocol — the
// counterpart of server.h, used by the framing tests.
//
// One TCP connection, synchronous call() or split send()/recv() for
// pipelining (the server answers frames strictly in arrival order per
// connection, so k sends followed by k recvs match up 1:1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"

namespace poiprivacy::net {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to address:port; a default-constructed (disconnected)
  /// client on failure.
  static Client connect(const std::string& address, std::uint16_t port);

  bool connected() const noexcept { return fd_ >= 0; }

  bool send(const service::ReleaseRequest& request);
  bool send(const service::StreamRequest& request);
  std::optional<service::ReleaseResult> recv();
  /// send() + recv(); nullopt on any transport or decode failure.
  std::optional<service::ReleaseResult> call(
      const service::ReleaseRequest& request);
  std::optional<service::ReleaseResult> call(
      const service::StreamRequest& request);

  void close();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace poiprivacy::net

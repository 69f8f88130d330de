// Wire-format contracts of the socket front-end (src/net): codec
// round-trips, rejection of every malformed-frame shape (truncated
// header, truncated body, oversized length, zero-length body, stray
// status bytes), robustness to partial reads — loopback smokes proving
// a released vector (and every counter) that crosses the TCP boundary is
// byte-identical to one produced by an in-process serve() on a twin
// service, and the server's batched frame I/O under bursts, bad frames,
// EOFs and drips.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {


/// Deterministic stream stub shared by the loopback stream smoke
/// (window = 2 epochs, stride 1; counts 10 * begin + series).
class FakeStreamSource final : public service::StreamSource {
 public:
  std::size_t num_series() const override { return 3; }
  std::size_t epochs() const override { return 8; }
  std::size_t num_windows(std::size_t begin, std::size_t end) const override {
    return end - begin >= 2 ? end - begin - 1 : 0;
  }
  double sensitivity() const override { return 2.0; }
  void release_raw(std::size_t begin, std::size_t end,
                   std::vector<double>& out) const override {
    const std::size_t windows = num_windows(begin, end);
    out.resize(windows * num_series());
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t s = 0; s < num_series(); ++s) {
        out[w * num_series() + s] = static_cast<double>(10 * (begin + w) + s);
      }
    }
  }
};

std::vector<std::uint8_t> encoded(const service::ReleaseRequest& request) {
  std::vector<std::uint8_t> body;
  net::encode_request(request, body);
  return body;
}

TEST(NetFraming, RequestCodecRoundTrips) {
  const service::ReleaseRequest request{
      0xdeadbeef12345678ull, {3.25, -7.5}, 0.625, 3};
  const std::vector<std::uint8_t> body = encoded(request);
  EXPECT_EQ(body.size(), net::kRequestBodyBytes);
  const auto decoded = net::decode_request(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);
}

TEST(NetFraming, RequestCodecRejectsWrongSizes) {
  const std::vector<std::uint8_t> body =
      encoded(service::ReleaseRequest{1, {0.0, 0.0}, 1.0, 0});
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              net::kRequestBodyBytes - 1,
                              net::kRequestBodyBytes + 1}) {
    std::vector<std::uint8_t> wrong(body);
    wrong.resize(n, 0);
    EXPECT_FALSE(net::decode_request(wrong).has_value()) << n << " bytes";
  }
}

TEST(NetFraming, StreamRequestCodecRoundTrips) {
  const service::StreamRequest request{0x1122334455667788ull, 7, 2, 6, 1};
  std::vector<std::uint8_t> body;
  net::encode_stream_request(request, body);
  EXPECT_EQ(body.size(), net::kStreamRequestBodyBytes);
  EXPECT_EQ(body[0], net::kStreamRequestKind);
  // The two request kinds can never collide on the wire.
  EXPECT_NE(net::kStreamRequestBodyBytes, net::kRequestBodyBytes);
  const auto decoded = net::decode_stream_request(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);
}

TEST(NetFraming, StreamRequestCodecRejectsWrongSizeAndKind) {
  std::vector<std::uint8_t> body;
  net::encode_stream_request({1, 0, 0, 4, 0}, body);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              net::kStreamRequestBodyBytes - 1,
                              net::kStreamRequestBodyBytes + 1}) {
    std::vector<std::uint8_t> wrong(body);
    wrong.resize(n, 0);
    EXPECT_FALSE(net::decode_stream_request(wrong).has_value()) << n;
  }
  std::vector<std::uint8_t> bad_kind(body);
  bad_kind[0] = 0;  // kind byte must announce a stream request
  EXPECT_FALSE(net::decode_stream_request(bad_kind).has_value());
  bad_kind[0] = 2;
  EXPECT_FALSE(net::decode_stream_request(bad_kind).has_value());
}

TEST(NetFraming, ResponseCodecRoundTrips) {
  service::ReleaseResult result;
  result.status = service::ReleaseStatus::kDegraded;
  result.served_policy = 1;
  result.cache_hit = true;
  result.spent = {1.25, 0.0625};
  result.vector = {0, -3, 1 << 30, 42};
  std::vector<std::uint8_t> body;
  net::encode_response(result, body);
  const auto decoded = net::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);

  // An empty vector (refused request) round-trips too.
  service::ReleaseResult refused;
  refused.status = service::ReleaseStatus::kBudgetExhausted;
  refused.spent = {3.5, 0.5};
  net::encode_response(refused, body);
  const auto decoded_refused = net::decode_response(body);
  ASSERT_TRUE(decoded_refused.has_value());
  EXPECT_EQ(*decoded_refused, refused);
}

TEST(NetFraming, ResponseCodecRejectsMalformedBytes) {
  service::ReleaseResult result;
  result.status = service::ReleaseStatus::kGranted;
  result.vector = {1, 2, 3};
  std::vector<std::uint8_t> body;
  net::encode_response(result, body);

  std::vector<std::uint8_t> bad_status(body);
  bad_status[0] = 9;  // no such ReleaseStatus
  EXPECT_FALSE(net::decode_response(bad_status).has_value());

  std::vector<std::uint8_t> bad_flag(body);
  bad_flag[5] = 2;  // cache_hit must be 0/1
  EXPECT_FALSE(net::decode_response(bad_flag).has_value());

  std::vector<std::uint8_t> truncated(body);
  truncated.pop_back();  // count promises more i32s than present
  EXPECT_FALSE(net::decode_response(truncated).has_value());

  std::vector<std::uint8_t> oversized(body);
  oversized.push_back(0);  // trailing junk after the promised i32s
  EXPECT_FALSE(net::decode_response(oversized).has_value());

  EXPECT_FALSE(
      net::decode_response(std::vector<std::uint8_t>(5, 0)).has_value());
}

/// Frame I/O is exercised over a socketpair — real fds, no listener.
class FramePipe : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void close_writer() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FramePipe, RoundTripsBodiesIncludingEmpty) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(net::write_frame(fds_[0], payload));
  ASSERT_TRUE(net::write_frame(fds_[0], {}));  // zero-length body is legal
  std::vector<std::uint8_t> body{99};
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_EQ(body, payload);
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_TRUE(body.empty());
  close_writer();
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kClosed);
}

TEST_F(FramePipe, SurvivesDribbledPartialWrites) {
  const std::vector<std::uint8_t> payload(300, 0xab);
  std::vector<std::uint8_t> wire{static_cast<std::uint8_t>(payload.size()),
                                 static_cast<std::uint8_t>(payload.size() >> 8),
                                 0, 0};
  wire.resize(4 + payload.size());
  std::copy(payload.begin(), payload.end(), wire.begin() + 4);
  // Drip the frame through the socket a few bytes at a time so every
  // read in read_frame comes back short.
  std::thread writer([&] {
    for (std::size_t i = 0; i < wire.size(); i += 7) {
      const std::size_t n = std::min<std::size_t>(7, wire.size() - i);
      ASSERT_EQ(::write(fds_[0], wire.data() + i, n),
                static_cast<ssize_t>(n));
    }
  });
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kOk);
  EXPECT_EQ(body, payload);
  writer.join();
}

TEST_F(FramePipe, RejectsTruncatedHeaderAndBody) {
  const std::uint8_t half_header[2] = {10, 0};
  ASSERT_EQ(::write(fds_[0], half_header, 2), 2);
  close_writer();
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kError);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  const std::uint8_t header_then_partial[8] = {10, 0, 0, 0, 1, 2, 3, 4};
  ASSERT_EQ(::write(fds_[0], header_then_partial, 8), 8);
  close_writer();
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kError);
}

TEST_F(FramePipe, RefusesOversizedAnnouncedLength) {
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(fds_[0], huge, 4), 4);
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fds_[1], body), net::FrameIo::kTooLarge);
  // The cap is configurable per call; the same bytes pass a larger cap
  // only to die waiting for the body, which is not this test.
  EXPECT_TRUE(net::write_frame(fds_[0], std::vector<std::uint8_t>(8, 1)));
  EXPECT_EQ(net::read_frame(fds_[1], body, /*max_bytes=*/4),
            net::FrameIo::kTooLarge);
}

/// The classic-request twins of the loopback smokes: one policy pair,
/// one city, one cloaker.
service::ServiceConfig twin_config() {
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back(
      {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 3.5;
  config.delta_ceiling = 1.0;
  config.seed = 99;
  return config;
}

/// Serves `trace` in process through serve() on one service and over one
/// sequential TCP connection on an identical twin, and expects every
/// result (cache_hit included) and every service counter to agree.
void expect_wire_matches_serve(
    const poi::City& city, const cloak::AdaptiveIntervalCloaker& cloaker,
    const service::ServiceConfig& config,
    const std::vector<service::ReleaseRequest>& trace) {
  service::ReleaseService inproc(city.db, cloaker, config);
  const std::vector<service::ReleaseResult> expected = inproc.serve(trace);

  service::ReleaseService served(city.db, cloaker, config);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto result = client.call(trace[i]);
    ASSERT_TRUE(result.has_value()) << "request " << i;
    EXPECT_EQ(*result, expected[i]) << "request " << i;
  }
  client.close();
  server.stop();

  EXPECT_EQ(server.stats().frames_served, trace.size());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(served.concurrent_stats(), inproc.concurrent_stats());
  EXPECT_EQ(served.cache_stats(), inproc.cache_stats());
}

/// Loopback smoke: the full stack (service -> server -> TCP -> client)
/// returns byte-identical vectors to an in-process serve(). One
/// sequential connection consumes noise indices 0..n-1 in request
/// order, exactly like one serve() call on a twin service.
TEST(NetLoopback, TcpReleasesMatchInProcessByteForByte) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::WorkloadConfig workload;
  workload.num_users = 5;
  workload.requests_per_user = 6;
  workload.seed = 11;
  expect_wire_matches_serve(
      city, cloaker, twin_config(),
      service::requests_of(service::generate_workload(city, workload)));
}

/// The cache counters mean the same on both sides of the socket: under a
/// 1-entry cache a trace that keeps coming back to evicted keys misses
/// on each return, in process as over the wire, and every cache_hit
/// flag and counter agrees.
TEST(NetLoopback, TinyCacheHitsAndMissesMatchInProcess) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config = twin_config();
  config.cache_capacity = 1;
  config.epsilon_ceiling = 100.0;  // every request reaches the cache
  // Two keys (one location, two radii) visited A B A B A A B B by four
  // users: returns after an eviction miss, back-to-back repeats hit.
  const geo::Point here{4.0, 4.0};
  std::vector<service::ReleaseRequest> trace;
  const double radii[] = {1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 2.0};
  for (std::size_t i = 0; i < std::size(radii); ++i) {
    trace.push_back({i % 4, here, radii[i], 0});
  }
  expect_wire_matches_serve(city, cloaker, config, trace);

  service::ReleaseService alone(city.db, cloaker, config);
  alone.serve(trace);
  EXPECT_EQ(alone.concurrent_stats().cache_hits, 2u);
  EXPECT_EQ(alone.concurrent_stats().cache_misses, 6u);
}

/// Continual-release requests cross the same socket: a mixed classic /
/// stream conversation against the TCP front-end must match a twin
/// service driven in-process, byte for byte.
TEST(NetLoopback, TcpStreamReleasesMatchInProcess) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back(
      {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
  config.epsilon_ceiling = 8.0;
  config.delta_ceiling = 1.0;
  config.seed = 99;
  const FakeStreamSource source;

  const std::vector<service::StreamRequest> streams = {
      {1, 0, 0, 4, 0}, {2, 1, 2, 6, 1}, {1, 2, 0, 8, 1}, {1, 0, 0, 4, 0}};
  const service::ReleaseRequest classic{3, {4.0, 4.0}, 1.0, 0};

  service::ReleaseService inproc(city.db, cloaker, config);
  inproc.attach_stream_source(&source);
  std::vector<service::ReleaseResult> expected;
  for (const auto& request : streams) {
    expected.push_back(inproc.serve_stream(request));
  }
  expected.push_back(inproc.serve_concurrent(classic));

  service::ReleaseService served(city.db, cloaker, config);
  served.attach_stream_source(&source);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto result = client.call(streams[i]);
    ASSERT_TRUE(result.has_value()) << "stream request " << i;
    EXPECT_EQ(*result, expected[i]) << "stream request " << i;
  }
  const auto mixed = client.call(classic);
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(*mixed, expected.back());
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().frames_served, streams.size() + 1);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetLoopback, MalformedFrameClosesConnectionNotServer) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.seed = 99;
  service::ReleaseService gsp(city.db, cloaker, config);
  net::ReleaseServer server(gsp, net::ServerConfig{});
  server.start();

  // A garbage frame (valid framing, wrong body size) must get this
  // connection closed by the server — and only this connection.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_TRUE(net::write_frame(raw, std::vector<std::uint8_t>(3, 0)));
  std::uint8_t drain[16];
  EXPECT_EQ(::read(raw, drain, sizeof drain), 0) << "expected server close";
  ::close(raw);

  // A healthy connection afterwards still gets served.
  net::Client good = net::Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(good.connected());
  const auto result =
      good.call(service::ReleaseRequest{1, {4.0, 4.0}, 1.0, 0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, service::ReleaseStatus::kGranted);
  good.close();
  server.stop();
  EXPECT_GE(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().frames_served, 1u);
}

/// Batched frame I/O: the server reads whatever the socket holds, serves
/// every whole frame in it in order and answers them with one write. The
/// raw-socket tests below send bursts, errors and drips that the
/// one-request-at-a-time Client never produces.
class NetBatch : public ::testing::Test {
 protected:
  NetBatch()
      : city_(poi::generate_city(poi::test_preset(), 7)),
        cloaker_(make_cloaker(city_)) {
    config_.policies.push_back(
        {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
    config_.policies.push_back(
        {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
    config_.degrade_policy = 1;
    config_.epsilon_ceiling = 3.5;
    config_.delta_ceiling = 1.0;
    config_.seed = 99;
  }

  static cloak::AdaptiveIntervalCloaker make_cloaker(const poi::City& city) {
    common::Rng pop_rng(3);
    return cloak::AdaptiveIntervalCloaker(
        cloak::uniform_population(city.db.bounds(), 500, pop_rng),
        city.db.bounds());
  }

  std::vector<service::ReleaseRequest> trace(std::size_t users,
                                             std::size_t per_user) const {
    service::WorkloadConfig workload;
    workload.num_users = users;
    workload.requests_per_user = per_user;
    workload.seed = 11;
    return service::requests_of(service::generate_workload(city_, workload));
  }

  /// A blocking loopback connection with Nagle off, so every write()
  /// leaves as its own segment.
  static int connect_raw(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  static std::vector<std::uint8_t> frame_of(
      const service::ReleaseRequest& request) {
    std::vector<std::uint8_t> body;
    std::vector<std::uint8_t> frame;
    net::encode_request(request, body);
    net::append_frame(body, frame);
    return frame;
  }

  /// Reads `n` reply frames and checks each is byte-equal to the encoding
  /// of `expected[i]`.
  static void expect_replies(int fd,
                             const std::vector<service::ReleaseResult>& expected) {
    std::vector<std::uint8_t> body;
    std::vector<std::uint8_t> want;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(net::read_frame(fd, body), net::FrameIo::kOk) << "reply " << i;
      net::encode_response(expected[i], want);
      EXPECT_EQ(body, want) << "reply " << i;
    }
  }

  poi::City city_;
  cloak::AdaptiveIntervalCloaker cloaker_;
  service::ServiceConfig config_;
  FakeStreamSource source_;
};

TEST_F(NetBatch, BurstInOneWriteIsAnsweredInOrder) {
  const std::vector<service::ReleaseRequest> classic = trace(8, 8);
  ASSERT_EQ(classic.size(), 64u);
  const service::StreamRequest stream{5, 1, 0, 4, 0};

  service::ReleaseService inproc(city_.db, cloaker_, config_);
  inproc.attach_stream_source(&source_);
  std::vector<service::ReleaseResult> expected;
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i < classic.size(); ++i) {
    if (i == 32) {
      expected.push_back(inproc.serve_stream(stream));
      net::encode_stream_request(stream, body);
      net::append_frame(body, wire);
    }
    expected.push_back(inproc.serve_concurrent(classic[i]));
    net::encode_request(classic[i], body);
    net::append_frame(body, wire);
  }

  service::ReleaseService served(city_.db, cloaker_, config_);
  served.attach_stream_source(&source_);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::write_all(fd, wire));
  expect_replies(fd, expected);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().frames_served, expected.size());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST_F(NetBatch, BadFrameAfterGoodOnesAnswersThemThenCloses) {
  const std::vector<service::ReleaseRequest> requests = trace(2, 3);
  service::ReleaseService inproc(city_.db, cloaker_, config_);
  std::vector<service::ReleaseResult> expected;
  std::vector<std::uint8_t> wire;
  for (const auto& request : requests) {
    expected.push_back(inproc.serve_concurrent(request));
    const std::vector<std::uint8_t> frame = frame_of(request);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  // Valid framing, but a 3-byte body is neither request kind.
  net::append_frame(std::vector<std::uint8_t>(3, 0), wire);

  service::ReleaseService served(city_.db, cloaker_, config_);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::write_all(fd, wire));
  expect_replies(fd, expected);
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fd, body), net::FrameIo::kClosed);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().frames_served, expected.size());
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST_F(NetBatch, EofInsideAFrameIsAProtocolError) {
  const std::vector<service::ReleaseRequest> requests = trace(1, 2);
  service::ReleaseService inproc(city_.db, cloaker_, config_);
  const std::vector<service::ReleaseResult> expected = {
      inproc.serve_concurrent(requests[0])};
  std::vector<std::uint8_t> wire = frame_of(requests[0]);
  const std::vector<std::uint8_t> cut = frame_of(requests[1]);
  wire.insert(wire.end(), cut.begin(), cut.begin() + 4 + 10);

  service::ReleaseService served(city_.db, cloaker_, config_);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::write_all(fd, wire));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // EOF 10 bytes into the body
  expect_replies(fd, expected);
  std::vector<std::uint8_t> body;
  EXPECT_EQ(net::read_frame(fd, body), net::FrameIo::kClosed);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().frames_served, 1u);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST_F(NetBatch, RequestDrippedOneByteAtATime) {
  const std::vector<service::ReleaseRequest> requests = trace(1, 2);
  service::ReleaseService inproc(city_.db, cloaker_, config_);
  std::vector<service::ReleaseResult> expected;
  std::vector<std::uint8_t> wire;
  for (const auto& request : requests) {
    expected.push_back(inproc.serve_concurrent(request));
    const std::vector<std::uint8_t> frame = frame_of(request);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }

  service::ReleaseService served(city_.db, cloaker_, config_);
  net::ReleaseServer server(served, net::ServerConfig{});
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  for (const std::uint8_t byte : wire) {
    ASSERT_EQ(::write(fd, &byte, 1), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  expect_replies(fd, expected);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().frames_served, expected.size());
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

}  // namespace
}  // namespace poiprivacy

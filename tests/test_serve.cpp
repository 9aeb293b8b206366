// sickle-serve: the NDJSON JSON parser's nesting bound and one full
// daemon lifecycle (start -> connect -> request -> stop) on an ephemeral
// loopback port. Runs under TSan in CI: stop() must not race the accept
// thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace sickle::serve {
namespace {

/// `depth` nested arrays around nothing: "[[...]]".
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, NestingPastTheBoundIsATypedError) {
  EXPECT_NO_THROW((void)Json::parse(nested_arrays(64)));
  EXPECT_THROW((void)Json::parse(nested_arrays(65)), RuntimeError);
  // Objects count toward the same bound.
  std::string objects;
  for (int i = 0; i < 65; ++i) objects += "{\"k\":";
  objects += "1" + std::string(65, '}');
  EXPECT_THROW((void)Json::parse(objects), RuntimeError);
  // A 2 MB line of '[' fails fast instead of overflowing the stack.
  try {
    (void)Json::parse(std::string(2u << 20, '['));
    FAIL() << "2 MB of '[' parsed";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

/// Minimal blocking NDJSON client over one loopback connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    // A daemon that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// Send one request line and parse the one response line.
  Json request(const std::string& line) {
    if (!send_raw(line + "\n")) throw RuntimeError("send failed");
    return read_response();
  }

  /// Send bytes as they are; false once the daemon stops taking them.
  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Parse the next response line.
  Json read_response() {
    std::string resp;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') resp.push_back(c);
    return Json::parse(resp);
  }

  /// True once the daemon has closed its end (recv sees EOF or a reset).
  [[nodiscard]] bool closed_by_peer() const {
    char c = 0;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(Server, StartRequestStopOnEphemeralPort) {
  Server server;
  server.start();
  ASSERT_NE(server.port(), 0);
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    const Json metrics = client.request(R"({"verb":"metrics"})");
    ASSERT_NE(metrics.get("ok"), nullptr);
    EXPECT_TRUE(metrics.get("ok")->as_bool());
    ASSERT_NE(metrics.get("metrics"), nullptr);
    EXPECT_TRUE(metrics.get("metrics")->is_object());
  }
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.cases_submitted(), 0u);
}

TEST(Server, DeeplyNestedLineGetsBadRequestAndConnectionSurvives) {
  Server server;
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const Json bad = client.request(std::string(2u << 20, '['));
  ASSERT_NE(bad.get("ok"), nullptr);
  EXPECT_FALSE(bad.get("ok")->as_bool());
  ASSERT_NE(bad.get("code"), nullptr);
  EXPECT_EQ(bad.get("code")->as_string(), "bad_request");
  // Same connection, next line: the daemon still answers.
  const Json metrics = client.request(R"({"verb":"metrics"})");
  ASSERT_NE(metrics.get("ok"), nullptr);
  EXPECT_TRUE(metrics.get("ok")->as_bool());
  server.stop();
}

TEST(Server, NewlineFreeFloodGetsRequestTooLargeAndClose) {
  Server server;
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const auto t0 = std::chrono::steady_clock::now();
  // 32 MiB without a newline: the daemon stops buffering at its line cap,
  // answers once and closes, instead of holding (and rescanning) it all.
  const std::string block(1u << 20, 'x');
  for (int i = 0; i < 32 && client.send_raw(block); ++i) {
  }
  const Json resp = client.read_response();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_NE(resp.get("ok"), nullptr);
  EXPECT_FALSE(resp.get("ok")->as_bool());
  ASSERT_NE(resp.get("code"), nullptr);
  EXPECT_EQ(resp.get("code")->as_string(), "request_too_large");
  EXPECT_TRUE(client.closed_by_peer());
  EXPECT_LT(seconds, 10.0);
  // The daemon itself keeps serving new connections.
  Client next(server.port());
  ASSERT_TRUE(next.connected());
  const Json metrics = next.request(R"({"verb":"metrics"})");
  ASSERT_NE(metrics.get("ok"), nullptr);
  EXPECT_TRUE(metrics.get("ok")->as_bool());
  server.stop();
}

}  // namespace
}  // namespace sickle::serve

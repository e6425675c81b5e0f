#ifndef HC2L_TESTS_SERVER_TEST_UTIL_H_
#define HC2L_TESTS_SERVER_TEST_UTIL_H_

// Helpers for the hc2ld server tests: a minimal blocking line client that
// talks to a QueryServer on 127.0.0.1, and a polling wait.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

namespace hc2l {

class TestClient {
 public:
  /// How long one recv may wait before ReadLine / ReadToClose give up and
  /// return their timeout marker, so a server that never answers or never
  /// closes fails the test and names the blocking call instead of hanging.
  static constexpr int kReceiveTimeoutSeconds = 20;

  /// `rcvbuf_bytes` > 0 shrinks the receive buffer before connecting, so a
  /// client that stops reading stalls the server's writes quickly.
  explicit TestClient(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval timeout{};
    timeout.tv_sec = kReceiveTimeoutSeconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }

  /// Writes all of `bytes`; false if the connection failed first.
  [[nodiscard]] bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next response line without its '\n', "<connection closed>", or
  /// "<ReadLine timed out>" after kReceiveTimeoutSeconds without a byte.
  std::string ReadLine() {
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && TimedOut()) return "<ReadLine timed out>";
      if (n <= 0) return "<connection closed>";
      buf_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

  /// Everything still unread, up to the server closing the connection;
  /// "<ReadToClose timed out>" is appended when it stays open
  /// kReceiveTimeoutSeconds without a byte.
  std::string ReadToClose() {
    std::string all = std::move(buf_);
    buf_.clear();
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && TimedOut()) return all + "<ReadToClose timed out>";
      if (n <= 0) return all;
      all.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  static bool TimedOut() { return errno == EAGAIN || errno == EWOULDBLOCK; }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// Polls `done` every 20 ms for up to `budget`; true once it holds.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

}  // namespace hc2l

#endif  // HC2L_TESTS_SERVER_TEST_UTIL_H_

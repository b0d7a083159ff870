// TCP primitives for the shard-dispatch service tier (svc/).
//
// Deliberately thin: blocking sockets, one stream class, one listener
// class, and a ByteStream abstraction so the framing layer (net/frame.hpp)
// and every protocol test can run over a scripted fake transport instead
// of a real socket. Timeouts are per-read (SO_RCVTIMEO) and surface as
// NetTimeout — the framing layer turns "timed out at a frame boundary"
// into an idle tick and "timed out mid-frame, repeatedly" into a hard
// error, so nothing above this layer ever blocks forever on a silent
// peer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace rvt::net {

struct NetError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A read found no bytes within the stream's read timeout. Distinct
/// from NetError so callers can treat "peer is quiet" differently from
/// "transport is broken".
struct NetTimeout : NetError {
  using NetError::NetError;
};

/// The transport the framing layer reads and writes. Implemented by
/// TcpStream for real sockets and by scripted fakes in tests.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Blocks until at least one byte is available and returns the count
  /// read (1..n), or 0 on clean end-of-stream. Throws NetTimeout when
  /// the stream's read timeout elapses with nothing read, NetError on
  /// transport failure. May return FEWER bytes than asked — callers
  /// must loop (and the framing layer's tests deliver 1-byte dribbles
  /// to keep them honest).
  virtual std::size_t read_some(void* p, std::size_t n) = 0;

  /// Writes all n bytes or throws NetError.
  virtual void write_all(const void* p, std::size_t n) = 0;
};

/// Blocking TCP stream over an owned fd (also adopts one end of a
/// socketpair in tests).
class TcpStream final : public ByteStream {
 public:
  explicit TcpStream(int fd);
  ~TcpStream() override;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  std::size_t read_some(void* p, std::size_t n) override;
  void write_all(const void* p, std::size_t n) override;

  /// Read timeout applied to each read_some (0 = block indefinitely).
  void set_read_timeout_ms(unsigned ms);

  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Connects to host:port (numeric or resolvable name). Throws NetError.
std::unique_ptr<TcpStream> tcp_connect(const std::string& host,
                                       std::uint16_t port);

/// Listening TCP socket; port 0 binds an ephemeral port (port() reports
/// the one the kernel picked — how tests and CI avoid port collisions).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection; returns nullptr once close() has
  /// been called (the shutdown wakes a blocked accept). Throws NetError
  /// on any other failure.
  std::unique_ptr<TcpStream> accept();

  /// Stops accepting: wakes any blocked accept() (which then returns
  /// nullptr). Safe to call from another thread; idempotent.
  void close();

 private:
  int fd_;
  std::uint16_t port_ = 0;
  /// Written by close() on one thread, read by accept() on another.
  std::atomic<bool> closed_{false};
};

/// Minimal HTTP/1.0 GET — the metrics-endpoint client used by bench E15
/// and tests. Returns the response body; throws NetError on transport
/// failure or a non-200 status.
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path);

}  // namespace rvt::net

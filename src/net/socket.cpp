#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace rvt::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

TcpStream::TcpStream(int fd) : fd_(fd) {
  // Writes to a peer that already vanished must surface as NetError,
  // not kill the process.
#ifdef SO_NOSIGPIPE
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

TcpStream::~TcpStream() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t TcpStream::read_some(void* p, std::size_t n) {
  for (;;) {
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) return 0;  // clean end-of-stream
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw NetTimeout("net: read timed out");
    }
    throw NetError(errno_text("net: recv"));
  }
}

void TcpStream::write_all(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  while (n > 0) {
    const ssize_t put = ::send(fd_, b, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw NetError(errno_text("net: send"));
    }
    b += put;
    n -= static_cast<std::size_t>(put);
  }
}

void TcpStream::set_read_timeout_ms(unsigned ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::unique_ptr<TcpStream> tcp_connect(const std::string& host,
                                       std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw NetError("net: cannot resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  int last_errno = 0;
  for (addrinfo* a = res; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = last_errno;
    throw NetError(errno_text(("net: connect to " + host + ":" +
                               std::to_string(port))
                                  .c_str()));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpStream>(fd);
}

TcpListener::TcpListener(std::uint16_t port) : fd_(-1) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw NetError(errno_text("net: socket"));
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string msg = errno_text("net: bind");
    ::close(fd_);
    throw NetError(msg);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string msg = errno_text("net: getsockname");
    ::close(fd_);
    throw NetError(msg);
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 64) != 0) {
    const std::string msg = errno_text("net: listen");
    ::close(fd_);
    throw NetError(msg);
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpStream> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<TcpStream>(fd);
    }
    if (errno == EINTR) continue;
    // close() shuts the listener down; a woken accept reports "closed",
    // not an error. The fd itself stays open until the destructor so a
    // concurrent accept can never race onto a recycled descriptor.
    if (closed_) return nullptr;
    throw NetError(errno_text("net: accept"));
  }
}

void TcpListener::close() {
  if (closed_.exchange(true)) return;
  ::shutdown(fd_, SHUT_RDWR);  // wakes a blocked accept (EINVAL)
}

std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path) {
  const std::unique_ptr<TcpStream> s = tcp_connect(host, port);
  s->set_read_timeout_ms(5000);
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  s->write_all(req.data(), req.size());
  std::string resp;
  char buf[4096];
  for (;;) {
    const std::size_t got = s->read_some(buf, sizeof(buf));
    if (got == 0) break;
    resp.append(buf, got);
  }
  const std::size_t eol = resp.find("\r\n");
  if (eol == std::string::npos) {
    throw NetError("http: malformed response");
  }
  if (resp.compare(0, 5, "HTTP/") != 0 ||
      resp.substr(0, eol).find(" 200 ") == std::string::npos) {
    throw NetError("http: status not 200: " + resp.substr(0, eol));
  }
  const std::size_t body = resp.find("\r\n\r\n");
  if (body == std::string::npos) {
    throw NetError("http: missing header terminator");
  }
  return resp.substr(body + 4);
}

}  // namespace rvt::net

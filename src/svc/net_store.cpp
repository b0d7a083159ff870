#include "svc/net_store.hpp"

#include "dist/serialize.hpp"
#include "net/frame.hpp"
#include "svc/protocol.hpp"

namespace rvt::svc {

namespace {

/// Round trip one request on an established stream; throws NetError /
/// SerializeError on any failure. A kError reply is a refusal the
/// caller treats as a miss (thrown as NetError so the retry-once path
/// reconnects — a refusal after handshake means a confused session).
net::Frame round_trip(net::TcpStream& s, dist::WireKind kind,
                      const std::vector<std::uint8_t>& payload) {
  net::send_frame(s, kind, payload);
  net::Frame f;
  const net::RecvStatus st = net::recv_frame(s, f, /*idle_ok=*/false);
  if (st != net::RecvStatus::kFrame) {
    throw net::NetError("net-store: coordinator closed the session");
  }
  if (f.kind == dist::WireKind::kError) {
    throw net::NetError("net-store: coordinator refused: " +
                        decode_error_reply(f.payload).message);
  }
  if (f.kind != kind) {
    throw dist::SerializeError("net-store: reply kind mismatch");
  }
  return f;
}

}  // namespace

NetOrbitStore::NetOrbitStore(std::string host, std::uint16_t port,
                             std::string name)
    : host_(std::move(host)), port_(port), name_(std::move(name)) {}

NetOrbitStore::~NetOrbitStore() = default;

void NetOrbitStore::ensure_connected_locked() {
  if (stream_) return;
  auto s = net::tcp_connect(host_, port_);
  s->set_read_timeout_ms(1000);
  HelloRequest hello;
  hello.role = "store";
  hello.name = name_;
  const net::Frame ack =
      round_trip(*s, dist::WireKind::kHello, encode(hello));
  const HelloReply reply = decode_hello_reply(ack.payload);
  if (reply.protocol != kServiceProtocolVersion) {
    throw net::NetError("net-store: protocol version mismatch");
  }
  stream_ = std::move(s);
}

std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>
NetOrbitStore::load(const sim::OrbitKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.loads;
  OrbitGetReply reply;
  for (int attempt = 0;; ++attempt) {
    try {
      ensure_connected_locked();
      const net::Frame f = round_trip(*stream_, dist::WireKind::kOrbitGet,
                                      encode(OrbitGet{key}));
      reply = decode_orbit_get_reply(f.payload);
      break;
    } catch (const std::exception&) {
      stream_.reset();
      if (attempt == 1) {
        ++stats_.exhausted;
        return nullptr;
      }
      ++stats_.reconnects;
    }
  }
  if (!reply.found) return nullptr;
  try {
    const auto set = dist::deserialize_orbit_set(reply.payload);
    ++stats_.hits;
    return set;
  } catch (const std::exception&) {
    ++stats_.decode_failures;
    return nullptr;
  }
}

NetOrbitStore::Stats NetOrbitStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace rvt::svc

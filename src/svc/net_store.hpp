// Client of the coordinator's remote orbit-store messages.
//
// Fleets no longer share orbit sets: each worker memoizes defeat counts
// in its own in-memory OrbitCache, the coordinator answers every
// kOrbitGet absent, and no engine can adopt a loaded set. This client
// remains only as a cheap, well-defined round trip against a live
// coordinator for the benchmark harness's latency probe, and goes with
// kOrbitGet/kOrbitPut once that probe is dropped:
//  * a failed request is retried once on a fresh connection (transient
//    blips — coordinator restart, dropped TCP — heal);
//  * both attempts failing counts as exhausted and is a miss;
//  * a payload the codec refuses is a miss, never an escape.
// load() never throws; all failure is a miss.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/socket.hpp"
#include "sim/orbit_cache.hpp"

namespace rvt::svc {

class NetOrbitStore {
 public:
  NetOrbitStore(std::string host, std::uint16_t port,
                std::string name = "net-store");
  ~NetOrbitStore();

  /// The set the coordinator holds for `key`, or nullptr when absent or
  /// on any failure.
  std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet> load(
      const sim::OrbitKey& key);

  struct Stats {
    std::uint64_t loads = 0;
    std::uint64_t hits = 0;
    std::uint64_t reconnects = 0;       ///< retried ops (fresh connection)
    std::uint64_t exhausted = 0;        ///< ops that failed both attempts
    std::uint64_t decode_failures = 0;  ///< payloads the codec refused
  };
  Stats stats() const;

 private:
  /// Connects + handshakes if needed. Throws net::NetError /
  /// dist::SerializeError; the caller drops the stream on failure.
  void ensure_connected_locked();

  std::string host_;
  std::uint16_t port_;
  std::string name_;
  mutable std::mutex mu_;
  std::unique_ptr<net::TcpStream> stream_;
  Stats stats_;
};

}  // namespace rvt::svc

// Message codecs for the shard-dispatch service protocol.
//
// One frame (net/frame.hpp) per message; a request and its reply share
// a WireKind, and kError may answer any request. The session state
// machine (DESIGN.md "Service tier"):
//
//   connect -> kHello (negotiate) -> { kLeaseRequest -> kLeaseGrant
//                                    | kJournalChunk -> ChunkReply
//                                    | kSeal         -> SealReply
//                                    | kOrbitGet/Put -> replies }*
//
// Every message is encoded with the bounds-checked WireWriter/WireReader
// (dist/serialize.hpp); decoders consume the exact payload (expect_end)
// and throw SerializeError on anything malformed, so a hostile or
// corrupt peer can only ever produce a refused frame, never a
// half-parsed message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "sim/orbit_cache.hpp"

namespace rvt::svc {

/// Version of the MESSAGE SCHEMA on top of the wire format. The frame
/// version (dist::kWireVersion) rejects foreign byte layouts before a
/// payload is even parsed; this one lets two builds that share the
/// frame format still refuse each other's message vocabulary — the
/// hello handshake reports it as ErrorCode::kVersion, distinct from
/// corruption. History: 1 = the PR 7 vocabulary; 2 = the hello request
/// carries the workload fingerprint the session is (re)binding to plus
/// the worker's reconnect count, so a coordinator can refuse a worker
/// that reconnected into a different campaign and account fleet-wide
/// reconnects; 3 = lease grants end with the coordinator-minted
/// campaign/trace id. A worker refuses any hello reply of another
/// version, so no session ever sees a v2 grant, and a grant without the
/// id is refused like any other truncated payload.
inline constexpr std::uint32_t kServiceProtocolVersion = 3;

enum class ErrorCode : std::uint32_t {
  kVersion = 1,     ///< protocol version mismatch in the hello
  kRefused = 2,     ///< handshake refused (bad role, no capacity)
  kBadRequest = 3,  ///< malformed or out-of-order message
};

// ---- handshake ------------------------------------------------------------

struct HelloRequest {
  std::uint32_t protocol = kServiceProtocolVersion;
  std::string role;  ///< "worker" (lease + stream) or "store" (orbit IO)
  std::string name;  ///< runner's self-chosen display name
  /// Zero on the first hello (the worker learns the plan from the
  /// reply); on a RE-hello after a reconnect, the fingerprint the
  /// session was bound to — a coordinator serving a different plan
  /// refuses (kRefused) instead of accepting foreign records.
  dist::ShardId fingerprint;
  /// How many times this worker has reconnected so far; the coordinator
  /// folds the per-name maximum into its recovery metrics.
  std::uint64_t reconnects = 0;
};

/// The coordinator's half of the handshake binds the session to ONE
/// plan: the worker re-derives the workload from spec and refuses a
/// fingerprint mismatch, exactly like the fork/exec runner refuses a
/// foreign plan (dist/runner.cpp).
struct HelloReply {
  std::uint32_t protocol = kServiceProtocolVersion;
  dist::ShardId fingerprint;
  std::string workload_spec;
  std::uint64_t index_count = 0;
  std::uint64_t max_rounds = 0;
  std::uint64_t shard_count = 0;
};

// ---- leases ---------------------------------------------------------------

enum class LeaseStatus : std::uint8_t {
  kGranted = 0,
  kWait = 1,     ///< nothing became grantable while the request was held
  kDrained = 2,  ///< every shard sealed or quarantined — disconnect
};

struct LeaseGrant {
  LeaseStatus status = LeaseStatus::kWait;
  std::uint64_t shard_index = 0;  ///< position in the plan's shard list
  dist::ShardId shard_id;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Resume point: the coordinator owns the journal, so a re-leased
  /// shard continues from the durably committed prefix, not index 0.
  std::uint64_t next_index = 0;
  std::uint64_t resume_sum = 0;
  std::uint64_t token = 0;     ///< must accompany every chunk/seal
  /// kWait: backoff before re-requesting. 0 from a coordinator that
  /// holds lease requests; older coordinators answered at once with one.
  std::uint64_t retry_ms = 0;
  /// Campaign/trace id the coordinator minted for this plan (protocol
  /// v3; 0 means no campaign). Workers adopt it as their
  /// obs::trace campaign id so their spans stitch under the
  /// coordinator's timeline in an exported trace.
  std::uint64_t campaign_id = 0;
};

// ---- journal streaming ----------------------------------------------------

struct JournalRecord {
  std::uint64_t index = 0;
  std::uint64_t value = 0;
};

/// A batch of contiguous committed records. The records, not the
/// chunk, renew the lease: journal growth is the only liveness signal
/// the coordinator trusts. An empty chunk is the worker's reconnect
/// probe — answered with the durable next_index, renewing nothing.
struct JournalChunk {
  std::uint64_t shard_index = 0;
  std::uint64_t token = 0;
  std::vector<JournalRecord> records;
};

struct ChunkReply {
  /// false = the lease was revoked (expired and re-granted elsewhere);
  /// the runner abandons the shard and requests a fresh lease.
  bool accepted = false;
  std::uint64_t next_index = 0;  ///< coordinator's durable resume point
};

struct Seal {
  std::uint64_t shard_index = 0;
  std::uint64_t token = 0;
  std::uint64_t total = 0;  ///< runner's running sum, cross-checked
};

struct SealReply {
  bool accepted = false;
};

// ---- errors ---------------------------------------------------------------

struct ErrorReply {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

// ---- remote orbit store ---------------------------------------------------

struct OrbitGet {
  sim::OrbitKey key;
};

struct OrbitGetReply {
  bool found = false;
  /// Serialized OrbitSet payload (serialize_orbit_set, NOT framed — the
  /// message frame already carries the checksum).
  std::vector<std::uint8_t> payload;
};

struct OrbitPut {
  sim::OrbitKey key;
  std::vector<std::uint8_t> payload;
};

struct OrbitPutReply {
  bool accepted = false;
};

// ---- codecs ---------------------------------------------------------------
// encode_* produce the frame PAYLOAD for the message's WireKind;
// decode_* parse one and throw dist::SerializeError on any violation.

std::vector<std::uint8_t> encode(const HelloRequest& m);
std::vector<std::uint8_t> encode(const HelloReply& m);
std::vector<std::uint8_t> encode_lease_request();
std::vector<std::uint8_t> encode(const LeaseGrant& m);
std::vector<std::uint8_t> encode(const JournalChunk& m);
std::vector<std::uint8_t> encode(const ChunkReply& m);
std::vector<std::uint8_t> encode(const Seal& m);
std::vector<std::uint8_t> encode(const SealReply& m);
std::vector<std::uint8_t> encode(const ErrorReply& m);
std::vector<std::uint8_t> encode(const OrbitGet& m);
std::vector<std::uint8_t> encode(const OrbitGetReply& m);
std::vector<std::uint8_t> encode(const OrbitPut& m);
std::vector<std::uint8_t> encode(const OrbitPutReply& m);

HelloRequest decode_hello_request(std::span<const std::uint8_t> p);
HelloReply decode_hello_reply(std::span<const std::uint8_t> p);
LeaseGrant decode_lease_grant(std::span<const std::uint8_t> p);
JournalChunk decode_journal_chunk(std::span<const std::uint8_t> p);
ChunkReply decode_chunk_reply(std::span<const std::uint8_t> p);
Seal decode_seal(std::span<const std::uint8_t> p);
SealReply decode_seal_reply(std::span<const std::uint8_t> p);
ErrorReply decode_error_reply(std::span<const std::uint8_t> p);
OrbitGet decode_orbit_get(std::span<const std::uint8_t> p);
OrbitGetReply decode_orbit_get_reply(std::span<const std::uint8_t> p);
OrbitPut decode_orbit_put(std::span<const std::uint8_t> p);
OrbitPutReply decode_orbit_put_reply(std::span<const std::uint8_t> p);

}  // namespace rvt::svc

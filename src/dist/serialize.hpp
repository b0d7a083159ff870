// Binary serialization for the distributed-enumeration subsystem.
//
// Every artifact that crosses a process (or machine) boundary — shard
// plans, shard journals, the run ledger, service-tier messages — is
// written in one framed wire format:
//
//     [ WireHeader | payload bytes ]
//
// with a 32-byte header carrying magic, format version, payload kind,
// payload length and a 64-bit FNV-1a checksum of the payload. Readers
// refuse wrong magic/kind, a version they do not speak, a length that
// disagrees with the file, and a checksum mismatch — a torn or corrupted
// artifact must surface as a SerializeError, never as silently wrong
// verdict data. Integers are fixed-width little-endian; the codec
// asserts a little-endian host (every deployment target is).
//
// OrbitSet payloads round-trip EXACTLY: the deserialized set binds its
// orbits into contiguous arenas (sim/orbit_buf.hpp) just like
// snapshot_orbits() builds them, so adopting a deserialized set via
// rebind_adopted() is indistinguishable from adopting a locally published
// one. The codec is the payload of the service protocol's kOrbitGet
// reply (svc/net_store.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/compiled.hpp"

namespace rvt::dist {

/// Format version of every framed artifact. Bump on ANY layout change:
/// readers refuse other versions outright (cross-version artifacts are
/// regenerated, never migrated — they are caches and checkpoints, not
/// data of record).
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::uint32_t kWireMagic = 0x52565457;  // "RVTW"

enum class WireKind : std::uint16_t {
  kOrbitSet = 1,
  kShardPlan = 2,
  kJournal = 3,
  kQuarantine = 4,  ///< quarantine manifest (dist/merge.hpp)
  // Service-tier messages (svc/protocol.hpp), one frame per message on a
  // coordinator <-> runner TCP session. Requests and their replies share
  // a kind; kError may answer any request.
  kHello = 5,         ///< version negotiation + plan binding
  kLeaseRequest = 6,  ///< runner asks for a shard range
  kLeaseGrant = 7,    ///< lease / wait / drained reply
  kHeartbeat = 8,     ///< retired liveness probe; the value stays taken
  kJournalChunk = 9,  ///< streamed journal records (growth = renewal)
  kSeal = 10,         ///< runner declares its leased shard complete
  kError = 11,        ///< refusal with a machine-readable code
  kOrbitGet = 12,     ///< remote orbit store: load (always answered absent)
  kOrbitPut = 13,     ///< remote orbit store: publish (never stored)
  kLedger = 14,       ///< coordinator write-ahead run ledger (dist/ledger.hpp)
  kTraceChunk = 15,   ///< flushed span/event trace batch (obs/trace.hpp)
};

struct SerializeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Cross-version refusal, distinct from corruption: the magic matched
/// and the header is intact, but it claims a format version this build
/// does not speak. A network handshake needs the distinction — an
/// incompatible peer is reported and upgraded, damaged bytes are
/// quarantined and retried. Subclasses SerializeError so every existing
/// refuse-and-miss path handles it unchanged.
struct WireVersionError : SerializeError {
  using SerializeError::SerializeError;
};

/// FNV-1a over a byte range — the payload checksum of the wire header
/// and the per-record checksum of shard journals.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Append-only little-endian byte sink.
class WireWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void raw(const void* p, std::size_t n);
  /// Length-prefixed (u32) byte string.
  void str(const std::string& s);
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a byte range; any read past the end (or a
/// malformed length prefix) throws SerializeError.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : b_(bytes) {}
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  void raw(void* p, std::size_t n);
  std::string str();
  std::size_t remaining() const { return b_.size() - pos_; }
  void expect_end() const;

 private:
  std::span<const std::uint8_t> b_;
  std::size_t pos_ = 0;
};

/// Wraps `payload` in the versioned, checksummed frame.
std::vector<std::uint8_t> frame_payload(WireKind kind,
                                        std::span<const std::uint8_t> payload);

/// Size of the frame header that precedes every payload.
inline constexpr std::size_t kWireFrameBytes = 32;

/// Hard ceiling on any framed payload this build will read — file or
/// socket. Checked BEFORE a reader trusts the length field for anything
/// (allocation, stream reads): a forged or foreign length must refuse
/// cheaply, never drive a multi-gigabyte allocation ahead of the
/// checksum that would have caught it.
inline constexpr std::uint64_t kMaxWirePayloadBytes = std::uint64_t{1}
                                                      << 30;

/// The header's validated claims about the payload that follows it.
struct FrameInfo {
  WireKind kind;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
};

/// Validates the first kWireFrameBytes of a framed artifact or stream:
/// magic, version, reserved bytes, and the kMaxWirePayloadBytes guard —
/// everything checkable before a reader commits to the payload. Throws
/// WireVersionError for a foreign version, SerializeError otherwise.
/// Kind and checksum are the CALLER's checks (only it knows what kind it
/// expects, and the checksum needs the payload bytes).
FrameInfo validate_frame_header(std::span<const std::uint8_t> header);

/// Validates the frame (magic, version, kind, length, checksum) and
/// returns the payload view into `file`. Throws WireVersionError for a
/// foreign format version, SerializeError for everything else.
std::span<const std::uint8_t> unframe_payload(
    WireKind kind, std::span<const std::uint8_t> file);

// ---- OrbitSet codec -------------------------------------------------------

/// Payload (NOT framed) for one published OrbitSet; exact round-trip.
std::vector<std::uint8_t> serialize_orbit_set(
    const sim::CompiledConfigEngine::OrbitSet& set);

/// Inverse of serialize_orbit_set over a frame-validated payload; the
/// returned set's orbits are bound into freshly built contiguous arenas.
/// Throws SerializeError on any structural violation (lengths that do
/// not add up, truncation, index out of range).
std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>
deserialize_orbit_set(std::span<const std::uint8_t> payload);

// ---- file helpers ---------------------------------------------------------

/// Writes bytes to `path` via a unique temp file in the same directory +
/// atomic rename — readers see the old file or the complete new one,
/// never a prefix. Returns false on any IO failure (nothing is left at
/// `path` that wasn't there).
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Whole file, or nullopt if it cannot be read.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

// ---- formatting -----------------------------------------------------------

/// 32-hex-digit rendering of a 128-bit (hi, lo) pair — the one
/// formatter behind shard ids and log lines.
std::string hex128(std::uint64_t hi, std::uint64_t lo);

}  // namespace rvt::dist

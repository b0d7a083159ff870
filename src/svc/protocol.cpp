#include "svc/protocol.hpp"

namespace rvt::svc {

namespace {

using dist::SerializeError;
using dist::WireReader;
using dist::WireWriter;

std::uint8_t read_bool(WireReader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw SerializeError(std::string("svc: ") + what + " flag not 0/1");
  }
  return v;
}

}  // namespace

// ---- handshake ------------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloRequest& m) {
  WireWriter w;
  w.u32(m.protocol);
  w.str(m.role);
  w.str(m.name);
  w.u64(m.fingerprint.hi);
  w.u64(m.fingerprint.lo);
  w.u64(m.reconnects);
  return w.take();
}

HelloRequest decode_hello_request(std::span<const std::uint8_t> p) {
  WireReader r(p);
  HelloRequest m;
  m.protocol = r.u32();
  m.role = r.str();
  m.name = r.str();
  // The v2 tail. A v1 hello legitimately ends here — it must still
  // decode so the handshake can answer kVersion (a protocol number the
  // coordinator refuses), not kBadRequest (corruption).
  if (r.remaining() == 0) return m;
  m.fingerprint.hi = r.u64();
  m.fingerprint.lo = r.u64();
  m.reconnects = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const HelloReply& m) {
  WireWriter w;
  w.u32(m.protocol);
  w.u64(m.fingerprint.hi);
  w.u64(m.fingerprint.lo);
  w.str(m.workload_spec);
  w.u64(m.index_count);
  w.u64(m.max_rounds);
  w.u64(m.shard_count);
  return w.take();
}

HelloReply decode_hello_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  HelloReply m;
  m.protocol = r.u32();
  m.fingerprint.hi = r.u64();
  m.fingerprint.lo = r.u64();
  m.workload_spec = r.str();
  m.index_count = r.u64();
  m.max_rounds = r.u64();
  m.shard_count = r.u64();
  r.expect_end();
  return m;
}

// ---- leases ---------------------------------------------------------------

std::vector<std::uint8_t> encode_lease_request() { return {}; }

std::vector<std::uint8_t> encode(const LeaseGrant& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u64(m.shard_index);
  w.u64(m.shard_id.hi);
  w.u64(m.shard_id.lo);
  w.u64(m.begin);
  w.u64(m.end);
  w.u64(m.next_index);
  w.u64(m.resume_sum);
  w.u64(m.token);
  w.u64(m.retry_ms);
  w.u64(m.campaign_id);
  return w.take();
}

LeaseGrant decode_lease_grant(std::span<const std::uint8_t> p) {
  WireReader r(p);
  LeaseGrant m;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(LeaseStatus::kDrained)) {
    throw SerializeError("svc: unknown lease status");
  }
  m.status = static_cast<LeaseStatus>(status);
  m.shard_index = r.u64();
  m.shard_id.hi = r.u64();
  m.shard_id.lo = r.u64();
  m.begin = r.u64();
  m.end = r.u64();
  m.next_index = r.u64();
  m.resume_sum = r.u64();
  m.token = r.u64();
  m.retry_ms = r.u64();
  m.campaign_id = r.u64();
  r.expect_end();
  if (m.status == LeaseStatus::kGranted &&
      (m.begin > m.end || m.next_index < m.begin || m.next_index > m.end)) {
    throw SerializeError("svc: lease grant range inconsistent");
  }
  return m;
}

// ---- journal streaming ----------------------------------------------------

std::vector<std::uint8_t> encode(const JournalChunk& m) {
  WireWriter w;
  w.u64(m.shard_index);
  w.u64(m.token);
  w.u32(static_cast<std::uint32_t>(m.records.size()));
  for (const JournalRecord& rec : m.records) {
    w.u64(rec.index);
    w.u64(rec.value);
  }
  return w.take();
}

JournalChunk decode_journal_chunk(std::span<const std::uint8_t> p) {
  WireReader r(p);
  JournalChunk m;
  m.shard_index = r.u64();
  m.token = r.u64();
  const std::uint32_t n = r.u32();
  // Bound against bytes present before allocating (16 bytes/record).
  if (static_cast<std::uint64_t>(n) * 16 > r.remaining()) {
    throw SerializeError("svc: chunk record count exceeds payload");
  }
  m.records.resize(n);
  for (JournalRecord& rec : m.records) {
    rec.index = r.u64();
    rec.value = r.u64();
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const ChunkReply& m) {
  WireWriter w;
  w.u8(m.accepted ? 1 : 0);
  w.u64(m.next_index);
  return w.take();
}

ChunkReply decode_chunk_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  ChunkReply m;
  m.accepted = read_bool(r, "chunk accepted") != 0;
  m.next_index = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const Seal& m) {
  WireWriter w;
  w.u64(m.shard_index);
  w.u64(m.token);
  w.u64(m.total);
  return w.take();
}

Seal decode_seal(std::span<const std::uint8_t> p) {
  WireReader r(p);
  Seal m;
  m.shard_index = r.u64();
  m.token = r.u64();
  m.total = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const SealReply& m) {
  WireWriter w;
  w.u8(m.accepted ? 1 : 0);
  return w.take();
}

SealReply decode_seal_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  SealReply m;
  m.accepted = read_bool(r, "seal accepted") != 0;
  r.expect_end();
  return m;
}

// ---- errors ---------------------------------------------------------------

std::vector<std::uint8_t> encode(const ErrorReply& m) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(m.code));
  w.str(m.message);
  return w.take();
}

ErrorReply decode_error_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  ErrorReply m;
  const std::uint32_t code = r.u32();
  if (code < 1 || code > static_cast<std::uint32_t>(ErrorCode::kBadRequest)) {
    throw SerializeError("svc: unknown error code");
  }
  m.code = static_cast<ErrorCode>(code);
  m.message = r.str();
  r.expect_end();
  return m;
}

// ---- remote orbit store ---------------------------------------------------

std::vector<std::uint8_t> encode(const OrbitGet& m) {
  WireWriter w;
  w.u64(m.key.hi);
  w.u64(m.key.lo);
  return w.take();
}

OrbitGet decode_orbit_get(std::span<const std::uint8_t> p) {
  WireReader r(p);
  OrbitGet m;
  m.key.hi = r.u64();
  m.key.lo = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const OrbitGetReply& m) {
  WireWriter w;
  w.u8(m.found ? 1 : 0);
  w.u64(m.payload.size());
  w.raw(m.payload.data(), m.payload.size());
  return w.take();
}

OrbitGetReply decode_orbit_get_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  OrbitGetReply m;
  m.found = read_bool(r, "orbit-get found") != 0;
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    throw SerializeError("svc: orbit payload length exceeds message");
  }
  m.payload.resize(n);
  r.raw(m.payload.data(), n);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const OrbitPut& m) {
  WireWriter w;
  w.u64(m.key.hi);
  w.u64(m.key.lo);
  w.u64(m.payload.size());
  w.raw(m.payload.data(), m.payload.size());
  return w.take();
}

OrbitPut decode_orbit_put(std::span<const std::uint8_t> p) {
  WireReader r(p);
  OrbitPut m;
  m.key.hi = r.u64();
  m.key.lo = r.u64();
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    throw SerializeError("svc: orbit payload length exceeds message");
  }
  m.payload.resize(n);
  r.raw(m.payload.data(), n);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode(const OrbitPutReply& m) {
  WireWriter w;
  w.u8(m.accepted ? 1 : 0);
  return w.take();
}

OrbitPutReply decode_orbit_put_reply(std::span<const std::uint8_t> p) {
  WireReader r(p);
  OrbitPutReply m;
  m.accepted = read_bool(r, "orbit-put accepted") != 0;
  r.expect_end();
  return m;
}

}  // namespace rvt::svc

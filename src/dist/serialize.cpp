#include "dist/serialize.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "util/failpoint.hpp"

static_assert(std::endian::native == std::endian::little,
              "wire codec assumes a little-endian host");

namespace rvt::dist {

namespace {

/// 32-byte frame header. Raw-copied — keep trivially copyable and
/// padding-free.
struct WireHeader {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t kind = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  std::uint64_t reserved = 0;
};
static_assert(sizeof(WireHeader) == 32);

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

void WireWriter::u16(std::uint16_t v) { raw(&v, sizeof(v)); }
void WireWriter::u32(std::uint32_t v) { raw(&v, sizeof(v)); }
void WireWriter::u64(std::uint64_t v) { raw(&v, sizeof(v)); }

void WireWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  bytes_.insert(bytes_.end(), b, b + n);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

std::uint8_t WireReader::u8() {
  std::uint8_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint16_t WireReader::u16() {
  std::uint16_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint32_t WireReader::u32() {
  std::uint32_t v;
  raw(&v, sizeof(v));
  return v;
}
std::uint64_t WireReader::u64() {
  std::uint64_t v;
  raw(&v, sizeof(v));
  return v;
}

void WireReader::raw(void* p, std::size_t n) {
  if (n > b_.size() - pos_) {
    throw SerializeError("wire: read past end of payload");
  }
  // Zero-length reads are legal (empty arrays) and may come with null
  // pointers, which memcpy must never see.
  if (n == 0) return;
  std::memcpy(p, b_.data() + pos_, n);
  pos_ += n;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > b_.size() - pos_) {
    throw SerializeError("wire: string length past end of payload");
  }
  std::string s(reinterpret_cast<const char*>(b_.data() + pos_), n);
  pos_ += n;
  return s;
}

void WireReader::expect_end() const {
  if (pos_ != b_.size()) {
    throw SerializeError("wire: trailing bytes after payload");
  }
}

std::vector<std::uint8_t> frame_payload(
    WireKind kind, std::span<const std::uint8_t> payload) {
  WireHeader h;
  h.magic = kWireMagic;
  h.version = kWireVersion;
  h.kind = static_cast<std::uint16_t>(kind);
  h.payload_bytes = payload.size();
  h.payload_checksum = fnv1a64(payload);
  std::vector<std::uint8_t> out(sizeof(WireHeader) + payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  if (!payload.empty()) {
    // Empty payloads are legal frames (several service-tier messages are
    // header-only) and an empty span's data() may be null.
    std::memcpy(out.data() + sizeof(h), payload.data(), payload.size());
  }
  return out;
}

FrameInfo validate_frame_header(std::span<const std::uint8_t> header) {
  static_assert(sizeof(WireHeader) == kWireFrameBytes);
  if (header.size() < sizeof(WireHeader)) {
    throw SerializeError("wire: file shorter than header");
  }
  WireHeader h;
  std::memcpy(&h, header.data(), sizeof(h));
  if (h.magic != kWireMagic) {
    throw SerializeError("wire: bad magic");
  }
  if (h.version != kWireVersion) {
    throw WireVersionError("wire: format version " +
                           std::to_string(h.version) +
                           " (this build speaks " +
                           std::to_string(kWireVersion) + ")");
  }
  if (h.reserved != 0) {
    throw SerializeError("wire: reserved header bytes set");
  }
  if (h.payload_bytes > kMaxWirePayloadBytes) {
    throw SerializeError("wire: payload length " +
                         std::to_string(h.payload_bytes) +
                         " exceeds the " +
                         std::to_string(kMaxWirePayloadBytes) +
                         "-byte limit");
  }
  return {static_cast<WireKind>(h.kind), h.payload_bytes,
          h.payload_checksum};
}

std::span<const std::uint8_t> unframe_payload(
    WireKind kind, std::span<const std::uint8_t> file) {
  if (util::failpoint_error("wire.unframe")) {
    throw SerializeError("wire: injected frame-decode fault (wire.unframe)");
  }
  const FrameInfo info = validate_frame_header(file);
  if (info.kind != kind) {
    throw SerializeError("wire: wrong payload kind");
  }
  if (info.payload_bytes != file.size() - kWireFrameBytes) {
    throw SerializeError("wire: payload length mismatch (truncated file?)");
  }
  const std::span<const std::uint8_t> payload =
      file.subspan(kWireFrameBytes);
  if (fnv1a64(payload) != info.payload_checksum) {
    throw SerializeError("wire: payload checksum mismatch");
  }
  return payload;
}

// ---- OrbitSet codec -------------------------------------------------------

std::vector<std::uint8_t> serialize_orbit_set(
    const sim::CompiledConfigEngine::OrbitSet& set) {
  using Orbit = sim::CompiledConfigEngine::Orbit;
  WireWriter w;
  const std::size_t n = set.orbits.size();
  w.u32(static_cast<std::uint32_t>(n));
  w.raw(set.has_orbit.data(), set.has_orbit.size());
  // Per-orbit headers, then the three payload streams back to back, each
  // the present orbits' vectors in start order.
  std::uint64_t nodes = 0, ports = 0, visits = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!set.has_orbit[s]) continue;
    const Orbit& o = set.orbits[s];
    w.u64(o.mu);
    w.u64(o.lambda);
    w.u64(o.sn_mu);
    w.u32(o.cycle_root);
    w.u64(o.cycle_phase);
    w.u32(static_cast<std::uint32_t>(o.node.size()));
    w.u32(static_cast<std::uint32_t>(o.in_port.size()));
    w.u32(static_cast<std::uint32_t>(o.first_visit.size()));
    nodes += o.node.size();
    ports += o.in_port.size();
    visits += o.first_visit.size();
  }
  w.u64(nodes);
  w.u64(ports);
  w.u64(visits);
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].node.data(),
            set.orbits[s].node.size() * sizeof(tree::NodeId));
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].in_port.data(),
            set.orbits[s].in_port.size() * sizeof(std::int16_t));
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (set.has_orbit[s]) {
      w.raw(set.orbits[s].first_visit.data(),
            set.orbits[s].first_visit.size() * sizeof(std::uint32_t));
    }
  }
  w.u32(static_cast<std::uint32_t>(set.collisions.size()));
  for (const auto& p : set.collisions) {
    w.u32(p.root_a);
    w.u32(p.root_b);
    w.u32(static_cast<std::uint32_t>(p.table.size()));
    w.raw(p.table.data(), p.table.size());
  }
  w.u8(set.collision_index.empty() ? 0 : 1);
  if (!set.collision_index.empty()) {
    w.u64(set.collision_index.size());
    w.raw(set.collision_index.data(),
          set.collision_index.size() * sizeof(std::int32_t));
  }
  return w.take();
}

std::shared_ptr<const sim::CompiledConfigEngine::OrbitSet>
deserialize_orbit_set(std::span<const std::uint8_t> payload) {
  using Orbit = sim::CompiledConfigEngine::Orbit;
  using OrbitSet = sim::CompiledConfigEngine::OrbitSet;
  WireReader r(payload);
  auto set = std::make_shared<OrbitSet>();
  const std::uint32_t n = r.u32();
  // Bound every size field against the bytes actually present BEFORE
  // allocating from it: a forged count must throw SerializeError here,
  // not length_error/bad_alloc out of a resize (NetOrbitStore::load turns
  // SerializeError into a miss; anything else would escape the loader).
  if (n > r.remaining()) {
    throw SerializeError("orbit set: orbit count exceeds payload");
  }
  set->orbits.resize(n);
  set->has_orbit.resize(n);
  r.raw(set->has_orbit.data(), n);
  for (const std::uint8_t h : set->has_orbit) {
    if (h > 1) throw SerializeError("orbit set: has_orbit flag not 0/1");
  }
  struct Sizes {
    std::uint32_t node, port, visit;
  };
  std::vector<Sizes> sizes(n, {0, 0, 0});
  std::uint64_t nodes = 0, ports = 0, visits = 0;
  std::size_t bytes = sizeof(OrbitSet) + n * (sizeof(Orbit) + 1);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    Orbit& o = set->orbits[s];
    o.mu = r.u64();
    o.lambda = r.u64();
    o.sn_mu = r.u64();
    o.cycle_root = r.u32();
    o.cycle_phase = r.u64();
    sizes[s] = {r.u32(), r.u32(), r.u32()};
    // The rho shape every producer writes: node/in_port hold the tail
    // plus one cycle (mu + lambda entries, mu >= 1 — the initial
    // configuration cannot recur); a violated invariant means a corrupt
    // or forged payload, which must not reach the verdict loops. The
    // mu check is phrased subtraction-side so a forged mu near 2^64
    // cannot wrap `mu + lambda` back into range.
    if (o.lambda == 0 || o.mu == 0 || sizes[s].node < o.lambda ||
        o.mu != sizes[s].node - o.lambda ||
        sizes[s].port != sizes[s].node || sizes[s].visit != n ||
        o.sn_mu > o.mu || o.cycle_root >= n || o.cycle_phase >= o.lambda) {
      throw SerializeError("orbit set: inconsistent orbit header");
    }
    nodes += sizes[s].node;
    ports += sizes[s].port;
    visits += sizes[s].visit;
  }
  if (nodes != r.u64() || ports != r.u64() || visits != r.u64()) {
    throw SerializeError("orbit set: stream totals disagree with headers");
  }
  if (nodes * sizeof(tree::NodeId) > r.remaining() ||
      ports * sizeof(std::int16_t) > r.remaining() ||
      visits * sizeof(std::uint32_t) > r.remaining()) {
    throw SerializeError("orbit set: stream sizes exceed payload");
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    auto& node = set->orbits[s].node;
    node.resize(sizes[s].node);
    r.raw(node.data(), node.size() * sizeof(tree::NodeId));
    for (const tree::NodeId v : node) {
      if (v < 0 || static_cast<std::uint32_t>(v) >= n) {
        throw SerializeError("orbit set: node id out of range");
      }
    }
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    auto& port = set->orbits[s].in_port;
    port.resize(sizes[s].port);
    r.raw(port.data(), port.size() * sizeof(std::int16_t));
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!set->has_orbit[s]) continue;
    auto& visit = set->orbits[s].first_visit;
    visit.resize(sizes[s].visit);
    r.raw(visit.data(), visit.size() * sizeof(std::uint32_t));
  }
  bytes += nodes * sizeof(tree::NodeId) + ports * sizeof(std::int16_t) +
           visits * sizeof(std::uint32_t);
  const std::uint32_t pairs = r.u32();
  if (static_cast<std::uint64_t>(pairs) * 12 > r.remaining()) {
    throw SerializeError("orbit set: collision count exceeds payload");
  }
  set->collisions.resize(pairs);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto& p = set->collisions[i];
    p.root_a = r.u32();
    p.root_b = r.u32();
    if (p.root_a >= n || p.root_b >= n) {
      throw SerializeError("orbit set: collision root out of range");
    }
    const std::uint32_t len = r.u32();
    p.table.resize(len);
    r.raw(p.table.data(), len);
    bytes += sizeof(sim::CompiledConfigEngine::CyclePair) + len;
  }
  if (r.u8() != 0) {
    const std::uint64_t entries = r.u64();
    if (entries != static_cast<std::uint64_t>(n) * n ||
        entries * sizeof(std::int32_t) > r.remaining()) {
      throw SerializeError("orbit set: collision index size mismatch");
    }
    set->collision_index.resize(entries);
    r.raw(set->collision_index.data(), entries * sizeof(std::int32_t));
    for (const std::int32_t idx : set->collision_index) {
      if (idx < -1 || idx >= static_cast<std::int32_t>(pairs)) {
        throw SerializeError("orbit set: collision index out of range");
      }
    }
    bytes += entries * sizeof(std::int32_t);
  }
  r.expect_end();
  set->bytes = bytes;
  return set;
}

// ---- file helpers ---------------------------------------------------------

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Unique temp name in the TARGET directory (rename is only atomic
  // within one filesystem); pid + address salt keeps concurrent writers
  // of one key from clobbering each other's temp file.
  char salt[48];
  std::snprintf(salt, sizeof(salt), ".tmp.%d.%p", static_cast<int>(getpid()),
                static_cast<const void*>(bytes.data()));
  const std::string tmp = path + salt;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  is.seekg(0, std::ios::end);
  const std::streamoff len = is.tellg();
  if (len < 0) return std::nullopt;
  is.seekg(0, std::ios::beg);
  bytes.resize(static_cast<std::size_t>(len));
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!is.good() && !is.eof()) return std::nullopt;
  if (is.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return std::nullopt;
  }
  return bytes;
}

// ---- formatting -----------------------------------------------------------

std::string hex128(std::uint64_t hi, std::uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

}  // namespace rvt::dist

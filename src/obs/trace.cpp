#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "dist/serialize.hpp"
#include "util/bench_report.hpp"

namespace rvt::obs {

namespace {

struct ThreadBuffer {
  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> head{0};  ///< total events ever pushed
  std::uint64_t flushed = 0;           ///< consumed by flush(); its lock
  std::uint16_t tid = 0;

  ThreadBuffer() : ring(kRingCapacity) {}

  void push(const TraceEvent& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    ring[h % kRingCapacity] = ev;
    head.store(h + 1, std::memory_order_release);
  }
};

struct TraceState {
  std::mutex mu;  ///< guards threads/names/path and serializes flush()
  std::vector<std::shared_ptr<ThreadBuffer>> threads;
  std::vector<std::string> names;
  std::map<std::string, std::uint32_t> name_ids;
  std::string path;
  std::atomic<std::uint64_t> campaign{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceState& state() {
  static TraceState s;
  return s;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    b->tid = static_cast<std::uint16_t>(s.threads.size());
    s.threads.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

std::uint32_t intern(const std::string& name) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.name_ids.find(name);
  if (it != s.name_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.names.size());
  s.names.push_back(name);
  s.name_ids.emplace(name, id);
  return id;
}

void record_span(std::uint32_t name_id, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  ThreadBuffer& buf = thread_buffer();
  TraceEvent ev;
  ev.ts_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ev.a = a;
  ev.b = b;
  ev.name_id = name_id;
  ev.tid = buf.tid;
  ev.kind = EventKind::kSpan;
  buf.push(ev);
}

void record_instant(std::uint32_t name_id, std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  ThreadBuffer& buf = thread_buffer();
  TraceEvent ev;
  ev.ts_ns = now_ns();
  ev.a = a;
  ev.b = b;
  ev.name_id = name_id;
  ev.tid = buf.tid;
  ev.kind = EventKind::kInstant;
  buf.push(ev);
}

void set_campaign_id(std::uint64_t id) {
  state().campaign.store(id, std::memory_order_relaxed);
}

std::uint64_t campaign_id() {
  return state().campaign.load(std::memory_order_relaxed);
}

void set_trace_path(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = path;
}

std::string trace_path() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

void configure_from_env() {
  const char* path = std::getenv("RVT_TRACE_FILE");
  if (path == nullptr || path[0] == '\0') return;
  set_trace_path(path);
  set_enabled(true);
}

std::uint64_t dropped_events() {
  return state().dropped.load(std::memory_order_relaxed);
}

std::uint64_t flush() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return 0;

  std::vector<TraceEvent> events;
  for (const auto& buf : s.threads) {
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    std::uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
    if (start < buf->flushed) start = buf->flushed;
    if (start > buf->flushed) {
      s.dropped.fetch_add(start - buf->flushed, std::memory_order_relaxed);
    }
    for (std::uint64_t i = start; i < head; ++i) {
      events.push_back(buf->ring[i % kRingCapacity]);
    }
    buf->flushed = head;
  }
  if (events.empty()) return 0;

  dist::WireWriter w;
  w.u64(s.campaign.load(std::memory_order_relaxed));
  w.u64(s.dropped.load(std::memory_order_relaxed));
  w.u32(static_cast<std::uint32_t>(s.names.size()));
  for (const std::string& name : s.names) w.str(name);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const TraceEvent& ev : events) {
    w.u64(ev.ts_ns);
    w.u64(ev.dur_ns);
    w.u64(ev.a);
    w.u64(ev.b);
    w.u32(ev.name_id);
    w.u16(ev.tid);
    w.u8(static_cast<std::uint8_t>(ev.kind));
  }
  const std::vector<std::uint8_t> frame =
      dist::frame_payload(dist::WireKind::kTraceChunk, w.bytes());

  std::ofstream os(s.path, std::ios::binary | std::ios::app);
  os.write(reinterpret_cast<const char*>(frame.data()),
           static_cast<std::streamsize>(frame.size()));
  os.flush();
  if (!os.good()) return 0;  // best-effort: a failed flush loses the batch
  return frame.size();
}

namespace {

TraceChunk decode_chunk(std::span<const std::uint8_t> payload) {
  dist::WireReader r(payload);
  TraceChunk c;
  c.campaign_id = r.u64();
  c.dropped = r.u64();
  const std::uint32_t names = r.u32();
  c.names.reserve(names);
  for (std::uint32_t i = 0; i < names; ++i) c.names.push_back(r.str());
  const std::uint32_t count = r.u32();
  c.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TraceEvent ev;
    ev.ts_ns = r.u64();
    ev.dur_ns = r.u64();
    ev.a = r.u64();
    ev.b = r.u64();
    ev.name_id = r.u32();
    ev.tid = r.u16();
    ev.kind = static_cast<EventKind>(r.u8());
    c.events.push_back(ev);
  }
  r.expect_end();
  return c;
}

}  // namespace

TraceFile read_trace_file(const std::string& path) {
  TraceFile out;
  const auto bytes = dist::read_file(path);
  if (!bytes.has_value()) return out;
  const std::span<const std::uint8_t> file(*bytes);
  std::size_t offset = 0;
  while (offset < file.size()) {
    // Anything that fails to decode from here on is the torn tail a
    // crashed appender left behind: truncate, exactly like a journal.
    const std::size_t left = file.size() - offset;
    if (left < dist::kWireFrameBytes) break;
    dist::FrameInfo info;
    try {
      info = dist::validate_frame_header(
          file.subspan(offset, dist::kWireFrameBytes));
    } catch (const dist::SerializeError&) {
      break;
    }
    if (info.kind != dist::WireKind::kTraceChunk) break;
    if (left - dist::kWireFrameBytes < info.payload_bytes) break;
    const auto payload =
        file.subspan(offset + dist::kWireFrameBytes,
                     static_cast<std::size_t>(info.payload_bytes));
    if (dist::fnv1a64(payload) != info.payload_checksum) break;
    try {
      out.chunks.push_back(decode_chunk(payload));
    } catch (const dist::SerializeError&) {
      break;
    }
    offset += dist::kWireFrameBytes +
              static_cast<std::size_t>(info.payload_bytes);
  }
  out.truncated_bytes = file.size() - offset;
  return out;
}

namespace {

std::string format_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

std::string export_chrome_trace(const TraceFile& trace) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceChunk& chunk : trace.chunks) {
    for (const TraceEvent& ev : chunk.events) {
      const std::string name = ev.name_id < chunk.names.size()
                                   ? chunk.names[ev.name_id]
                                   : "name#" + std::to_string(ev.name_id);
      os << (first ? "\n" : ",\n");
      first = false;
      os << "  {\"name\": " << util::json_quote(name)
         << ", \"cat\": \"rvt\", \"ph\": \""
         << (ev.kind == EventKind::kSpan ? "X" : "i") << "\", \"ts\": "
         << format_us(ev.ts_ns);
      if (ev.kind == EventKind::kSpan) {
        os << ", \"dur\": " << format_us(ev.dur_ns);
      } else {
        os << ", \"s\": \"t\"";
      }
      os << ", \"pid\": " << chunk.campaign_id << ", \"tid\": " << ev.tid
         << ", \"args\": {\"a\": " << ev.a << ", \"b\": " << ev.b << "}}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

bool validate_chrome_trace(const std::string& json, std::string* err) {
  const auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  const std::size_t key = json.find("\"traceEvents\"");
  if (key == std::string::npos) return fail("no traceEvents key");
  std::size_t pos = json.find('[', key);
  if (pos == std::string::npos) return fail("traceEvents is not an array");
  ++pos;
  std::size_t events = 0;
  while (true) {
    while (pos < json.size() &&
           (json[pos] == ' ' || json[pos] == '\n' || json[pos] == '\r' ||
            json[pos] == '\t' || json[pos] == ',')) {
      ++pos;
    }
    if (pos >= json.size()) return fail("unterminated traceEvents array");
    if (json[pos] == ']') break;
    if (json[pos] != '{') return fail("traceEvents element is not an object");
    // Scan the balanced object, skipping strings (with escapes).
    const std::size_t obj_start = pos;
    int depth = 0;
    bool in_string = false;
    for (; pos < json.size(); ++pos) {
      const char c = json[pos];
      if (in_string) {
        if (c == '\\') {
          ++pos;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          ++pos;
          break;
        }
      }
    }
    if (depth != 0) return fail("unbalanced event object");
    const std::string obj = json.substr(obj_start, pos - obj_start);
    for (const char* required : {"\"name\"", "\"ph\"", "\"ts\"", "\"pid\""}) {
      if (obj.find(required) == std::string::npos) {
        return fail("event " + std::to_string(events) + " missing " +
                    required);
      }
    }
    ++events;
  }
  if (events == 0) return fail("traceEvents array is empty");
  if (err != nullptr) err->clear();
  return true;
}

}  // namespace rvt::obs

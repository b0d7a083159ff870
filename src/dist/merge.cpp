#include "dist/merge.hpp"

#include <algorithm>

namespace rvt::dist {

namespace {

/// The shard's journal, or nullopt when it is missing. An unusable
/// preamble is terminal for a healthy shard (rethrown); for a quarantined
/// one it is just another face of "missing".
std::optional<JournalState> read_shard_journal(const std::string& path,
                                               bool quarantined) {
  try {
    return read_journal(path);
  } catch (const SerializeError&) {
    if (!quarantined) throw;
    return std::nullopt;
  }
}

/// True iff the journal's header names this shard of this plan.
bool bound_to(const JournalState& state, const ShardSpec& spec,
              const ShardPlan& plan) {
  return state.header.shard_id == spec.id &&
         state.header.fingerprint == plan.fingerprint &&
         state.header.begin == spec.begin && state.header.end == spec.end;
}

}  // namespace

void write_quarantine_manifest(const std::string& path,
                               const QuarantineManifest& m) {
  WireWriter w;
  w.u64(m.fingerprint.hi);
  w.u64(m.fingerprint.lo);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const QuarantineEntry& e : m.entries) {
    w.u64(e.begin);
    w.u64(e.end);
    w.u64(e.shard_id.hi);
    w.u64(e.shard_id.lo);
    w.str(e.diagnostics);
  }
  const auto framed = frame_payload(WireKind::kQuarantine, w.bytes());
  if (!write_file_atomic(path, framed)) {
    throw SerializeError("quarantine: cannot write " + path);
  }
}

QuarantineManifest load_quarantine_manifest(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    throw SerializeError("quarantine: cannot read " + path);
  }
  WireReader r(unframe_payload(WireKind::kQuarantine, *bytes));
  QuarantineManifest m;
  m.fingerprint.hi = r.u64();
  m.fingerprint.lo = r.u64();
  const std::uint32_t count = r.u32();
  m.entries.reserve(count);
  std::uint64_t prev_end = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    QuarantineEntry e;
    e.begin = r.u64();
    e.end = r.u64();
    e.shard_id.hi = r.u64();
    e.shard_id.lo = r.u64();
    e.diagnostics = r.str();
    if (e.begin >= e.end || (i > 0 && e.begin < prev_end)) {
      throw SerializeError(
          "quarantine: entries must be ascending non-overlapping ranges");
    }
    prev_end = e.end;
    m.entries.push_back(std::move(e));
  }
  r.expect_end();
  return m;
}

MergeResult merge_journals(const ShardPlan& plan,
                           const std::string& journal_dir,
                           const QuarantineManifest* quarantine) {
  if (quarantine != nullptr) {
    if (!(quarantine->fingerprint == plan.fingerprint)) {
      throw SerializeError(
          "merge: quarantine manifest belongs to a different plan "
          "(fingerprint mismatch)");
    }
    for (const QuarantineEntry& e : quarantine->entries) {
      const bool known = std::any_of(
          plan.shards.begin(), plan.shards.end(), [&](const ShardSpec& s) {
            return s.id == e.shard_id && s.begin == e.begin && s.end == e.end;
          });
      if (!known) {
        throw SerializeError("merge: quarantine entry [" +
                             std::to_string(e.begin) + ", " +
                             std::to_string(e.end) +
                             ") names no shard of this plan");
      }
    }
  }
  const auto quarantined = [&](const ShardSpec& spec) {
    if (quarantine == nullptr) return false;
    return std::any_of(quarantine->entries.begin(), quarantine->entries.end(),
                       [&](const QuarantineEntry& e) {
                         return e.shard_id == spec.id;
                       });
  };

  MergeResult out;
  out.indices = plan.count;
  for (const ShardSpec& spec : plan.shards) {
    const std::string path = journal_path(journal_dir, spec);
    const bool is_quarantined = quarantined(spec);
    const std::optional<JournalState> state =
        read_shard_journal(path, is_quarantined);
    const bool sealed =
        state.has_value() && state->complete && bound_to(*state, spec, plan);
    if (!sealed && is_quarantined) {
      out.missing.emplace_back(spec.begin, spec.end);
      continue;
    }
    if (!state.has_value()) {
      throw SerializeError("merge: missing journal " + path);
    }
    if (!bound_to(*state, spec, plan)) {
      throw SerializeError("merge: journal " + path +
                           " is bound to a different shard or plan");
    }
    if (!state->complete) {
      throw SerializeError(
          "merge: journal " + path +
          " is not sealed (shard incomplete — rerun `shard run`)");
    }
    ShardSummary s;
    s.spec = spec;
    s.sum = state->sum;
    s.indices = spec.end - spec.begin;
    s.path = path;
    out.total += s.sum;
    out.covered += s.indices;
    out.shards.push_back(std::move(s));
  }
  return out;
}

}  // namespace rvt::dist

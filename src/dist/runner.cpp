#include "dist/runner.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "obs/trace.hpp"

namespace rvt::dist {

namespace {

/// The satellite `--progress-interval-ms` line: one structured stderr
/// line an operator (or a log scraper) can follow mid-shard.
void emit_progress(std::size_t shard_index, std::uint64_t committed,
                   const obs::EnumDelayStats& d) {
  std::fprintf(stderr,
               "progress shard=%zu committed=%llu survivors=%llu "
               "inter_result_delay_p50_ms=%.3f inter_result_delay_p99_ms="
               "%.3f\n",
               shard_index, static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(d.survivors),
               d.delay_quantile_ms(0.50), d.delay_quantile_ms(0.99));
}

}  // namespace

ShardRunStats run_shard(const EnumWorkload& w, const ShardPlan& plan,
                        std::size_t shard_index,
                        const std::string& journal_dir,
                        sim::OrbitCache* cache,
                        const ShardRunOptions& options) {
  if (shard_index >= plan.shards.size()) {
    throw std::invalid_argument("run_shard: shard index out of range");
  }
  if (!(plan.fingerprint == workload_fingerprint(w))) {
    throw std::invalid_argument(
        "run_shard: plan fingerprint does not match the workload (different "
        "battery, spec, or code schema version)");
  }
  const ShardSpec& spec = plan.shards[shard_index];
  std::error_code ec;
  std::filesystem::create_directories(journal_dir, ec);
  if (ec) {
    throw SerializeError("run_shard: cannot create journal dir " +
                         journal_dir + ": " + ec.message());
  }
  const std::string path = journal_path(journal_dir, spec);
  JournalHeader header;
  header.shard_id = spec.id;
  header.fingerprint = plan.fingerprint;
  header.begin = spec.begin;
  header.end = spec.end;

  ShardRunStats stats;
  std::optional<JournalState> state;
  try {
    state = read_journal(path);
  } catch (const SerializeError&) {
    state.reset();  // unusable preamble: recreate from scratch
  }
  if (state.has_value() &&
      (!(state->header.shard_id == header.shard_id) ||
       !(state->header.fingerprint == header.fingerprint) ||
       state->header.begin != header.begin ||
       state->header.end != header.end)) {
    // A journal for a DIFFERENT shard under this shard's filename: the
    // content addressing makes that a deliberate overwrite or a foreign
    // artifact — start over rather than splice foreign records.
    state.reset();
  }
  if (state.has_value() && state->complete) {
    stats.already_complete = true;
    stats.committed_before = spec.end - spec.begin;
    stats.sum = state->sum;
    return stats;
  }

  JournalWriter writer =
      state.has_value() ? JournalWriter::resume(path, header, *state)
                        : JournalWriter::create(path, header);
  stats.committed_before = writer.next_index() - spec.begin;

  sim::EnumerationContext ctx(w.grids(), w.max_rounds(), cache);
  RVT_OBS_SPAN("dist.run_shard", shard_index,
               spec.end - writer.next_index());
  obs::EnumDelayTracker delay;
  const std::uint64_t progress_interval_ns =
      options.progress_interval_ms * 1'000'000;
  std::uint64_t next_progress_ns =
      progress_interval_ns == 0 ? UINT64_MAX
                                : delay.start_ns() + progress_interval_ns;
  for (std::uint64_t i = writer.next_index(); i < spec.end; ++i) {
    const std::uint64_t v = w.defeats(ctx, i);
    writer.record(i, v);
    delay.note_result(v);
    ++stats.computed;
    if (progress_interval_ns != 0 && obs::now_ns() >= next_progress_ns) {
      emit_progress(shard_index, (i + 1) - spec.begin, delay.stats());
      next_progress_ns = obs::now_ns() + progress_interval_ns;
    }
  }
  writer.finish(writer.sum());
  stats.sum = writer.sum();
  stats.telemetry = ctx.telemetry();
  stats.delay = delay.finish();
  return stats;
}

}  // namespace rvt::dist

#include "svc/coordinator.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bench_report.hpp"

namespace rvt::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t,
                     std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - t).count();
}

}  // namespace

std::string service_json(const ServiceReport& r,
                         const std::string& workload_spec) {
  std::string j = "{\n";
  const auto u64 = [&](const char* key, std::uint64_t v, bool comma = true) {
    j += std::string("  \"") + key + "\": " + std::to_string(v) +
         (comma ? ",\n" : "\n");
  };
  const auto dbl = [&](const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    j += std::string("  \"") + key + "\": " + buf + ",\n";
  };
  j += "  \"kind\": \"service_metrics\",\n";
  j += "  \"workload\": " + util::json_quote(workload_spec) + ",\n";
  u64("shards_total", r.shards_total);
  u64("shards_completed", r.shards_completed);
  u64("shards_leased", r.shards_leased);
  u64("shards_pending", r.shards_pending);
  u64("shards_requeued", r.shards_requeued);
  u64("shards_quarantined", r.shards_quarantined);
  u64("leases_granted", r.leases_granted);
  u64("lease_expiries", r.lease_expiries);
  u64("runners_seen", r.runners_seen);
  u64("total_indices", r.total_indices);
  u64("committed_indices", r.committed_indices);
  u64("committed_defeats", r.committed_defeats);
  u64("journal_bytes_streamed", r.journal_bytes_streamed);
  u64("cache_tier_gets", r.tier_gets);
  u64("cache_tier_hits", r.tier_hits);
  u64("recovery_resumed", r.resumed);
  u64("recovery_ledger_epoch", r.ledger_epoch);
  u64("recovery_ledger_records_replayed", r.ledger_records_replayed);
  u64("recovery_ledger_records_appended", r.ledger_records_appended);
  u64("recovery_ledger_torn_bytes_truncated", r.ledger_torn_bytes_truncated);
  u64("recovery_leases_regranted", r.leases_regranted);
  u64("recovery_stale_tokens_fenced", r.stale_tokens_fenced);
  u64("recovery_worker_reconnects", r.worker_reconnects);
  dbl("uptime_seconds", r.uptime_seconds);
  dbl("shards_per_second", r.shards_per_second);
  dbl("time_to_first_record_seconds", r.time_to_first_record_seconds);
  dbl("time_to_first_sealed_shard_seconds",
      r.time_to_first_sealed_shard_seconds);
  u64("uptime_ms", r.uptime_ms);
  u64("campaign_id", r.campaign_id);
  u64("survivors", r.delay.survivors);
  dbl("survivors_per_second", r.delay.survivors_per_second());
  dbl("time_to_first_survivor_ms",
      r.delay.time_to_first_survivor_ns < 0
          ? -1.0
          : static_cast<double>(r.delay.time_to_first_survivor_ns) / 1e6);
  dbl("inter_result_delay_p50_ms", r.delay.delay_quantile_ms(0.50));
  dbl("inter_result_delay_p99_ms", r.delay.delay_quantile_ms(0.99));
  j += "  \"last_journal_growth_ms\": [";
  for (std::size_t i = 0; i < r.last_journal_growth_ms.size(); ++i) {
    j += std::string(i == 0 ? "" : ", ") +
         std::to_string(r.last_journal_growth_ms[i]);
  }
  j += "],\n";
  j += "  \"runners\": [";
  for (std::size_t i = 0; i < r.runners.size(); ++i) {
    const RunnerHealth& h = r.runners[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", h.last_heartbeat_age_seconds);
    j += std::string(i == 0 ? "\n" : ",\n") + "    {\"name\": " +
         util::json_quote(h.name) + ", \"role\": " + util::json_quote(h.role) +
         ", \"connected\": " + (h.connected ? "true" : "false") +
         ", \"last_heartbeat_age_seconds\": " + buf +
         ", \"shards_sealed\": " + std::to_string(h.shards_sealed) +
         ", \"records_streamed\": " + std::to_string(h.records_streamed) +
         "}";
  }
  j += r.runners.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

std::string service_prometheus(const ServiceReport& r) {
  std::string t;
  const auto counter = [&](const char* name, std::uint64_t v) {
    t += std::string("# TYPE ") + name + " counter\n";
    t += std::string(name) + " " + std::to_string(v) + "\n";
  };
  const auto gauge = [&](const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    t += std::string("# TYPE ") + name + " gauge\n";
    t += std::string(name) + " " + buf + "\n";
  };
  gauge("rvt_uptime_ms", static_cast<double>(r.uptime_ms));
  counter("rvt_campaign_id", r.campaign_id);
  gauge("rvt_shards_total", static_cast<double>(r.shards_total));
  gauge("rvt_shards_completed", static_cast<double>(r.shards_completed));
  gauge("rvt_shards_leased", static_cast<double>(r.shards_leased));
  gauge("rvt_shards_pending", static_cast<double>(r.shards_pending));
  counter("rvt_shards_requeued", r.shards_requeued);
  counter("rvt_shards_quarantined", r.shards_quarantined);
  counter("rvt_leases_granted", r.leases_granted);
  counter("rvt_lease_expiries", r.lease_expiries);
  counter("rvt_runners_seen", r.runners_seen);
  counter("rvt_committed_indices", r.committed_indices);
  counter("rvt_committed_defeats", r.committed_defeats);
  counter("rvt_journal_bytes_streamed", r.journal_bytes_streamed);
  counter("rvt_recovery_resumes", r.resumed);
  counter("rvt_recovery_ledger_records_replayed", r.ledger_records_replayed);
  counter("rvt_recovery_leases_regranted", r.leases_regranted);
  counter("rvt_recovery_stale_tokens_fenced", r.stale_tokens_fenced);
  counter("rvt_recovery_worker_reconnects", r.worker_reconnects);
  counter("rvt_survivors", r.delay.survivors);
  gauge("rvt_survivors_per_second", r.delay.survivors_per_second());
  gauge("rvt_time_to_first_survivor_ms",
        r.delay.time_to_first_survivor_ns < 0
            ? -1.0
            : static_cast<double>(r.delay.time_to_first_survivor_ns) / 1e6);
  t += obs::prometheus_histogram("rvt_inter_result_delay_ns",
                                 r.delay.inter_result_delay_ns);
  t += "# TYPE rvt_shard_last_journal_growth_ms gauge\n";
  for (std::size_t i = 0; i < r.last_journal_growth_ms.size(); ++i) {
    t += "rvt_shard_last_journal_growth_ms{shard=\"" + std::to_string(i) +
         "\"} " + std::to_string(r.last_journal_growth_ms[i]) + "\n";
  }
  return t;
}

Coordinator::Coordinator(dist::ShardPlan plan, CoordinatorConfig cfg)
    : plan_(std::move(plan)),
      cfg_(std::move(cfg)),
      table_(plan_.shards, cfg_.max_attempts, cfg_.lease_timeout),
      io_(plan_.shards.size()) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.journal_dir, ec);
  if (ec) {
    throw dist::SerializeError("coordinator: cannot create journal dir " +
                               cfg_.journal_dir);
  }
  // The CONTROL authority: with --resume the run ledger is required and
  // replayed; a fresh campaign truncates whatever ledger a previous
  // campaign in this directory left behind.
  const std::string lpath = dist::ledger_path(cfg_.journal_dir);
  const dist::LedgerHeader lhdr{plan_.fingerprint, plan_.shards.size()};
  std::optional<dist::LedgerState> ls;
  if (cfg_.resume) {
    ls = dist::read_ledger(lpath);  // corrupt preamble throws — a refusal
    if (!ls) {
      throw dist::SerializeError(
          "coordinator: --resume needs a run ledger (none at " + lpath + ")");
    }
    if (!(ls->header.fingerprint == plan_.fingerprint) ||
        ls->header.shard_count != plan_.shards.size()) {
      throw dist::SerializeError(
          "coordinator: run ledger belongs to a different campaign "
          "(fingerprint/shard-count mismatch)");
    }
    ledger_torn_bytes_ = ls->file_bytes - ls->valid_bytes;
    // Replay is the live transition function folded over the ledger.
    for (const dist::LedgerRecord& rec : ls->records) {
      table_.apply(rec);
      ++ledger_records_replayed_;
    }
  }
  // Cross-check control against the DATA authority, the journals,
  // refusing disagreement instead of guessing; then adopt each journal's
  // committed prefix. The one tolerated asymmetry — a journal sealed
  // without a ledger seal — is adopt()'s to resolve.
  for (std::size_t i = 0; i < plan_.shards.size(); ++i) {
    const std::optional<dist::JournalState> js = bound_journal(i);
    const LeaseTable::Shard& s = table_.shard(i);
    if (s.phase == ShardPhase::kSealed) {
      if (!js || !js->complete) {
        throw dist::SerializeError(
            "coordinator: ledger records a seal for shard " +
            std::to_string(i) + " but its journal is not sealed on disk");
      }
      if (js->sum != s.sum) {
        throw dist::SerializeError(
            "coordinator: shard " + std::to_string(i) + " sealed sum " +
            std::to_string(js->sum) + " on disk, " + std::to_string(s.sum) +
            " in the ledger");
      }
    }
    if (js) table_.adopt(i, js->next_index, js->sum, js->complete);
  }
  // The running-merge checkpoint can never be ahead of what the
  // journals actually hold — if it is, the data half lost fsynced
  // history (journals are fflushed, not fsynced: a host reboot can do
  // this) and resuming would silently recompute under a lie.
  const dist::LedgerRecord held = table_.next_checkpoint();
  if (const auto& ck = table_.checkpoint();
      ck && (held.a < ck->a || (held.a == ck->a && held.b != ck->b))) {
    throw dist::SerializeError(
        "coordinator: run ledger checkpoint (" + std::to_string(ck->a) +
        " indices, " + std::to_string(ck->b) +
        " defeats) is ahead of the journals (" + std::to_string(held.a) +
        ", " + std::to_string(held.b) +
        ") — journal history was lost; refusing to resume");
  }
  ledger_ = cfg_.resume ? dist::LedgerWriter::resume(lpath, lhdr, *ls)
                        : dist::LedgerWriter::create(lpath, lhdr);
  // Every start opens a new token epoch, durably: tokens granted by ANY
  // earlier incarnation are below its first token, and the leases they
  // held turn interrupted with token 0, so a pre-crash leaseholder's
  // chunks and seals fence.
  commit_locked({table_.next_epoch(), {}}, /*write_ahead=*/true);
  // Campaign/trace id: a deterministic mix of the plan fingerprint, so
  // a resumed coordinator mints the SAME id and spans recorded before
  // and after a crash stitch under one timeline. Never 0 (0 means "no
  // campaign" on the wire).
  campaign_id_ =
      plan_.fingerprint.hi ^ (plan_.fingerprint.lo * 0x9e3779b97f4a7c15ULL);
  if (campaign_id_ == 0) campaign_id_ = 1;
  obs::set_campaign_id(campaign_id_);
  start_ = std::chrono::steady_clock::now();
  listener_ = std::make_unique<net::TcpListener>(cfg_.port);
  metrics_listener_ = std::make_unique<net::TcpListener>(cfg_.metrics_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  metrics_thread_ = std::thread([this] { metrics_loop(); });
  reaper_thread_ = std::thread([this] { reaper_loop(); });
}

std::optional<dist::JournalState> Coordinator::bound_journal(
    std::size_t shard) const {
  const dist::ShardSpec& spec = plan_.shards[shard];
  try {
    auto js = dist::read_journal(dist::journal_path(cfg_.journal_dir, spec));
    if (js && js->header.shard_id == spec.id &&
        js->header.fingerprint == plan_.fingerprint &&
        js->header.begin == spec.begin && js->header.end == spec.end) {
      return js;
    }
  } catch (const dist::SerializeError&) {
    // unusable preamble — recreated on first grant
  }
  return std::nullopt;
}

void Coordinator::commit_locked(const LeaseTable::Step& step,
                                bool write_ahead) {
  try {
    ledger_->append(step.record);
    ++ledger_records_appended_;
  } catch (const dist::SerializeError&) {
    if (write_ahead) throw;  // nothing applied: the decision never happened
  }
  table_.apply(step.record, step.context);
  if (step.record.event == dist::LedgerEvent::kSeal ||
      step.record.event == dist::LedgerEvent::kQuarantine) {
    io_[step.record.a].writer.reset();
  }
  // A grant moves the reaper's next deadline; a requeued shard is
  // grantable and a seal or quarantine may have drained the campaign, so
  // held lease requests can now be answered.
  cv_.notify_all();
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  {
    // Under mu_, so no held request or reaper can test the table between
    // this and its wait and then miss the notify.
    std::lock_guard<std::mutex> lk(mu_);
    table_.stop();
  }
  if (!stop_.exchange(true)) {
    listener_->close();
    metrics_listener_->close();
    cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Joined after the accept loop so no new session can appear.
    std::vector<std::thread> sessions;
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      sessions.swap(sessions_);
    }
    for (std::thread& t : sessions) {
      if (t.joinable()) t.join();
    }
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
}

bool Coordinator::wait_complete(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto pred = [this] { return table_.done() || table_.stopped(); };
  if (timeout == std::chrono::milliseconds::max()) {
    cv_.wait(lk, pred);
  } else {
    cv_.wait_for(lk, timeout, pred);
  }
  return table_.done();
}

std::vector<std::uint8_t> Coordinator::grant_locked(
    const LeaseTable::Step& step) {
  const std::size_t i = static_cast<std::size_t>(step.record.a);
  const dist::ShardSpec& spec = plan_.shards[i];
  std::optional<dist::JournalWriter>& writer = io_[i].writer;
  if (!writer) {
    const std::string path = dist::journal_path(cfg_.journal_dir, spec);
    const dist::JournalHeader hdr{spec.id, plan_.fingerprint, spec.begin,
                                  spec.end};
    const std::optional<dist::JournalState> js = bound_journal(i);
    writer = js && !js->complete ? dist::JournalWriter::resume(path, hdr, *js)
                                 : dist::JournalWriter::create(path, hdr);
  }
  // Write-ahead: the grant (and its fencing token) must be durable
  // BEFORE the reply leaves — a coordinator killed right after sending
  // the grant must replay it, or a resumed incarnation could mint the
  // same token for someone else.
  commit_locked(step, /*write_ahead=*/true);
  LeaseGrant g;
  g.status = LeaseStatus::kGranted;
  g.shard_index = i;
  g.shard_id = spec.id;
  g.begin = spec.begin;
  g.end = spec.end;
  g.next_index = writer->next_index();
  g.resume_sum = writer->sum();
  g.token = step.record.b;
  g.campaign_id = campaign_id_;
  return encode(g);
}

ChunkReply Coordinator::append_chunk_locked(const JournalChunk& chunk,
                                            std::size_t payload_bytes,
                                            std::uint64_t session_id) {
  const std::size_t i = static_cast<std::size_t>(chunk.shard_index);
  ShardIo& io = io_[i];
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t chunk_survivors = 0;
  try {
    for (const JournalRecord& rec : chunk.records) {
      io.writer->record(rec.index, rec.value);
      if (rec.value == 0) ++chunk_survivors;
    }
  } catch (const dist::SerializeError& e) {
    // Out-of-order or unappendable records: this attempt is bad; what
    // the journal took stays committed, the shard requeues.
    table_.progress(i, io.writer->next_index(), io.writer->sum(), now);
    commit_locked(table_.fail(i, std::string("bad chunk: ") + e.what()));
    return ChunkReply{};
  }
  // Journal growth, and nothing else, renews the lease.
  table_.progress(i, io.writer->next_index(), io.writer->sum(), now);
  journal_bytes_streamed_ += payload_bytes;
  runners_[session_id].records_streamed += chunk.records.size();
  // Enumeration-delay observation: the chunk gap, spread evenly over
  // the chunk's records (the coordinator sees batches, not individual
  // results — see ServiceReport).
  if (!chunk.records.empty()) {
    if (!first_record_at_) first_record_at_ = now;
    const std::uint64_t now_off = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
            .count());
    const std::uint64_t per =
        (now_off - io.last_chunk_off_ns) / chunk.records.size();
    for (std::size_t n = 0; n < chunk.records.size(); ++n) {
      io.delay.inter_result_delay_ns.record(per);
    }
    io.delay.results += chunk.records.size();
    if (io.delay.time_to_first_result_ns < 0) {
      io.delay.time_to_first_result_ns = static_cast<std::int64_t>(now_off);
    }
    io.delay.survivors += chunk_survivors;
    if (chunk_survivors > 0 && io.delay.time_to_first_survivor_ns < 0) {
      io.delay.time_to_first_survivor_ns = static_cast<std::int64_t>(now_off);
    }
    io.last_chunk_off_ns = now_off;
  }
  return ChunkReply{true, io.writer->next_index()};
}

SealReply Coordinator::seal_locked(const Seal& seal,
                                   std::uint64_t session_id) {
  const std::size_t i = static_cast<std::size_t>(seal.shard_index);
  std::vector<LeaseTable::Step> steps = table_.seal(i, seal.total);
  if (steps.front().record.event == dist::LedgerEvent::kSeal) {
    try {
      io_[i].writer->finish(seal.total);
    } catch (const dist::SerializeError& e) {
      steps = {table_.fail(i, std::string("seal refused: ") + e.what())};
    }
  }
  // Journal DONE record first (data), then the durable control-state
  // commit + merge checkpoint, then the reply. A crash in between leaves
  // a sealed journal without a ledger seal — the one tolerated
  // asymmetry the resume path adopts from the journal.
  for (const LeaseTable::Step& step : steps) commit_locked(step);
  if (steps.front().record.event != dist::LedgerEvent::kSeal) return {};
  ++runners_[session_id].shards_sealed;
  if (!first_seal_at_) first_seal_at_ = std::chrono::steady_clock::now();
  return SealReply{true};
}

void Coordinator::accept_loop() {
  std::uint64_t next_session = 0;
  while (!stop_.load()) {
    std::unique_ptr<net::TcpStream> s;
    try {
      s = listener_->accept();
    } catch (const net::NetError&) {
      break;
    }
    if (!s) break;
    const std::uint64_t sid = next_session++;
    {
      std::lock_guard<std::mutex> lk(mu_);
      runners_.push_back({"session-" + std::to_string(sid), "?",
                          std::chrono::steady_clock::now(), 0, 0, true});
    }
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions_.emplace_back(
        [this, sid, stream = std::move(s)]() mutable {
          handle_session(std::move(stream), sid);
        });
  }
}

void Coordinator::handle_session(std::unique_ptr<net::TcpStream> stream,
                                 std::uint64_t session_id) {
  stream->set_read_timeout_ms(
      static_cast<unsigned>(cfg_.session_read_timeout.count()));
  std::string name;
  const auto send = [&](dist::WireKind kind,
                        const std::vector<std::uint8_t>& payload) {
    net::send_frame(*stream, kind, payload);
  };
  const auto send_error = [&](ErrorCode code, const std::string& msg) {
    try {
      send(dist::WireKind::kError, encode(ErrorReply{code, msg}));
    } catch (const net::NetError&) {
    }
  };
  // The next frame, or false at EOF. A stopping coordinator stops
  // SERVING, not just accepting: a frame that arrives goes unanswered,
  // exactly as a crash would leave it — so runners experience the
  // restart instead of quietly draining the campaign through a dying
  // process.
  net::Frame f;
  const auto next_frame = [&] {
    for (;;) {
      const net::RecvStatus st = net::recv_frame(*stream, f, true);
      if (stop_.load() || st == net::RecvStatus::kEof) return false;
      if (st == net::RecvStatus::kFrame) return true;
    }
  };
  try {
    // ---- handshake ----
    if (!next_frame()) return;
    if (f.kind != dist::WireKind::kHello) {
      send_error(ErrorCode::kBadRequest, "expected hello");
      return;
    }
    const HelloRequest hello = decode_hello_request(f.payload);
    name = hello.name.empty() ? "session-" + std::to_string(session_id)
                              : hello.name;
    {
      std::lock_guard<std::mutex> lk(mu_);
      runners_[session_id].name = name;
      runners_[session_id].role = hello.role;
      runners_[session_id].reconnects = hello.reconnects;
      runners_[session_id].last_seen = std::chrono::steady_clock::now();
    }
    if (hello.protocol != kServiceProtocolVersion) {
      send_error(ErrorCode::kVersion,
                 "service protocol " + std::to_string(hello.protocol) +
                     " (this coordinator speaks " +
                     std::to_string(kServiceProtocolVersion) + ")");
      return;
    }
    if (hello.role != "worker" && hello.role != "store") {
      send_error(ErrorCode::kRefused, "unknown role '" + hello.role + "'");
      return;
    }
    // A nonzero hello fingerprint is a RE-hello: the runner is already
    // bound to a plan and must not reconnect into a different campaign
    // (a restarted coordinator serving another plan on the same port).
    if ((hello.fingerprint.hi != 0 || hello.fingerprint.lo != 0) &&
        !(hello.fingerprint == plan_.fingerprint)) {
      send_error(ErrorCode::kRefused,
                 "reconnected into a different campaign (plan fingerprint "
                 "mismatch)");
      return;
    }
    HelloReply ack;
    ack.fingerprint = plan_.fingerprint;
    ack.workload_spec = plan_.workload_spec;
    ack.index_count = plan_.count;
    ack.max_rounds = plan_.max_rounds;
    ack.shard_count = plan_.shards.size();
    send(dist::WireKind::kHello, encode(ack));

    // ---- message loop ----
    while (next_frame()) {
      dist::WireKind reply_kind = f.kind;
      std::vector<std::uint8_t> reply;
      {
        std::unique_lock<std::mutex> lk(mu_);
        runners_[session_id].last_seen = std::chrono::steady_clock::now();
        switch (f.kind) {
          case dist::WireKind::kLeaseRequest: {
            // Hold the request while nothing is grantable: a seal,
            // requeue or quarantine notifies cv_, so an idle worker hears
            // its grant or kDrained at once instead of polling. The hold
            // is bounded by session_read_timeout, well inside the
            // worker's read deadline.
            cv_.wait_for(lk, cfg_.session_read_timeout,
                         [this] { return !table_.holds_requests(); });
            const LeaseTable::Request r = table_.request(
                name, session_id, std::chrono::steady_clock::now());
            reply_kind = dist::WireKind::kLeaseGrant;
            if (r.answer == LeaseTable::Answer::kGrant) {
              try {
                reply = grant_locked(r.step);
              } catch (const dist::SerializeError& e) {
                reply_kind = dist::WireKind::kError;
                reply = encode(ErrorReply{
                    ErrorCode::kRefused, std::string("journal: ") + e.what()});
              }
            } else if (r.answer != LeaseTable::Answer::kSilent) {
              // kHold here means the hold ran out: the worker asks again
              // at once (retry_ms stays 0).
              LeaseGrant g;
              g.status = r.answer == LeaseTable::Answer::kDrained
                             ? LeaseStatus::kDrained
                             : LeaseStatus::kWait;
              reply = encode(g);
            }
            break;
          }
          case dist::WireKind::kJournalChunk: {
            const JournalChunk chunk = decode_journal_chunk(f.payload);
            // Refused = stale token: the lease was revoked.
            reply = encode(table_.admit(chunk.shard_index, chunk.token,
                                        session_id, name)
                               ? append_chunk_locked(chunk, f.payload.size(),
                                                     session_id)
                               : ChunkReply{});
            break;
          }
          case dist::WireKind::kSeal: {
            const Seal seal = decode_seal(f.payload);
            reply = encode(
                table_.admit(seal.shard_index, seal.token, session_id, name)
                    ? seal_locked(seal, session_id)
                    : SealReply{});
            break;
          }
          case dist::WireKind::kOrbitGet:
            decode_orbit_get(f.payload);
            ++tier_gets_;
            reply = encode(OrbitGetReply{});  // absent: nothing is stored
            break;
          case dist::WireKind::kOrbitPut:
            decode_orbit_put(f.payload);
            reply = encode(OrbitPutReply{});  // accepted = false: not stored
            break;
          default:
            reply_kind = dist::WireKind::kError;
            reply = encode(
                ErrorReply{ErrorCode::kBadRequest, "unexpected message kind"});
        }
      }
      // An empty reply is a stopping table's silence: as after a crash.
      if (reply.empty()) break;
      send(reply_kind, reply);
    }
  } catch (const dist::WireVersionError& e) {
    send_error(ErrorCode::kVersion, e.what());
  } catch (const dist::SerializeError& e) {
    send_error(ErrorCode::kBadRequest, e.what());
  } catch (const net::NetError&) {
    // broken or stalled transport — treated like a disconnect
  }
  std::lock_guard<std::mutex> lk(mu_);
  runners_[session_id].connected = false;
  for (const LeaseTable::Step& step : table_.disconnect(session_id)) {
    commit_locked(step);
  }
}

void Coordinator::reaper_loop() {
  // No polling: sleep until the earliest lease deadline. A grant that
  // moves it and stop() wake the wait early; a lease renewed since is
  // simply found unexpired and the wait recomputed.
  std::unique_lock<std::mutex> lk(mu_);
  while (!table_.stopped()) {
    const auto deadline = table_.next_deadline();
    const auto moved = [&] {
      return table_.stopped() || table_.next_deadline() != deadline;
    };
    if (deadline) {
      cv_.wait_until(lk, *deadline, moved);
    } else {
      cv_.wait(lk, moved);
    }
    for (const LeaseTable::Step& step :
         table_.expire(std::chrono::steady_clock::now())) {
      commit_locked(step);
    }
  }
}

void Coordinator::metrics_loop() {
  while (!stop_.load()) {
    std::unique_ptr<net::TcpStream> s;
    try {
      s = metrics_listener_->accept();
    } catch (const net::NetError&) {
      break;
    }
    if (!s) break;
    try {
      s->set_read_timeout_ms(1000);
      std::string req;
      char buf[1024];
      while (req.find("\r\n\r\n") == std::string::npos && req.size() < 65536) {
        std::size_t n = 0;
        try {
          n = s->read_some(buf, sizeof(buf));
        } catch (const net::NetTimeout&) {
          break;
        }
        if (n == 0) break;
        req.append(buf, n);
      }
      std::string resp;
      if (req.compare(0, 4, "GET ") == 0) {
        // "GET <path> HTTP/1.x": /metrics serves Prometheus text
        // exposition, every other path the JSON snapshot (the original
        // single-document behavior, kept for existing scrapers).
        const std::size_t path_end = req.find(' ', 4);
        const std::string path =
            path_end == std::string::npos ? "/" : req.substr(4, path_end - 4);
        std::string body, content_type;
        if (path == "/metrics") {
          // The process's own registry rides along: empty unless this
          // process enabled obs (then the enumeration bind histograms
          // appear here too).
          body = service_prometheus(report()) +
                 obs::Registry::instance().prometheus();
          content_type = "text/plain; version=0.0.4";
        } else {
          body = service_json(report(), plan_.workload_spec);
          content_type = "application/json";
        }
        resp = "HTTP/1.0 200 OK\r\nContent-Type: " + content_type +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
      } else {
        resp = "HTTP/1.0 400 Bad Request\r\nConnection: close\r\n\r\n";
      }
      s->write_all(resp.data(), resp.size());
    } catch (const net::NetError&) {
      // one scraper's broken connection must not stop the endpoint
    }
  }
}

ServiceReport Coordinator::report_locked() const {
  ServiceReport r;
  const auto now = std::chrono::steady_clock::now();
  r.shards_total = table_.shards().size();
  r.last_journal_growth_ms.reserve(table_.shards().size());
  for (std::size_t i = 0; i < table_.shards().size(); ++i) {
    const LeaseTable::Shard& s = table_.shard(i);
    switch (s.phase) {
      case ShardPhase::kSealed:
        ++r.shards_completed;
        break;
      case ShardPhase::kLeased:
        ++r.shards_leased;
        break;
      case ShardPhase::kPending:
        ++r.shards_pending;
        break;
      case ShardPhase::kQuarantined:
        ++r.shards_quarantined;
        break;
    }
    r.last_journal_growth_ms.push_back(
        s.phase == ShardPhase::kLeased
            ? std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - s.last_progress)
                  .count()
            : -1);
    r.delay.merge(io_[i].delay);
  }
  const LeaseTable::Counters& c = table_.counters();
  r.shards_requeued = c.requeued;
  r.leases_granted = c.granted;
  r.lease_expiries = c.expired;
  r.total_indices = plan_.count;
  const dist::LedgerRecord committed = table_.next_checkpoint();
  r.committed_indices = committed.a;
  r.committed_defeats = committed.b;
  r.journal_bytes_streamed = journal_bytes_streamed_;
  r.tier_gets = tier_gets_;
  r.uptime_seconds = seconds_since(start_, now);
  r.shards_per_second =
      r.uptime_seconds > 0 ? static_cast<double>(c.sealed) / r.uptime_seconds
                           : 0;
  if (first_record_at_) {
    r.time_to_first_record_seconds = seconds_since(start_, *first_record_at_);
  }
  if (first_seal_at_) {
    r.time_to_first_sealed_shard_seconds =
        seconds_since(start_, *first_seal_at_);
  }
  r.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count());
  r.campaign_id = campaign_id_;
  // Merge stamps elapsed as the max of the inputs' (all zero — shard
  // stats are live accumulators); the campaign's clock is the
  // coordinator's own uptime.
  r.delay.elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
          .count());
  r.resumed = cfg_.resume ? 1 : 0;
  r.ledger_epoch = table_.epoch();
  r.ledger_records_replayed = ledger_records_replayed_;
  r.ledger_records_appended = ledger_records_appended_;
  r.ledger_torn_bytes_truncated = ledger_torn_bytes_;
  r.leases_regranted = c.regranted;
  r.stale_tokens_fenced = c.fenced;
  // Fleet reconnects: each worker self-reports a monotonically growing
  // count per hello; a worker reconnecting opens a NEW session, so take
  // the per-name maximum and sum across names.
  std::unordered_map<std::string, std::uint64_t> reconnects_by_name;
  for (const RunnerInfo& ri : runners_) {
    if (ri.role != "worker") continue;
    auto [it, inserted] =
        reconnects_by_name.try_emplace(ri.name, ri.reconnects);
    if (!inserted) it->second = std::max(it->second, ri.reconnects);
  }
  for (const auto& [_, n] : reconnects_by_name) r.worker_reconnects += n;
  for (const RunnerInfo& ri : runners_) {
    if (ri.role == "worker") ++r.runners_seen;
    RunnerHealth h;
    h.name = ri.name;
    h.role = ri.role;
    h.last_heartbeat_age_seconds = seconds_since(ri.last_seen, now);
    h.shards_sealed = ri.shards_sealed;
    h.records_streamed = ri.records_streamed;
    h.connected = ri.connected;
    r.runners.push_back(std::move(h));
  }
  return r;
}

ServiceReport Coordinator::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_locked();
}

std::vector<Coordinator::ShardSnapshot> Coordinator::shard_snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  return table_.shards();
}

dist::QuarantineManifest Coordinator::quarantine_manifest() const {
  std::lock_guard<std::mutex> lk(mu_);
  dist::QuarantineManifest m;
  m.fingerprint = plan_.fingerprint;
  for (std::size_t i = 0; i < table_.shards().size(); ++i) {
    const LeaseTable::Shard& s = table_.shard(i);
    if (s.phase != ShardPhase::kQuarantined) continue;
    dist::QuarantineEntry e;
    e.begin = plan_.shards[i].begin;
    e.end = plan_.shards[i].end;
    e.shard_id = plan_.shards[i].id;
    std::string diag;
    for (const std::string& d : s.diagnostics) {
      if (!diag.empty()) diag += "; ";
      diag += d;
    }
    e.diagnostics = diag;
    m.entries.push_back(std::move(e));
  }
  return m;
}

}  // namespace rvt::svc

#include "svc/worker.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/enum_stats.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"
#include "util/failpoint.hpp"

namespace rvt::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// A refusal no amount of reconnecting can fix: protocol version or
/// plan fingerprint mismatch, unknown role. Subclasses NetError so the
/// caller's contract is unchanged; the reconnect loop rethrows it
/// instead of burning the backoff budget on a coordinator that will
/// keep saying no.
struct FatalWorkerError : net::NetError {
  using net::NetError::NetError;
};

/// Sends a request and reads its reply (`expect` — every reply echoes
/// its request's kind except kLeaseRequest, answered with kLeaseGrant).
/// A kError reply throws NetError with the coordinator's message; any
/// other unexpected kind is a protocol violation.
net::Frame round_trip(net::TcpStream& s, dist::WireKind kind,
                      const std::vector<std::uint8_t>& payload,
                      dist::WireKind expect) {
  net::send_frame(s, kind, payload);
  net::Frame f;
  const net::RecvStatus st = net::recv_frame(s, f, /*idle_ok=*/false);
  if (st != net::RecvStatus::kFrame) {
    throw net::NetError("worker: coordinator closed the session");
  }
  if (f.kind == dist::WireKind::kError) {
    const ErrorReply err = decode_error_reply(f.payload);
    throw net::NetError("worker: coordinator refused (code " +
                        std::to_string(static_cast<unsigned>(err.code)) +
                        "): " + err.message);
  }
  if (f.kind != expect) {
    throw dist::SerializeError("worker: reply kind mismatch");
  }
  return f;
}

net::Frame round_trip(net::TcpStream& s, dist::WireKind kind,
                      const std::vector<std::uint8_t>& payload) {
  return round_trip(s, kind, payload, kind);
}

/// One connect + hello attempt. Returns the handshaked stream, or null
/// on a TRANSIENT failure (unreachable, dropped, garbled) the backoff
/// schedule should absorb. Throws FatalWorkerError on a refusal that
/// retrying cannot change.
std::unique_ptr<net::TcpStream> try_connect(const std::string& host,
                                            std::uint16_t port,
                                            const WorkerOptions& opt,
                                            const dist::ShardId& bound_fp,
                                            std::uint64_t reconnects,
                                            HelloReply* ack_out) {
  try {
    auto s = net::tcp_connect(host, port);
    s->set_read_timeout_ms(static_cast<unsigned>(opt.io_timeout_ms));
    HelloRequest hello;
    hello.role = "worker";
    hello.name = opt.name;
    hello.fingerprint = bound_fp;
    hello.reconnects = reconnects;
    net::send_frame(*s, dist::WireKind::kHello, encode(hello));
    net::Frame f;
    const net::RecvStatus st = net::recv_frame(*s, f, /*idle_ok=*/false);
    if (st != net::RecvStatus::kFrame) {
      throw net::NetError("worker: coordinator closed during handshake");
    }
    if (f.kind == dist::WireKind::kError) {
      const ErrorReply err = decode_error_reply(f.payload);
      throw FatalWorkerError(
          "worker: coordinator refused the hello (code " +
          std::to_string(static_cast<unsigned>(err.code)) + "): " +
          err.message);
    }
    if (f.kind != dist::WireKind::kHello) {
      throw dist::SerializeError("worker: handshake reply kind mismatch");
    }
    const HelloReply ack = decode_hello_reply(f.payload);
    if (ack.protocol != kServiceProtocolVersion) {
      throw FatalWorkerError("worker: coordinator speaks service protocol " +
                             std::to_string(ack.protocol) + ", this build " +
                             std::to_string(kServiceProtocolVersion));
    }
    if ((bound_fp.hi != 0 || bound_fp.lo != 0) &&
        !(ack.fingerprint == bound_fp)) {
      throw FatalWorkerError(
          "worker: reconnected to a coordinator serving a different plan");
    }
    *ack_out = ack;
    return s;
  } catch (const FatalWorkerError&) {
    throw;
  } catch (const net::NetError&) {
    return nullptr;
  } catch (const dist::SerializeError&) {
    return nullptr;  // a garbled handshake is transient, like a drop
  }
}

/// One structured progress line to stderr — same shape as run_shard's
/// local-runner line so fleet logs grep uniformly, plus the worker name.
void emit_progress(const std::string& name, std::uint64_t shard,
                   std::uint64_t computed, const obs::EnumDelayStats& d) {
  std::fprintf(stderr,
               "progress worker=%s shard=%llu computed=%llu survivors=%llu "
               "inter_result_delay_p50_ms=%.3f inter_result_delay_p99_ms=%.3f\n",
               name.c_str(), static_cast<unsigned long long>(shard),
               static_cast<unsigned long long>(computed),
               static_cast<unsigned long long>(d.survivors),
               d.delay_quantile_ms(0.50), d.delay_quantile_ms(0.99));
}

}  // namespace

WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& opt) {
  WorkerReport rep;
  dist::ShardId bound_fp{};  // zero until the first hello binds the plan
  std::unique_ptr<net::TcpStream> stream;
  HelloReply ack;

  // Every connect — the first included — rides the same bounded
  // backoff: a worker started before its coordinator simply waits for
  // it, identically to a worker whose coordinator is restarting.
  const auto connect = [&]() {
    util::RetryStats stats;
    std::unique_ptr<net::TcpStream> s;
    const bool ok = util::retry_bool(opt.reconnect, &stats, [&] {
      s = try_connect(host, port, opt, bound_fp, rep.reconnects, &ack);
      return s != nullptr;
    });
    rep.connect_retries += stats.retries;
    if (!ok) {
      throw net::NetError("worker: coordinator unreachable at " + host + ":" +
                          std::to_string(port) + " after " +
                          std::to_string(opt.reconnect.max_attempts) +
                          " attempts");
    }
    stream = std::move(s);
  };
  connect();

  // Re-derive the workload from the spec and refuse a fingerprint
  // mismatch — the same content-addressing refusal as run_shard: a
  // coordinator built from a different battery or schema must not get
  // records computed under this build's semantics.
  const auto w = dist::EnumWorkload::parse(ack.workload_spec);
  if (!(dist::workload_fingerprint(*w) == ack.fingerprint)) {
    throw net::NetError(
        "worker: plan fingerprint does not match this build's workload '" +
        ack.workload_spec + "' (different battery or schema version)");
  }
  bound_fp = ack.fingerprint;

  // One cache for every lease of this worker: a count memoized in one
  // shard answers the equivalent automata of every later shard. Sized
  // for the workload, not the default table.
  sim::OrbitCache cache(16, dist::memo_cache_capacity(*w));
  sim::EnumerationContext ctx(w->grids(), w->max_rounds(), &cache);

  // The lease a drop must not forget: grant + compute position + the
  // records not yet acknowledged by the coordinator.
  struct ActiveLease {
    LeaseGrant g;
    std::uint64_t next = 0;     ///< next index to compute
    std::uint64_t running = 0;  ///< running sum incl. buffered records
    std::vector<JournalRecord> buffer;
    Clock::time_point last_flush{};
  };
  std::optional<ActiveLease> lease;

  // One tracker for the whole run: every computed index is enumeration
  // work, whether or not its lease survived. Progress throttling rides
  // the same monotonic clock the tracker uses.
  obs::EnumDelayTracker delay;
  const std::uint64_t progress_interval_ns = opt.progress_interval_ms * 1000000;
  std::uint64_t next_progress_ns =
      progress_interval_ns == 0 ? 0 : obs::now_ns() + progress_interval_ns;

  const auto flush = [&](ActiveLease& al) -> bool {
    RVT_OBS_SPAN("svc.worker.flush", al.g.shard_index, al.buffer.size());
    JournalChunk chunk;
    chunk.shard_index = al.g.shard_index;
    chunk.token = al.g.token;
    chunk.records = al.buffer;
    const net::Frame cf =
        round_trip(*stream, dist::WireKind::kJournalChunk, encode(chunk));
    ++rep.chunks;
    const ChunkReply cr = decode_chunk_reply(cf.payload);
    if (!cr.accepted) return false;
    al.buffer.clear();
    al.last_flush = Clock::now();
    return true;
  };

  for (bool drained = false; !drained;) {
    try {
      if (!stream) {
        ++rep.reconnects;
        connect();
        if (lease) {
          // Probe the lease with an EMPTY chunk before resuming: an
          // accepted probe reports the coordinator's durable next_index
          // (a flush whose reply was lost may already be committed —
          // resending those records would read as out-of-order and cost
          // the attempt); a refused probe is the token fence — the
          // lease did not survive the restart, the committed prefix
          // did, and a fresh grant will resume from it.
          const net::Frame cf = round_trip(
              *stream, dist::WireKind::kJournalChunk,
              encode(JournalChunk{lease->g.shard_index, lease->g.token, {}}));
          ++rep.chunks;
          const ChunkReply cr = decode_chunk_reply(cf.payload);
          if (cr.accepted) {
            std::erase_if(lease->buffer, [&](const JournalRecord& r) {
              return r.index < cr.next_index;
            });
          } else {
            ++rep.revoked;
            ++rep.fenced;
            lease.reset();
          }
        }
      }
      if (!lease) {
        const net::Frame gf =
            round_trip(*stream, dist::WireKind::kLeaseRequest,
                       encode_lease_request(), dist::WireKind::kLeaseGrant);
        const LeaseGrant g = decode_lease_grant(gf.payload);
        if (g.status == LeaseStatus::kDrained) {
          drained = true;
        } else if (g.status == LeaseStatus::kWait) {
          // The coordinator held the request as long as it could; ask
          // again. retry_ms is 0 unless an older coordinator, which
          // answers at once, asks for a backoff.
          std::this_thread::sleep_for(std::chrono::milliseconds(g.retry_ms));
        } else {
          ++rep.leases;
          // Adopt the coordinator-minted campaign id so every span this
          // worker flushes stitches to the coordinator's trace. Id 0
          // names no campaign: leave whatever was configured.
          if (g.campaign_id != 0) obs::set_campaign_id(g.campaign_id);
          lease.emplace();
          lease->g = g;
          lease->next = g.next_index;
          lease->running = g.resume_sum;
          lease->last_flush = Clock::now();
        }
        continue;
      }
      bool lost = false;
      RVT_OBS_SPAN("svc.worker.compute", lease->g.shard_index,
                   lease->g.end - lease->next);
      while (lease->next < lease->g.end && !lost) {
        // Chaos hook: die (or error out of the session) at a chosen
        // index with every flushed chunk durably committed
        // coordinator-side — the mid-lease crash a requeue recovers.
        switch (util::failpoint("worker.index")) {
          case util::FaultAction::kCrash:
            util::failpoint_crash("worker.index");
          case util::FaultAction::kError:
            throw dist::SerializeError("worker: injected fault at index " +
                                       std::to_string(lease->next));
          case util::FaultAction::kNone:
            break;
        }
        if (opt.throttle_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(opt.throttle_ms));
        }
        const std::uint64_t i = lease->next++;
        const std::uint64_t v = w->defeats(ctx, i);
        lease->running += v;
        ++rep.indices;
        rep.defeats += v;
        delay.note_result(v);
        if (progress_interval_ns != 0 && obs::now_ns() >= next_progress_ns) {
          emit_progress(opt.name, lease->g.shard_index, rep.indices,
                        delay.stats());
          next_progress_ns = obs::now_ns() + progress_interval_ns;
        }
        lease->buffer.push_back({i, v});
        const bool interval_up =
            Clock::now() - lease->last_flush >=
            std::chrono::milliseconds(opt.flush_interval_ms);
        if ((lease->buffer.size() >= opt.chunk_records || interval_up) &&
            !flush(*lease)) {
          lost = true;
        }
      }
      if (!lost && !lease->buffer.empty() && !flush(*lease)) lost = true;
      if (lost) {
        ++rep.revoked;
        lease.reset();  // fresh lease request; the prefix stays committed
        continue;
      }
      const net::Frame sf = round_trip(
          *stream, dist::WireKind::kSeal,
          encode(Seal{lease->g.shard_index, lease->g.token, lease->running}));
      if (decode_seal_reply(sf.payload).accepted) {
        ++rep.sealed;
      } else {
        ++rep.revoked;
      }
      lease.reset();
    } catch (const FatalWorkerError&) {
      throw;
    } catch (const net::NetError&) {
      // Transport death mid-session: drop the stream and re-enter the
      // loop through the reconnect path. If the stream is already gone,
      // connect() itself exhausted its budget — give up for real.
      if (!stream) throw;
      stream.reset();
    }
  }

  rep.delay = delay.finish();
  rep.telemetry = ctx.telemetry();
  return rep;
}

}  // namespace rvt::svc

#include "core/lpm.h"

#include "core/nameserver.h"

#include <algorithm>

#include "daemon/protocol.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/panic.h"

namespace ppm::core {

using host::BaseCosts;
using host::Pid;

namespace {
// Shared by every LPM in the process (the registry is process-wide);
// per-LPM attribution lives in LpmStats, these are the fleet totals.
struct LpmMetrics {
  obs::Histogram* create_ms;
  obs::Histogram* signal_ms;
  obs::Histogram* snapshot_ms;
  obs::Histogram* stat_ms;
  obs::Gauge* eventlog_size;
  obs::Gauge* eventlog_dropped;
  obs::Counter* eventlog_dropped_total;
  obs::Gauge* triggers_size;
  obs::Counter* triggers_fired;
  // Overload protection (fleet totals; per-LPM numbers are in LpmStats).
  obs::Counter* requests_shed;
  obs::Counter* retries;
  obs::Counter* deadline_expired;
  obs::Counter* dup_suppressed;
  obs::Gauge* breaker_open;
  // Stat watches (continuous telemetry; fleet totals).
  obs::Counter* watch_subscribes;
  obs::Counter* watch_pushes;
  obs::Counter* watch_records;
  obs::Counter* watch_cancels;
  obs::Gauge* watch_active;
  // Group operations (fleet totals).
  obs::Counter* group_spawns;
  obs::Counter* group_rollbacks;
  obs::Counter* barrier_releases;
  obs::Counter* barrier_timeouts;
  obs::Counter* envar_updates;
  obs::Counter* envar_watch_fires;
};

LpmMetrics& Metrics() {
  auto& reg = obs::Registry::Instance();
  static LpmMetrics m = {
      reg.GetHistogram("lpm.create.ms"),
      reg.GetHistogram("lpm.signal.ms"),
      reg.GetHistogram("lpm.snapshot.ms"),
      reg.GetHistogram("lpm.stat.ms"),
      reg.GetGauge("core.eventlog.size"),
      reg.GetGauge("core.eventlog.dropped"),
      reg.GetCounter("core.eventlog.dropped.total"),
      reg.GetGauge("core.triggers.size"),
      reg.GetCounter("core.triggers.fired"),
      reg.GetCounter("lpm.shed.requests"),
      reg.GetCounter("lpm.retry.attempts"),
      reg.GetCounter("lpm.deadline.expired"),
      reg.GetCounter("lpm.dup.suppressed"),
      reg.GetGauge("lpm.breaker.open"),
      reg.GetCounter("lpm.watch.subscribes"),
      reg.GetCounter("lpm.watch.pushes"),
      reg.GetCounter("lpm.watch.records"),
      reg.GetCounter("lpm.watch.cancels"),
      reg.GetGauge("lpm.watch.active"),
      reg.GetCounter("lpm.group.spawns"),
      reg.GetCounter("lpm.group.rollbacks"),
      reg.GetCounter("lpm.barrier.releases"),
      reg.GetCounter("lpm.barrier.timeouts"),
      reg.GetCounter("lpm.envar.updates"),
      reg.GetCounter("lpm.envar.watch_fires"),
  };
  return m;
}

// The response's req_id, when the message type carries one (all typed
// responses do; Hello/CCS control traffic does not).
std::optional<uint64_t> MsgReqId(const Msg& msg) {
  return std::visit(
      [](const auto& m) -> std::optional<uint64_t> {
        if constexpr (requires { m.req_id; }) {
          return m.req_id;
        } else {
          return std::nullopt;
        }
      },
      msg);
}

// FNV-1a over the origin host name, folded with the request id: a
// deterministic idempotency token, unique per <origin, req_id>, that
// costs no rng draw (the simulator rng stream feeds the deterministic
// bench baselines and must not shift with every forward).
uint64_t MakeIdemToken(const std::string& origin, uint64_t req_id) {
  uint64_t h = 1469598103934665603ull;
  for (char c : origin) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= req_id;
  h *= 1099511628211ull;
  return h != 0 ? h : 1;  // 0 means "no token" on the wire
}
}  // namespace

// What tells the two request/reply collectives apart: the record each
// manager contributes (LocalRecords), where the origin keeps its runs, the
// round-trip histogram, and the names a run is observed under — its
// trace, its hop spans and its simulator labels.
struct Lpm::SnapshotCollective {
  using Req = SnapshotReq;
  using Resp = SnapshotResp;
  using Run = CollectiveRun<ProcRecord>;
  static constexpr const char* kTrace = "snapshot";
  static constexpr const char* kReqSpan = "snapshot.req";
  static constexpr const char* kRespSpan = "snapshot.resp";
  static constexpr const char* kRelaySpan = "snapshot.resp.relay";
  static constexpr const char* kDoneSpan = "snapshot.done";
  static constexpr const char* kStartLabel = "lpm-snapshot-start";
  static constexpr const char* kServeLabel = "lpm-snapshot-serve";
  static constexpr const char* kTimeoutLabel = "lpm-snapshot-timeout";
  static std::vector<ProcRecord> LocalRecords(Lpm& lpm) {
    return lpm.ScanLocalProcesses();
  }
  static FlatMap<uint64_t, Run>& Runs(Lpm& lpm) { return lpm.snapshots_; }
  static obs::Histogram* Latency() { return Metrics().snapshot_ms; }
};

struct Lpm::StatCollective {
  using Req = StatReq;
  using Resp = StatResp;
  using Run = CollectiveRun<LpmStatRecord>;
  static constexpr const char* kTrace = "stat";
  static constexpr const char* kReqSpan = "stat.req";
  static constexpr const char* kRespSpan = "stat.resp";
  static constexpr const char* kRelaySpan = "stat.resp.relay";
  static constexpr const char* kDoneSpan = "stat.done";
  static constexpr const char* kStartLabel = "lpm-stat-start";
  static constexpr const char* kServeLabel = "lpm-stat-serve";
  static constexpr const char* kTimeoutLabel = "lpm-stat-timeout";
  static std::vector<LpmStatRecord> LocalRecords(Lpm& lpm) {
    std::vector<LpmStatRecord> out;
    out.push_back(lpm.BuildStatRecord());
    return out;
  }
  static FlatMap<uint64_t, Run>& Runs(Lpm& lpm) { return lpm.stat_runs_; }
  static obs::Histogram* Latency() { return Metrics().stat_ms; }
};

Lpm::Lpm(host::Host& host, host::Uid uid, std::string user, uint64_t token,
         net::Port accept_port, LpmConfig config,
         std::function<daemon::Pmd*()> pmd_getter)
    : host_(host),
      uid_(uid),
      user_(std::move(user)),
      token_(token),
      accept_port_(accept_port),
      config_(config),
      pmd_getter_(std::move(pmd_getter)),
      bcast_filter_(config.bcast_window),
      event_log_(config.event_log_capacity) {}

// --- lifecycle ---------------------------------------------------------------

void Lpm::OnStart() {
  running_ = true;
  // Broadcast sequences must be monotonic per origin *host* across LPM
  // incarnations: sibling duplicate-suppression filters remember
  // <origin, seq> pairs for bcast_window, so a restarted LPM that
  // restarted its counter at 1 would have its first floods silently
  // swallowed as duplicates of its predecessor's.  Seeding from the
  // clock keeps the sequence strictly above anything a previous
  // incarnation can have used.
  next_bcast_seq_ = static_cast<uint64_t>(simulator().Now()) + 1;
  // Request ids need the same treatment: the idempotency token a forward
  // carries is <origin host, req_id>, and peers cache completed results
  // by token.  A warm-restarted LPM that counted from 1 again would
  // collide with its predecessor's tokens, and its first forwards would
  // be answered from the done-cache with a *stale* captured reply —
  // acknowledged but never executed.
  next_req_id_ = static_cast<uint64_t>(simulator().Now()) + 1;
  network().Listen(host_.net_id(), accept_port_,
                   [this](net::ConnId conn, net::SocketAddr peer) {
                     OnAccept(conn, peer);
                     net::ConnCallbacks cb;
                     cb.on_data = [this](net::ConnId c, const std::vector<uint8_t>& b) {
                       OnData(c, b);
                     };
                     cb.on_close = [this](net::ConnId c, net::CloseReason r) {
                       OnClose(c, r);
                     };
                     return std::optional<net::ConnCallbacks>(cb);
                   });
  // The kernel socket (Figure 4): events cross it as genuine 112-byte
  // messages, so the serializer is on the hot path exactly as the paper
  // measured in Table 1.
  kernel().RegisterEventSink(uid_, pid(), [this](const host::KernelEvent& ev) {
    // Encode into the reusable buffer and decode in place — the frame
    // crosses the socket without ever owning a heap allocation.
    SerializeKernelEvent(ev, kmsg_buf_);
    auto parsed = ParseKernelEvent(WireView(kmsg_buf_));
    PPM_CHECK_MSG(parsed.has_value(), "kernel event wire corruption");
    OnKernelEvent(*parsed);
  });
  if (config_.durable_store) {
    store::StoreConfig scfg;
    scfg.group_commit = config_.store_group_commit;
    scfg.checkpoint_every = config_.store_checkpoint_every;
    scfg.event_capacity = config_.event_log_capacity;
    store_ = std::make_unique<store::LpmStore>(host::Disk(host_.fs(), uid_), scfg);
    // A physical sync is real kernel work.  Charge it as CPU consumed by
    // the LPM (it shows up in load and rusage) without stretching the
    // operation that triggered it: group commit means the sync overlaps
    // request handling rather than serializing it.
    store_->journal().set_sync_hook([this](size_t flushed) {
      if (running_ && host_.up()) {
        kernel().Charge(pid(), BaseCosts::kStoreSync);
        obs::FlightRecorder::Instance().Record(obs::FlightKind::kJournalSync,
                                               host_name(), "", 0, flushed);
        obs::HealthMonitor::Instance().Watermark(
            "store.journal.pending",
            static_cast<double>(store_->journal().pending_appends()));
      }
    });
    store::RecoveredState recovered = store_->Recover();
    if (recovered.found) WarmRestart(recovered);
    store_->Open(recovered, host_.generation());
    // Re-adopted processes forked *after* the predecessor's last journal
    // write exist in local_procs_ but not on disk yet: journal them now
    // that the store accepts records.
    for (const auto& [lp, info] : local_procs_) {
      if (!recovered.procs.count(lp)) {
        store_->RecordProcNew(lp, info.logical_parent, info.command);
      }
    }
  }
  PPM_INFO("lpm") << "LPM for " << user_ << " up on " << host_name() << " pid " << pid();
  ReviewTtl();
}

bool Lpm::OnSignal(host::Signal sig) {
  if (sig == host::Signal::kSigTerm) {
    // Graceful shutdown request.
    ExitSelf(0);
    return true;
  }
  if (sig == host::Signal::kSigHup || sig == host::Signal::kSigUsr1) return true;
  return false;
}

void Lpm::OnShutdown() {
  if (!running_) return;
  running_ = false;
  if (host_.up()) {
    kernel().UnregisterEventSink(uid_);
    network().Unlisten(host_.net_id(), accept_port_);
    for (const auto& [conn, info] : peers_) {
      if (graceful_exit_) {
        network().Close(conn);
      } else {
        network().Abort(conn);
      }
    }
    // Handler processes die with their manager.
    for (const Handler& h : handlers_) {
      const host::Process* p = kernel().Find(h.pid);
      if (p && p->alive()) kernel().PostSignal(h.pid, host::Signal::kSigKill, uid_);
    }
  }
  peers_.clear();
  siblings_.clear();
  simulator().Cancel(ttl_event_);
  simulator().Cancel(death_event_);
  simulator().Cancel(probe_event_);
  simulator().Cancel(retry_event_);
  ttl_event_ = death_event_ = probe_event_ = retry_event_ = sim::kInvalidEventId;
  for (auto& [host, ev] : sibling_setup_timeout_ev_) simulator().Cancel(ev);
  sibling_setup_timeout_ev_.clear();
  sibling_setup_conn_.clear();
  // Fail anything still waiting.
  for (auto& [host, waiters] : sibling_waiters_) {
    for (auto& cb : waiters) cb(std::nullopt);
  }
  sibling_waiters_.clear();
  pending_.clear();
  snapshots_.clear();
  stat_runs_.clear();
  if (!stat_watches_.empty()) {
    for (auto& [key, w] : stat_watches_) simulator().Cancel(w.push_ev);
    Metrics().watch_active->Add(-static_cast<double>(stat_watches_.size()));
    stat_watches_.clear();
  }
  gang_runs_.clear();
  for (auto& [key, bl] : barrier_local_) simulator().Cancel(bl.safety_ev);
  barrier_local_.clear();
  for (auto& [key, ev] : barrier_decide_ev_) simulator().Cancel(ev);
  barrier_decide_ev_.clear();
  join_waiters_.clear();
  // A dying LPM must not leave its open breakers counted in the
  // fleet-wide gauge forever.
  for (const auto& [host, b] : breakers_) {
    if (b.open) Metrics().breaker_open->Add(-1);
  }
  breakers_.clear();
  inflight_tokens_.clear();
  done_cache_.clear();
  done_order_.clear();
  idem_replies_.clear();
}

// Warm restart (the tentpole of the durable store): seed in-memory state
// from what the previous incarnation journaled.  History, triggers and
// rusage records are valid across any restart; genealogy hints are only
// actionable within the same kernel generation, because a reboot killed
// every process and pids will be reused.
void Lpm::WarmRestart(const store::RecoveredState& recovered) {
  event_log_.Restore(recovered.events);
  triggers_.Restore(recovered.triggers);
  exited_stats_ = recovered.rusage;
  // Never self-appoint CCS from disk: the cluster may have elected
  // someone else while we were down.  A foreign hint is safe — worst
  // case it names a dead host and the normal timeout path clears it.
  if (!recovered.ccs_host.empty() && recovered.ccs_host != host_name()) {
    ccs_host_ = recovered.ccs_host;
  }
  // Group operations state: coordinated groups, the replicated envar
  // table and decided barrier epochs are valid across any restart.
  for (const auto& [gname, members] : recovered.groups) {
    for (const store::GroupMemberHint& m : members) {
      group_table_.AddMember(gname, m.gpid);
      if (m.exited) group_table_.MarkExited(gname, m.gpid, m.exit_status);
    }
  }
  for (const auto& [key, hint] : recovered.envars) {
    group_table_.MergeEnvar(key, hint.value, hint.version, hint.origin);
  }
  for (const auto& [bname, epoch] : recovered.barrier_epochs) {
    group_table_.NoteDecided(bname, epoch);
  }
  size_t readopted = 0;
  if (recovered.generation == host_.generation()) {
    // Local memberships are generation-scoped like ProcHints: pids are
    // reused across reboots.  A member that exited while the manager was
    // down misses its exit notify; the coordinator's join then waits on
    // the member-host snapshot of truth, which is the best we can know.
    for (const auto& [mpid, hint] : recovered.group_local) {
      const host::Process* p = kernel().Find(mpid);
      if (p && p->alive() && p->uid == uid_) {
        group_table_.AddLocal(mpid, hint.group, hint.coordinator);
      }
    }
    for (const auto& [rpid, hint] : recovered.procs) {
      const host::Process* p = kernel().Find(rpid);
      if (!p || !p->alive() || p->uid != uid_) continue;
      if (local_procs_.count(rpid)) continue;
      std::vector<Pid> adopted;
      if (!kernel().Adopt(pid(), rpid, host::kTraceAll, uid_, &adopted)) {
        continue;
      }
      for (Pid ap : adopted) {
        if (local_procs_.count(ap)) continue;
        LocalProc info;
        auto hit = recovered.procs.find(ap);
        const host::Process* proc = kernel().Find(ap);
        if (hit != recovered.procs.end()) {
          info.logical_parent = hit->second.logical_parent;
          info.command = hit->second.command;
        } else if (proc) {
          // Forked after our last journal write: its parent is local.
          info.logical_parent = GPid{host_name(), proc->ppid};
          info.command = proc->command;
        }
        local_procs_[ap] = std::move(info);
        ++readopted;
      }
    }
    for (const auto& [rpid, child] : recovered.remote_children) {
      auto it = local_procs_.find(rpid);
      if (it == local_procs_.end()) continue;
      auto& kids = it->second.remote_children;
      if (std::find(kids.begin(), kids.end(), child) == kids.end()) {
        kids.push_back(child);
      }
    }
  }
  PPM_INFO("lpm") << "LPM for " << user_ << " on " << host_name()
                  << " warm restart: " << recovered.events.size() << " events, "
                  << recovered.triggers.size() << " triggers, "
                  << recovered.rusage.size() << " rusage records, " << readopted
                  << " processes re-adopted"
                  << (recovered.torn_bytes
                          ? " (torn journal tail discarded)"
                          : "");
}

void Lpm::SetCcs(const std::string& host) {
  ccs_host_ = host;
  if (store_) store_->RecordCcs(ccs_host_);
}

void Lpm::ExitSelf(int status) {
  if (!running_) return;
  graceful_exit_ = true;
  // A clean exit leaves a fresh checkpoint and an empty journal: the
  // successor warm-restarts from the checkpoint alone.
  if (store_) store_->Checkpoint();
  if (daemon::Pmd* pmd = pmd_getter_ ? pmd_getter_() : nullptr) {
    pmd->Unregister(uid_, pid());
  }
  PPM_INFO("lpm") << "LPM for " << user_ << " on " << host_name() << " exiting";
  kernel().Exit(pid(), status);
}

// --- introspection ---------------------------------------------------------------

net::SocketAddr Lpm::accept_addr() const {
  return net::SocketAddr{host_.net_id(), accept_port_};
}

std::vector<std::string> Lpm::sibling_hosts() const {
  std::vector<std::string> out;
  out.reserve(siblings_.size());
  for (const auto& [host, conn] : siblings_) out.push_back(host);
  return out;
}

LpmEndpoints Lpm::Endpoints() const {
  LpmEndpoints ep;
  ep.kernel_socket = host_.up() && host_.kernel().HasEventSink(uid_);
  ep.accept_socket = accept_addr();
  for (const auto& [host, conn] : siblings_) ep.siblings.emplace_back(host, conn);
  for (const auto& [conn, info] : peers_) {
    if (info.kind == PeerKind::kTool) ++ep.tool_circuits;
  }
  return ep;
}

size_t Lpm::adopted_live_count() const {
  size_t n = 0;
  for (const auto& [pid, info] : local_procs_) {
    const host::Process* p = host_.kernel().Find(pid);
    if (p && p->alive()) ++n;
  }
  return n;
}

std::vector<host::Pid> Lpm::TrackedLocalPids() const {
  std::vector<host::Pid> out;
  for (const auto& [pid, info] : local_procs_) {
    if (!info.exited) out.push_back(pid);
  }
  return out;
}

// --- dispatcher & handler pool ------------------------------------------------------

void Lpm::Dispatch(std::function<void(Pid)> work) {
  Dispatch(RequestMeta{}, std::move(work));
}

void Lpm::Dispatch(const RequestMeta& meta, std::function<void(Pid)> work) {
  PPM_PROF_SCOPE("lpm.dispatch");
  ++stats_.requests;
  sim::SimDuration cost = kernel().Charge(pid(), BaseCosts::kDispatch);
  simulator().ScheduleIn(cost, [this, meta, work = std::move(work)] {
    if (!running_) return;
    AcquireHandler(meta, work);
  }, "lpm-dispatch");
}

void Lpm::AcquireHandler(const RequestMeta& meta, std::function<void(Pid)> cb) {
  // Prune handlers that died under us (the user may kill them — they are
  // ordinary user processes) so the pool can refill.
  std::erase_if(handlers_, [this](const Handler& h) {
    const host::Process* p = kernel().Find(h.pid);
    return p == nullptr || !p->alive();
  });
  if (config_.handler_reuse) {
    for (Handler& h : handlers_) {
      if (!h.busy) {
        h.busy = true;
        ++stats_.handler_reuses;
        cb(h.pid);
        return;
      }
    }
  }
  if (!config_.handler_reuse || handlers_.size() < config_.max_handlers) {
    // Fork a fresh handler (paper Section 6: "process creation in UNIX
    // is relatively expensive" — this cost is why reuse is the default).
    sim::SimDuration cost = kernel().Charge(pid(), BaseCosts::kHandlerFork);
    Pid hp = kernel().Spawn(pid(), uid_, "lpm-handler", nullptr,
                            host::ProcState::kSleeping);
    handlers_.push_back(Handler{hp, true});
    ++stats_.handlers_created;
    simulator().ScheduleIn(cost, [this, hp, cb = std::move(cb)] {
      if (!running_) return;
      const host::Process* p = kernel().Find(hp);
      if (!p || !p->alive()) return;
      cb(hp);
    }, "lpm-handler-fork");
    return;
  }
  handler_queue_.push_back(QueuedWork{meta, std::move(cb)});
  if (handler_queue_.size() > queue_watermark_) {
    queue_watermark_ = static_cast<uint32_t>(handler_queue_.size());
  }
  obs::HealthMonitor::Instance().Watermark("lpm.queue.depth",
                                           static_cast<double>(handler_queue_.size()));
}

void Lpm::ReleaseHandler(Pid hpid) {
  auto it = std::find_if(handlers_.begin(), handlers_.end(),
                         [hpid](const Handler& h) { return h.pid == hpid; });
  if (it == handlers_.end()) return;
  if (!config_.handler_reuse) {
    // Fork-per-request policy: the handler exits after one request.
    const host::Process* p = kernel().Find(hpid);
    if (p && p->alive() && host_.up()) kernel().Exit(hpid, 0);
    kernel().Reap(pid());
    handlers_.erase(it);
    return;
  }
  while (!handler_queue_.empty()) {
    QueuedWork next = std::move(handler_queue_.front());
    handler_queue_.pop_front();
    if (next.meta.deadline_us != 0 &&
        static_cast<uint64_t>(simulator().Now()) > next.meta.deadline_us) {
      // The origin's timeout has already reported this request as failed;
      // running it now would burn a handler on work nobody is waiting
      // for.  Cancel it out of the queue, record the expiry, and release
      // any idempotency bookkeeping it registered on arrival.
      ++stats_.deadline_expired;
      Metrics().deadline_expired->Inc();
      obs::FlightRecorder::Instance().Record(obs::FlightKind::kRequestExpired,
                                             host_name(), "queued", 0,
                                             next.meta.req_id);
      ReleaseIdem(next.meta.conn, next.meta.req_id);
      continue;
    }
    next.fn(hpid);  // stays busy
    return;
  }
  it->busy = false;
}

// --- overload protection: admission, dedup, breaker --------------------------

Lpm::RequestMeta Lpm::RxMeta(net::ConnId conn, uint64_t req_id) const {
  RequestMeta meta;
  meta.deadline_us = rx_stamp_.deadline_us;
  meta.conn = conn;
  meta.req_id = req_id;
  return meta;
}

bool Lpm::AdmitRequest(net::ConnId conn, uint64_t req_id) {
  if (!config_.overload_protection) return true;
  // Expired on arrival: the origin gave up before the frame landed.
  // Executing it would be pure waste; no reply either — the origin's
  // own timeout already produced the explicit error.
  if (rx_stamp_.deadline_us != 0 &&
      static_cast<uint64_t>(simulator().Now()) > rx_stamp_.deadline_us) {
    ++stats_.deadline_expired;
    Metrics().deadline_expired->Inc();
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kRequestExpired,
                                           host_name(), "arrival", 0, req_id);
    ReleaseIdem(conn, req_id);
    return false;
  }
  if (config_.max_queue_depth == 0 ||
      handler_queue_.size() < config_.max_queue_depth) {
    return true;
  }
  // Reject-newest shed: queued work is older and closer to its deadline,
  // so the arriving request is the one turned away — with an explicit
  // BUSY carrying a retry hint, never silently (shed-partition
  // invariant: requests_shed == busy_sent).
  ++stats_.requests_shed;
  Metrics().requests_shed->Inc();
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kRequestShed,
                                         host_name(), "queue full", 0, req_id,
                                         handler_queue_.size());
  // Release first so the BusyResp is not captured as this token's
  // "result" — a later retry must be allowed to actually execute.
  ReleaseIdem(conn, req_id);
  BusyResp busy;
  busy.req_id = req_id;
  busy.error = "handler queue full";
  busy.retry_after_us = static_cast<uint64_t>(kRetryBase);
  ++stats_.busy_sent;
  ReplyMsg(conn, busy);
  return false;
}

bool Lpm::SuppressDuplicate(net::ConnId conn, const Msg& msg) {
  if (!config_.overload_protection || rx_stamp_.idem_token == 0) return false;
  // Only mutating requests need exactly-once protection; reads are
  // harmless to re-execute.
  bool mutating = std::holds_alternative<CreateReq>(msg) ||
                  std::holds_alternative<SignalReq>(msg) ||
                  std::holds_alternative<AdoptReq>(msg) ||
                  std::holds_alternative<TraceReq>(msg) ||
                  std::holds_alternative<TriggerReq>(msg) ||
                  std::holds_alternative<MigrateReq>(msg) ||
                  std::holds_alternative<GroupSpawnReq>(msg) ||
                  std::holds_alternative<GroupPartReq>(msg) ||
                  std::holds_alternative<GroupUndoReq>(msg) ||
                  std::holds_alternative<GroupExitNotify>(msg) ||
                  std::holds_alternative<GroupAddNotify>(msg) ||
                  std::holds_alternative<GroupSignalReq>(msg) ||
                  std::holds_alternative<BarrierEnterReq>(msg) ||
                  std::holds_alternative<BarrierJoinReq>(msg) ||
                  std::holds_alternative<BarrierReleaseReq>(msg) ||
                  std::holds_alternative<EnvarSetReq>(msg);
  if (!mutating) return false;
  const uint64_t token = rx_stamp_.idem_token;
  auto done = done_cache_.find(token);
  if (done != done_cache_.end()) {
    // Already executed: replay the captured response (same req_id — the
    // sender reuses it across attempts) instead of executing twice.
    ++stats_.dup_suppressed;
    Metrics().dup_suppressed->Inc();
    ReplyMsg(conn, done->second);
    return true;
  }
  if (inflight_tokens_.count(token)) {
    // First attempt is still executing; its reply will go out when it
    // finishes.  Swallow the retransmit.
    ++stats_.dup_suppressed;
    Metrics().dup_suppressed->Inc();
    return true;
  }
  inflight_tokens_.insert(token);
  if (auto rid = MsgReqId(msg)) {
    idem_replies_[{conn, *rid}] = token;
  }
  return false;
}

void Lpm::ReleaseIdem(net::ConnId conn, uint64_t req_id) {
  auto it = idem_replies_.find({conn, req_id});
  if (it == idem_replies_.end()) return;
  inflight_tokens_.erase(it->second);
  idem_replies_.erase(it);
}

bool Lpm::PeerQuarantined(const std::string& host) const {
  auto it = breakers_.find(host);
  if (it == breakers_.end() || !it->second.open) return false;
  // Past open_until the breaker is half-open: one probe attempt may pay
  // the connect cost and decide readmission.
  return static_cast<uint64_t>(host_.simulator().Now()) < it->second.open_until;
}

void Lpm::RecordPeerFailure(const std::string& host) {
  if (!config_.overload_protection) return;
  Breaker& b = breakers_[host];
  ++b.failures;
  if (b.failures < kBreakerThreshold && !b.open) return;
  // Quarantine doubles per failed half-open probe, capped so a healed
  // peer is readmitted within one chaos settle window.
  constexpr sim::SimDuration kMaxQuarantine = sim::Seconds(16);
  bool was_open = b.open;
  b.backoff = was_open ? std::min<sim::SimDuration>(b.backoff * 2, kMaxQuarantine)
                       : kBreakerProbe;
  b.open_until = static_cast<uint64_t>(simulator().Now() + b.backoff);
  if (!was_open) {
    b.open = true;
    Metrics().breaker_open->Add(1);
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kBreakerOpen,
                                           host_name(), host, 0, b.failures);
    PPM_INFO("lpm") << host_name() << ": circuit breaker OPEN for " << host
                    << " after " << b.failures << " failures";
  }
}

void Lpm::RecordPeerSuccess(const std::string& host) {
  auto it = breakers_.find(host);
  if (it == breakers_.end()) return;
  if (it->second.open) {
    Metrics().breaker_open->Add(-1);
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kBreakerClose,
                                           host_name(), host, 0, 0);
    PPM_INFO("lpm") << host_name() << ": circuit breaker closed for " << host;
  }
  breakers_.erase(it);
}

size_t Lpm::open_breaker_count() const {
  size_t n = 0;
  for (const auto& [host, b] : breakers_) {
    if (b.open) ++n;
  }
  return n;
}

bool Lpm::breaker_open_for(const std::string& host) const {
  auto it = breakers_.find(host);
  return it != breakers_.end() && it->second.open;
}

// --- connection plumbing ----------------------------------------------------------------

void Lpm::OnAccept(net::ConnId conn, net::SocketAddr peer) {
  (void)peer;
  peers_[conn] = PeerInfo{};  // unknown until Hello
}

void Lpm::SendMsg(net::ConnId conn, const Msg& msg, const obs::TraceContext& trace,
                  const DeadlineStamp& stamp) {
  kernel().RecordIpc(pid(), /*sent=*/true, 0);
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kFrameSent, host_name(),
                                         MsgTypeName(msg), trace.trace_id,
                                         static_cast<uint64_t>(conn));
  Serialize(msg, trace, stamp, send_buf_);
  network().Send(conn, send_buf_.CopyOut());
}

void Lpm::SendToSibling(net::ConnId conn, Msg msg, sim::SimDuration base_cost,
                        sim::SimDuration extra_delay, const obs::TraceContext& trace,
                        const DeadlineStamp& stamp) {
  sim::SimDuration cost = kernel().Charge(pid(), base_cost) + extra_delay;
  simulator().ScheduleIn(cost, [this, conn, msg = std::move(msg), trace, stamp] {
    if (!running_) return;
    SendMsg(conn, msg, trace, stamp);
  }, "lpm-sibling-send");
}

void Lpm::ReplyMsg(net::ConnId conn, const Msg& msg) {
  // Settle idempotency bookkeeping: if this reply answers a tokened
  // mutating request, capture it so a retransmit of the same token
  // replays this exact response instead of re-executing.  Conn ids are
  // never reused, so capture is safe even after the circuit died (the
  // retry then arrives on a fresh conn and hits the cache).
  if (!idem_replies_.empty()) {
    if (auto rid = MsgReqId(msg)) {
      auto it = idem_replies_.find({conn, *rid});
      if (it != idem_replies_.end()) {
        const uint64_t token = it->second;
        idem_replies_.erase(it);
        inflight_tokens_.erase(token);
        done_cache_[token] = msg;
        done_order_.push_back(token);
        if (done_order_.size() > kIdemCacheCap) {
          done_cache_.erase(done_order_.front());
          done_order_.pop_front();
        }
      }
    }
  }
  auto it = peers_.find(conn);
  if (it != peers_.end() && it->second.kind == PeerKind::kSibling) {
    SendToSibling(conn, msg, BaseCosts::kSiblingSend);
  } else {
    SendMsg(conn, msg);
  }
}

void Lpm::OnClose(net::ConnId conn, net::CloseReason reason) {
  auto it = peers_.find(conn);
  if (it == peers_.end()) return;
  PeerInfo info = it->second;
  peers_.erase(it);

  // Every forwarded request waiting on this circuit lost its channel:
  // a fast failure, eligible for a backoff retry under the deadline
  // (the receiver's duplicate suppression makes the retry safe).
  std::vector<uint64_t> dead;
  for (auto& [id, pf] : pending_) {
    if (pf.conn == conn) dead.push_back(id);
  }
  for (uint64_t id : dead) {
    ForwardAttemptFailed(id, "channel lost");
  }

  // Watches pinned to this circuit die with it: the delta path never
  // migrates to a re-established circuit (sequence contiguity), so a
  // break ends the watch here.  Downstream relays learn lazily — their
  // next push to us meets an unknown watch and gets a StatUnsubscribe.
  std::vector<StatWatchKey> dead_watches;
  for (auto& [key, w] : stat_watches_) {
    if ((w.is_origin && w.tool_conn == conn) ||
        (!w.is_origin && w.parent_conn == conn)) {
      dead_watches.push_back(key);
    }
  }
  for (const StatWatchKey& key : dead_watches) {
    DropStatWatch(key, "circuit lost");
  }

  if (info.kind == PeerKind::kSibling) {
    auto sit = siblings_.find(info.host);
    if (sit != siblings_.end() && sit->second == conn) siblings_.erase(sit);
    if (reason == net::CloseReason::kPeerCrash || reason == net::CloseReason::kNetBroken) {
      ++stats_.failures_detected;
      PPM_INFO("lpm") << host_name() << ": lost sibling " << info.host << " ("
                      << net::ToString(reason) << ")";
      OnSiblingLost(info.host, reason);
    }
    ReviewTtl();
  } else if (info.kind == PeerKind::kTool) {
    ReviewTtl();
  }
}

void Lpm::OnData(net::ConnId conn, const std::vector<uint8_t>& bytes) {
  PPM_PROF_SCOPE("lpm.on_data");
  kernel().RecordIpc(pid(), /*sent=*/false, bytes.size());
  auto msg = Parse(bytes, &rx_trace_, &rx_stamp_);
  if (msg) {
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kFrameRecv, host_name(),
                                           MsgTypeName(*msg), rx_trace_.trace_id,
                                           static_cast<uint64_t>(conn));
  }
  if (msg && rx_trace_.valid()) {
    // Close the hop span: the message reached this manager now.
    obs::Tracer::Instance().RecordArrival(rx_trace_, host_name());
  }
  if (!msg) {
    PPM_WARN("lpm") << host_name() << ": unparseable message, closing circuit";
    network().Close(conn);
    // A corrupted channel is a failed channel: run the same bookkeeping
    // as a detected break, so sibling entries and pending forwards don't
    // keep pointing at a circuit that no longer exists (a zombie sibling
    // would swallow every future flood sent its way) and recovery runs
    // if the lost peer mattered.
    OnClose(conn, net::CloseReason::kNetBroken);
    return;
  }
  auto it = peers_.find(conn);
  if (it == peers_.end()) return;
  PeerInfo& info = it->second;

  if (info.kind == PeerKind::kUnknown || !info.authenticated) {
    HandleHello(conn, *msg, info);
    return;
  }

  // A retried mutating request (idempotency token on the frame) must
  // never execute twice: replay the cached response or swallow the
  // retransmit before the dispatch visit sees it.
  if (SuppressDuplicate(conn, *msg)) return;

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CreateReq>) {
          HandleHostReq(conn, m, &Lpm::DoCreateLocal);
        } else if constexpr (std::is_same_v<T, SignalReq>) {
          HandleHostReq(conn, m, &Lpm::DoSignalLocal);
        } else if constexpr (std::is_same_v<T, RusageReq>) {
          HandleHostReq(conn, m, &Lpm::DoRusageLocal);
        } else if constexpr (std::is_same_v<T, AdoptReq>) {
          HandleHostReq(conn, m, &Lpm::DoAdoptLocal);
        } else if constexpr (std::is_same_v<T, TraceReq>) {
          HandleHostReq(conn, m, &Lpm::DoTraceLocal);
        } else if constexpr (std::is_same_v<T, HistoryReq>) {
          HandleHostReq(conn, m, &Lpm::DoHistoryLocal);
        } else if constexpr (std::is_same_v<T, TriggerReq>) {
          HandleHostReq(conn, m, &Lpm::DoTriggerLocal);
        } else if constexpr (std::is_same_v<T, FilesReq>) {
          HandleHostReq(conn, m, &Lpm::DoFilesLocal);
        } else if constexpr (std::is_same_v<T, MigrateReq>) {
          HandleHostReq(conn, m, &Lpm::DoMigrateLocal);
        } else if constexpr (std::is_same_v<T, SnapshotReq>) {
          HandleCollectiveReq<SnapshotCollective>(conn, m);
        } else if constexpr (std::is_same_v<T, SnapshotResp>) {
          HandleCollectiveResp<SnapshotCollective>(m);
        } else if constexpr (std::is_same_v<T, StatReq>) {
          HandleCollectiveReq<StatCollective>(conn, m);
        } else if constexpr (std::is_same_v<T, StatResp>) {
          HandleCollectiveResp<StatCollective>(m);
        } else if constexpr (std::is_same_v<T, StatSubscribe>) {
          HandleStatSubscribe(conn, m);
        } else if constexpr (std::is_same_v<T, StatDelta>) {
          HandleStatDelta(conn, m);
        } else if constexpr (std::is_same_v<T, StatUnsubscribe>) {
          HandleStatUnsubscribe(conn, m);
        } else if constexpr (std::is_same_v<T, BusyResp>) {
          HandleBusy(m);
        } else if constexpr (std::is_same_v<T, GroupSpawnReq>) {
          HandleGroupSpawn(conn, m);
        } else if constexpr (std::is_same_v<T, GroupPartReq>) {
          HandleHostReq(conn, m, &Lpm::DoGroupPartLocal);
        } else if constexpr (std::is_same_v<T, GroupUndoReq>) {
          HandleGroupUndo(conn, m);
        } else if constexpr (std::is_same_v<T, GroupExitNotify>) {
          HandleGroupExitNotify(conn, m);
        } else if constexpr (std::is_same_v<T, GroupAddNotify>) {
          HandleGroupAddNotify(conn, m);
        } else if constexpr (std::is_same_v<T, GroupSignalReq>) {
          HandleGroupSignal(conn, m);
        } else if constexpr (std::is_same_v<T, GroupJoinReq>) {
          HandleGroupJoin(conn, m);
        } else if constexpr (std::is_same_v<T, BarrierEnterReq>) {
          HandleBarrierEnter(conn, m);
        } else if constexpr (std::is_same_v<T, BarrierJoinReq>) {
          HandleBarrierJoin(conn, m);
        } else if constexpr (std::is_same_v<T, BarrierReleaseReq>) {
          HandleBarrierRelease(conn, m);
        } else if constexpr (std::is_same_v<T, EnvarSetReq>) {
          HandleEnvarSet(conn, m);
        } else if constexpr (std::is_same_v<T, EnvarGetReq>) {
          HandleEnvarGet(conn, m);
        } else if constexpr (std::is_same_v<T, EnvarWatchReq>) {
          HandleEnvarWatch(conn, m);
        } else if constexpr (std::is_same_v<T, EnvarUpdate>) {
          HandleEnvarUpdate(m);
        } else if constexpr (std::is_same_v<T, EnvarSync>) {
          HandleEnvarSync(m);
        } else if constexpr (requires { m.req_id; m.ok; }) {
          // A typed reply (every one carries ok; no request does) settles
          // the forward waiting on its req_id.
          SettleForward(m.req_id, &*msg);
        } else if constexpr (std::is_same_v<T, BecomeCcs>) {
          PPM_INFO("lpm") << host_name() << ": assuming CCS role (asked by "
                          << m.requested_by << ")";
          SetCcs(host_name());
          CancelDeath();
          SetMode(LpmMode::kNormal);
          recovery_in_progress_ = false;
          RegisterCcsWithNameServer();
          auto list = ReadRecoveryList(host_.fs(), uid_);
          auto idx = list.IndexOf(host_name());
          if (idx && *idx > 0) {
            SetMode(LpmMode::kRecovering);
            simulator().Cancel(probe_event_);
            probe_event_ = simulator().ScheduleIn(config_.probe_interval,
                                                  [this] { ProbeHigherPriority(); },
                                                  "lpm-probe");
          }
          AnnounceCcs();
          ReviewTtl();
        } else if constexpr (std::is_same_v<T, RegisterChild>) {
          auto it = local_procs_.find(m.parent_pid);
          if (it != local_procs_.end()) {
            auto& kids = it->second.remote_children;
            if (std::find(kids.begin(), kids.end(), m.child) == kids.end()) {
              kids.push_back(m.child);
              if (store_) store_->RecordRemoteChild(m.parent_pid, m.child);
            }
          }
        } else if constexpr (std::is_same_v<T, CcsChanged>) {
          AcceptCcsAnnouncement(m.new_ccs);
        } else if constexpr (std::is_same_v<T, Probe>) {
          ProbeAck ack;
          ack.req_id = m.req_id;
          ack.host = host_name();
          ack.is_ccs = is_ccs();
          SendMsg(conn, ack);
        } else if constexpr (std::is_same_v<T, ProbeAck>) {
          SettleForward(m.req_id, &*msg);
        }
        // HelloSibling / HelloTool / HelloAck / HelloReject on an
        // authenticated circuit are protocol errors; ignore.
      },
      *msg);
}

// --- hello ------------------------------------------------------------------------

void Lpm::HandleHello(net::ConnId conn, const Msg& msg, PeerInfo& info) {
  if (const auto* hs = std::get_if<HelloSibling>(&msg)) {
    // Inbound sibling: must present *our* token (obtained from our pmd,
    // which enforced the user-level checks).
    if (hs->token != token_ || hs->user != user_) {
      HelloReject rej;
      rej.reason = "authentication failed";
      SendMsg(conn, rej);
      network().Close(conn);
      peers_.erase(conn);
      return;
    }
    // Crossing setups keep the circuit the lower-named host opened.  Our
    // hello to this higher-named peer is out already (its circuit is in
    // peers_): leave the peer's circuit unanswered.  The peer keeps ours
    // when our hello lands and closes its own, this one.
    auto own = sibling_setup_conn_.find(hs->origin_host);
    if (hs->origin_host > host_name() && own != sibling_setup_conn_.end() &&
        peers_.count(own->second)) {
      return;
    }
    info.kind = PeerKind::kSibling;
    info.host = hs->origin_host;
    info.authenticated = true;
    HelloAck ack;
    ack.host = host_name();
    ack.lpm_pid = pid();
    ack.ccs_host = CcsClaim();
    SendMsg(conn, ack);
    if (!hs->ccs_host.empty()) AdoptCcsFromPeer(hs->ccs_host);
    // Otherwise, if our own outbound exchange to this host is still in
    // flight, this inbound circuit settles it — the waiters (possibly a
    // recovery walk) must not sit out the setup timeout.  The ack goes
    // first so the peer authenticates the circuit before any forwarded
    // traffic the waiters emit on it.
    SiblingEstablished(hs->origin_host, conn);
    return;
  }
  if (const auto* ht = std::get_if<HelloTool>(&msg)) {
    // Tools are local: the circuit must originate on this host, and the
    // claimed uid must be ours (stands in for SCM_CREDENTIALS).
    auto ep = network().ConnEndpoints(conn);
    bool local = ep && ep->second.host == host_.net_id();
    if (!local || ht->uid != uid_ || ht->user != user_) {
      HelloReject rej;
      rej.reason = "tool authentication failed";
      SendMsg(conn, rej);
      network().Close(conn);
      peers_.erase(conn);
      return;
    }
    info.kind = PeerKind::kTool;
    info.tool_name = ht->tool_name;
    info.authenticated = true;
    // First contact establishes the session: if no CCS exists yet, this
    // LPM is it by default (paper Section 5).
    if (ccs_host_.empty()) {
      SetCcs(host_name());
      RegisterCcsWithNameServer();
      // A default coordinator still owes deference to ~/.recovery: if a
      // higher-priority listed host (or any listed host, when we are
      // unlisted) runs an LPM, probe upward and yield to it, exactly
      // like an acting CCS after a partition heals.  Without this, tool
      // sessions started independently on different hosts would create
      // coordinator islands that never reconcile.
      auto list = ReadRecoveryList(host_.fs(), uid_);
      auto idx = list.IndexOf(host_name());
      if (!list.hosts.empty() && (!idx || *idx > 0)) {
        simulator().Cancel(probe_event_);
        probe_event_ = simulator().ScheduleIn(config_.probe_interval,
                                              [this] { ProbeHigherPriority(); },
                                              "lpm-probe");
      }
    }
    HelloAck ack;
    ack.host = host_name();
    ack.lpm_pid = pid();
    ack.ccs_host = CcsClaim();
    SendMsg(conn, ack);
    ReviewTtl();
    return;
  }
  if (const auto* ack = std::get_if<HelloAck>(&msg)) {
    // Outbound sibling circuit we initiated: authentication complete.
    if (info.kind == PeerKind::kSibling && !info.authenticated) {
      info.authenticated = true;
      if (!ack->ccs_host.empty()) AdoptCcsFromPeer(ack->ccs_host);
      SiblingEstablished(info.host, conn);
      return;
    }
    return;
  }
  if (std::get_if<HelloReject>(&msg) != nullptr) {
    std::string host = info.host;
    network().Close(conn);
    peers_.erase(conn);
    if (!host.empty()) SiblingSetupFailed(host, "hello rejected");
    return;
  }
  // Anything else before authentication: refuse.
  HelloReject rej;
  rej.reason = "hello expected";
  SendMsg(conn, rej);
  network().Close(conn);
  peers_.erase(conn);
}

// --- local actions ---------------------------------------------------------------

void Lpm::DoCreateLocal(const CreateReq& req, Pid handler,
                        std::function<void(const CreateResp&)> done) {
  // The LPM is the process creation server (paper Section 2): the child
  // is forked from the manager, adopted at birth, and its logical parent
  // — possibly on another machine — is recorded for the genealogy.
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(handler, BaseCosts::kForkExec);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    CreateResp resp;
    resp.req_id = req.req_id;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
      done(resp);
      return;
    }
    Pid child = kernel().Spawn(pid(), uid_, req.command, nullptr,
                               req.initially_running ? host::ProcState::kRunning
                                                     : host::ProcState::kSleeping,
                               req.trace_mask, pid());
    LocalProc info;
    info.logical_parent = req.logical_parent;
    info.command = req.command;
    if (store_) store_->RecordProcNew(child, info.logical_parent, info.command);
    local_procs_[child] = std::move(info);
    resp.ok = true;
    resp.gpid = GPid{host_name(), child};
    // A cross-host logical parent must learn of this child, or once it
    // exits its manager would drop it from snapshots while the child
    // lives ("retain exit information while there are children alive").
    if (req.logical_parent.valid() && req.logical_parent.host != host_name()) {
      GPid parent = req.logical_parent;
      GPid child_gpid = resp.gpid;
      EnsureSibling(parent.host, [this, parent, child_gpid](std::optional<net::ConnId> c) {
        if (!c || !running_) return;
        RegisterChild note;
        note.parent_pid = parent.pid;
        note.child = child_gpid;
        SendMsg(*c, note);
      });
    }
    ReviewTtl();
    done(resp);
  }, "lpm-create");
}

void Lpm::DoSignalLocal(const SignalReq& req, Pid handler,
                        std::function<void(const SignalResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(handler, BaseCosts::kSignal);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    SignalResp resp;
    resp.req_id = req.req_id;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
      done(resp);
      return;
    }
    std::string err;
    resp.ok = kernel().PostSignal(req.target.pid, req.sig, uid_, &err);
    resp.error = err;
    done(resp);
  }, "lpm-signal");
}

std::vector<ProcRecord> Lpm::ScanLocalProcesses() {
  // Which exited processes still matter?  Those that still anchor
  // descendants — the paper retains exit information while children are
  // alive and marks the node as exited in the display.  Anchoring is
  // *transitive*: an exited parent of an exited-but-anchoring child must
  // itself be kept, or the chain to its live grandchildren snaps.
  // (Remote children are counted conservatively: we do not learn of
  // their deaths, so a parent with any recorded remote child is kept.)
  std::set<GPid> included;
  for (const auto& [lpid, info] : local_procs_) {
    const host::Process* p = kernel().Find(lpid);
    if ((p && p->alive()) || !info.remote_children.empty()) {
      included.insert(GPid{host_name(), lpid});
    }
  }
  bool grew = true;
  while (grew) {
    grew = false;
    // Parents of included records must be included too.
    for (const auto& [lpid, info] : local_procs_) {
      GPid self{host_name(), lpid};
      if (!included.count(self) || !info.logical_parent.valid()) continue;
      if (info.logical_parent.host == host_name() &&
          local_procs_.count(info.logical_parent.pid) &&
          !included.count(info.logical_parent)) {
        included.insert(info.logical_parent);
        grew = true;
      }
    }
  }
  std::vector<ProcRecord> out;
  for (const auto& [lpid, info] : local_procs_) {
    const host::Process* p = kernel().Find(lpid);
    bool alive = p && p->alive();
    GPid self{host_name(), lpid};
    if (!alive && !included.count(self)) continue;
    ProcRecord rec;
    rec.gpid = self;
    rec.logical_parent = info.logical_parent;
    rec.uid = uid_;
    rec.command = info.command;
    if (alive) {
      rec.state = p->state;
      rec.exited = false;
      rec.start_time = p->start_time;
      rec.cpu_time = p->rusage.cpu_time;
    } else {
      rec.state = host::ProcState::kDead;
      rec.exited = true;
      if (p) {
        rec.start_time = p->start_time;
        rec.end_time = p->end_time;
        rec.cpu_time = p->rusage.cpu_time;
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

// --- the request route (paper Section 6) ----------------------------------------------
//
// Every request aimed at one host takes one route.  The dispatcher
// admits the request and hands it to a handler.  The handler serves it when
// this host is the target; otherwise it hands the request to the target's
// manager and relays the answer, and if no answer comes it returns the
// failure to the originator.  A kind supplies only its serve, Do<Kind>Local.

namespace {
// Where a host-targeted request is served: its target_host (empty means
// the receiving manager's own host), the host of the GPid it names, or,
// for a gang-spawn part, the host it was sent to.
template <typename Req>
const std::string& TargetHost(const Req& req, const std::string& here) {
  if constexpr (requires { req.target_host; }) {
    return req.target_host.empty() ? here : req.target_host;
  } else if constexpr (requires { req.target.host; }) {
    return req.target.host;
  } else {
    return here;
  }
}

// The round-trip histogram of a routed kind, for the kinds that keep one.
template <typename Req>
obs::Histogram* RouteLatency() {
  if constexpr (std::is_same_v<Req, CreateReq>) {
    return Metrics().create_ms;
  } else if constexpr (std::is_same_v<Req, SignalReq>) {
    return Metrics().signal_ms;
  } else {
    return nullptr;
  }
}
}  // namespace

template <typename Req, typename Resp>
void Lpm::HandleHostReq(net::ConnId conn, const Req& req,
                        void (Lpm::*serve)(const Req&, Pid,
                                           std::function<void(const Resp&)>)) {
  if (!AdmitRequest(conn, req.req_id)) return;
  obs::TraceContext rx = rx_trace_;
  sim::SimTime t0 = simulator().Now();
  Dispatch(RxMeta(conn, req.req_id), [this, conn, req, serve, rx, t0](Pid h) {
    auto reply = [this, conn, h, t0](const Resp& resp) {
      if (obs::Histogram* latency = RouteLatency<Req>()) {
        latency->Observe(static_cast<double>(simulator().Now() - t0) / 1000.0);
      }
      ReplyMsg(conn, resp);
      ReleaseHandler(h);
    };
    const std::string& target = TargetHost(req, host_name());
    if (target == host_name()) {
      (this->*serve)(req, h, reply);
      return;
    }
    Req fwd = req;
    fwd.req_id = NextReqId();
    ForwardToHost<Resp>(
        target, fwd, h,
        [orig_id = req.req_id, reply](const Resp* answer, const std::string& err) {
          Resp resp;
          if (answer != nullptr) {
            resp = *answer;
          } else {
            resp.ok = false;
            resp.error = err.empty() ? "forward failed" : err;
          }
          resp.req_id = orig_id;
          reply(resp);
        },
        rx);
  });
}

template <typename Req, typename Resp>
void Lpm::RouteOwnRequest(Req req,
                          void (Lpm::*serve)(const Req&, Pid,
                                             std::function<void(const Resp&)>),
                          std::function<void(bool, std::string)> done) {
  Dispatch([this, req, serve, done = std::move(done)](Pid h) mutable {
    req.req_id = NextReqId();
    auto finish = [this, h, done](bool ok, const std::string& error) {
      done(ok, error);
      ReleaseHandler(h);
    };
    if (req.target.host == host_name()) {
      (this->*serve)(req, h, [finish](const Resp& resp) { finish(resp.ok, resp.error); });
      return;
    }
    ForwardToHost<Resp>(req.target.host, req, h,
                        [finish](const Resp* resp, const std::string& err) {
                          if (resp != nullptr) {
                            finish(resp->ok, resp->error);
                          } else {
                            finish(false, err);
                          }
                        });
  });
}

void Lpm::DoRusageLocal(const RusageReq& req, Pid handler,
                        std::function<void(const RusageResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(handler, BaseCosts::kPerProcessScan *
                                       static_cast<int64_t>(exited_stats_.size() + 1));
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    RusageResp resp;
    resp.req_id = req.req_id;
    resp.ok = true;
    resp.records = exited_stats_;
    done(resp);
  }, "lpm-rusage");
}

void Lpm::DoAdoptLocal(const AdoptReq& req, Pid handler,
                       std::function<void(const AdoptResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    AdoptResp resp;
    resp.req_id = req.req_id;
    std::vector<Pid> adopted;
    std::string err;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
    } else if (kernel().Adopt(pid(), req.target.pid, req.trace_mask, uid_, &adopted,
                              &err)) {
      resp.ok = true;
      for (Pid p : adopted) {
        resp.adopted_pids.push_back(p);
        if (!local_procs_.count(p)) {
          const host::Process* proc = kernel().Find(p);
          LocalProc info;
          info.command = proc ? proc->command : "?";
          // Derive the logical parent from the kernel genealogy when
          // the parent is also ours.
          if (proc && local_procs_.count(proc->ppid)) {
            info.logical_parent = GPid{host_name(), proc->ppid};
          }
          if (store_) {
            store_->RecordProcNew(p, info.logical_parent, info.command);
          }
          local_procs_[p] = std::move(info);
        }
      }
      ReviewTtl();
    } else {
      resp.ok = false;
      resp.error = err;
    }
    done(resp);
  }, "lpm-adopt");
}

void Lpm::DoTraceLocal(const TraceReq& req, Pid handler,
                       std::function<void(const TraceResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    TraceResp resp;
    resp.req_id = req.req_id;
    std::string err;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
    } else {
      resp.ok = kernel().SetTraceMask(req.target.pid, req.trace_mask, uid_, &err);
      resp.error = err;
    }
    done(resp);
  }, "lpm-trace");
}

void Lpm::DoHistoryLocal(const HistoryReq& req, Pid handler,
                         std::function<void(const HistoryResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    HistoryResp resp;
    resp.req_id = req.req_id;
    resp.ok = true;
    resp.events = event_log_.Query(req.pid_filter, req.max_events);
    done(resp);
  }, "lpm-history");
}

void Lpm::DoTriggerLocal(const TriggerReq& req, Pid handler,
                         std::function<void(const TriggerResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    TriggerResp resp;
    resp.req_id = req.req_id;
    resp.ok = true;
    resp.trigger_id = triggers_.Install(req.spec);
    if (store_) store_->RecordTriggerInstall(resp.trigger_id, req.spec);
    done(resp);
  }, "lpm-trigger");
}

void Lpm::DoFilesLocal(const FilesReq& req, Pid handler,
                       std::function<void(const FilesResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(handler, BaseCosts::kPerProcessScan);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    FilesResp resp;
    resp.req_id = req.req_id;
    const host::Process* p = running_ ? kernel().Find(req.target.pid) : nullptr;
    if (!p || !p->alive()) {
      resp.ok = false;
      resp.error = "no such process";
    } else if (p->uid != uid_) {
      resp.ok = false;
      resp.error = "permission denied";
    } else {
      resp.ok = true;
      for (const host::OpenFile& f : p->open_files) {
        resp.files.push_back(FileRecord{f.fd, f.path, f.mode});
      }
    }
    done(resp);
  }, "lpm-files");
}

void Lpm::DoMigrateLocal(const MigrateReq& req, Pid handler,
                         std::function<void(const MigrateResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  simulator().ScheduleIn(cost, [this, req, handler, done = std::move(done)] {
    MigrateAdopted(req, handler, done);
  }, "lpm-migrate-local");
}

void Lpm::MigrateAdopted(const MigrateReq& req, Pid handler,
                         std::function<void(const MigrateResp&)> done) {
  MigrateResp resp;
  resp.req_id = req.req_id;
  const host::Process* proc = kernel().Find(req.target.pid);
  if (!proc || !proc->alive() || !local_procs_.count(req.target.pid)) {
    resp.ok = false;
    resp.error = "no such adopted process";
    done(resp);
    return;
  }
  if (req.dest_host == host_name()) {
    resp.ok = false;
    resp.error = "already on " + host_name();
    done(resp);
    return;
  }
  // Checkpoint: scan the PCB and ship the image.
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kPerProcessScan);
  cost += kernel().Charge(handler, BaseCosts::kMigrateImage);
  bool was_running = proc->state == host::ProcState::kRunning;
  bool was_stopped = proc->state == host::ProcState::kStopped;
  CreateReq create;
  create.req_id = NextReqId();
  create.target_host = req.dest_host;
  create.command = proc->command;
  // The old incarnation becomes the new one's logical parent, so the
  // genealogical tree stays connected across the move (the old node is
  // retained, marked exited, exactly like any other exited interior).
  create.logical_parent = req.target;
  create.initially_running = was_running;
  create.trace_mask = proc->trace_mask;

  simulator().ScheduleIn(cost, [this, req, create, handler, was_stopped,
                                done = std::move(done)]() mutable {
    MigrateResp resp;
    resp.req_id = req.req_id;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
      done(resp);
      return;
    }
    ForwardToHost<CreateResp>(
        req.dest_host, create, handler,
        [this, req, handler, was_stopped, done = std::move(done)](
            const CreateResp* created, const std::string& err) mutable {
          MigrateResp resp;
          resp.req_id = req.req_id;
          if (created == nullptr || !created->ok) {
            resp.ok = false;
            resp.error = created != nullptr
                             ? created->error
                             : (err.empty() ? "destination unreachable" : err);
            done(resp);  // the original process is untouched
            return;
          }
          GPid new_gpid = created->gpid;
          // Commit: terminate the old incarnation and anchor the new one.
          auto it = local_procs_.find(req.target.pid);
          if (it != local_procs_.end()) {
            it->second.remote_children.push_back(new_gpid);
            if (store_) store_->RecordRemoteChild(req.target.pid, new_gpid);
          }
          kernel().PostSignal(req.target.pid, host::Signal::kSigKill, uid_);
          resp.ok = true;
          resp.new_gpid = new_gpid;
          if (!was_stopped) {
            done(resp);
            return;
          }
          // Preserve the stopped state at the destination.
          SignalReq stop;
          stop.req_id = NextReqId();
          stop.target = new_gpid;
          stop.sig = host::Signal::kSigStop;
          ForwardToHost<SignalResp>(
              new_gpid.host, stop, handler,
              [resp, done = std::move(done)](const SignalResp*, const std::string&) {
                done(resp);
              });
        });
  }, "lpm-migrate");
}

void Lpm::MigrateGPid(const GPid& target, const std::string& dest,
                      std::function<void(bool, std::string)> done) {
  MigrateReq req;
  req.target = target;
  req.dest_host = dest;
  RouteOwnRequest(req, &Lpm::MigrateAdopted, std::move(done));
}

// --- forwarding & sibling management ----------------------------------------------------

template <typename Resp, typename Req>
void Lpm::ForwardToHost(const std::string& host, const Req& req, Pid handler,
                        std::function<void(const Resp*, const std::string&)> on_reply,
                        const obs::TraceContext& trace) {
  ForwardMsg(host, Msg{req}, req.req_id, handler,
             [on_reply = std::move(on_reply)](const Msg* m, const std::string& err) {
               on_reply(m != nullptr ? std::get_if<Resp>(m) : nullptr, err);
             },
             trace);
}

void Lpm::ForwardMsg(const std::string& host, Msg msg, uint64_t my_req_id, Pid handler,
                     std::function<void(const Msg*, const std::string&)> on_response,
                     const obs::TraceContext& trace) {
  ++stats_.forwards;
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kForward);
  simulator().ScheduleIn(cost, [this, host, msg = std::move(msg), my_req_id, handler,
                                on_response = std::move(on_response), trace]() mutable {
    if (!running_) {
      on_response(nullptr, "manager shutting down");
      return;
    }
    // Install the pending entry before the first attempt: the overall
    // deadline (one request_timeout from now) covers every retry, and a
    // timeout expiry is final — only fast failures (BUSY, channel lost,
    // sibling setup failure) re-attempt under it.  The deadline and the
    // idempotency token ride the wire on every attempt, so downstream
    // hops can cancel expired work and suppress duplicate execution.
    PendingForward pf;
    pf.handler = handler;
    pf.on_response = std::move(on_response);
    pf.host = host;
    pf.msg = std::move(msg);
    pf.trace = trace;
    if (config_.overload_protection) {
      pf.deadline_us =
          static_cast<uint64_t>(simulator().Now() + config_.request_timeout);
      pf.idem_token = MakeIdemToken(host_name(), my_req_id);
    }
    pf.timeout_ev = simulator().ScheduleIn(config_.request_timeout, [this, my_req_id] {
      auto it = pending_.find(my_req_id);
      if (it == pending_.end()) return;
      ++stats_.request_timeouts;
      SettleForward(my_req_id, nullptr, "request timed out");
    }, "lpm-fwd-timeout");
    pending_[my_req_id] = std::move(pf);
    StartForwardAttempt(my_req_id);
  }, "lpm-forward");
}

void Lpm::StartForwardAttempt(uint64_t req_id) {
  auto it = pending_.find(req_id);
  if (it == pending_.end() || !running_) return;
  const std::string host = it->second.host;
  if (config_.overload_protection && PeerQuarantined(host)) {
    // Fast-fail without paying the connect timeout; quarantine is not
    // itself evidence of a new failure, so the breaker stays untouched.
    SettleForward(req_id, nullptr, "peer quarantined");
    return;
  }
  EnsureSibling(host, [this, req_id](std::optional<net::ConnId> conn) {
    auto it = pending_.find(req_id);
    if (it == pending_.end()) return;  // overall timeout beat the connect
    if (!conn) {
      ForwardAttemptFailed(req_id, "sibling unreachable");
      return;
    }
    PendingForward& pf = it->second;
    pf.conn = *conn;
    obs::TraceContext hop =
        obs::Tracer::Instance().StartSpan(pf.trace, "forward", host_name());
    DeadlineStamp stamp;
    stamp.deadline_us = pf.deadline_us;
    stamp.idem_token = pf.idem_token;
    SendToSibling(*conn, pf.msg, BaseCosts::kSiblingSend, 0, hop, stamp);
  });
}

void Lpm::ForwardAttemptFailed(uint64_t req_id, const std::string& why,
                               uint64_t min_backoff_us) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  PendingForward& pf = it->second;
  pf.conn = net::kInvalidConn;  // no attempt in flight while backing off
  if (!config_.overload_protection || pf.attempts >= config_.max_retries) {
    SettleForward(req_id, nullptr, why);
    return;
  }
  // Exponential backoff with seeded jitter (0.5x-1.5x) so a burst of
  // simultaneous failures does not retry in lockstep; a BUSY peer's
  // retry-after hint floors the wait.
  const uint32_t attempt = ++pf.attempts;
  ++stats_.retries;
  Metrics().retries->Inc();
  double jitter = 0.5 + simulator().rng().NextDouble();
  auto backoff = static_cast<sim::SimDuration>(
      static_cast<double>(kRetryBase << (attempt - 1)) * jitter);
  backoff = std::max(backoff, static_cast<sim::SimDuration>(min_backoff_us));
  if (pf.deadline_us != 0 &&
      static_cast<uint64_t>(simulator().Now() + backoff) >= pf.deadline_us) {
    // No room left under the deadline for another round trip.
    SettleForward(req_id, nullptr, why);
    return;
  }
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kRetry, host_name(),
                                         pf.host, 0, req_id, attempt);
  simulator().ScheduleIn(backoff, [this, req_id] { StartForwardAttempt(req_id); },
                         "lpm-fwd-retry");
}

void Lpm::SettleForward(uint64_t req_id, const Msg* reply, const std::string& why) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;  // e.g. a late reply after the timeout
  PendingForward pf = std::move(it->second);
  pending_.erase(it);
  simulator().Cancel(pf.timeout_ev);
  if (pf.on_response) pf.on_response(reply, why);
}

void Lpm::HandleBusy(const BusyResp& busy) {
  auto it = pending_.find(busy.req_id);
  if (it == pending_.end()) return;  // late BUSY after timeout
  ForwardAttemptFailed(busy.req_id,
                       busy.error.empty() ? "peer busy" : busy.error,
                       busy.retry_after_us);
}

void Lpm::EnsureSibling(const std::string& host,
                        std::function<void(std::optional<net::ConnId>)> done) {
  auto it = siblings_.find(host);
  if (it != siblings_.end()) {
    done(it->second);
    return;
  }
  // No quarantine check here: the forward path fast-fails in
  // StartForwardAttempt before it ever reaches this point, and the
  // control-plane callers (recovery walk, CCS probe) must pay the real
  // connect cost — a breaker left open across a heal would otherwise make
  // a healthy recovery host look dead and march the LPM into time-to-die.
  bool setup_in_progress = sibling_waiters_.count(host) > 0;
  sibling_waiters_[host].push_back(std::move(done));
  if (setup_in_progress) return;

  auto host_id = network().FindHost(host);
  if (!host_id) {
    SiblingSetupFailed(host, "unknown host");
    return;
  }
  // The exchange as a whole runs against a deadline: a frame lost on a
  // faulty link can leave a circuit open-but-silent, and without a bound
  // every waiter (most critically the recovery walk) would hang forever.
  sibling_setup_timeout_ev_[host] = simulator().ScheduleIn(
      kSiblingSetupTimeout, [this, host] { SiblingSetupTimedOut(host); },
      "lpm-sibling-setup-timeout");
  // Note: no liveness shortcut here — whether the host is up can only be
  // learned by trying, i.e. by paying the connect timeout, exactly the
  // cost structure the recovery-list walk has on real networks.
  // Step (1) of Figure 2: ask the remote inetd for the user's LPM.
  net::ConnCallbacks cb;
  cb.on_data = [this, host](net::ConnId c, const std::vector<uint8_t>& bytes) {
    auto resp = daemon::LpmResponse::Parse(bytes);
    sibling_setup_conn_.erase(host);
    network().Close(c);
    if (!resp) {
      SiblingSetupFailed(host, "bad pmd response");
      return;
    }
    FinishSiblingSetup(host, *resp);
  };
  cb.on_close = [](net::ConnId, net::CloseReason) {};
  network().Connect(host_.net_id(), net::SocketAddr{*host_id, net::kInetdPort},
                    std::move(cb), [this, host](std::optional<net::ConnId> c) {
                      if (!running_) return;
                      if (!c) {
                        SiblingSetupFailed(host, "inetd unreachable");
                        return;
                      }
                      sibling_setup_conn_[host] = *c;
                      daemon::LpmRequest req;
                      req.user = user_;
                      req.origin_host = host_name();
                      req.origin_user = user_;
                      network().Send(*c, req.Serialize());
                    });
}

void Lpm::FinishSiblingSetup(const std::string& host, const daemon::LpmResponse& resp) {
  if (!running_) return;
  if (!resp.ok) {
    // A busy pmd is reachable — an overload signal, not unreachability;
    // retry under backoff without feeding the circuit breaker.
    SiblingSetupFailed(host, resp.error, /*count_failure=*/!resp.busy);
    return;
  }
  // Step (4) done: we hold the accept address and the token; open the
  // private channel (Figure 3) and authenticate.
  net::ConnCallbacks cb;
  cb.on_data = [this](net::ConnId c, const std::vector<uint8_t>& b) { OnData(c, b); };
  cb.on_close = [this](net::ConnId c, net::CloseReason r) { OnClose(c, r); };
  uint64_t token = resp.token;
  network().Connect(host_.net_id(), resp.accept_addr, std::move(cb),
                    [this, host, token](std::optional<net::ConnId> c) {
                      if (!running_) return;
                      if (!c) {
                        SiblingSetupFailed(host, "accept socket unreachable");
                        return;
                      }
                      sibling_setup_conn_[host] = *c;
                      PeerInfo info;
                      info.kind = PeerKind::kSibling;
                      info.host = host;
                      info.authenticated = false;  // until HelloAck
                      peers_[*c] = info;
                      HelloSibling hello;
                      hello.user = user_;
                      hello.origin_host = host_name();
                      hello.origin_lpm_pid = pid();
                      hello.token = token;
                      hello.ccs_host = CcsClaim();
                      SendMsg(*c, hello);
                    });
}

void Lpm::SiblingEstablished(const std::string& host, net::ConnId conn) {
  auto tit = sibling_setup_timeout_ev_.find(host);
  if (tit != sibling_setup_timeout_ev_.end()) {
    simulator().Cancel(tit->second);
    sibling_setup_timeout_ev_.erase(tit);
  }
  // A crossing inbound setup can win while our own outbound exchange is
  // mid-flight on a different circuit; close the abandoned one.
  auto cit = sibling_setup_conn_.find(host);
  if (cit != sibling_setup_conn_.end()) {
    if (cit->second != conn) {
      peers_.erase(cit->second);
      network().Close(cit->second);
    }
    sibling_setup_conn_.erase(cit);
  }
  siblings_[host] = conn;
  RecordPeerSuccess(host);  // closes (and forgets) any open breaker
  // Anti-entropy for the replicated envar table: a freshly (re)connected
  // sibling may have missed flooded updates while unreachable, so push
  // our full table; merge on the far side keeps the highest version.
  if (!group_table_.envars().empty()) {
    EnvarSync sync;
    for (const auto& [key, var] : group_table_.envars()) {
      EnvarEntry e;
      e.key = key;
      e.value = var.value;
      e.version = var.version;
      e.origin = var.origin;
      sync.entries.push_back(std::move(e));
    }
    SendToSibling(conn, Msg{sync}, BaseCosts::kSiblingSend);
  }
  auto waiters = std::move(sibling_waiters_[host]);
  sibling_waiters_.erase(host);
  for (auto& cb : waiters) cb(conn);
  ReviewTtl();
}

void Lpm::SiblingSetupFailed(const std::string& host, const std::string& why,
                             bool count_failure) {
  PPM_DEBUG("lpm") << host_name() << ": sibling setup to " << host << " failed: " << why;
  auto tit = sibling_setup_timeout_ev_.find(host);
  if (tit != sibling_setup_timeout_ev_.end()) {
    simulator().Cancel(tit->second);
    sibling_setup_timeout_ev_.erase(tit);
  }
  // Tear down whatever circuit the exchange was using, so an abandoned
  // setup never leaks a half-open connection.  No forward is attached to
  // it yet (attachment happens only after the waiters fire), so a plain
  // close is safe.
  auto cit = sibling_setup_conn_.find(host);
  if (cit != sibling_setup_conn_.end()) {
    net::ConnId c = cit->second;
    sibling_setup_conn_.erase(cit);
    peers_.erase(c);
    network().Close(c);
  }
  if (count_failure) RecordPeerFailure(host);
  auto it = sibling_waiters_.find(host);
  if (it == sibling_waiters_.end()) return;
  auto waiters = std::move(it->second);
  sibling_waiters_.erase(it);
  for (auto& cb : waiters) cb(std::nullopt);
}

void Lpm::SiblingSetupTimedOut(const std::string& host) {
  sibling_setup_timeout_ev_.erase(host);
  if (!running_ || siblings_.count(host) > 0) return;
  PPM_INFO("lpm") << host_name() << ": sibling setup to " << host
                  << " timed out after "
                  << kSiblingSetupTimeout / 1000 << " ms";
  SiblingSetupFailed(host, "sibling setup timed out");
}

// --- the covering-graph broadcast (paper Section 4) ------------------------------------------
//
// Every broadcast — snapshot, STAT, the StatSubscribe that opens a watch,
// and the envar update flood — is one mechanism: the origin mints an
// <origin, bcast_seq> pair and records it (OriginateBcast); every manager
// drops a pair it has already seen (AcceptBcast) and re-floods the rest
// to all siblings except the one it came from (Flood).  Snapshot and STAT
// add the request/reply collective on top: each manager answers along
// the recorded source-destination route, and the origin collects until
// its CoverageTally empties or snapshot_timeout fires.

uint64_t Lpm::OriginateBcast() {
  const uint64_t seq = next_bcast_seq_++;
  ++stats_.bcasts_originated;
  // Record our own broadcast so an echo through a cycle is suppressed.
  bcast_filter_.CheckAndRecord(host_name(), seq, simulator().Now());
  return seq;
}

bool Lpm::AcceptBcast(const std::string& origin, uint64_t seq) {
  if (bcast_filter_.CheckAndRecord(origin, seq, simulator().Now())) return true;
  ++stats_.bcast_duplicates;
  obs::HealthMonitor::Instance().RateEvent("lpm.bcast.dup");
  PPM_DEBUG("lpm") << host_name() << ": suppressed duplicate flood from " << origin
                   << " seq " << seq;
  return false;
}

sim::SimDuration Lpm::Flood(const Msg& msg, const std::string& except_host,
                            const char* label, std::vector<std::string>* sent_to,
                            const obs::TraceContext& parent, const char* span) {
  // The dispatcher marshals once and then writes the message to each
  // sibling channel in turn: the first send pays the full marshalling
  // cost, the rest only the write.
  sim::SimDuration cum = 0;
  bool first = true;
  for (const auto& [host, conn] : siblings_) {
    if (host == except_host) continue;
    cum += kernel().Charge(pid(), first ? BaseCosts::kSiblingSend
                                        : BaseCosts::kSiblingSendExtra);
    first = false;
    net::ConnId target = conn;
    simulator().ScheduleIn(cum, [this, target, msg, parent, span] {
      if (!running_) return;
      // One hop span per fan-out edge, opened at the moment the frame
      // actually leaves; closed by the receiving LPM's OnData.  Without a
      // parent span the frame goes out untraced.
      SendMsg(target, msg, obs::Tracer::Instance().StartSpan(parent, span, host_name()));
    }, label);
    if (sent_to) sent_to->push_back(host);
  }
  return cum;
}

template <typename C>
void Lpm::StartCollective(net::ConnId tool_conn, const typename C::Req& tool_req,
                          Pid handler) {
  const uint64_t seq = OriginateBcast();
  if constexpr (std::is_same_v<C, StatCollective>) {
    // On-demand black-box dump; the text is retained in last_dump() for
    // the tool side (ppmstat fetches it out of the in-process recorder).
    if (tool_req.dump_flight) {
      obs::FlightRecorder::Instance().Dump("stat request from tool");
    }
  }

  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(
      handler, BaseCosts::kPerProcessScan * static_cast<int64_t>(local_procs_.size() + 1));
  const uint64_t tool_req_id = tool_req.req_id;
  simulator().ScheduleIn(cost, [this, tool_conn, tool_req_id, handler, seq] {
    if (!running_) return;
    typename C::Run run;
    run.tool_req_id = tool_req_id;
    run.tool_conn = tool_conn;
    run.handler = handler;
    run.records = C::LocalRecords(*this);
    // Root of the broadcast's causal trace: every flood hop, reply, and
    // relay becomes a descendant span, so the finished trace replays the
    // covering-graph tree (paper Section 4's recorded routes).
    run.trace = obs::Tracer::Instance().StartTrace(C::kTrace, host_name());
    run.start_us = simulator().Now();

    typename C::Req templ;
    templ.req_id = seq;
    templ.origin_host = host_name();
    templ.bcast_seq = seq;
    templ.signed_ts = simulator().Now();  // "signed" by naming the origin host
    templ.route.push_back(host_name());

    std::vector<std::string> sent;
    Flood(Msg{std::move(templ)}, /*except_host=*/"", "lpm-flood-send", &sent, run.trace,
          C::kReqSpan);
    run.tally = CoverageTally(host_name(), sent);
    PPM_DEBUG("lpm") << host_name() << ": " << C::kTrace << " seq " << seq
                     << " flooded to " << sent.size() << " siblings";

    const bool done = run.tally.done();
    if (!done) {
      run.timeout_ev = simulator().ScheduleIn(config_.snapshot_timeout, [this, seq] {
        auto& runs = C::Runs(*this);
        auto it = runs.find(seq);
        if (it == runs.end()) return;
        it->second.timeout_ev = sim::kInvalidEventId;
        FinishCollective<C>(seq);
      }, C::kTimeoutLabel);
    }
    C::Runs(*this)[seq] = std::move(run);
    if (done) FinishCollective<C>(seq);
  }, C::kStartLabel);
}

template <typename C>
void Lpm::HandleCollectiveReq(net::ConnId conn, const typename C::Req& req) {
  if (req.origin_host.empty()) {
    // A tool asking us to originate the broadcast.
    if (!AdmitRequest(conn, req.req_id)) return;
    Dispatch(RxMeta(conn, req.req_id),
             [this, conn, req](Pid h) { StartCollective<C>(conn, req, h); });
    return;
  }
  // A sibling's flood leg.  The hop span that carried the request here:
  // re-floods and the reply continue the causal chain under it.
  obs::TraceContext rx = rx_trace_;
  if (!AcceptBcast(req.origin_host, req.bcast_seq)) return;
  std::string sender = req.route.empty() ? std::string() : req.route.back();
  Dispatch([this, req, sender, rx](Pid h) {
    ++stats_.snapshots_served;  // a snapshot or STAT serve: one local scan
    sim::SimDuration cost = kernel().Charge(h, BaseCosts::kHandlerWork);
    cost += kernel().Charge(
        h, BaseCosts::kPerProcessScan * static_cast<int64_t>(local_procs_.size() + 1));
    simulator().ScheduleIn(cost, [this, req, sender, rx, h] {
      if (!running_) {
        ReleaseHandler(h);
        return;
      }
      typename C::Req fwd = req;
      fwd.route.push_back(host_name());
      typename C::Resp resp;
      sim::SimDuration flood_cost =
          Flood(Msg{fwd}, sender, "lpm-flood-send", &resp.forwarded_to, rx, C::kReqSpan);
      resp.req_id = req.req_id;
      resp.origin_host = req.origin_host;
      resp.bcast_seq = req.bcast_seq;
      resp.replier_host = host_name();
      resp.route = std::move(fwd.route);  // origin … us; replies walk it backwards
      resp.route_index = 0;
      resp.records = C::LocalRecords(*this);
      // First hop of the return path is whoever handed us the request.
      // The reply is marshalled after the forwarded floods have left.
      auto sit = siblings_.find(sender);
      if (sit != siblings_.end()) {
        obs::TraceContext hop =
            obs::Tracer::Instance().StartSpan(rx, C::kRespSpan, host_name());
        SendToSibling(sit->second, Msg{std::move(resp)}, BaseCosts::kSiblingSend,
                      flood_cost, hop);
      }
      // If the channel back is gone the origin's timeout covers us.
      ReleaseHandler(h);
    }, C::kServeLabel);
  });
}

template <typename C>
void Lpm::HandleCollectiveResp(const typename C::Resp& resp) {
  obs::TraceContext rx = rx_trace_;
  if (resp.origin_host != host_name()) {
    // Relay toward the origin along the recorded route (paper Section 4:
    // "All data returned to the originator of a broadcast request
    // includes the message's source-destination route").
    const std::string* next = PreviousHop(resp.route, host_name());
    if (next == nullptr) return;
    auto sit = siblings_.find(*next);
    if (sit == siblings_.end()) return;  // path broke; origin times out
    // Relaying costs a dispatch plus a channel write ("quick routing" of
    // replies along the recorded route, but not free).
    obs::TraceContext hop =
        obs::Tracer::Instance().StartSpan(rx, C::kRelaySpan, host_name());
    SendToSibling(sit->second, Msg{resp},
                  BaseCosts::kDispatch + BaseCosts::kHandlerWork + BaseCosts::kSiblingSend,
                  0, hop);
    return;
  }
  auto& runs = C::Runs(*this);
  auto it = runs.find(resp.bcast_seq);
  if (it == runs.end()) return;  // finished or timed out already
  typename C::Run& run = it->second;
  if (!run.tally.Reply(resp.replier_host, resp.forwarded_to)) return;  // duplicate reply
  run.records.insert(run.records.end(), resp.records.begin(), resp.records.end());
  if (run.tally.done()) FinishCollective<C>(resp.bcast_seq);
}

template <typename C>
void Lpm::FinishCollective(uint64_t bcast_seq) {
  auto& runs = C::Runs(*this);
  auto it = runs.find(bcast_seq);
  if (it == runs.end()) return;
  typename C::Run& run = it->second;
  simulator().Cancel(run.timeout_ev);
  C::Latency()->Observe(static_cast<double>(simulator().Now() - run.start_us) / 1000.0);
  typename C::Resp out;
  out.req_id = run.tool_req_id;
  out.origin_host = host_name();
  out.bcast_seq = bcast_seq;
  out.replier_host = host_name();
  // The tool learns which hosts contributed (coverage) via forwarded_to.
  out.forwarded_to = run.tally.Covered();
  out.records = std::move(run.records);
  // The final hop to the tool closes the trace's outermost branch.
  obs::TraceContext hop =
      obs::Tracer::Instance().StartSpan(run.trace, C::kDoneSpan, host_name());
  if (peers_.count(run.tool_conn)) SendMsg(run.tool_conn, out, hop);
  ReleaseHandler(run.handler);
  runs.erase(bcast_seq);
}

// --- live introspection (the STAT protocol) ------------------------------------------------
//
// The snapshot's collective with each manager's structured
// self-description (BuildStatRecord) as the payload instead of a process
// scan.  ppmstat renders the collected records as a cluster-wide table.

LpmStatRecord Lpm::BuildStatRecord() {
  LpmStatRecord rec;
  rec.host = host_name();
  rec.user = user_;
  rec.uid = static_cast<int32_t>(uid_);
  rec.lpm_pid = pid();
  rec.mode = static_cast<uint8_t>(mode_);
  rec.is_ccs = is_ccs();
  rec.ccs_host = ccs_host_;
  auto list = ReadRecoveryList(host_.fs(), uid_);
  auto idx = list.IndexOf(host_name());
  rec.recovery_rank = idx ? static_cast<int32_t>(*idx) : -1;
  rec.siblings = sibling_hosts();

  rec.handlers = static_cast<uint32_t>(handlers_.size());
  for (const Handler& h : handlers_) {
    if (h.busy) ++rec.handlers_busy;
  }
  rec.queue_depth = static_cast<uint32_t>(handler_queue_.size());
  rec.queue_watermark = queue_watermark_;
  for (const auto& [conn, info] : peers_) {
    if (info.kind == PeerKind::kTool) ++rec.tool_circuits;
  }

  rec.requests = stats_.requests;
  rec.forwards = stats_.forwards;
  rec.kernel_events = stats_.kernel_events;
  rec.handlers_created = stats_.handlers_created;
  rec.handler_reuses = stats_.handler_reuses;
  rec.snapshots_served = stats_.snapshots_served;
  rec.bcasts_originated = stats_.bcasts_originated;
  rec.bcast_duplicates = stats_.bcast_duplicates;
  rec.triggers_fired = stats_.triggers_fired;
  rec.failures_detected = stats_.failures_detected;
  rec.recoveries_started = stats_.recoveries_started;
  rec.request_timeouts = stats_.request_timeouts;
  rec.requests_shed = stats_.requests_shed;
  rec.busy_sent = stats_.busy_sent;
  rec.retries = stats_.retries;
  rec.deadline_expired = stats_.deadline_expired;
  rec.dup_suppressed = stats_.dup_suppressed;
  rec.breaker_open = static_cast<uint32_t>(open_breaker_count());

  rec.eventlog_size = event_log_.size();
  rec.eventlog_recorded = event_log_.total_recorded();
  rec.eventlog_filtered = event_log_.total_filtered();
  rec.eventlog_dropped = event_log_.total_dropped();
  for (const auto& [dpid, n] : event_log_.dropped_by_pid()) {
    rec.dropped_by_pid.push_back(PidDrop{dpid, n});
  }

  if (store_) {
    rec.store_enabled = true;
    rec.journal_seq = store_->seq();
    rec.journal_bytes = store_->journal().size_bytes();
    rec.journal_pending = static_cast<uint32_t>(store_->journal().pending_appends());
  }

  if (daemon::Pmd* pmd = pmd_getter_ ? pmd_getter_() : nullptr) {
    rec.pmd_registry = static_cast<uint32_t>(pmd->registry_size());
    rec.pmd_requests = pmd->stats().requests;
  }

  rec.flight_records = obs::FlightRecorder::Instance().total_recorded();
  rec.flight_dumps = obs::FlightRecorder::Instance().dump_count();

  obs::HealthReport report = ClassifyHealth();
  rec.health = static_cast<uint8_t>(report.level);
  rec.health_reasons = std::move(report.reasons);

  for (const auto& [gname, members] : group_table_.groups()) {
    GroupStatEntry ge;
    ge.name = gname;
    ge.members = static_cast<uint32_t>(members.size());
    for (const auto& m : members) {
      if (m.exited) ++ge.exited;
    }
    rec.groups.push_back(std::move(ge));
  }
  for (const auto& [key, bl] : barrier_local_) {
    BarrierStatEntry be;
    be.name = key.first;
    be.epoch = key.second;
    be.waiters = static_cast<uint32_t>(bl.waiters.size());
    be.expected = bl.expected;
    rec.barriers.push_back(std::move(be));
  }
  for (const auto& [key, tally] : group_table_.tallies()) {
    BarrierStatEntry be;
    be.name = key.first;
    be.epoch = key.second;
    be.waiters = tally.Total();
    be.expected = tally.expected;
    rec.barriers.push_back(std::move(be));
  }
  rec.envars = static_cast<uint32_t>(group_table_.envars().size());
  rec.envar_watchers = static_cast<uint32_t>(group_table_.watcher_count());

  rec.acct_cpu_us = AcctCpuUs();
  rec.acct_rusage_records = exited_stats_.size();

  rec.procs = ScanLocalProcesses();
  return rec;
}

obs::HealthReport Lpm::ClassifyHealth() const {
  obs::LpmHealthInputs in;
  in.eventlog_recorded = event_log_.total_recorded();
  in.eventlog_dropped = event_log_.total_dropped();
  in.bcasts_handled = stats_.bcasts_originated + stats_.snapshots_served;
  in.bcast_duplicates = stats_.bcast_duplicates;
  in.requests = stats_.requests;
  in.request_timeouts = stats_.request_timeouts;
  in.handler_queue_depth = handler_queue_.size();
  in.journal_pending = store_ ? store_->journal().pending_appends() : 0;
  in.deadline_expired = stats_.deadline_expired;
  in.requests_shed = stats_.requests_shed;
  in.breaker_open = open_breaker_count();
  return obs::ClassifyLpm(in);
}

// --- stat watches (push-based continuous telemetry) ----------------------------------------
//
// A StatSubscribe floods outward exactly like a StatReq, but instead of
// one reply the flood leaves a *watch* behind at every manager: a
// per-interval timer that pushes this host's counter deltas one hop back
// along the edge the flood arrived on.  Relays batch their children's
// records into their own push, so each interval costs one frame per
// covering-graph edge — O(hosts) total — instead of a full flood per
// refresh.  The delta path is pinned at subscribe time and never
// re-routed; a broken circuit ends the watch (the subscriber resubscribes
// under a fresh watch_id), which keeps per-<watch, host> sequence numbers
// contiguous for as long as they arrive at all.

uint64_t Lpm::AcctCpuUs() {
  uint64_t total = 0;
  for (const RusageRecord& r : exited_stats_) {
    total += static_cast<uint64_t>(r.rusage.cpu_time);
  }
  for (const auto& [lpid, info] : local_procs_) {
    const host::Process* p = kernel().Find(lpid);
    if (p && p->alive()) total += static_cast<uint64_t>(p->rusage.cpu_time);
  }
  return total;
}

void Lpm::HandleStatSubscribe(net::ConnId conn, const StatSubscribe& req) {
  if (req.origin_host.empty()) {
    // A tool asking us to originate a watch.
    if (!AdmitRequest(conn, req.req_id)) return;
    Dispatch(RxMeta(conn, req.req_id),
             [this, conn, req](Pid h) { StartStatWatch(conn, req, h); });
    return;
  }
  // Sibling leg of the subscribe flood.
  if (!AcceptBcast(req.origin_host, req.bcast_seq)) return;
  StatWatchKey key{req.origin_host, req.watch_id};
  if (stat_watches_.count(key)) return;  // resubscribed through another edge
  std::string sender = req.route.empty() ? std::string() : req.route.back();
  kernel().Charge(pid(), BaseCosts::kDispatch);

  StatWatch w;
  w.origin_host = req.origin_host;
  w.watch_id = req.watch_id;
  w.is_origin = false;
  w.parent_host = sender;
  w.parent_conn = conn;  // pinned: deltas only ever flow back along this edge
  w.interval_us = req.interval_us ? req.interval_us : 1'000'000;
  AddStatWatch(key, std::move(w));

  StatSubscribe fwd = req;
  fwd.route.push_back(host_name());
  Flood(Msg{std::move(fwd)}, sender, "lpm-watch-flood");
  ScheduleStatPush(key);
}

void Lpm::StartStatWatch(net::ConnId tool_conn, const StatSubscribe& tool_req,
                         Pid handler) {
  uint64_t watch_id = NextReqId();
  uint64_t seq = OriginateBcast();

  StatSubscribe templ;
  templ.req_id = seq;
  templ.origin_host = host_name();
  templ.watch_id = watch_id;
  templ.bcast_seq = seq;
  templ.signed_ts = simulator().Now();
  templ.route.push_back(host_name());
  templ.interval_us = tool_req.interval_us ? tool_req.interval_us : 1'000'000;

  StatWatch w;
  w.origin_host = host_name();
  w.watch_id = watch_id;
  w.is_origin = true;
  w.tool_conn = tool_conn;
  w.tool_req_id = tool_req.req_id;
  w.interval_us = templ.interval_us;
  StatWatchKey key{host_name(), watch_id};
  AddStatWatch(key, std::move(w));
  Flood(Msg{std::move(templ)}, /*except_host=*/"", "lpm-watch-flood");

  // The first push doubles as the subscribe ack: it carries the tool's
  // req_id and the seq-1 baseline record, so the subscriber learns its
  // watch_id from the data stream itself.
  PushStatDelta(key);
  ReleaseHandler(handler);
}

void Lpm::ScheduleStatPush(const StatWatchKey& key) {
  auto it = stat_watches_.find(key);
  if (it == stat_watches_.end()) return;
  StatWatch& w = it->second;
  simulator().Cancel(w.push_ev);
  w.push_ev = simulator().ScheduleIn(
      static_cast<sim::SimDuration>(w.interval_us),
      [this, key] {
        if (!running_) return;
        auto wit = stat_watches_.find(key);
        if (wit == stat_watches_.end()) return;
        wit->second.push_ev = sim::kInvalidEventId;
        PushStatDelta(key);
      },
      "lpm-watch-push");
}

Lpm::StatCounters Lpm::SampleStatCounters() {
  StatCounters c;
  c.t_us = static_cast<uint64_t>(simulator().Now());
  c.kernel_events = stats_.kernel_events;
  c.requests = stats_.requests;
  c.requests_shed = stats_.requests_shed;
  c.retries = stats_.retries;
  c.journal_bytes = store_ ? store_->journal().size_bytes() : 0;
  c.eventlog_recorded = event_log_.total_recorded();
  c.acct_cpu_us = AcctCpuUs();
  return c;
}

void Lpm::AddStatWatch(const StatWatchKey& key, StatWatch w) {
  w.base = SampleStatCounters();
  stat_watches_[key] = std::move(w);
  Metrics().watch_subscribes->Inc();
  Metrics().watch_active->Add(1);
}

StatDeltaRecord Lpm::BuildStatDeltaRecord(StatWatch& w) {
  const StatCounters now = SampleStatCounters();
  StatDeltaRecord r;
  r.host = host_name();
  r.user = user_;
  r.uid = static_cast<int32_t>(uid_);
  r.seq = ++w.seq;
  r.t_us = now.t_us;
  r.dt_us = now.t_us - w.base.t_us;
  r.d_kernel_events = now.kernel_events - w.base.kernel_events;
  r.d_requests = now.requests - w.base.requests;
  r.d_requests_shed = now.requests_shed - w.base.requests_shed;
  r.d_retries = now.retries - w.base.retries;
  r.d_journal_bytes = now.journal_bytes - w.base.journal_bytes;
  r.d_eventlog_recorded = now.eventlog_recorded - w.base.eventlog_recorded;
  r.d_acct_cpu_us = now.acct_cpu_us - w.base.acct_cpu_us;
  r.queue_depth = static_cast<uint32_t>(handler_queue_.size());
  r.procs_live = static_cast<uint32_t>(adopted_live_count());
  r.health = static_cast<uint8_t>(ClassifyHealth().level);
  // Next interval's deltas start here.
  w.base = now;
  return r;
}

void Lpm::PushStatDelta(const StatWatchKey& key) {
  auto it = stat_watches_.find(key);
  if (it == stat_watches_.end()) return;
  StatWatch& w = it->second;

  StatDelta out;
  out.origin_host = w.origin_host;
  out.watch_id = w.watch_id;
  out.req_id = w.is_origin ? w.tool_req_id : 0;
  out.records.push_back(BuildStatDeltaRecord(w));
  for (StatDeltaRecord& r : w.pending) out.records.push_back(std::move(r));
  w.pending.clear();

  LpmMetrics& m = Metrics();
  m.watch_pushes->Inc();
  m.watch_records->Inc(out.records.size());

  if (w.is_origin) {
    if (!peers_.count(w.tool_conn)) {
      DropStatWatch(key, "tool circuit gone");
      return;
    }
    kernel().Charge(pid(), BaseCosts::kStatPush);
    SendMsg(w.tool_conn, out);
  } else {
    if (!peers_.count(w.parent_conn)) {
      DropStatWatch(key, "parent circuit gone");
      return;
    }
    SendToSibling(w.parent_conn, Msg{out}, BaseCosts::kStatPush);
  }
  ScheduleStatPush(key);
}

void Lpm::HandleStatDelta(net::ConnId conn, const StatDelta& delta) {
  StatWatchKey key{delta.origin_host, delta.watch_id};
  auto it = stat_watches_.find(key);
  if (it == stat_watches_.end()) {
    // Lazy cascade cancel: this watch died here (unsubscribe, circuit
    // break, restart) but a downstream relay is still pushing.  One
    // unsubscribe back down the edge stops it — and ITS children learn
    // the same way on their next push.
    StatUnsubscribe un;
    un.origin_host = delta.origin_host;
    un.watch_id = delta.watch_id;
    ReplyMsg(conn, un);
    return;
  }
  // In-transit aggregation: buffer the child's records; our own interval
  // tick carries them upstream in one frame.
  StatWatch& w = it->second;
  for (const StatDeltaRecord& r : delta.records) w.pending.push_back(r);
}

void Lpm::HandleStatUnsubscribe(net::ConnId conn, const StatUnsubscribe& req) {
  (void)conn;
  if (req.origin_host.empty()) {
    // Tool form: end the watch this LPM originated under this watch_id.
    DropStatWatch({host_name(), req.watch_id}, "unsubscribed");
    return;
  }
  DropStatWatch({req.origin_host, req.watch_id}, "cancelled upstream");
}

void Lpm::DropStatWatch(const StatWatchKey& key, const char* why) {
  auto it = stat_watches_.find(key);
  if (it == stat_watches_.end()) return;
  simulator().Cancel(it->second.push_ev);
  stat_watches_.erase(it);
  Metrics().watch_cancels->Inc();
  Metrics().watch_active->Add(-1);
  PPM_INFO("lpm") << host_name() << ": watch <" << key.first << "," << key.second
                  << "> dropped (" << why << ")";
}

// --- kernel events, history, triggers ------------------------------------------------------

void Lpm::OnKernelEvent(const host::KernelEvent& ev) {
  PPM_PROF_SCOPE("lpm.kernel_event");
  if (!running_) return;
  ++stats_.kernel_events;
  // Hot path: one O(1) ring write, measured by bench_overhead.
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kKernelEvent, host_name(),
                                         host::ToString(ev.kind), 0,
                                         static_cast<uint64_t>(ev.pid));
  HistEvent h;
  h.at = ev.at;
  h.kind = ev.kind;
  h.pid = ev.pid;
  h.other = ev.other;
  h.sig = ev.sig;
  h.status = ev.status;
  h.detail = ev.detail;
  if (event_log_.Record(h, config_.granularity_mask) && store_) {
    store_->RecordEvent(h);
  }
  LpmMetrics& m = Metrics();
  m.eventlog_size->Set(static_cast<double>(event_log_.size()));
  m.eventlog_dropped->Set(static_cast<double>(event_log_.total_dropped()));
  if (event_log_.total_dropped() > eventlog_dropped_seen_) {
    m.eventlog_dropped_total->Inc(event_log_.total_dropped() - eventlog_dropped_seen_);
    eventlog_dropped_seen_ = event_log_.total_dropped();
  }

  switch (ev.kind) {
    case host::KEvent::kFork: {
      // A tracked process forked: the child is ours from birth.
      if (!local_procs_.count(ev.other)) {
        const host::Process* child = kernel().Find(ev.other);
        LocalProc info;
        info.command = child ? child->command : "?";
        info.logical_parent = GPid{host_name(), ev.pid};
        if (store_) {
          store_->RecordProcNew(ev.other, info.logical_parent, info.command);
        }
        local_procs_[ev.other] = std::move(info);
      }
      break;
    }
    case host::KEvent::kExit: {
      auto it = local_procs_.find(ev.pid);
      if (it != local_procs_.end() && !it->second.exited) {
        it->second.exited = true;
        // Preserve the resource consumption record before the zombie is
        // reaped — this is the data the statistics tool serves.
        const host::Process* p = kernel().Find(ev.pid);
        if (p) {
          RusageRecord rec;
          rec.gpid = GPid{host_name(), ev.pid};
          rec.command = p->command;
          rec.exit_status = p->exit_status;
          rec.killed_by_signal = p->killed_by_signal;
          rec.death_signal = p->death_signal;
          rec.start_time = p->start_time;
          rec.end_time = p->end_time;
          rec.rusage = p->rusage;
          if (store_) store_->RecordRusage(rec);
          exited_stats_.push_back(std::move(rec));
        }
        if (store_) store_->RecordProcExit(ev.pid);
        kernel().Reap(pid());  // collect creation-server children
        ReviewTtl();
        // Group membership: tell the coordinating manager this member is
        // gone so pending gjoin waiters can complete.
        if (auto lm = group_table_.TakeLocal(ev.pid)) {
          if (store_) store_->RecordGroupLocalRemove(ev.pid);
          NotifyGroupExit(lm->group, lm->coordinator,
                          GPid{host_name(), ev.pid}, ev.status);
        }
      }
      break;
    }
    default:
      break;
  }

  triggers_.Match(h, [this](uint64_t id, const TriggerSpec& spec,
                            const HistEvent& hev) {
    // Triggers are one-shot: journal the removal so a warm restart does
    // not re-arm (and re-fire) an already-consumed trigger.
    if (store_) store_->RecordTriggerRemove(id);
    FireTrigger(spec, hev);
  });
  m.triggers_size->Set(static_cast<double>(triggers_.size()));
}

void Lpm::FireTrigger(const TriggerSpec& spec, const HistEvent& ev) {
  ++stats_.triggers_fired;
  Metrics().triggers_fired->Inc();
  PPM_INFO("lpm") << host_name() << ": trigger fired on " << host::ToString(ev.kind)
                  << " of pid " << ev.pid;
  ApplyTriggerAction(spec);
}

void Lpm::ApplyTriggerAction(const TriggerSpec& spec) {
  switch (spec.action) {
    case TriggerAction::kMigrate:
      PPM_INFO("lpm") << host_name() << ": trigger action -> migrate "
                      << ToString(spec.action_target) << " to " << spec.migrate_dest;
      MigrateGPid(spec.action_target, spec.migrate_dest, [](bool, std::string) {});
      break;
    case TriggerAction::kSpawn:
      PPM_INFO("lpm") << host_name() << ": trigger action -> spawn \""
                      << spec.spawn_command << "\""
                      << (spec.group.empty() ? "" : " into group " + spec.group);
      SpawnTriggered(spec);
      break;
    case TriggerAction::kSignal:
    default:
      PPM_INFO("lpm") << host_name() << ": trigger action -> "
                      << host::ToString(spec.action_signal) << " to "
                      << ToString(spec.action_target);
      SignalGPid(spec.action_target, spec.action_signal, [](bool, std::string) {});
      break;
  }
}

void Lpm::SpawnTriggered(const TriggerSpec& spec) {
  // Respawn locally; if the spec names a group, re-enroll the fresh pid
  // with the group's coordinating manager so gjoin still sees it.
  Dispatch([this, spec](Pid h) {
    GroupPartReq req;
    req.req_id = NextReqId();
    req.group = spec.group;
    req.command = spec.spawn_command;
    if (!spec.group.empty()) {
      if (auto coord = group_table_.KnownCoordinator(spec.group)) {
        req.coordinator = *coord;
      } else {
        req.coordinator = ccs_host_.empty() ? host_name() : ccs_host_;
      }
    }
    DoGroupPartLocal(req, h, [this, h, req](const GroupPartResp& resp) {
      if (!resp.ok || req.group.empty()) {
        ReleaseHandler(h);
        return;
      }
      if (req.coordinator == host_name() || req.coordinator.empty()) {
        group_table_.AddMember(req.group, resp.gpid);
        if (store_) store_->RecordGroupMember(req.group, resp.gpid);
        ReleaseHandler(h);
        return;
      }
      GroupAddNotify add;
      add.req_id = NextReqId();
      add.group = req.group;
      add.gpid = resp.gpid;
      ForwardToHost<GroupAck>(req.coordinator, add, h,
                              [this, h](const GroupAck*, const std::string&) {
                                ReleaseHandler(h);
                              });
    });
  });
}

void Lpm::SignalGPid(const GPid& target, host::Signal sig,
                     std::function<void(bool, std::string)> done) {
  SignalReq req;
  req.target = target;
  req.sig = sig;
  RouteOwnRequest(req, &Lpm::DoSignalLocal, std::move(done));
}

// --- time-to-live --------------------------------------------------------------------------

void Lpm::ReviewTtl() {
  if (!running_) return;
  size_t tools = 0;
  for (const auto& [conn, info] : peers_) {
    if (info.kind == PeerKind::kTool) ++tools;
  }
  bool idle = adopted_live_count() == 0 && tools == 0;
  // "For the CCS, the time-to-live interval has a different meaning: as
  // long as there is any sibling LPM in the networked system,
  // time-to-live is not decremented."
  if (is_ccs() && !siblings_.empty()) idle = false;
  if (idle && ttl_event_ == sim::kInvalidEventId) {
    ttl_event_ = simulator().ScheduleIn(config_.time_to_live, [this] {
      ttl_event_ = sim::kInvalidEventId;
      TtlExpired();
    }, "lpm-ttl");
  } else if (!idle && ttl_event_ != sim::kInvalidEventId) {
    simulator().Cancel(ttl_event_);
    ttl_event_ = sim::kInvalidEventId;
  }
}

void Lpm::TtlExpired() {
  if (!running_) return;
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kTimerFired, host_name(),
                                         "ttl");
  PPM_INFO("lpm") << host_name() << ": time-to-live expired";
  ExitSelf(0);
}

// --- recovery (paper Section 5) ---------------------------------------------------------------

void Lpm::SetMode(LpmMode m) {
  if (m == mode_) return;
  std::string transition = std::string(ToString(mode_)) + "->" + ToString(m);
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kStateTransition,
                                         host_name(), transition);
  mode_ = m;
}

void Lpm::OnSiblingLost(const std::string& host, net::CloseReason reason) {
  (void)host;
  (void)reason;
  StartRecovery();
}

void Lpm::StartRecovery() {
  if (!running_ || recovery_in_progress_) return;
  ++stats_.recoveries_started;
  if (is_ccs()) {
    // The coordinator itself stays put; siblings come to it.
    return;
  }
  recovery_in_progress_ = true;
  if (!ccs_host_.empty() && ccs_host_ != host_name()) {
    if (siblings_.count(ccs_host_)) {
      // Still in touch with the coordinator: nothing to do.
      recovery_in_progress_ = false;
      SetMode(LpmMode::kNormal);
      return;
    }
    EnsureSibling(ccs_host_, [this](std::optional<net::ConnId> conn) {
      if (!running_) return;
      if (conn) {
        recovery_in_progress_ = false;
        SetMode(LpmMode::kNormal);
        CancelDeath();
        return;
      }
      RecoverEntry();
    });
    return;
  }
  RecoverEntry();
}

void Lpm::RecoverEntry() {
  if (!running_) return;
  if (!config_.ccs_nameserver.empty()) {
    RecoverViaNameServer();
  } else {
    WalkRecoveryList(0);
  }
}

void Lpm::RecoverViaNameServer() {
  // Paper Section 5 (alternative): "LPMs would query the name server for
  // a CCS."  A stale or missing answer degrades to self-appointment or
  // the .recovery walk.
  NsQuery(host_, config_.ccs_nameserver, user_, kNsQueryTimeout,
          [this](std::optional<std::string> answer) {
            if (!running_) return;
            if (!answer) {
              // Server unreachable or no record: the administrators'
              // coordination is unavailable; use the file mechanism.
              WalkRecoveryList(0);
              return;
            }
            if (*answer == host_name()) {
              SetCcs(host_name());
              SetMode(LpmMode::kNormal);
              recovery_in_progress_ = false;
              CancelDeath();
              AnnounceCcs();
              ReviewTtl();
              return;
            }
            EnsureSibling(*answer, [this, ccs = *answer](std::optional<net::ConnId> conn) {
              if (!running_) return;
              if (conn) {
                SetCcs(ccs);
                SetMode(LpmMode::kNormal);
                recovery_in_progress_ = false;
                CancelDeath();
                AnnounceCcs();
                return;
              }
              // The registered CCS is gone too: appoint ourselves and
              // tell the name server, so later queriers find us.
              PPM_INFO("lpm") << host_name()
                              << ": registered CCS unreachable; self-appointing";
              SetCcs(host_name());
              SetMode(LpmMode::kNormal);
              recovery_in_progress_ = false;
              CancelDeath();
              RegisterCcsWithNameServer();
              AnnounceCcs();
              ReviewTtl();
              // Two orphaned LPMs can self-appoint concurrently (both saw
              // the same stale record).  Re-read the server once the dust
              // settles: the LAST registration wins and the loser defers —
              // the "better coordinated" assignment the paper wants from
              // name servers.
              simulator().ScheduleIn(2 * kNsQueryTimeout, [this] {
                if (!running_ || !is_ccs()) return;
                NsQuery(host_, config_.ccs_nameserver, user_, kNsQueryTimeout,
                        [this](std::optional<std::string> winner) {
                          if (!running_ || !is_ccs() || !winner ||
                              *winner == host_name()) {
                            return;
                          }
                          EnsureSibling(*winner,
                                        [this, w = *winner](std::optional<net::ConnId> c) {
                                          if (!running_ || !c) return;
                                          PPM_INFO("lpm") << host_name()
                                                          << ": deferring CCS role to "
                                                          << w;
                                          SetCcs(w);
                                          AnnounceCcs();
                                          ReviewTtl();
                                        });
                        });
              }, "lpm-ns-reconcile");
            });
          });
}

void Lpm::RegisterCcsWithNameServer() {
  if (config_.ccs_nameserver.empty() || !is_ccs()) return;
  NsRegister(host_, config_.ccs_nameserver, user_, host_name());
}

void Lpm::WalkRecoveryList(size_t index) {
  if (!running_) return;
  RecoveryList list = ReadRecoveryList(host_.fs(), uid_);
  if (index >= list.hosts.size()) {
    EnterDying();
    return;
  }
  const std::string target = list.hosts[index];
  if (target == host_name()) {
    BecomeActingCcs(index);
    return;
  }
  EnsureSibling(target, [this, index, target](std::optional<net::ConnId> conn) {
    if (!running_) return;
    if (!conn) {
      WalkRecoveryList(index + 1);
      return;
    }
    // The reachable recovery host's LPM becomes the coordinator.
    SetCcs(target);
    SetMode(LpmMode::kNormal);
    recovery_in_progress_ = false;
    CancelDeath();
    BecomeCcs msg;
    msg.requested_by = host_name();
    SendMsg(*conn, msg);
    AnnounceCcs();
  });
}

void Lpm::BecomeActingCcs(size_t list_index) {
  PPM_INFO("lpm") << host_name() << ": becoming "
                  << (list_index == 0 ? "CCS" : "acting CCS") << " (priority "
                  << list_index << ")";
  SetCcs(host_name());
  recovery_in_progress_ = false;
  CancelDeath();
  RegisterCcsWithNameServer();
  if (list_index > 0) {
    // Not the top of the list: keep probing upward at low frequency
    // until a higher-priority host comes back (partition healing).
    SetMode(LpmMode::kRecovering);
    simulator().Cancel(probe_event_);
    probe_event_ = simulator().ScheduleIn(config_.probe_interval,
                                          [this] { ProbeHigherPriority(); }, "lpm-probe");
  } else {
    SetMode(LpmMode::kNormal);
  }
  AnnounceCcs();
  ReviewTtl();
}

void Lpm::ProbeHigherPriority() {
  probe_event_ = sim::kInvalidEventId;
  if (!running_ || !is_ccs()) return;
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kTimerFired, host_name(),
                                         "probe");
  RecoveryList list = ReadRecoveryList(host_.fs(), uid_);
  auto my_index = list.IndexOf(host_name());
  size_t limit = my_index ? *my_index : list.hosts.size();
  if (limit == 0) {
    SetMode(LpmMode::kNormal);
    return;
  }
  ProbeStep(0, limit, std::move(list));
}

void Lpm::ProbeStep(size_t index, size_t limit, RecoveryList list) {
  if (!running_ || !is_ccs()) return;
  if (index >= limit) {
    // Everyone above is still unreachable; probe again later.
    SetMode(LpmMode::kRecovering);
    simulator().Cancel(probe_event_);
    probe_event_ = simulator().ScheduleIn(config_.probe_interval,
                                          [this] { ProbeHigherPriority(); }, "lpm-probe");
    return;
  }
  const std::string target = list.hosts[index];
  EnsureSibling(target, [this, index, limit, target,
                         list = std::move(list)](std::optional<net::ConnId> conn) mutable {
    if (!running_ || !is_ccs()) return;
    if (!conn) {
      ProbeStep(index + 1, limit, std::move(list));
      return;
    }
    YieldCcsTo(target);
  });
}

void Lpm::YieldCcsTo(const std::string& host) {
  PPM_INFO("lpm") << host_name() << ": yielding CCS role to " << host;
  SetCcs(host);
  SetMode(LpmMode::kNormal);
  simulator().Cancel(probe_event_);
  probe_event_ = sim::kInvalidEventId;
  auto it = siblings_.find(host);
  if (it != siblings_.end()) {
    BecomeCcs msg;
    msg.requested_by = host_name();
    SendMsg(it->second, msg);
  }
  AnnounceCcs();
}

void Lpm::EnterDying() {
  if (!running_) return;
  recovery_in_progress_ = false;
  // Re-entered after a failed retry walk: the death timer keeps ticking,
  // but the retry below must be re-armed — rescue may come from any
  // retry before the deadline, not just the first.
  if (mode_ != LpmMode::kDying) {
    SetMode(LpmMode::kDying);
    PPM_WARN("lpm") << host_name()
                    << ": no recovery host reachable; time-to-die armed";
  }
  if (death_event_ == sim::kInvalidEventId) {
    death_event_ = simulator().ScheduleIn(config_.time_to_die, [this] {
      death_event_ = sim::kInvalidEventId;
      if (!running_ || mode_ != LpmMode::kDying) return;
      obs::FlightRecorder::Instance().Record(obs::FlightKind::kTimerFired, host_name(),
                                             "death");
      // "…the appropriate action is to close down all the activities."
      PPM_WARN("lpm") << host_name() << ": time-to-die expired; terminating "
                      << adopted_live_count() << " user processes";
      for (const auto& [lpid, info] : local_procs_) {
        const host::Process* p = kernel().Find(lpid);
        if (p && p->alive()) kernel().PostSignal(lpid, host::Signal::kSigKill, uid_);
      }
      ExitSelf(1);
    }, "lpm-death");
  }
  simulator().Cancel(retry_event_);
  retry_event_ = simulator().ScheduleIn(config_.retry_interval, [this] {
    retry_event_ = sim::kInvalidEventId;
    if (!running_ || mode_ != LpmMode::kDying) return;
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kTimerFired, host_name(),
                                           "retry");
    recovery_in_progress_ = true;
    RecoverEntry();
    // If the attempt fails it re-enters dying and re-arms the retry timer.
  }, "lpm-retry");
}

void Lpm::CancelDeath() {
  simulator().Cancel(death_event_);
  simulator().Cancel(retry_event_);
  death_event_ = retry_event_ = sim::kInvalidEventId;
  if (mode_ == LpmMode::kDying) SetMode(LpmMode::kNormal);
}

void Lpm::AnnounceCcs() {
  CcsChanged msg;
  msg.new_ccs = ccs_host_;
  for (const auto& [host, conn] : siblings_) {
    if (host == ccs_host_) continue;
    SendMsg(conn, msg);
  }
}

std::string Lpm::CcsClaim() const {
  if (mode_ != LpmMode::kNormal || recovery_in_progress_) return "";
  return ccs_host_;
}

void Lpm::AdoptCcsFromPeer(const std::string& peer_ccs) {
  if (peer_ccs.empty()) return;  // peer's own knowledge was suspect
  if (ccs_host_.empty()) {
    // First CCS knowledge for this LPM: a plain hint.
    SetCcs(peer_ccs);
    return;
  }
  // "…a LPM not in contact with a CCS resumes the normal mode of
  // operation if it … gets a communication request from a LPM in
  // contact with a valid CCS."  (Peers in trouble claim nothing, so a
  // nonempty claim implies the sender believes its CCS is valid.)
  if (mode_ != LpmMode::kNormal) {
    AcceptCcsAnnouncement(peer_ccs);
  }
}

void Lpm::AcceptCcsAnnouncement(const std::string& new_ccs) {
  if (new_ccs.empty()) return;
  SetCcs(new_ccs);
  recovery_in_progress_ = false;
  CancelDeath();
  if (is_ccs()) RegisterCcsWithNameServer();
  if (!is_ccs()) {
    simulator().Cancel(probe_event_);
    probe_event_ = sim::kInvalidEventId;
  }
  SetMode(LpmMode::kNormal);
  ReviewTtl();
}

// --- group operations (src/group/): gang-spawn ----------------------------------------------

void Lpm::HandleGroupSpawn(net::ConnId conn, const GroupSpawnReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  Dispatch(RxMeta(conn, req.req_id),
           [this, conn, req](Pid h) { StartGangSpawn(conn, req, h); });
}

void Lpm::StartGangSpawn(net::ConnId conn, const GroupSpawnReq& req, Pid handler) {
  auto reject = [&](const std::string& why) {
    GroupSpawnResp resp;
    resp.req_id = req.req_id;
    resp.ok = false;
    resp.error = why;
    ReplyMsg(conn, resp);
    ReleaseHandler(handler);
  };
  if (!running_) {
    reject("manager shutting down");
    return;
  }
  if (req.group.empty()) {
    reject("group name must be non-empty");
    return;
  }
  if (req.hosts.empty() || req.hosts.size() != req.commands.size()) {
    reject("hosts and commands must be non-empty and the same length");
    return;
  }
  if (group_table_.HasGroup(req.group)) {
    reject("group already exists: " + req.group);
    return;
  }
  for (const auto& [id, run] : gang_runs_) {
    if (run.group == req.group) {
      reject("gang spawn already in flight for group: " + req.group);
      return;
    }
  }

  uint64_t run_id = NextReqId();
  GangRun& run = gang_runs_[run_id];
  run.tool_conn = conn;
  run.tool_req_id = req.req_id;
  run.handler = handler;
  run.group = req.group;
  run.outstanding = req.hosts.size();
  PPM_INFO("lpm") << host_name() << ": gang spawn \"" << req.group << "\" across "
                  << req.hosts.size() << " part(s)";

  for (size_t i = 0; i < req.hosts.size(); ++i) {
    const std::string part_host = req.hosts[i];
    GroupPartReq part;
    part.req_id = NextReqId();
    part.group = req.group;
    part.coordinator = host_name();
    part.command = req.commands[i];
    if (part_host == host_name()) {
      DoGroupPartLocal(part, handler,
                       [this, run_id, part_host](const GroupPartResp& resp) {
                         GangPartDone(run_id, part_host, resp.ok, resp.gpid, resp.error);
                       });
      continue;
    }
    ForwardToHost<GroupPartResp>(
        part_host, part, handler,
        [this, run_id, part_host](const GroupPartResp* resp, const std::string& err) {
          if (resp != nullptr) {
            GangPartDone(run_id, part_host, resp->ok, resp->gpid, resp->error);
          } else {
            GangPartDone(run_id, part_host, false, GPid{}, err);
          }
        });
  }
}

void Lpm::GangPartDone(uint64_t run_id, const std::string& part_host, bool ok,
                       const GPid& gpid, const std::string& error) {
  auto it = gang_runs_.find(run_id);
  if (it == gang_runs_.end()) return;
  GangRun& run = it->second;
  if (ok) {
    run.members.push_back(gpid);
  } else {
    run.failed = true;
    run.host_errors.push_back(part_host + ": " +
                              (error.empty() ? "spawn failed" : error));
  }
  if (--run.outstanding == 0) FinishGangSpawn(run_id);
}

void Lpm::FinishGangSpawn(uint64_t run_id) {
  auto it = gang_runs_.find(run_id);
  if (it == gang_runs_.end()) return;
  GangRun run = std::move(it->second);
  gang_runs_.erase(it);

  GroupSpawnResp resp;
  resp.req_id = run.tool_req_id;
  if (!run.failed) {
    // All parts landed: the group becomes visible atomically, and only
    // now — a concurrent gjoin/gsig never sees a half-spawned gang.
    for (const GPid& m : run.members) {
      group_table_.AddMember(run.group, m);
      if (store_) store_->RecordGroupMember(run.group, m);
    }
    ++stats_.gang_spawns;
    Metrics().group_spawns->Inc();
    obs::FlightRecorder::Instance().Record(obs::FlightKind::kGroupSpawn, host_name(),
                                           run.group, run.members.size(), 0);
    resp.ok = true;
    resp.members = std::move(run.members);
    ReplyMsg(run.tool_conn, resp);
    ReleaseHandler(run.handler);
    return;
  }

  // All-or-nothing: kill every part that did come up.  Undo legs are
  // charged to the manager itself — the tool's handler is released with
  // the reply, not held across remote cleanup.
  ++stats_.gang_rollbacks;
  Metrics().group_rollbacks->Inc();
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kGroupSpawn, host_name(),
                                         run.group, run.members.size(), 1);
  PPM_INFO("lpm") << host_name() << ": gang spawn \"" << run.group
                  << "\" rolled back (" << run.host_errors.size() << " failed part(s))";
  for (const GPid& m : run.members) {
    if (m.host == host_name()) {
      UndoLocalGroupMember(m.pid);
      continue;
    }
    GroupUndoReq undo;
    undo.req_id = NextReqId();
    undo.group = run.group;
    undo.target = m;
    ForwardToHost<GroupAck>(m.host, undo, pid(),
                            [](const GroupAck*, const std::string&) {});
  }
  resp.ok = false;
  resp.error = "gang spawn failed on " + std::to_string(run.host_errors.size()) +
               " host(s)";
  resp.host_errors = std::move(run.host_errors);
  ReplyMsg(run.tool_conn, resp);
  ReleaseHandler(run.handler);
}

void Lpm::DoGroupPartLocal(const GroupPartReq& req, Pid handler,
                           std::function<void(const GroupPartResp&)> done) {
  sim::SimDuration cost = kernel().Charge(handler, BaseCosts::kHandlerWork);
  cost += kernel().Charge(handler, BaseCosts::kForkExec);
  simulator().ScheduleIn(cost, [this, req, done = std::move(done)] {
    GroupPartResp resp;
    resp.req_id = req.req_id;
    if (!running_) {
      resp.ok = false;
      resp.error = "manager shutting down";
      done(resp);
      return;
    }
    Pid child = kernel().Spawn(pid(), uid_, req.command, nullptr,
                               host::ProcState::kRunning, host::kTraceAll, pid());
    LocalProc info;
    info.command = req.command;
    if (store_) store_->RecordProcNew(child, info.logical_parent, info.command);
    local_procs_[child] = std::move(info);
    if (!req.group.empty()) {
      group_table_.AddLocal(child, req.group, req.coordinator);
      if (store_) store_->RecordGroupLocalMember(child, req.group, req.coordinator);
    }
    resp.ok = true;
    resp.gpid = GPid{host_name(), child};
    ReviewTtl();
    done(resp);
  }, "lpm-gang-part");
}

void Lpm::HandleGroupUndo(net::ConnId conn, const GroupUndoReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  Dispatch(RxMeta(conn, req.req_id), [this, conn, req](Pid h) {
    sim::SimDuration cost = kernel().Charge(h, BaseCosts::kHandlerWork);
    cost += kernel().Charge(h, BaseCosts::kSignal);
    simulator().ScheduleIn(cost, [this, conn, req, h] {
      GroupAck ack;
      ack.req_id = req.req_id;
      if (!running_) {
        ack.ok = false;
        ack.error = "manager shutting down";
      } else {
        UndoLocalGroupMember(req.target.pid);
        ack.ok = true;
      }
      ReplyMsg(conn, ack);
      ReleaseHandler(h);
    }, "lpm-gang-undo");
  });
}

void Lpm::UndoLocalGroupMember(host::Pid target) {
  // Forget the membership *before* killing: the kExit hook must not send
  // a stray exit notify for a member the coordinator is rolling back.
  if (group_table_.TakeLocal(target)) {
    if (store_) store_->RecordGroupLocalRemove(target);
  }
  kernel().PostSignal(target, host::Signal::kSigKill, uid_);
}

// --- group operations: exits, signal, join --------------------------------------------------

void Lpm::HandleGroupExitNotify(net::ConnId conn, const GroupExitNotify& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  ApplyGroupExit(req.group, req.gpid, req.exit_status);
  GroupAck ack;
  ack.req_id = req.req_id;
  ack.ok = true;
  ReplyMsg(conn, ack);
}

void Lpm::HandleGroupAddNotify(net::ConnId conn, const GroupAddNotify& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  GroupAck ack;
  ack.req_id = req.req_id;
  if (!group_table_.HasGroup(req.group)) {
    // Nothing to enroll into: the replacement still runs, but we will
    // not invent a coordinator-side group that was never gang-spawned.
    ack.ok = false;
    ack.error = "unknown group " + req.group;
  } else {
    group_table_.AddMember(req.group, req.gpid);
    if (store_) store_->RecordGroupMember(req.group, req.gpid);
    ack.ok = true;
  }
  ReplyMsg(conn, ack);
}

void Lpm::ApplyGroupExit(const std::string& grp, const GPid& gpid, int32_t status) {
  // MarkExited is idempotent: a retried notify or a duplicate kernel
  // event changes nothing the second time.
  if (!group_table_.MarkExited(grp, gpid, status)) return;
  if (store_) store_->RecordGroupExit(grp, gpid, status);
  if (group_table_.AllExited(grp)) FlushGroupJoins(grp);
}

void Lpm::NotifyGroupExit(const std::string& grp, const std::string& coordinator,
                          const GPid& gpid, int32_t status) {
  if (coordinator.empty() || coordinator == host_name()) {
    ApplyGroupExit(grp, gpid, status);
    return;
  }
  Dispatch([this, grp, coordinator, gpid, status](Pid h) {
    GroupExitNotify note;
    note.req_id = NextReqId();
    note.group = grp;
    note.gpid = gpid;
    note.exit_status = status;
    ForwardToHost<GroupAck>(coordinator, note, h,
                            [this, h](const GroupAck*, const std::string&) {
                              ReleaseHandler(h);
                            });
  });
}

void Lpm::FlushGroupJoins(const std::string& grp) {
  auto it = join_waiters_.find(grp);
  if (it == join_waiters_.end()) return;
  auto waiters = std::move(it->second);
  join_waiters_.erase(it);
  for (auto& [conn, req_id] : waiters) {
    ReplyMsg(conn, BuildJoinResp(req_id, grp));
  }
}

GroupJoinResp Lpm::BuildJoinResp(uint64_t req_id, const std::string& grp) {
  GroupJoinResp resp;
  resp.req_id = req_id;
  resp.ok = true;
  resp.group = grp;
  auto git = group_table_.groups().find(grp);
  if (git != group_table_.groups().end()) {
    for (const auto& m : git->second) {
      GroupExit e;
      e.gpid = m.gpid;
      e.exit_status = m.exit_status;
      resp.exits.push_back(e);
    }
  }
  return resp;
}

void Lpm::HandleGroupSignal(net::ConnId conn, const GroupSignalReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  if (!group_table_.HasGroup(req.group)) {
    GroupSignalResp resp;
    resp.req_id = req.req_id;
    resp.ok = false;
    resp.error = "unknown group " + req.group +
                 " (issue gsig to the coordinating manager)";
    ReplyMsg(conn, resp);
    return;
  }
  Dispatch(RxMeta(conn, req.req_id), [this, conn, req](Pid h) {
    std::vector<GPid> live = group_table_.LiveMembers(req.group);
    if (live.empty()) {
      GroupSignalResp resp;
      resp.req_id = req.req_id;
      resp.ok = true;
      ReplyMsg(conn, resp);
      ReleaseHandler(h);
      return;
    }
    struct SigFan {
      size_t pending = 0;
      uint32_t delivered = 0;
      uint32_t failed = 0;
    };
    auto fan = std::make_shared<SigFan>();
    fan->pending = live.size();
    auto one_done = [this, conn, req, h, fan](bool ok) {
      if (ok) {
        ++fan->delivered;
      } else {
        ++fan->failed;
      }
      if (--fan->pending > 0) return;
      GroupSignalResp resp;
      resp.req_id = req.req_id;
      resp.ok = true;
      resp.delivered = fan->delivered;
      resp.failed = fan->failed;
      ReplyMsg(conn, resp);
      ReleaseHandler(h);
    };
    for (const GPid& m : live) {
      SignalGPid(m, req.sig, [one_done](bool ok, std::string) { one_done(ok); });
    }
  });
}

void Lpm::HandleGroupJoin(net::ConnId conn, const GroupJoinReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  if (!group_table_.HasGroup(req.group)) {
    GroupJoinResp resp;
    resp.req_id = req.req_id;
    resp.ok = false;
    resp.group = req.group;
    resp.error = "unknown group " + req.group +
                 " (issue gjoin to the coordinating manager)";
    ReplyMsg(conn, resp);
    return;
  }
  if (group_table_.AllExited(req.group)) {
    ReplyMsg(conn, BuildJoinResp(req.req_id, req.group));
    return;
  }
  join_waiters_[req.group].push_back({conn, req.req_id});
}

// --- group operations: barriers -------------------------------------------------------------

void Lpm::HandleBarrierEnter(net::ConnId conn, const BarrierEnterReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  const uint64_t decided = group_table_.DecidedEpoch(req.name);
  if (req.epoch <= decided) {
    BarrierEnterResp resp;
    resp.req_id = req.req_id;
    resp.ok = false;
    resp.epoch = req.epoch;
    resp.error = "barrier epoch already decided (highest " + std::to_string(decided) +
                 ")";
    ReplyMsg(conn, resp);
    return;
  }
  group::GroupTable::BarrierKey key{req.name, req.epoch};
  BarrierLocal& bl = barrier_local_[key];
  bl.expected = std::max(bl.expected, req.expected);
  bl.waiters.push_back({conn, req.req_id});
  if (bl.safety_ev == sim::kInvalidEventId) {
    // Bound the wait: if no verdict ever reaches this host (CCS dead,
    // partition), waiters fail with an explicitly *unknown* outcome —
    // never a guessed release or timeout.
    std::string name = req.name;
    uint64_t epoch = req.epoch;
    bl.safety_ev = simulator().ScheduleIn(
        2 * kBarrierTimeout,
        [this, name, epoch] {
          FailBarrierLocal(name, epoch, "barrier verdict unreachable");
        },
        "lpm-barrier-safety");
  }
  if (bl.waiters.size() > bl.reported) {
    SendBarrierJoin(req.name, req.epoch, bl.expected,
                    static_cast<uint32_t>(bl.waiters.size()));
  }
}

void Lpm::SendBarrierJoin(const std::string& name, uint64_t epoch, uint32_t expected,
                          uint32_t count) {
  group::GroupTable::BarrierKey key{name, epoch};
  auto it = barrier_local_.find(key);
  if (it != barrier_local_.end()) {
    it->second.reported = std::max(it->second.reported, count);
  }
  if (is_ccs()) {
    GroupAck ack = CcsBarrierJoin(host_name(), name, epoch, expected, count);
    if (!ack.ok) FailBarrierLocal(name, epoch, ack.error);
    return;
  }
  if (ccs_host_.empty()) {
    FailBarrierLocal(name, epoch, "no barrier coordinator known");
    return;
  }
  PPM_DEBUG("lpm") << host_name() << ": barrier \"" << name << "\" epoch "
                   << epoch << " join -> ccs " << ccs_host_;
  SendBarrierJoinTo(ccs_host_, name, epoch, expected, count,
                    /*redirects_left=*/2);
}

void Lpm::SendBarrierJoinTo(const std::string& ccs, const std::string& name,
                            uint64_t epoch, uint32_t expected, uint32_t count,
                            int redirects_left) {
  Dispatch([this, ccs, name, epoch, expected, count, redirects_left](Pid h) {
    BarrierJoinReq req;
    req.req_id = NextReqId();
    req.name = name;
    req.epoch = epoch;
    req.expected = expected;
    req.host = host_name();
    req.count = count;
    ForwardToHost<GroupAck>(
        ccs, req, h,
        [this, h, ccs, name, epoch, expected, count,
         redirects_left](const GroupAck* ack, const std::string& err) {
          if (ack != nullptr) {
            if (ack->ok) {
              // The far side answered *as* the coordinator; a join that
              // travelled a redirect just validated the hint, so repair
              // the stale pointer for every later CCS-routed operation.
              if (ccs_host_ != ccs && ccs != host_name()) SetCcs(ccs);
            } else if (!ack->ccs_hint.empty() && ack->ccs_hint != ccs &&
                       ack->ccs_hint != host_name() && redirects_left > 0) {
              // A demoted coordinator bounced the join but told us where
              // the role went (a pointer gone stale across a partition,
              // e.g. a yield announcement this host never heard).  Chase
              // the redirect instead of failing the waiters; the hop
              // bound keeps a pointer cycle from looping forever.
              SendBarrierJoinTo(ack->ccs_hint, name, epoch, expected, count,
                                redirects_left - 1);
            } else {
              FailBarrierLocal(name, epoch, ack->error);
            }
          } else {
            PPM_DEBUG("lpm") << host_name() << ": barrier \"" << name
                             << "\" epoch " << epoch << " join to " << ccs
                             << " failed: " << err;
            FailBarrierLocal(name, epoch,
                             "barrier coordinator unreachable: " + err);
          }
          ReleaseHandler(h);
        });
  });
}

GroupAck Lpm::CcsBarrierJoin(const std::string& from_host, const std::string& name,
                             uint64_t epoch, uint32_t expected, uint32_t count) {
  GroupAck ack;
  if (!is_ccs()) {
    // A demoted CCS must not keep tallying: two deciders for one epoch
    // is exactly the split group.no_split_release forbids.
    ack.ok = false;
    ack.error = "not the central coordinator (ccs=" + ccs_host_ + ")";
    ack.ccs_hint = ccs_host_;
    return ack;
  }
  if (epoch <= group_table_.DecidedEpoch(name)) {
    ack.ok = false;
    ack.error = "barrier epoch already decided";
    return ack;
  }
  bool fresh = !group_table_.HasTally(name, epoch);
  group::BarrierTally& tally = group_table_.Tally(name, epoch);
  tally.expected = std::max(tally.expected, expected);
  uint32_t& joined = tally.counts[from_host];
  joined = std::max(joined, count);  // cumulative per host: retries are idempotent
  if (fresh) {
    group::GroupTable::BarrierKey key{name, epoch};
    barrier_decide_ev_[key] = simulator().ScheduleIn(
        kBarrierTimeout,
        [this, name, epoch] { BarrierVerdict(name, epoch, false); },
        "lpm-barrier-decide");
  }
  ack.ok = true;
  if (tally.expected > 0 && tally.Total() >= tally.expected) {
    BarrierVerdict(name, epoch, true);
  }
  return ack;
}

void Lpm::HandleBarrierJoin(net::ConnId conn, const BarrierJoinReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  GroupAck ack = CcsBarrierJoin(req.host, req.name, req.epoch, req.expected, req.count);
  ack.req_id = req.req_id;
  ReplyMsg(conn, ack);
}

void Lpm::BarrierVerdict(const std::string& name, uint64_t epoch, bool released) {
  if (!group_table_.HasTally(name, epoch)) return;  // already decided
  group::GroupTable::BarrierKey key{name, epoch};
  auto eit = barrier_decide_ev_.find(key);
  if (eit != barrier_decide_ev_.end()) {
    simulator().Cancel(eit->second);
    barrier_decide_ev_.erase(eit);
  }
  group::BarrierTally tally = group_table_.Tally(name, epoch);
  group_table_.EraseTally(name, epoch);
  group_table_.NoteDecided(name, epoch);
  // Journal (and sync) the decision *before* announcing it: a warm-
  // restarted CCS must never decide the same epoch a second time.
  if (store_) store_->RecordBarrierEpoch(name, epoch);

  // On a timeout the report names the hosts whose waiters were left
  // stuck at the barrier; hosts that never joined are unknowable here.
  std::vector<std::string> stragglers;
  if (!released) {
    for (const auto& [joined_host, c] : tally.counts) stragglers.push_back(joined_host);
  }
  if (released) {
    ++stats_.barrier_releases;
    Metrics().barrier_releases->Inc();
  } else {
    ++stats_.barrier_timeouts;
    Metrics().barrier_timeouts->Inc();
  }
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kBarrierRelease, host_name(),
                                         name, epoch, released ? 1 : 0);
  {
    std::string joined;
    for (const auto& [joined_host, c] : tally.counts) joined += ' ' + joined_host;
    PPM_INFO("lpm") << host_name() << ": barrier \"" << name << "\" epoch "
                    << epoch << (released ? " released (" : " timed out (")
                    << tally.Total() << "/" << tally.expected << " joined:"
                    << joined << ")";
  }

  for (const auto& [joined_host, c] : tally.counts) {
    if (joined_host == host_name()) {
      ApplyBarrierVerdict(name, epoch, released, stragglers);
      continue;
    }
    std::string dest = joined_host;
    Dispatch([this, dest, name, epoch, released, stragglers](Pid h) {
      BarrierReleaseReq rel;
      rel.req_id = NextReqId();
      rel.name = name;
      rel.epoch = epoch;
      rel.released = released;
      rel.stragglers = stragglers;
      ForwardToHost<GroupAck>(dest, rel, h,
                              [this, h](const GroupAck*, const std::string&) {
                                ReleaseHandler(h);
                              });
    });
  }
}

void Lpm::HandleBarrierRelease(net::ConnId conn, const BarrierReleaseReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  ApplyBarrierVerdict(req.name, req.epoch, req.released, req.stragglers);
  GroupAck ack;
  ack.req_id = req.req_id;
  ack.ok = true;
  ReplyMsg(conn, ack);
}

void Lpm::ApplyBarrierVerdict(const std::string& name, uint64_t epoch, bool released,
                              const std::vector<std::string>& stragglers) {
  group::GroupTable::BarrierKey key{name, epoch};
  auto it = barrier_local_.find(key);
  if (it == barrier_local_.end()) return;  // already applied (or never waited here)
  BarrierLocal bl = std::move(it->second);
  barrier_local_.erase(it);
  simulator().Cancel(bl.safety_ev);
  group_table_.NoteDecided(name, epoch);
  group_table_.NoteOutcome(name, epoch, released);
  for (auto& [conn, req_id] : bl.waiters) {
    BarrierEnterResp resp;
    resp.req_id = req_id;
    resp.ok = true;
    resp.released = released;
    resp.epoch = epoch;
    resp.stragglers = stragglers;
    if (!released) resp.error = "barrier timed out";
    ReplyMsg(conn, resp);
  }
}

void Lpm::FailBarrierLocal(const std::string& name, uint64_t epoch,
                           const std::string& why) {
  group::GroupTable::BarrierKey key{name, epoch};
  auto it = barrier_local_.find(key);
  if (it == barrier_local_.end()) return;
  BarrierLocal bl = std::move(it->second);
  barrier_local_.erase(it);
  simulator().Cancel(bl.safety_ev);
  // Deliberately *no* outcome note: the verdict is unknown here, and
  // guessing released/timed-out is what group.no_split_release forbids.
  for (auto& [conn, req_id] : bl.waiters) {
    BarrierEnterResp resp;
    resp.req_id = req_id;
    resp.ok = false;
    resp.epoch = epoch;
    resp.error = why;
    ReplyMsg(conn, resp);
  }
}

// --- group operations: global envars --------------------------------------------------------

void Lpm::HandleEnvarSet(net::ConnId conn, const EnvarSetReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  Dispatch(RxMeta(conn, req.req_id), [this, conn, req](Pid h) {
    sim::SimDuration cost = kernel().Charge(h, BaseCosts::kHandlerWork);
    simulator().ScheduleIn(cost, [this, conn, req, h] {
      EnvarSetResp resp;
      resp.req_id = req.req_id;
      if (!running_) {
        resp.ok = false;
        resp.error = "manager shutting down";
        ReplyMsg(conn, resp);
        ReleaseHandler(h);
        return;
      }
      // Version is claimed at the origin; every replica's merge rule
      // (higher version, ties toward the larger origin) converges on
      // one winner without any coordination round.
      uint64_t version = group_table_.NextVersion(req.key);
      ApplyEnvar(req.key, req.value, version, host_name());
      FloodEnvar(req.key, req.value, version, host_name());
      resp.ok = true;
      resp.version = version;
      ReplyMsg(conn, resp);
      ReleaseHandler(h);
    }, "lpm-envar-set");
  });
}

void Lpm::HandleEnvarGet(net::ConnId conn, const EnvarGetReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  EnvarGetResp resp;
  resp.req_id = req.req_id;
  resp.key = req.key;
  const group::Envar* var = group_table_.FindEnvar(req.key);
  if (var == nullptr) {
    resp.ok = false;
    resp.error = "unset envar " + req.key;
  } else {
    resp.ok = true;
    resp.value = var->value;
    resp.version = var->version;
  }
  ReplyMsg(conn, resp);
}

void Lpm::HandleEnvarWatch(net::ConnId conn, const EnvarWatchReq& req) {
  if (!AdmitRequest(conn, req.req_id)) return;
  EnvarWatchResp resp;
  resp.req_id = req.req_id;
  if (req.key.empty()) {
    resp.ok = false;
    resp.error = "watch key must be non-empty";
  } else {
    resp.ok = true;
    resp.watch_id = group_table_.AddWatcher(req.key, req.spec);
  }
  ReplyMsg(conn, resp);
}

void Lpm::HandleEnvarUpdate(const EnvarUpdate& upd) {
  if (!AcceptBcast(upd.origin_host, upd.bcast_seq)) return;
  // Re-flood away from the arrival leg regardless of whether we adopt
  // the value: the covering graph needs every edge walked even when this
  // replica already holds a newer version.
  std::string sender = upd.route.empty() ? std::string() : upd.route.back();
  EnvarUpdate fwd = upd;
  fwd.route.push_back(host_name());
  Flood(Msg{std::move(fwd)}, sender, "lpm-flood-send");
  ApplyEnvar(upd.key, upd.value, upd.version, upd.version_origin);
}

void Lpm::HandleEnvarSync(const EnvarSync& sync) {
  for (const EnvarEntry& e : sync.entries) {
    if (!ApplyEnvar(e.key, e.value, e.version, e.origin)) continue;
    // Adopted from anti-entropy: re-originate as a fresh flood so hosts
    // beyond this sibling hear of it too (their filters never saw the
    // original broadcast — it happened while we were apart).
    FloodEnvar(e.key, e.value, e.version, e.origin);
  }
}

bool Lpm::ApplyEnvar(const std::string& key, const std::string& value,
                     uint64_t version, const std::string& origin) {
  if (!group_table_.MergeEnvar(key, value, version, origin)) return false;
  if (store_) store_->RecordEnvar(key, value, version, origin);
  ++stats_.envar_updates;
  Metrics().envar_updates->Inc();
  obs::FlightRecorder::Instance().Record(obs::FlightKind::kEnvarUpdate, host_name(),
                                         key, version, 0);
  for (const auto& [id, w] : group_table_.WatchersFor(key)) {
    ++stats_.envar_watch_fires;
    Metrics().envar_watch_fires->Inc();
    ApplyTriggerAction(w->spec);
  }
  return true;
}

void Lpm::FloodEnvar(const std::string& key, const std::string& value, uint64_t version,
                     const std::string& version_origin) {
  EnvarUpdate upd;
  upd.origin_host = host_name();
  upd.bcast_seq = OriginateBcast();
  upd.signed_ts = simulator().Now();
  upd.route.push_back(host_name());
  upd.key = key;
  upd.value = value;
  upd.version = version;
  upd.version_origin = version_origin;
  Flood(Msg{std::move(upd)}, /*except_host=*/"", "lpm-flood-send");
}

// --- factory --------------------------------------------------------------------------------

daemon::LpmFactory MakeLpmFactory(LpmConfig config) {
  return [config](host::Host& host, host::Uid uid, uint64_t token) -> daemon::LpmHandle {
    // One accept port per user per host; freed when the LPM exits, so a
    // successor LPM for the same user can reuse it.  If the slot is taken
    // (e.g. a duplicate LPM after a volatile-registry pmd crash), probe
    // upward like a bind-retry loop.
    net::Port port = static_cast<net::Port>(5000 + (static_cast<uint32_t>(uid) % 20000));
    while (host.network().HasListener(host.net_id(), port)) ++port;
    std::string user = host.users().NameOf(uid).value_or("uid" + std::to_string(uid));
    host::Host* host_ptr = &host;
    auto pmd_getter = [host_ptr]() -> daemon::Pmd* {
      if (!host_ptr->up()) return nullptr;
      for (host::Pid p : host_ptr->kernel().AllPids()) {
        host::Process* proc = host_ptr->kernel().Find(p);
        if (proc && proc->alive() && proc->command == "pmd") {
          return dynamic_cast<daemon::Pmd*>(proc->body.get());
        }
      }
      return nullptr;
    };
    auto body = std::make_unique<Lpm>(host, uid, user, token, port, config, pmd_getter);
    host::Pid pid = host.kernel().Spawn(host::kNoPid, uid, "lpm", std::move(body),
                                        host::ProcState::kSleeping);
    return daemon::LpmHandle{pid, net::SocketAddr{host.net_id(), port}};
  };
}

}  // namespace ppm::core


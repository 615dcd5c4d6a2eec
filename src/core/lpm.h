// lpm.h — the Local Process Manager.
//
// One LPM per <user, host>, created on demand through inetd/pmd (paper
// Figure 2).  The collection of a user's LPMs *is* the Personal Process
// Manager: a distributed program whose parts
//
//   * act as the process creation server for the user's remote processes,
//   * track the user's processes via kernel events on the kernel socket,
//   * keep an event history and exited-process resource statistics,
//   * answer tool requests (snapshots, signals, adoption, triggers),
//   * flood broadcast requests over the low-connectivity sibling graph,
//   * and run the crash-coordinator (CCS) recovery protocol.
//
// Internally the LPM mirrors the paper's structure (Section 6): a main
// *dispatcher* plus a pool of *handler processes*.  Handlers occupy real
// slots in the simulated process table; creating one costs a fork, and
// "processes that have handled a request may be given further requests,
// rather than simply creating new processes" — the reuse policy is a
// config knob so bench_ablate_handlers can measure the difference.
// Handlers block while waiting for remote responses without stalling
// the dispatcher; if a response never comes, the dispatcher returns a
// failure to the originator of the request.
//
// Endpoint inventory (paper Figure 4): one kernel socket (the kernel
// event sink), one accept socket (address published by pmd), and any
// number of sibling and tool circuits.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/broadcast.h"
#include "core/flat_map.h"
#include "core/history.h"
#include "core/recovery.h"
#include "core/types.h"
#include "core/wire.h"
#include "daemon/pmd.h"
#include "group/group.h"
#include "host/host.h"
#include "net/network.h"
#include "obs/health.h"
#include "store/lpm_store.h"

namespace ppm::core {

// Protocol timings that no deployment tunes: fixed here, not in LpmConfig.
//
// Barrier decision window at the CCS: an epoch that has not reached its
// expected count this long after the first join is decided as timed out
// (with a straggler report).  Member LPMs run a local safety timeout at
// twice this, after which waiters get an explicit *unknown* outcome
// ("barrier verdict unreachable") — never a fabricated timeout, so a
// released verdict and a timeout verdict can never coexist for one epoch
// (group.no_split_release).
inline constexpr sim::SimDuration kBarrierTimeout = sim::Seconds(10);
// How long a recovering LPM waits for the CcsNameServer to answer before
// falling back to the ~/.recovery walk.
inline constexpr sim::SimDuration kNsQueryTimeout = sim::Millis(500);
// First retry backoff; doubles per attempt, jittered 0.5x-1.5x from the
// simulator rng so synchronized retry storms decorrelate.
inline constexpr sim::SimDuration kRetryBase = sim::Millis(200);
// Consecutive sibling-setup failures that trip the per-host circuit
// breaker, and the initial quarantine before a half-open probe.
inline constexpr uint32_t kBreakerThreshold = 3;
inline constexpr sim::SimDuration kBreakerProbe = sim::Seconds(5);
// Deadline on the whole sibling-setup exchange (pmd query, private channel
// connect, hello/ack).  A frame lost on a faulty link can otherwise leave
// the exchange half-done forever — conn open, no data, no close — which
// wedges every waiter, including the recovery walk.  Unlike the overload
// protection above, this is not gated on LpmConfig::overload_protection:
// an unbounded wait is a liveness bug, not a degraded mode.
inline constexpr sim::SimDuration kSiblingSetupTimeout = sim::Seconds(6);

struct LpmConfig {
  // How long an idle LPM lingers after its host stops holding processes
  // of its user (paper Section 3).
  sim::SimDuration time_to_live = sim::Seconds(600);
  // How long a disconnected LPM waits before closing down the user's
  // local processes and exiting (paper Section 5).
  sim::SimDuration time_to_die = sim::Seconds(300);
  // Low-frequency probe period of an acting CCS toward higher-priority
  // recovery hosts (paper Section 5: network partition handling).
  sim::SimDuration probe_interval = sim::Seconds(60);
  // Retry period of a dying LPM toward the recovery list.
  sim::SimDuration retry_interval = sim::Seconds(30);
  // Broadcast duplicate-suppression window (paper Section 4: "a
  // configuration parameter whose optimum value will be derived from
  // experience").
  sim::SimDuration bcast_window = sim::Seconds(120);
  // Snapshot completion timeout (partial results are returned).
  sim::SimDuration snapshot_timeout = sim::Seconds(10);
  // Forwarded-request timeout.
  sim::SimDuration request_timeout = sim::Seconds(10);
  // Host running the CcsNameServer daemon; empty disables name-server-
  // assisted recovery (paper Section 5's sketched alternative) and the
  // ~/.recovery walk is used alone.  With a server configured, the LPM
  // registers whenever it assumes the CCS role and queries on failure,
  // falling back to the .recovery walk if the server cannot answer.
  std::string ccs_nameserver;
  // Event history bound.
  size_t event_log_capacity = 4096;
  // Which events get recorded in the history (user-settable granularity).
  uint32_t granularity_mask = host::kTraceAll;
  // Handler pool policy (paper Section 6).
  bool handler_reuse = true;
  size_t max_handlers = 8;
  // Durable state store (src/store/): when enabled, every history event,
  // trigger change, rusage record and genealogy change is written ahead
  // to a CRC-framed journal (with periodic checkpoints), and a restarted
  // LPM warm-restarts from it — replaying its event history, triggers
  // and exited-process statistics, and re-adopting still-live processes
  // of the same kernel generation.  Off by default so the journal's cost
  // is an opt-in (chaos plans and the durability tests turn it on; the
  // knob also lets benches measure exactly what durability costs).
  bool durable_store = false;
  // Journal frames per physical sync (group commit width).
  uint32_t store_group_commit = 8;
  // Records between checkpoint+compaction cycles; bounds replay cost.
  uint32_t store_checkpoint_every = 256;
  // --- overload protection (deadlines, retry, shedding, breaker) -------
  // Master switch: off restores the pre-protection behaviour exactly
  // (unbounded queue, no deadline stamps, no retries, no breaker), so
  // bench_overload can measure the collapse it prevents.
  bool overload_protection = true;
  // Dispatcher backlog bound: a request arriving while handler_queue_
  // holds this many entries is shed with an explicit BusyResp
  // (reject-newest — queued work is older and closer to its deadline).
  // 0 = unbounded.
  size_t max_queue_depth = 64;
  // Fast-failure retries per forwarded request (BUSY, channel lost,
  // sibling setup failure).  A full request_timeout expiry is final.
  uint32_t max_retries = 2;
};

struct LpmStats {
  uint64_t requests = 0;           // requests dispatched (tools + siblings)
  uint64_t forwards = 0;           // requests forwarded to a sibling
  uint64_t kernel_events = 0;      // events received on the kernel socket
  uint64_t handlers_created = 0;
  uint64_t handler_reuses = 0;
  uint64_t snapshots_served = 0;   // local scans on behalf of any origin
  uint64_t bcasts_originated = 0;
  uint64_t bcast_duplicates = 0;
  uint64_t triggers_fired = 0;
  uint64_t failures_detected = 0;  // sibling channels lost to crash/partition
  uint64_t recoveries_started = 0;
  uint64_t request_timeouts = 0;
  // Overload protection (shed-partition invariant: requests_shed ==
  // busy_sent — every shed request got an explicit BUSY, never silence).
  uint64_t requests_shed = 0;      // rejected at admission (queue full)
  uint64_t busy_sent = 0;          // explicit BusyResp frames sent back
  uint64_t retries = 0;            // forward attempts beyond the first
  uint64_t deadline_expired = 0;   // work cancelled past its deadline
  uint64_t dup_suppressed = 0;     // retried requests caught by idem token
  // Group operations (src/group/).
  uint64_t gang_spawns = 0;        // gang-spawns completed successfully
  uint64_t gang_rollbacks = 0;     // gang-spawns rolled back (partial failure)
  uint64_t barrier_releases = 0;   // barrier epochs released (CCS side)
  uint64_t barrier_timeouts = 0;   // barrier epochs timed out (CCS side)
  uint64_t envar_updates = 0;      // envar changes applied to the local table
  uint64_t envar_watch_fires = 0;  // watcher actions fired on applied changes
};

// Figure 4 exhibit: the LPM's communication end points.
struct LpmEndpoints {
  bool kernel_socket = false;
  net::SocketAddr accept_socket;
  std::vector<std::pair<std::string, net::ConnId>> siblings;  // host -> circuit
  size_t tool_circuits = 0;
};

class Lpm : public host::ProcessBody {
 public:
  // `pmd_getter` lets the LPM unregister at exit without a compile-time
  // dependency cycle (daemon cannot depend on core).
  Lpm(host::Host& host, host::Uid uid, std::string user, uint64_t token,
      net::Port accept_port, LpmConfig config,
      std::function<daemon::Pmd*()> pmd_getter);

  void OnStart() override;
  bool OnSignal(host::Signal sig) override;
  void OnShutdown() override;

  // --- introspection (tests, figures, tools running in-process) --------
  const std::string& user() const { return user_; }
  host::Uid uid() const { return uid_; }
  uint64_t token() const { return token_; }
  net::SocketAddr accept_addr() const;
  LpmMode mode() const { return mode_; }
  bool is_ccs() const { return ccs_host_ == host_name(); }
  // True while a recovery walk is in flight and undecided.  Chaos
  // quiescence checks need this: a walk started under a partition can
  // straddle the heal and only then tip the LPM into kDying, so "no walk
  // pending" is part of the cluster being genuinely settled.
  bool recovery_in_progress() const { return recovery_in_progress_; }
  const std::string& ccs_host() const { return ccs_host_; }
  std::vector<std::string> sibling_hosts() const;
  LpmEndpoints Endpoints() const;
  const LpmStats& stats() const { return stats_; }
  const EventLog& event_log() const { return event_log_; }
  const TriggerTable& triggers() const { return triggers_; }
  const std::vector<RusageRecord>& exited_stats() const { return exited_stats_; }
  // The durable store, or nullptr when config.durable_store is off.
  store::LpmStore* store() { return store_.get(); }
  size_t handler_count() const { return handlers_.size(); }
  // Overload-protection introspection (chaos no-silent-loss invariant:
  // at quiescence both must be zero on every live LPM — every admitted
  // request terminated in a reply, an explicit error, or a recorded
  // expiry, never in a forgotten queue entry).
  size_t pending_forward_count() const { return pending_.size(); }
  size_t queued_request_count() const { return handler_queue_.size(); }
  size_t open_breaker_count() const;
  bool breaker_open_for(const std::string& host) const;
  size_t adopted_live_count() const;
  // Live STAT subscriptions registered at this LPM (origin or relay).
  // Chaos invariants use it to assert lazy-cancel convergence: after a
  // watch is dropped and the cluster quiesces, no LPM still holds it.
  size_t stat_watch_count() const { return stat_watches_.size(); }
  // Group operations state (memberships, barrier outcomes, the envar
  // table) — chaos invariants read it directly.
  const group::GroupTable& group_table() const { return group_table_; }
  // Pids of the local processes this LPM currently tracks as live (the
  // chaos invariant checkers compare them against the kernel table and
  // snapshot records).
  std::vector<host::Pid> TrackedLocalPids() const;
  bool ttl_armed() const { return ttl_event_ != sim::kInvalidEventId; }

  // Adjusts history granularity at runtime (also reachable via TraceReq
  // with the LPM itself as target).
  void set_granularity_mask(uint32_t mask) { config_.granularity_mask = mask; }

 private:
  // --- connection bookkeeping ------------------------------------------
  enum class PeerKind : uint8_t { kUnknown, kSibling, kTool };
  struct PeerInfo {
    PeerKind kind = PeerKind::kUnknown;
    std::string host;        // sibling host name
    std::string tool_name;   // tool label
    bool authenticated = false;  // HelloAck exchanged (outbound siblings)
  };

  // --- handler pool -------------------------------------------------------
  struct Handler {
    host::Pid pid;
    bool busy = false;
  };

  // --- local process knowledge -------------------------------------------
  struct LocalProc {
    GPid logical_parent;      // may be remote or invalid
    std::string command;
    bool exited = false;
    std::vector<GPid> remote_children;  // created through us on other hosts
  };

  // --- pending forwarded requests -----------------------------------------
  // on_response receives the response message, or nullptr with an error
  // string on timeout / channel loss (the handler "informs the
  // dispatcher of the failure", paper Section 6).  The message, target
  // host and trace are retained so fast failures (BUSY, channel lost,
  // setup failure) can retry with backoff under the overall deadline;
  // retries reuse the same req_id and idempotency token, so the receiver
  // can suppress duplicates and replay the cached response.
  struct PendingForward {
    host::Pid handler = host::kNoPid;
    net::ConnId conn = net::kInvalidConn;
    std::function<void(const Msg*, const std::string&)> on_response;
    sim::EventId timeout_ev = sim::kInvalidEventId;
    std::string host;
    Msg msg;
    obs::TraceContext trace;
    uint32_t attempts = 0;        // retries used so far
    uint64_t deadline_us = 0;     // overall deadline (stamped on the wire)
    uint64_t idem_token = 0;      // stamped on every attempt
  };

  // --- per-host circuit breaker ---------------------------------------------
  // Trips after kBreakerThreshold consecutive sibling-setup failures;
  // while open (and before open_until) EnsureSibling fast-fails instead
  // of paying the connect timeout.  At open_until one half-open probe is
  // allowed: success closes the breaker, failure re-opens it with the
  // quarantine doubled (capped so a healed peer is readmitted promptly).
  struct Breaker {
    uint32_t failures = 0;
    bool open = false;
    uint64_t open_until = 0;         // virtual us; probe allowed after this
    sim::SimDuration backoff = 0;    // current quarantine length
  };

  // --- admission metadata carried with dispatched work ----------------------
  // Snapshot of the rx deadline stamp plus the reply route, taken at
  // request entry: the deadline rides into handler_queue_ so expired
  // work is cancelled instead of executed, and the (conn, req_id) pair
  // lets an expiry release the idempotency bookkeeping it would leak.
  struct RequestMeta {
    uint64_t deadline_us = 0;
    net::ConnId conn = net::kInvalidConn;
    uint64_t req_id = 0;
  };
  struct QueuedWork {
    RequestMeta meta;
    std::function<void(host::Pid)> fn;
  };

  // --- request/reply collectives (this LPM as origin) ------------------------
  // Snapshot and STAT are one collective; they differ only in the record
  // each manager contributes and the names a run is observed under, which
  // SnapshotCollective and StatCollective (lpm.cc) supply.
  struct SnapshotCollective;
  struct StatCollective;
  template <typename Record>
  struct CollectiveRun {
    uint64_t tool_req_id = 0;
    net::ConnId tool_conn = net::kInvalidConn;
    host::Pid handler = host::kNoPid;
    std::vector<Record> records;
    CoverageTally tally;
    sim::EventId timeout_ev = sim::kInvalidEventId;
    obs::TraceContext trace;     // root span of the broadcast's causal trace
    sim::SimTime start_us = 0;   // for the round-trip histogram
  };

  // --- stat watches (continuous telemetry; see wire.h 0xF6 subs 2-4) -------
  // The counters a watch reports deltas of, sampled at one instant.
  struct StatCounters {
    uint64_t t_us = 0;
    uint64_t kernel_events = 0;
    uint64_t requests = 0;
    uint64_t requests_shed = 0;
    uint64_t retries = 0;
    uint64_t journal_bytes = 0;
    uint64_t eventlog_recorded = 0;
    uint64_t acct_cpu_us = 0;
  };

  // One entry per <origin, watch_id> this LPM participates in.  The
  // delta path is pinned at subscribe time: the sibling circuit the
  // StatSubscribe flood arrived on becomes parent_conn, and deltas only
  // ever flow back along it.  A broken circuit drops the watch rather
  // than re-routing — re-routing could replay or skip intervals, and the
  // no-silent-loss invariant wants per-<watch, host> sequence numbers
  // contiguous for as long as they arrive at all.  The subscriber heals
  // by resubscribing under a fresh watch_id.
  struct StatWatch {
    std::string origin_host;                  // key part 1
    uint64_t watch_id = 0;                    // key part 2
    bool is_origin = false;                   // this LPM started the watch
    net::ConnId tool_conn = net::kInvalidConn;   // origin only
    uint64_t tool_req_id = 0;                    // origin only (ack req_id)
    std::string parent_host;                  // next hop toward the origin
    net::ConnId parent_conn = net::kInvalidConn;
    uint64_t interval_us = 0;
    sim::EventId push_ev = sim::kInvalidEventId;
    uint64_t seq = 0;                         // last sequence number pushed
    // Counter snapshot at the previous push — deltas are differences
    // against this, so each interval's record is self-contained.
    StatCounters base;
    // Child records buffered since the last push (in-transit aggregation:
    // one upstream frame per interval carries them all).
    std::vector<StatDeltaRecord> pending;
  };
  using StatWatchKey = std::pair<std::string, uint64_t>;

  // message plumbing
  void OnAccept(net::ConnId conn, net::SocketAddr peer);
  void OnData(net::ConnId conn, const std::vector<uint8_t>& bytes);
  void OnClose(net::ConnId conn, net::CloseReason reason);
  // An invalid (default) trace context serializes to the untraced wire
  // format, so tracing never changes message bytes unless a span exists.
  void SendMsg(net::ConnId conn, const Msg& msg,
               const obs::TraceContext& trace = {},
               const DeadlineStamp& stamp = {});
  // Charges `base_cost` (marshalling + socket write, load-scaled) and
  // sends after that plus `extra_delay` (already-charged work that must
  // complete first).
  void SendToSibling(net::ConnId conn, Msg msg, sim::SimDuration base_cost,
                     sim::SimDuration extra_delay = 0,
                     const obs::TraceContext& trace = {},
                     const DeadlineStamp& stamp = {});
  // Replies on `conn`: immediate for local tools, charged at sibling
  // channel cost for remote managers.
  void ReplyMsg(net::ConnId conn, const Msg& msg);

  // dispatcher & handlers
  void Dispatch(std::function<void(host::Pid handler)> work);
  void Dispatch(const RequestMeta& meta, std::function<void(host::Pid handler)> work);
  void AcquireHandler(const RequestMeta& meta, std::function<void(host::Pid)> cb);
  void ReleaseHandler(host::Pid pid);

  // overload protection
  // Admission check at request entry: false = the request was shed (an
  // explicit BusyResp went back) or arrived already past its deadline
  // (recorded expiry; the origin's own timeout reports the error).
  bool AdmitRequest(net::ConnId conn, uint64_t req_id);
  // Duplicate suppression for mutating requests carrying an idempotency
  // token: replays the cached response for an already-executed token,
  // swallows a token still in flight.  True = suppressed, do not execute.
  bool SuppressDuplicate(net::ConnId conn, const Msg& msg);
  // Releases the idempotency bookkeeping registered for (conn, req_id)
  // when the request will never produce a capturable reply.
  void ReleaseIdem(net::ConnId conn, uint64_t req_id);
  // Snapshot of the rx stamp + reply route at request entry.
  RequestMeta RxMeta(net::ConnId conn, uint64_t req_id) const;
  // Retry machinery for forwarded requests.
  void StartForwardAttempt(uint64_t req_id);
  void ForwardAttemptFailed(uint64_t req_id, const std::string& why,
                            uint64_t min_backoff_us = 0);
  // Ends a pending forward: hands its callback the reply, or nullptr with
  // the failure.
  void SettleForward(uint64_t req_id, const Msg* reply, const std::string& why = {});
  void HandleBusy(const BusyResp& busy);
  // Circuit breaker.
  bool PeerQuarantined(const std::string& host) const;
  void RecordPeerFailure(const std::string& host);
  void RecordPeerSuccess(const std::string& host);

  // hello handling
  void HandleHello(net::ConnId conn, const Msg& msg, PeerInfo& info);

  // The request route (paper Section 6) of every request aimed at one
  // host: admit and dispatch; when this host is the target, serve it with
  // `serve` (the kind's Do<Kind>Local), else forward it under a fresh
  // req_id and relay the typed reply, or an ok=false failure, under the
  // caller's.  The handler is released once the reply is out.
  template <typename Req, typename Resp>
  void HandleHostReq(net::ConnId conn, const Req& req,
                     void (Lpm::*serve)(const Req&, host::Pid,
                                        std::function<void(const Resp&)>));

  // local actions: each kind's serve on its target host
  void DoCreateLocal(const CreateReq& req, host::Pid handler,
                     std::function<void(const CreateResp&)> done);
  void DoSignalLocal(const SignalReq& req, host::Pid handler,
                     std::function<void(const SignalResp&)> done);
  void DoRusageLocal(const RusageReq& req, host::Pid handler,
                     std::function<void(const RusageResp&)> done);
  void DoAdoptLocal(const AdoptReq& req, host::Pid handler,
                    std::function<void(const AdoptResp&)> done);
  void DoTraceLocal(const TraceReq& req, host::Pid handler,
                    std::function<void(const TraceResp&)> done);
  void DoHistoryLocal(const HistoryReq& req, host::Pid handler,
                      std::function<void(const HistoryResp&)> done);
  void DoTriggerLocal(const TriggerReq& req, host::Pid handler,
                      std::function<void(const TriggerResp&)> done);
  void DoFilesLocal(const FilesReq& req, host::Pid handler,
                    std::function<void(const FilesResp&)> done);
  // A tool's migrate: the handler's own work, then MigrateAdopted.
  void DoMigrateLocal(const MigrateReq& req, host::Pid handler,
                      std::function<void(const MigrateResp&)> done);
  // Migrates a *local* adopted process to `req.dest_host` (checkpoint,
  // re-create there with this process as logical parent, kill here).
  void MigrateAdopted(const MigrateReq& req, host::Pid handler,
                      std::function<void(const MigrateResp&)> done);
  std::vector<ProcRecord> ScanLocalProcesses();

  // forwarding
  // Sends `req` to `host`'s manager under req.req_id.  `on_reply` gets the
  // reply narrowed to Resp, or nullptr with the failure (an empty one when
  // the reply had another type).
  template <typename Resp, typename Req>
  void ForwardToHost(const std::string& host, const Req& req, host::Pid handler,
                     std::function<void(const Resp*, const std::string&)> on_reply,
                     const obs::TraceContext& trace = {});
  // ForwardToHost's body, kept out of the template so it is compiled once.
  void ForwardMsg(const std::string& host, Msg msg, uint64_t my_req_id, host::Pid handler,
                  std::function<void(const Msg*, const std::string&)> on_response,
                  const obs::TraceContext& trace);
  void EnsureSibling(const std::string& host,
                     std::function<void(std::optional<net::ConnId>)> done);
  void FinishSiblingSetup(const std::string& host, const daemon::LpmResponse& resp);
  void SiblingEstablished(const std::string& host, net::ConnId conn);
  // `count_failure` is false for overload signals (pmd busy): the peer
  // is reachable, just saturated, so the circuit breaker stays out of it.
  void SiblingSetupFailed(const std::string& host, const std::string& why,
                          bool count_failure = true);
  void SiblingSetupTimedOut(const std::string& host);

  // the covering-graph broadcast (paper Section 4)
  // Mints, counts and records (in the filter) a broadcast of this origin.
  uint64_t OriginateBcast();
  // Filter check for a flood leg from a sibling; false = duplicate
  // (counted, and the lpm.bcast.dup health rate recorded).
  bool AcceptBcast(const std::string& origin, uint64_t seq);
  // Sends `msg` to every sibling except `except_host`, each send scheduled
  // under `label` and, under a valid `parent`, in a hop span `span`.
  // Appends the hosts to `sent_to`; returns the dispatcher cost.
  sim::SimDuration Flood(const Msg& msg, const std::string& except_host,
                         const char* label, std::vector<std::string>* sent_to = nullptr,
                         const obs::TraceContext& parent = {}, const char* span = "");
  // The request/reply collective, C = SnapshotCollective or StatCollective:
  // a tool's request (empty origin) starts a run, a sibling's is served.
  template <typename C>
  void HandleCollectiveReq(net::ConnId conn, const typename C::Req& req);
  template <typename C>
  void StartCollective(net::ConnId tool_conn, const typename C::Req& tool_req,
                       host::Pid handler);
  // Relays a reply one hop back along its route, or tallies it at the origin.
  template <typename C>
  void HandleCollectiveResp(const typename C::Resp& resp);
  // Answers the tool with what the run holds (partial at the timeout).
  template <typename C>
  void FinishCollective(uint64_t bcast_seq);

  // live introspection (the STAT protocol; see wire.h)
  // Samples this manager's structured self-description (one StatResp
  // record): role, queues, counters, store, flight recorder, health.
  LpmStatRecord BuildStatRecord();
  // This manager's health verdict from its own counters.
  obs::HealthReport ClassifyHealth() const;

  // stat watches (push-based monitoring)
  void HandleStatSubscribe(net::ConnId conn, const StatSubscribe& req);
  void StartStatWatch(net::ConnId tool_conn, const StatSubscribe& tool_req,
                      host::Pid handler);
  void HandleStatDelta(net::ConnId conn, const StatDelta& delta);
  void HandleStatUnsubscribe(net::ConnId conn, const StatUnsubscribe& req);
  // Arms/re-arms the per-interval push timer for one watch.
  void ScheduleStatPush(const StatWatchKey& key);
  // One interval tick: build this host's delta record, flush buffered
  // child records, send the aggregate one hop toward the origin (or to
  // the subscribed tool at the origin).
  void PushStatDelta(const StatWatchKey& key);
  void DropStatWatch(const StatWatchKey& key, const char* why);
  // Registers a watch whose deltas start from now.
  void AddStatWatch(const StatWatchKey& key, StatWatch w);
  StatCounters SampleStatCounters();
  StatDeltaRecord BuildStatDeltaRecord(StatWatch& w);
  // Total cpu charged to this user's processes on this host, exited and
  // live — the per-user accounting rollup's raw material.
  uint64_t AcctCpuUs();

  // kernel events
  void OnKernelEvent(const host::KernelEvent& ev);
  void FireTrigger(const TriggerSpec& spec, const HistEvent& ev);
  // Shared action tail of triggers and envar watchers: signal, migrate,
  // or (kSpawn) create a local process, enrolling it into spec.group.
  void ApplyTriggerAction(const TriggerSpec& spec);
  void SpawnTriggered(const TriggerSpec& spec);

  // group operations (src/group/): gang-spawn
  void HandleGroupSpawn(net::ConnId conn, const GroupSpawnReq& req);
  void StartGangSpawn(net::ConnId conn, const GroupSpawnReq& req, host::Pid handler);
  void GangPartDone(uint64_t run_id, const std::string& part_host, bool ok,
                    const GPid& gpid, const std::string& error);
  void FinishGangSpawn(uint64_t run_id);
  // Creates one group member locally (the member-host leg of a gang
  // spawn; also the local leg at the coordinator and the trigger-respawn
  // path).  Empty req.group skips membership bookkeeping.
  void DoGroupPartLocal(const GroupPartReq& req, host::Pid handler,
                        std::function<void(const GroupPartResp&)> done);
  void HandleGroupUndo(net::ConnId conn, const GroupUndoReq& req);
  // Kills a local gang member and forgets its membership (rollback leg).
  void UndoLocalGroupMember(host::Pid target);

  // group operations: exits, signal, join
  void HandleGroupExitNotify(net::ConnId conn, const GroupExitNotify& req);
  void HandleGroupAddNotify(net::ConnId conn, const GroupAddNotify& req);
  // Coordinator-side exit bookkeeping; flushes waiting joins when the
  // whole group is down.
  void ApplyGroupExit(const std::string& grp, const GPid& gpid, int32_t status);
  // Member-host side: route a local member's exit to its coordinator.
  void NotifyGroupExit(const std::string& grp, const std::string& coordinator,
                       const GPid& gpid, int32_t status);
  void FlushGroupJoins(const std::string& grp);
  void HandleGroupSignal(net::ConnId conn, const GroupSignalReq& req);
  void HandleGroupJoin(net::ConnId conn, const GroupJoinReq& req);
  GroupJoinResp BuildJoinResp(uint64_t req_id, const std::string& grp);

  // group operations: barriers
  void HandleBarrierEnter(net::ConnId conn, const BarrierEnterReq& req);
  // Reports this LPM's cumulative waiter count to the CCS (or applies it
  // directly when this LPM is the CCS).
  void SendBarrierJoin(const std::string& name, uint64_t epoch,
                       uint32_t expected, uint32_t count);
  // One join attempt addressed to `ccs`.  A "not the central
  // coordinator" bounce carries the rejector's CCS hint; the attempt
  // chases it (repairing this LPM's stale pointer on success) up to
  // `redirects_left` hops before failing the local waiters.
  void SendBarrierJoinTo(const std::string& ccs, const std::string& name,
                         uint64_t epoch, uint32_t expected, uint32_t count,
                         int redirects_left);
  // CCS side: tally a join; may decide the epoch.  Returns the ack for
  // the joining LPM (ok=false: stale epoch, already decided).
  GroupAck CcsBarrierJoin(const std::string& from_host, const std::string& name,
                          uint64_t epoch, uint32_t expected, uint32_t count);
  void HandleBarrierJoin(net::ConnId conn, const BarrierJoinReq& req);
  // CCS side: decide <name, epoch> exactly once (journal, then announce).
  void BarrierVerdict(const std::string& name, uint64_t epoch, bool released);
  void HandleBarrierRelease(net::ConnId conn, const BarrierReleaseReq& req);
  // Applies a verdict to the local waiters of <name, epoch>.
  void ApplyBarrierVerdict(const std::string& name, uint64_t epoch, bool released,
                           const std::vector<std::string>& stragglers);
  // Fails local waiters with an *unknown* outcome (no released/timed-out
  // claim): coordinator unreachable or safety timeout.
  void FailBarrierLocal(const std::string& name, uint64_t epoch,
                        const std::string& why);

  // group operations: global envars
  void HandleEnvarSet(net::ConnId conn, const EnvarSetReq& req);
  void HandleEnvarGet(net::ConnId conn, const EnvarGetReq& req);
  void HandleEnvarWatch(net::ConnId conn, const EnvarWatchReq& req);
  void HandleEnvarUpdate(const EnvarUpdate& upd);
  void HandleEnvarSync(const EnvarSync& sync);
  // Merges one entry into the local table; on adoption journals it,
  // counts it, and fires matching watchers.  True = applied.
  bool ApplyEnvar(const std::string& key, const std::string& value,
                  uint64_t version, const std::string& origin);
  // Originates the flood that spreads one envar version to every replica.
  void FloodEnvar(const std::string& key, const std::string& value, uint64_t version,
                  const std::string& version_origin);

  // durable store (src/store/)
  // Replays checkpoint+journal at boot and seeds the event log, trigger
  // table, rusage records, CCS hint and genealogy; re-adopts still-live
  // processes when the kernel generation matches.
  void WarmRestart(const store::RecoveredState& recovered);
  // Points this LPM at `host` as its CCS (this host itself included) and
  // journals the change when a store is on.
  void SetCcs(const std::string& host);

  // signal delivery to, and migration of, an arbitrary GPid (trigger
  // actions, group signal)
  void SignalGPid(const GPid& target, host::Signal sig,
                  std::function<void(bool, std::string)> done);
  void MigrateGPid(const GPid& target, const std::string& dest,
                   std::function<void(bool, std::string)> done);
  // The same route for the manager's own request about `req.target`, on a
  // handler of its own: served here by `serve`, or forwarded under the
  // req_id minted for it; `done` gets ok and the error.
  template <typename Req, typename Resp>
  void RouteOwnRequest(Req req,
                       void (Lpm::*serve)(const Req&, host::Pid,
                                          std::function<void(const Resp&)>),
                       std::function<void(bool, std::string)> done);

  // lifetime
  void ReviewTtl();
  void TtlExpired();
  void ExitSelf(int status);

  // Every mode change goes through here so the flight recorder sees the
  // "from->to" transition.
  void SetMode(LpmMode m);

  // recovery
  void OnSiblingLost(const std::string& host, net::CloseReason reason);
  void StartRecovery();
  // Dispatches to the name server (when configured) or the list walk.
  void RecoverEntry();
  void RecoverViaNameServer();
  void RegisterCcsWithNameServer();
  void WalkRecoveryList(size_t index);
  void BecomeActingCcs(size_t list_index);
  void YieldCcsTo(const std::string& host);
  void ProbeHigherPriority();
  void ProbeStep(size_t index, size_t limit, RecoveryList list);
  void EnterDying();
  void CancelDeath();
  void AnnounceCcs();
  // Hello-time CCS handling: a peer's claim is a *hint* (adopted only if
  // we have no CCS) unless we are in trouble, in which case contact from
  // a peer in normal operation restores us (paper Section 5: "…gets a
  // communication request from a LPM in contact with a valid CCS").
  void AdoptCcsFromPeer(const std::string& peer_ccs);
  // Authoritative CCS announcement (CcsChanged protocol message).
  void AcceptCcsAnnouncement(const std::string& new_ccs);
  // The ccs_host field we put into outgoing hellos: empty while our own
  // CCS knowledge is suspect, so we never evangelize a stale coordinator.
  std::string CcsClaim() const;

  uint64_t NextReqId() { return next_req_id_++; }
  host::Kernel& kernel() { return host_.kernel(); }
  net::Network& network() { return host_.network(); }
  sim::Simulator& simulator() { return host_.simulator(); }
  const std::string& host_name() const { return host_.name(); }

  host::Host& host_;
  host::Uid uid_;
  std::string user_;
  uint64_t token_;
  net::Port accept_port_;
  LpmConfig config_;
  std::function<daemon::Pmd*()> pmd_getter_;

  bool running_ = false;       // between OnStart and OnShutdown
  bool graceful_exit_ = false;  // distinguishes exit from being killed
  FlatMap<net::ConnId, PeerInfo> peers_;
  FlatMap<std::string, net::ConnId> siblings_;
  std::map<std::string, std::vector<std::function<void(std::optional<net::ConnId>)>>>
      sibling_waiters_;
  // Per-host deadline on an in-flight sibling setup, plus the connection
  // it is currently using (pmd circuit, then the private channel) so a
  // timeout can tear it down instead of leaking it half-open.
  std::map<std::string, sim::EventId> sibling_setup_timeout_ev_;
  std::map<std::string, net::ConnId> sibling_setup_conn_;
  std::vector<Handler> handlers_;
  std::deque<QueuedWork> handler_queue_;
  FlatMap<uint64_t, PendingForward> pending_;
  FlatMap<uint64_t, CollectiveRun<ProcRecord>> snapshots_;   // keyed by bcast seq
  FlatMap<uint64_t, CollectiveRun<LpmStatRecord>> stat_runs_;  // keyed by bcast seq
  std::map<StatWatchKey, StatWatch> stat_watches_;  // <origin, watch_id>
  uint32_t queue_watermark_ = 0;  // handler queue depth high-watermark
  FlatMap<host::Pid, LocalProc> local_procs_;
  std::vector<RusageRecord> exited_stats_;
  BroadcastFilter bcast_filter_;
  EventLog event_log_;
  TriggerTable triggers_;
  std::unique_ptr<store::LpmStore> store_;  // null unless config.durable_store

  // recovery state
  LpmMode mode_ = LpmMode::kNormal;
  std::string ccs_host_;  // this host's name while it is the CCS
  sim::EventId ttl_event_ = sim::kInvalidEventId;
  sim::EventId death_event_ = sim::kInvalidEventId;
  sim::EventId probe_event_ = sim::kInvalidEventId;
  sim::EventId retry_event_ = sim::kInvalidEventId;
  bool recovery_in_progress_ = false;

  uint64_t next_req_id_ = 1;
  uint64_t next_bcast_seq_ = 1;
  LpmStats stats_;

  // Reusable encode buffers for the two hot serialization paths: the
  // kernel socket (112-byte kernel events) and sibling sends.  Cleared,
  // not reallocated, per message (wire.h §ownership).
  WireBuffer kmsg_buf_;
  WireBuffer send_buf_;

  // Trace context of the message currently being handled.  OnData fills
  // it before the synchronous dispatch visit, so Handle* entry code may
  // copy it; it is meaningless once control returns to the event loop.
  obs::TraceContext rx_trace_;
  // Deadline/idempotency stamp of the message currently being handled
  // (same lifetime discipline as rx_trace_).
  DeadlineStamp rx_stamp_;

  // --- overload-protection state -----------------------------------------
  // Per-host circuit breakers (cold path; host set is small).
  std::map<std::string, Breaker> breakers_;
  // Receiver-side duplicate suppression.  A mutating request's token is
  // held in inflight_tokens_ while it executes; ReplyMsg captures the
  // response into done_cache_ (FIFO-evicted at kIdemCacheCap) so a
  // retransmit replays the original answer instead of re-executing.
  static constexpr size_t kIdemCacheCap = 256;
  std::set<uint64_t> inflight_tokens_;
  FlatMap<uint64_t, Msg> done_cache_;       // token -> captured response
  std::deque<uint64_t> done_order_;         // FIFO eviction order
  // (conn, response req_id) -> token: how ReplyMsg finds the token a
  // reply settles.  Keyed by conn too because req_ids are per-origin.
  std::map<std::pair<net::ConnId, uint64_t>, uint64_t> idem_replies_;
  // Last event_log_.total_dropped() mirrored into the shared registry
  // counter (multiple LPMs feed one counter, so each adds deltas).
  uint64_t eventlog_dropped_seen_ = 0;

  // --- group operations state (src/group/) --------------------------------
  group::GroupTable group_table_;

  // One in-flight gang spawn at the coordinator: per-host parts fan out
  // through ForwardToHost; all-or-nothing on completion.
  struct GangRun {
    net::ConnId tool_conn = net::kInvalidConn;
    uint64_t tool_req_id = 0;
    host::Pid handler = host::kNoPid;
    std::string group;
    size_t outstanding = 0;
    bool failed = false;
    std::vector<GPid> members;             // created so far
    std::vector<std::string> host_errors;  // "host: reason" per failed part
  };
  std::map<uint64_t, GangRun> gang_runs_;  // keyed by run id

  // Local waiters of one <name, epoch> plus what we last reported to the
  // CCS and the safety timeout that bounds waiting for a verdict.
  struct BarrierLocal {
    uint32_t expected = 0;
    std::vector<std::pair<net::ConnId, uint64_t>> waiters;  // conn, req_id
    uint32_t reported = 0;  // cumulative count last sent to the CCS
    sim::EventId safety_ev = sim::kInvalidEventId;
  };
  std::map<group::GroupTable::BarrierKey, BarrierLocal> barrier_local_;
  // CCS side: the decision timer per undecided epoch (tally itself lives
  // in group_table_).
  std::map<group::GroupTable::BarrierKey, sim::EventId> barrier_decide_ev_;
  // Join requests parked until the whole group has exited.
  std::map<std::string, std::vector<std::pair<net::ConnId, uint64_t>>> join_waiters_;
};

// The LpmFactory the PPM layer installs into inetd/pmd: spawns an LPM
// process on `host` for `uid` and returns its handle.  `config` applies
// to every LPM the factory creates.
daemon::LpmFactory MakeLpmFactory(LpmConfig config);

}  // namespace ppm::core

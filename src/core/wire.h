// wire.h — the PPM wire protocol.
//
// Everything that crosses an LPM socket — sibling channels, tool
// channels, and the 112-byte kernel event messages of Table 1 — is
// defined here as a typed message.  wire.cc describes each message once,
// as a field list, plus one row of its opcode table; one generic writer
// and one generic reader (core/codec.h) derive the bytes from those.
// The kernel event keeps its own fixed-offset codec.  Messages are
// one-per-frame on the (message-preserving) stream circuits of
// net::Network, so no additional length framing is needed; a real port
// would prepend a u32 length.
//
// Request/response correlation is by req_id, unique per issuing LPM.
// Broadcast requests additionally carry <origin host, broadcast seq,
// signed timestamp> for duplicate suppression and a hop route for
// source-destination reply routing (paper Section 4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/types.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace ppm::core {

// --- zero-copy codec primitives ------------------------------------------

// Caller-owned append-only encode buffer.  The encode hot path writes
// every frame into one of these instead of minting a fresh
// std::vector<uint8_t> per frame: Clear() resets the length but keeps
// the capacity, so a steady-state sender allocates nothing per frame.
// Fixed-width appends are inline memcpy-sized stores (little-endian,
// matching util::ByteWriter byte for byte).
class WireBuffer {
 public:
  void Clear() { buf_.clear(); }  // keeps capacity
  void Reserve(size_t n) { buf_.reserve(n); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
    Append(b, 2);
  }
  void U32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    Append(b, 4);
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    Append(b, 8);
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Append(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void Pad(size_t n) { buf_.insert(buf_.end(), n, 0); }

  // Clears, then sizes the buffer to exactly `n` zero bytes and returns
  // the mutable base — the fixed-layout fast path for frames whose size
  // is a compile-time constant (the 112-byte kernel event): one memset,
  // then direct stores at known offsets.
  uint8_t* FillZeroed(size_t n) {
    buf_.assign(n, 0);
    return buf_.data();
  }

  // Overwrites two already-written bytes (little-endian) — how the
  // Fletcher-16 header is patched in after a single encode pass, where
  // the owning path used to copy the whole body into a fresh vector.
  void PatchU16(size_t pos, uint16_t v) {
    buf_[pos] = static_cast<uint8_t>(v);
    buf_[pos + 1] = static_cast<uint8_t>(v >> 8);
  }

  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

  // An owning copy of the current contents, for sinks that must own
  // their bytes (net::Network::Send).  One allocation, one memcpy.
  std::vector<uint8_t> CopyOut() const { return buf_; }
  // Moves the contents out, leaving the buffer empty (capacity gone);
  // for one-shot callers of the owning Serialize wrappers.
  std::vector<uint8_t> TakeOut() { return std::move(buf_); }

 private:
  void Append(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }

  std::vector<uint8_t> buf_;
};

// Non-owning window over an encoded frame.  Parsers decode in place —
// no copy of the payload is made; only variable-length fields (strings,
// record vectors) allocate, because the decoded message owns those.
// The viewed bytes must outlive the Parse call (they need not outlive
// the returned message).
class WireView {
 public:
  WireView(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  // Implicit: every existing vector-based call site is a view.
  WireView(const std::vector<uint8_t>& bytes) : data_(bytes.data()), len_(bytes.size()) {}
  WireView(const WireBuffer& buf) : data_(buf.data()), len_(buf.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return len_; }

 private:
  const uint8_t* data_;
  size_t len_;
};

// --- 112-byte kernel event messages (Table 1) ---------------------------

// Fixed wire size of one kernel→LPM event record.
constexpr size_t kKernelEventWireBytes = 112;

// Zero-copy primary: encodes into `out` (cleared first, capacity kept).
void SerializeKernelEvent(const host::KernelEvent& ev, WireBuffer& out);
// Owning convenience wrapper over the same encoder.
std::vector<uint8_t> SerializeKernelEvent(const host::KernelEvent& ev);
std::optional<host::KernelEvent> ParseKernelEvent(WireView bytes);

// --- channel establishment ------------------------------------------------

// Sibling LPM → sibling LPM, first message on a new circuit.  The token
// proves the connector obtained the accept address from the target's pmd
// (i.e. passed user-level authentication there).
struct HelloSibling {
  std::string user;
  std::string origin_host;
  int32_t origin_lpm_pid = -1;
  uint64_t token = 0;      // the *target* LPM's session token
  std::string ccs_host;    // current crash coordinator site
  bool operator==(const HelloSibling&) const = default;
};

// Tool → local LPM.  Tools are local by definition; the uid would be
// carried by SCM_CREDENTIALS on a real system.
struct HelloTool {
  std::string user;
  int32_t uid = -1;
  std::string tool_name;
  bool operator==(const HelloTool&) const = default;
};

struct HelloAck {
  std::string host;
  int32_t lpm_pid = -1;
  std::string ccs_host;
  bool operator==(const HelloAck&) const = default;
};

struct HelloReject {
  std::string reason;
  bool operator==(const HelloReject&) const = default;
};

// --- requests / responses ----------------------------------------------------

// Create a process on `target_host` with the LPM there acting as the
// process creation server.  The new process is adopted at birth.
struct CreateReq {
  uint64_t req_id = 0;
  std::string target_host;
  std::string command;
  GPid logical_parent;   // may be invalid: new computation root
  bool initially_running = true;
  uint32_t trace_mask = host::kTraceAll;
  bool operator==(const CreateReq&) const = default;
};

struct CreateResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  GPid gpid;
  bool operator==(const CreateResp&) const = default;
};

// Deliver a signal to any process of the user, anywhere — "with no
// interprocess constraints based on creation dependencies" (Section 1).
struct SignalReq {
  uint64_t req_id = 0;
  GPid target;
  host::Signal sig = host::Signal::kSigTerm;
  bool operator==(const SignalReq&) const = default;
};

struct SignalResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  bool operator==(const SignalResp&) const = default;
};

// Distributed snapshot of the genealogical process structure.  Broadcast
// over the sibling graph with the covering algorithm of Section 4.
struct SnapshotReq {
  uint64_t req_id = 0;          // meaningful at the origin only
  std::string origin_host;
  uint64_t bcast_seq = 0;       // per-origin sequence number
  uint64_t signed_ts = 0;       // signed timestamp naming the origin
  std::vector<std::string> route;  // hosts traversed, origin first
  bool operator==(const SnapshotReq&) const = default;
};

struct SnapshotResp {
  uint64_t req_id = 0;
  std::string origin_host;
  uint64_t bcast_seq = 0;
  std::string replier_host;
  std::vector<std::string> forwarded_to;  // hosts this replier re-broadcast to
  std::vector<std::string> route;         // reverse route for the way back
  uint32_t route_index = 0;               // next hop on the way back
  std::vector<ProcRecord> records;
  bool operator==(const SnapshotResp&) const = default;
};

// Exited-process resource consumption statistics for one host.
struct RusageReq {
  uint64_t req_id = 0;
  std::string target_host;
  bool operator==(const RusageReq&) const = default;
};

struct RusageResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::vector<RusageRecord> records;
  bool operator==(const RusageResp&) const = default;
};

// Adopt an already-running process (and its descendants).
struct AdoptReq {
  uint64_t req_id = 0;
  GPid target;
  uint32_t trace_mask = host::kTraceAll;
  bool operator==(const AdoptReq&) const = default;
};

struct AdoptResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::vector<int32_t> adopted_pids;
  bool operator==(const AdoptResp&) const = default;
};

// Adjust event-tracing granularity on an adopted process.
struct TraceReq {
  uint64_t req_id = 0;
  GPid target;
  uint32_t trace_mask = 0;
  bool operator==(const TraceReq&) const = default;
};

struct TraceResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  bool operator==(const TraceResp&) const = default;
};

// Query the event history kept by the LPM on `target_host`.
struct HistoryReq {
  uint64_t req_id = 0;
  std::string target_host;
  int32_t pid_filter = -1;  // -1: all processes
  uint32_t max_events = 0;  // 0: no limit
  bool operator==(const HistoryReq&) const = default;
};

struct HistoryResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::vector<HistEvent> events;
  bool operator==(const HistoryResp&) const = default;
};

// Install a history-dependent trigger at the LPM on `target_host`.
struct TriggerReq {
  uint64_t req_id = 0;
  std::string target_host;
  TriggerSpec spec;
  bool operator==(const TriggerReq&) const = default;
};

struct TriggerResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  uint64_t trigger_id = 0;
  bool operator==(const TriggerResp&) const = default;
};

// Open files / file descriptors of one process (the "tool for displaying
// the open and closed files of processes" of the paper's future work).
struct FileRecord {
  int32_t fd = -1;
  std::string path;
  std::string mode;
  bool operator==(const FileRecord&) const = default;
};

struct FilesReq {
  uint64_t req_id = 0;
  GPid target;
  bool operator==(const FilesReq&) const = default;
};

struct FilesResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::vector<FileRecord> files;
  bool operator==(const FilesResp&) const = default;
};

// Migrate a process to another host (our implementation of the paper's
// future-work direction; the 1986 PPM explicitly had "no process
// migration facilities").  Cold migration: the image is re-created from
// the command at the destination after a modelled image-transfer cost;
// the old incarnation is terminated and retained in the genealogy as the
// new one's logical parent, so the tree stays connected.
struct MigrateReq {
  uint64_t req_id = 0;
  GPid target;
  std::string dest_host;
  bool operator==(const MigrateReq&) const = default;
};

struct MigrateResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  GPid new_gpid;
  bool operator==(const MigrateResp&) const = default;
};

// Notifies the LPM owning `parent_pid` that a process on another host
// became its logical child (creations requested by third parties, e.g. a
// tool on a different machine, would otherwise leave the parent's
// manager ignorant of the link — and an exited parent would drop out of
// snapshots while descendants live on).  Fire-and-forget.
struct RegisterChild {
  int32_t parent_pid = -1;
  GPid child;
  bool operator==(const RegisterChild&) const = default;
};

// --- live introspection (the STAT protocol) ---------------------------------

// Per-pid event-log eviction count, surfaced so an operator can see
// *which* chatty process pushed everyone else's history out of the ring.
struct PidDrop {
  int32_t pid = -1;
  uint64_t dropped = 0;
  bool operator==(const PidDrop&) const = default;
};

// One group as seen by a coordinator LPM, for the ppmstat GROUPS
// section.
struct GroupStatEntry {
  std::string name;
  uint32_t members = 0;  // live members
  uint32_t exited = 0;   // exits collected so far
  bool operator==(const GroupStatEntry&) const = default;
};

// One barrier with local waiters (or CCS-side tallies), for ppmstat.
struct BarrierStatEntry {
  std::string name;
  uint64_t epoch = 0;
  uint32_t waiters = 0;
  uint32_t expected = 0;
  bool operator==(const BarrierStatEntry&) const = default;
};

// One manager's structured self-description: everything ppmstat renders
// for a host.  Sampled by the LPM answering a StatReq — genealogy
// subtree (procs), CCS role and recovery-list position, peer circuits
// and dispatcher queue depths, journal statistics, flight-recorder
// counters, and a health verdict with human-readable reasons.
struct LpmStatRecord {
  std::string host;
  std::string user;   // the <user, host> pair this manager serves
  int32_t uid = -1;
  int32_t lpm_pid = -1;
  uint8_t mode = 0;        // core::LpmMode
  bool is_ccs = false;
  std::string ccs_host;
  int32_t recovery_rank = -1;  // position in ~/.recovery; -1 when absent
  std::vector<std::string> siblings;

  // Dispatcher and endpoint load.
  uint32_t handlers = 0;
  uint32_t handlers_busy = 0;
  uint32_t queue_depth = 0;      // handler queue, current
  uint32_t queue_watermark = 0;  // handler queue, high-watermark
  uint32_t tool_circuits = 0;

  // LpmStats counters.
  uint64_t requests = 0;
  uint64_t forwards = 0;
  uint64_t kernel_events = 0;
  uint64_t handlers_created = 0;
  uint64_t handler_reuses = 0;
  uint64_t snapshots_served = 0;
  uint64_t bcasts_originated = 0;
  uint64_t bcast_duplicates = 0;
  uint64_t triggers_fired = 0;
  uint64_t failures_detected = 0;
  uint64_t recoveries_started = 0;
  uint64_t request_timeouts = 0;

  // Overload protection.
  uint64_t requests_shed = 0;      // admission control rejected (BUSY sent)
  uint64_t busy_sent = 0;          // explicit BUSY replies put on the wire
  uint64_t retries = 0;            // forwarded requests re-sent after backoff
  uint64_t deadline_expired = 0;   // queued work cancelled past its deadline
  uint64_t dup_suppressed = 0;     // retried requests answered from cache
  uint32_t breaker_open = 0;       // peers currently quarantined

  // Event-log accounting, including the per-pid eviction breakdown.
  uint64_t eventlog_size = 0;
  uint64_t eventlog_recorded = 0;
  uint64_t eventlog_filtered = 0;
  uint64_t eventlog_dropped = 0;
  std::vector<PidDrop> dropped_by_pid;

  // Durable store (zeroed when the store is off).
  bool store_enabled = false;
  uint64_t journal_seq = 0;
  uint64_t journal_bytes = 0;
  uint32_t journal_pending = 0;

  // The pmd living next door (zeroed if it cannot be reached).
  uint32_t pmd_registry = 0;
  uint64_t pmd_requests = 0;

  // Flight recorder counters at this host.
  uint64_t flight_records = 0;
  uint64_t flight_dumps = 0;

  // Health verdict (obs::HealthLevel) and the tripped-threshold reasons.
  uint8_t health = 0;
  std::vector<std::string> health_reasons;

  // The genealogy subtree this manager tracks (same records a snapshot
  // would contribute).
  std::vector<ProcRecord> procs;

  // Group operations: coordinated groups, barriers with waiters here,
  // and the replicated envar table size.
  std::vector<GroupStatEntry> groups;
  std::vector<BarrierStatEntry> barriers;
  uint32_t envars = 0;
  uint32_t envar_watchers = 0;

  // Accounting rollup inputs: charges this manager attributes to its
  // owning user — live + exited process CPU time (through the rusage
  // book, so the genealogy's dead members still bill) and the count of
  // rusage records backing it.
  uint64_t acct_cpu_us = 0;
  uint64_t acct_rusage_records = 0;
  bool operator==(const LpmStatRecord&) const = default;
};

// Broadcast over the sibling graph exactly like SnapshotReq — same
// covering algorithm, same duplicate suppression, same reverse-route
// replies — but each manager answers with an LpmStatRecord instead of a
// bare process scan.
struct StatReq {
  uint64_t req_id = 0;          // meaningful at the origin only
  std::string origin_host;      // empty: a tool asking its LPM to originate
  uint64_t bcast_seq = 0;
  uint64_t signed_ts = 0;
  std::vector<std::string> route;
  bool dump_flight = false;     // also dump the origin's flight recorder
  bool operator==(const StatReq&) const = default;
};

struct StatResp {
  uint64_t req_id = 0;
  std::string origin_host;
  uint64_t bcast_seq = 0;
  std::string replier_host;
  std::vector<std::string> forwarded_to;
  std::vector<std::string> route;
  uint32_t route_index = 0;
  std::vector<LpmStatRecord> records;
  bool operator==(const StatResp&) const = default;
};

// --- continuous monitoring (STAT subscriptions) -----------------------------

// Opens a standing watch: flooded over the sibling graph exactly like
// StatReq (same duplicate suppression), and the flood's arrival edges
// induce a spanning tree over the covering graph — each manager records
// the sibling it first heard the subscribe from as its delta parent.
// From then on every manager pushes one StatDelta per interval toward
// the origin along that tree, children's records aggregated in transit,
// so a live watch costs O(hosts) frames per interval instead of a full
// O(edges) flood per refresh.
struct StatSubscribe {
  uint64_t req_id = 0;          // meaningful at the origin only
  std::string origin_host;      // empty: a tool asking its LPM to originate
  uint64_t watch_id = 0;        // minted by the origin LPM; 0 from a tool
  uint64_t bcast_seq = 0;
  uint64_t signed_ts = 0;
  std::vector<std::string> route;
  uint64_t interval_us = 0;     // push period, virtual microseconds
  bool operator==(const StatSubscribe&) const = default;
};

// One host's per-interval sample: counter deltas since its previous
// push plus instantaneous gauges.  `seq` increments by exactly one per
// push of this <watch, host>, so a subscriber can prove it saw every
// interval (no gap) exactly once (no double-count) — the no-silent-loss
// invariant extended to monitoring.
struct StatDeltaRecord {
  std::string host;
  std::string user;
  int32_t uid = -1;
  uint64_t seq = 0;             // per <watch, host>, 1-based, contiguous
  uint64_t t_us = 0;            // sample time at that host
  uint64_t dt_us = 0;           // interval the deltas cover
  uint64_t d_kernel_events = 0;
  uint64_t d_requests = 0;
  uint64_t d_requests_shed = 0;
  uint64_t d_retries = 0;
  uint64_t d_journal_bytes = 0;
  uint64_t d_eventlog_recorded = 0;
  uint64_t d_acct_cpu_us = 0;   // accounting: CPU charged to the user this interval
  uint32_t queue_depth = 0;
  uint32_t procs_live = 0;
  uint8_t health = 0;           // obs::HealthLevel
  bool operator==(const StatDeltaRecord&) const = default;
};

// The per-interval push.  A non-origin manager sends its own record
// plus any records buffered from its tree children to its delta parent;
// the origin flushes the aggregate to the subscribed tool.  req_id is
// the tool's subscribe req_id on the first push (the subscribe ack,
// carrying the minted watch_id) and 0 afterwards.
struct StatDelta {
  uint64_t req_id = 0;
  std::string origin_host;
  uint64_t watch_id = 0;
  std::vector<StatDeltaRecord> records;
  bool operator==(const StatDelta&) const = default;
};

// Tears a watch down.  From a tool (origin_host empty) it cancels the
// origin's watch; between managers it cancels the receiver's watch for
// <origin_host, watch_id>.  Cancellation cascades lazily: a manager
// that receives a StatDelta for a watch it does not know answers with
// StatUnsubscribe on that circuit, so orphaned subtrees quiesce within
// one interval without any flood.
struct StatUnsubscribe {
  uint64_t req_id = 0;
  std::string origin_host;      // empty: tool-to-LPM form
  uint64_t watch_id = 0;
  bool operator==(const StatUnsubscribe&) const = default;
};

// --- recovery control ---------------------------------------------------------

// Sent to the LPM that should assume the crash-coordinator role.
struct BecomeCcs {
  std::string requested_by;
  bool operator==(const BecomeCcs&) const = default;
};

// CCS change announcement, propagated to siblings.
struct CcsChanged {
  std::string new_ccs;
  bool operator==(const CcsChanged&) const = default;
};

// Lightweight liveness probe over an existing channel.
struct Probe {
  uint64_t req_id = 0;
  bool operator==(const Probe&) const = default;
};

struct ProbeAck {
  uint64_t req_id = 0;
  std::string host;
  bool is_ccs = false;
  bool operator==(const ProbeAck&) const = default;
};

// --- overload protection ------------------------------------------------------

// Admission-control rejection: the receiving manager (or daemon) refused
// to enqueue the request because its bounded queue is full.  An explicit
// answer — never a silent drop — so the sender can retry after the hinted
// delay with the same idempotency token.
struct BusyResp {
  uint64_t req_id = 0;
  std::string error;            // e.g. "handler queue full"
  uint64_t retry_after_us = 0;  // sender should back off at least this long
  bool operator==(const BusyResp&) const = default;
};

// --- group operations (the 0xF8 frame family) -------------------------------
//
// Administration of a distributed computation is dominated by *group*
// actions: start N workers at once, synchronize them, signal or reap
// them together.  All group messages ride under the kGroupMsgTag escape
// opcode plus a sub-byte (see the opcode map below), so pre-group
// parsers reject them cleanly.  Like every other request
// they are deadline-stamped (0xF7) and idempotency-token aware, so the
// overload protection of the core applies unchanged.

// Gang-spawn: create one process per <host, command> pair, all enrolled
// in the named group, with all-or-nothing semantics — on any per-host
// failure the already-created members are killed (GroupUndoReq) and the
// response lists the per-host errors.
struct GroupSpawnReq {
  uint64_t req_id = 0;
  std::string group;
  std::vector<std::string> hosts;     // parallel arrays: hosts[i] runs
  std::vector<std::string> commands;  // commands[i]
  bool operator==(const GroupSpawnReq&) const = default;
};

struct GroupSpawnResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::vector<GPid> members;            // created members, on success
  std::vector<std::string> host_errors; // "host: reason" per failed part
  bool operator==(const GroupSpawnResp&) const = default;
};

// Coordinator → member host: create one group member there.  The
// member-host LPM remembers <pid → group, coordinator> so it can report
// the member's exit back (GroupExitNotify).
struct GroupPartReq {
  uint64_t req_id = 0;
  std::string group;
  std::string coordinator;  // host whose LPM aggregates the group
  std::string command;
  bool operator==(const GroupPartReq&) const = default;
};

struct GroupPartResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  GPid gpid;
  bool operator==(const GroupPartResp&) const = default;
};

// Coordinator → member host: gang-spawn rollback.  Kill `target` and
// forget its group membership (the all-or-nothing "undo" leg).
struct GroupUndoReq {
  uint64_t req_id = 0;
  std::string group;
  GPid target;
  bool operator==(const GroupUndoReq&) const = default;
};

// Generic acknowledgement for group bookkeeping requests.
struct GroupAck {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  // On a "not the central coordinator" rejection: where the rejector
  // believes the CCS lives, so the sender can chase the redirect
  // instead of failing its waiters on a stale pointer.
  std::string ccs_hint;
  bool operator==(const GroupAck&) const = default;
};

// Member host → coordinator: a group member exited.
struct GroupExitNotify {
  uint64_t req_id = 0;
  std::string group;
  GPid gpid;
  int32_t exit_status = 0;
  bool operator==(const GroupExitNotify&) const = default;
};

// Member host → coordinator: a replacement member (trigger-respawned)
// joined the group.
struct GroupAddNotify {
  uint64_t req_id = 0;
  std::string group;
  GPid gpid;
  bool operator==(const GroupAddNotify&) const = default;
};

// Deliver a signal to every live member of the group.
struct GroupSignalReq {
  uint64_t req_id = 0;
  std::string group;
  host::Signal sig = host::Signal::kSigTerm;
  bool operator==(const GroupSignalReq&) const = default;
};

struct GroupSignalResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  uint32_t delivered = 0;
  uint32_t failed = 0;
  bool operator==(const GroupSignalResp&) const = default;
};

// Collect exit statuses of every member; the coordinator replies when
// the whole group has exited (exits arrive incrementally via
// GroupExitNotify and are retained).
struct GroupJoinReq {
  uint64_t req_id = 0;
  std::string group;
  bool operator==(const GroupJoinReq&) const = default;
};

struct GroupExit {
  GPid gpid;
  int32_t exit_status = 0;
  bool operator==(const GroupExit&) const = default;
};

struct GroupJoinResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::string group;
  std::vector<GroupExit> exits;
  bool operator==(const GroupJoinResp&) const = default;
};

// Cluster-wide barrier: a tool (or member) enters barrier `name` at
// `epoch` expecting `expected` participants in total.  The local LPM
// aggregates its waiters and contributes one BarrierJoinReq to the CCS,
// which decides the verdict exactly once per <name, epoch> — released
// when the count reaches `expected`, or timed out with the list of
// hosts still missing (stragglers).
struct BarrierEnterReq {
  uint64_t req_id = 0;
  std::string name;
  uint64_t epoch = 0;
  uint32_t expected = 0;
  bool operator==(const BarrierEnterReq&) const = default;
};

struct BarrierEnterResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  bool released = false;  // false + ok: timed out (stragglers listed)
  uint64_t epoch = 0;
  std::vector<std::string> stragglers;
  bool operator==(const BarrierEnterResp&) const = default;
};

// Member LPM → CCS: `count` local participants joined <name, epoch>.
struct BarrierJoinReq {
  uint64_t req_id = 0;
  std::string name;
  uint64_t epoch = 0;
  uint32_t expected = 0;
  std::string host;
  uint32_t count = 0;
  bool operator==(const BarrierJoinReq&) const = default;
};

// CCS → contributing LPM: the verdict for <name, epoch>.
struct BarrierReleaseReq {
  uint64_t req_id = 0;
  std::string name;
  uint64_t epoch = 0;
  bool released = false;
  std::vector<std::string> stragglers;
  bool operator==(const BarrierReleaseReq&) const = default;
};

// Global environment variables: a replicated key → value table every
// LPM holds.  Writes version at the origin and flood over the covering
// graph (EnvarUpdate); higher <version, origin> wins, so concurrent
// writers converge.  Watchers subscribe a TriggerSpec to a key and fire
// on every applied change.
struct EnvarSetReq {
  uint64_t req_id = 0;
  std::string key;
  std::string value;
  bool operator==(const EnvarSetReq&) const = default;
};

struct EnvarSetResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  uint64_t version = 0;
  bool operator==(const EnvarSetResp&) const = default;
};

struct EnvarGetReq {
  uint64_t req_id = 0;
  std::string key;
  bool operator==(const EnvarGetReq&) const = default;
};

struct EnvarGetResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  std::string key;
  std::string value;
  uint64_t version = 0;
  bool operator==(const EnvarGetResp&) const = default;
};

// Flooded over the sibling graph with the same <origin, seq, signed ts,
// route> duplicate suppression as SnapshotReq.
struct EnvarUpdate {
  uint64_t req_id = 0;
  std::string origin_host;
  uint64_t bcast_seq = 0;
  uint64_t signed_ts = 0;
  std::vector<std::string> route;
  std::string key;
  std::string value;
  uint64_t version = 0;
  std::string version_origin;  // tie-break: larger origin wins at equal version
  bool operator==(const EnvarUpdate&) const = default;
};

// One replicated table entry, as carried by the anti-entropy sync.
struct EnvarEntry {
  std::string key;
  std::string value;
  uint64_t version = 0;
  std::string origin;
  bool operator==(const EnvarEntry&) const = default;
};

// Full-table anti-entropy, exchanged when a sibling channel is
// (re-)established: the receiver merges and re-floods anything newer,
// so partitions converge after heal.
struct EnvarSync {
  uint64_t req_id = 0;
  std::vector<EnvarEntry> entries;
  bool operator==(const EnvarSync&) const = default;
};

// Subscribe a trigger to a key on the receiving LPM: every applied
// change of `key` fires `spec` there (signal or spawn).
struct EnvarWatchReq {
  uint64_t req_id = 0;
  std::string key;
  TriggerSpec spec;
  bool operator==(const EnvarWatchReq&) const = default;
};

struct EnvarWatchResp {
  uint64_t req_id = 0;
  bool ok = false;
  std::string error;
  uint64_t watch_id = 0;
  bool operator==(const EnvarWatchResp&) const = default;
};

// --- the envelope -----------------------------------------------------------

using Msg = std::variant<HelloSibling, HelloTool, HelloAck, HelloReject, CreateReq,
                         CreateResp, SignalReq, SignalResp, SnapshotReq, SnapshotResp,
                         RusageReq, RusageResp, AdoptReq, AdoptResp, TraceReq, TraceResp,
                         HistoryReq, HistoryResp, TriggerReq, TriggerResp, BecomeCcs,
                         CcsChanged, Probe, ProbeAck, FilesReq, FilesResp, MigrateReq,
                         MigrateResp, RegisterChild, StatReq, StatResp, BusyResp,
                         GroupSpawnReq, GroupSpawnResp, GroupPartReq, GroupPartResp,
                         GroupUndoReq, GroupAck, GroupExitNotify, GroupAddNotify,
                         GroupSignalReq, GroupSignalResp, GroupJoinReq, GroupJoinResp,
                         BarrierEnterReq, BarrierEnterResp, BarrierJoinReq,
                         BarrierReleaseReq, EnvarSetReq, EnvarSetResp, EnvarGetReq,
                         EnvarGetResp, EnvarUpdate, EnvarSync, EnvarWatchReq,
                         EnvarWatchResp, StatSubscribe, StatDelta, StatUnsubscribe>;

// --- wire opcode map --------------------------------------------------------
//
// The opcode table in wire.cc (kOpcodes, one row per Msg type) is the
// authority; this is a summary of it.
//
//   0x00..0x1C  plain messages, tag = Msg variant index (29 types)
//   0xF3        BusyResp (admission-control rejection)
//   0xF4        checksum header (Fletcher-16, always first)
//   0xF5        trace header (trace id / span / parent span)
//   0xF6        STAT protocol, sub-byte 0 = StatReq, 1 = StatResp,
//                 2 = StatSubscribe, 3 = StatDelta, 4 = StatUnsubscribe
//   0xF7        deadline / idempotency header
//   0xF8        group operations, sub-byte:
//                 0 GroupSpawnReq    1 GroupSpawnResp   2 GroupPartReq
//                 3 GroupPartResp    4 GroupUndoReq     5 GroupAck
//                 6 GroupExitNotify  7 GroupAddNotify   8 GroupSignalReq
//                 9 GroupSignalResp 10 GroupJoinReq    11 GroupJoinResp
//                12 BarrierEnterReq 13 BarrierEnterResp 14 BarrierJoinReq
//                15 BarrierReleaseReq 16 EnvarSetReq   17 EnvarSetResp
//                18 EnvarGetReq     19 EnvarGetResp    20 EnvarUpdate
//                21 EnvarSync       22 EnvarWatchReq   23 EnvarWatchResp

// Trace header escape.  A frame whose first byte is kTraceHeaderTag
// carries a causal-tracing header (trace id, span id, parent span — see
// obs/trace.h) between the escape byte and the ordinary message tag.
// The escape values sit far above the last variant tag, so they can
// never collide with a message type.
constexpr uint8_t kTraceHeaderTag = 0xF5;
constexpr size_t kTraceHeaderBytes = 1 + 3 * 8;  // escape + three u64s

// Integrity header escape.  Every frame Serialize emits now begins with
// kChecksumHeaderTag followed by a 16-bit Fletcher checksum of all the
// remaining bytes (trace header included).  Parse verifies it and
// rejects mismatches, counting them under the "net.corrupt_frames"
// registry counter, so chaos-injected corruption is *detected* rather
// than fed to handlers.  Decoding is version-gated: frames without the
// header (the pre-checksum format) still parse.
constexpr uint8_t kChecksumHeaderTag = 0xF4;
constexpr size_t kChecksumHeaderBytes = 1 + 2;  // escape + u16 checksum

// STAT protocol escape.  The STAT family does not encode under variant
// indices like the plain messages: every member rides under this opcode
// (the next escape value after the trace header) followed by a sub-byte.
// Pre-STAT parsers see an unknown tag and reject the frame cleanly
// instead of misdecoding it; parsers predating the subscription sub-ops
// (2..4) reject just those sub-bytes the same way.
constexpr uint8_t kStatMsgTag = 0xF6;
constexpr uint8_t kStatReqSub = 0;
constexpr uint8_t kStatRespSub = 1;
constexpr uint8_t kStatSubscribeSub = 2;
constexpr uint8_t kStatDeltaSub = 3;
constexpr uint8_t kStatUnsubscribeSub = 4;

// Deadline / idempotency header escape.  A frame may carry a
// DeadlineStamp between the trace header (if any) and the message body:
// an absolute expiry time (virtual microseconds) checked at every hop so
// queued work whose origin has already given up is cancelled instead of
// executed, plus an idempotency token under which the receiver
// duplicate-suppresses retried mutating requests.  Optional and
// version-gated like 0xF4/0xF5/0xF6: frames without it parse unchanged,
// and pre-deadline parsers reject stamped frames cleanly (unknown tag)
// rather than misdecoding them.
constexpr uint8_t kDeadlineHeaderTag = 0xF7;
constexpr size_t kDeadlineHeaderBytes = 1 + 2 * 8;  // escape + two u64s

// BUSY rejection escape.  BusyResp rides under this opcode (below the
// checksum escape, above the plain tags) rather than its variant index,
// so pre-overload parsers see an unknown tag and reject the frame
// cleanly.
constexpr uint8_t kBusyMsgTag = 0xF3;

// Group operations escape.  The 0xF8 frame family: every group /
// barrier / global-envar message rides under this opcode plus the
// sub-byte its opcode-table row assigns, so pre-group parsers see an
// unknown tag and reject the frame cleanly.
constexpr uint8_t kGroupMsgTag = 0xF8;

struct DeadlineStamp {
  uint64_t deadline_us = 0;  // absolute sim time; 0 = no deadline
  uint64_t idem_token = 0;   // 0 = not idempotent / no suppression
  bool valid() const { return deadline_us != 0 || idem_token != 0; }
  bool operator==(const DeadlineStamp&) const = default;
};

// Zero-copy primary: encodes the frame (checksum header, optional trace
// header, optional deadline header, body) into `out` in one pass — the
// buffer is cleared first and its capacity is kept, so a reusing caller
// pays no per-frame allocation.  Pass an invalid (default) TraceContext
// for no trace header and an empty DeadlineStamp for no deadline header.
// The emitted bytes are identical to the owning wrappers'.
void Serialize(const Msg& msg, const obs::TraceContext& trace,
               const DeadlineStamp& stamp, WireBuffer& out);
void Serialize(const Msg& msg, const obs::TraceContext& trace, WireBuffer& out);

// Owning convenience wrappers over the same encoder.
std::vector<uint8_t> Serialize(const Msg& msg);
// Prepends the trace header when `trace` is valid; identical to
// Serialize(msg) otherwise.
std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace);
std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace,
                               const DeadlineStamp& stamp);

std::optional<Msg> Parse(WireView bytes);
// Also surfaces the frame's trace context: *trace is filled from the
// header when present and zeroed ({}) when not.  Accepts both formats.
// Decodes in place: the viewed bytes are never copied wholesale.
std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace);
// Also surfaces the frame's deadline stamp the same way: filled when the
// 0xF7 header is present, zeroed ({}) when not.
std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace,
                         DeadlineStamp* stamp);

// Human-readable message type name, for traces and tests.
const char* MsgTypeName(const Msg& msg);

// Classifies an encoded circuit frame by its opcode WITHOUT decoding the
// fields: skips the 0xF4 checksum and 0xF5 trace escapes, then names the
// message tag ("CreateReq", "StatResp", ...).  Returns a stable pointer
// usable as a counter-cache key.  Unrecognized tags classify as
// "unknown", truncated frames as "malformed" — the classification is
// total, so per-opcode frame/byte counters partition the net totals
// exactly.  Installed into net::Network by core::Cluster as the payload
// classifier behind the "net.op.<class>.{frames,bytes}" counters.  The
// raw-pointer form matches net::Network::PayloadClassFn, which hands the
// classifier a view rather than the owning vector.
const char* ClassifyWireFrame(const uint8_t* frame, size_t len);
inline const char* ClassifyWireFrame(const std::vector<uint8_t>& frame) {
  return ClassifyWireFrame(frame.data(), frame.size());
}

}  // namespace ppm::core

#include "core/wire.h"

#include <array>
#include <cstring>
#include <iterator>
#include <utility>

#include "core/codec.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/panic.h"

namespace ppm::core {

namespace {

// Codec-level accounting: how many frames pass through encode/decode and
// how much of each frame is escape-header overhead (the 0xF4 checksum
// and 0xF5 trace headers ppmprof's wire table decomposes).
struct WireMetrics {
  obs::Counter* frames_encoded;
  obs::Counter* frames_decoded;
  obs::Counter* hdr_checksum_bytes;
  obs::Counter* hdr_trace_bytes;
  obs::Counter* hdr_deadline_bytes;
  obs::Counter* kevent_encoded;
  obs::Counter* kevent_decoded;
};

WireMetrics& Metrics() {
  static WireMetrics m = {
      obs::Registry::Instance().GetCounter("wire.frames.encoded"),
      obs::Registry::Instance().GetCounter("wire.frames.decoded"),
      obs::Registry::Instance().GetCounter("wire.hdr.checksum.bytes"),
      obs::Registry::Instance().GetCounter("wire.hdr.trace.bytes"),
      obs::Registry::Instance().GetCounter("wire.hdr.deadline.bytes"),
      obs::Registry::Instance().GetCounter("wire.kevent.encoded"),
      obs::Registry::Instance().GetCounter("wire.kevent.decoded"),
  };
  return m;
}

}  // namespace

std::string ToString(const GPid& g) {
  return "<" + g.host + "," + std::to_string(g.pid) + ">";
}

// --- kernel event messages -------------------------------------------------

// Fixed layout of the 112-byte record.  The format is the historical
// field-by-field little-endian encoding (U8 kind, I32 pid, I32 other,
// U8 sig, I32 status, U64 at, length-prefixed detail, zero pad); because
// every offset is a constant the codec reads and writes it directly —
// no per-field bounds checks on a frame already known to be 112 bytes.
namespace kevent_layout {
constexpr size_t kKind = 0;
constexpr size_t kPid = 1;
constexpr size_t kOther = 5;
constexpr size_t kSig = 9;
constexpr size_t kStatus = 10;
constexpr size_t kAt = 14;
constexpr size_t kDetailLen = 22;
constexpr size_t kDetail = 26;
constexpr size_t kDetailRoom = kKernelEventWireBytes - kDetail;  // 86
}  // namespace kevent_layout

namespace {

inline void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void SerializeKernelEvent(const host::KernelEvent& ev, WireBuffer& out) {
  PPM_PROF_SCOPE("wire.kevent.encode");
  Metrics().kevent_encoded->Inc();
  namespace L = kevent_layout;
  uint8_t* p = out.FillZeroed(kKernelEventWireBytes);  // one memset: pad comes free
  p[L::kKind] = static_cast<uint8_t>(ev.kind);
  StoreU32(p + L::kPid, static_cast<uint32_t>(ev.pid));
  StoreU32(p + L::kOther, static_cast<uint32_t>(ev.other));
  p[L::kSig] = static_cast<uint8_t>(ev.sig);
  StoreU32(p + L::kStatus, static_cast<uint32_t>(ev.status));
  StoreU64(p + L::kAt, ev.at);
  // Fixed-size detail field: what remains of the 112 bytes.  Truncation
  // is by length — no copy of the detail string is made.
  const size_t dlen = ev.detail.size() < L::kDetailRoom ? ev.detail.size() : L::kDetailRoom;
  StoreU32(p + L::kDetailLen, static_cast<uint32_t>(dlen));
  std::memcpy(p + L::kDetail, ev.detail.data(), dlen);
  PPM_CHECK(out.size() == kKernelEventWireBytes);
}

std::vector<uint8_t> SerializeKernelEvent(const host::KernelEvent& ev) {
  WireBuffer b;
  SerializeKernelEvent(ev, b);
  return b.TakeOut();
}

std::optional<host::KernelEvent> ParseKernelEvent(WireView bytes) {
  PPM_PROF_SCOPE("wire.kevent.decode");
  Metrics().kevent_decoded->Inc();
  namespace L = kevent_layout;
  if (bytes.size() != kKernelEventWireBytes) return std::nullopt;
  const uint8_t* p = bytes.data();
  const uint8_t kind = p[L::kKind];
  if (kind > static_cast<uint8_t>(host::KEvent::kIpcRecv)) return std::nullopt;
  const uint32_t dlen = LoadU32(p + L::kDetailLen);
  if (dlen > L::kDetailRoom) return std::nullopt;
  host::KernelEvent ev;
  ev.kind = static_cast<host::KEvent>(kind);
  ev.pid = static_cast<host::Pid>(static_cast<int32_t>(LoadU32(p + L::kPid)));
  ev.other = static_cast<host::Pid>(static_cast<int32_t>(LoadU32(p + L::kOther)));
  ev.sig = static_cast<host::Signal>(p[L::kSig]);
  ev.status = static_cast<int32_t>(LoadU32(p + L::kStatus));
  ev.at = LoadU64(p + L::kAt);
  ev.detail.assign(reinterpret_cast<const char*>(p + L::kDetail), dlen);
  return ev;
}

// --- message field lists ------------------------------------------------------
//
// One list per message and nested record, in wire order; codec::Put and
// codec::Get (core/codec.h) walk them.  They sit in namespace ppm::core,
// beside the types, where argument-dependent lookup finds them; static
// keeps them private to this file.

static auto Fields(HelloSibling& m) {
  return std::tie(m.user, m.origin_host, m.origin_lpm_pid, m.token, m.ccs_host);
}
static auto Fields(HelloTool& m) { return std::tie(m.user, m.uid, m.tool_name); }
static auto Fields(HelloAck& m) { return std::tie(m.host, m.lpm_pid, m.ccs_host); }
static auto Fields(HelloReject& m) { return std::tie(m.reason); }
static auto Fields(CreateReq& m) {
  return std::tie(m.req_id, m.target_host, m.command, m.logical_parent, m.initially_running,
                  m.trace_mask);
}
static auto Fields(CreateResp& m) { return std::tie(m.req_id, m.ok, m.error, m.gpid); }
static auto Fields(SignalReq& m) { return std::tie(m.req_id, m.target, m.sig); }
static auto Fields(SignalResp& m) { return std::tie(m.req_id, m.ok, m.error); }
static auto Fields(SnapshotReq& m) {
  return std::tie(m.req_id, m.origin_host, m.bcast_seq, m.signed_ts, m.route);
}
static auto Fields(SnapshotResp& m) {
  return std::tie(m.req_id, m.origin_host, m.bcast_seq, m.replier_host, m.forwarded_to,
                  m.route, m.route_index, m.records);
}
static auto Fields(RusageReq& m) { return std::tie(m.req_id, m.target_host); }
static auto Fields(RusageResp& m) { return std::tie(m.req_id, m.ok, m.error, m.records); }
static auto Fields(AdoptReq& m) { return std::tie(m.req_id, m.target, m.trace_mask); }
static auto Fields(AdoptResp& m) { return std::tie(m.req_id, m.ok, m.error, m.adopted_pids); }
static auto Fields(TraceReq& m) { return std::tie(m.req_id, m.target, m.trace_mask); }
static auto Fields(TraceResp& m) { return std::tie(m.req_id, m.ok, m.error); }
static auto Fields(HistoryReq& m) {
  return std::tie(m.req_id, m.target_host, m.pid_filter, m.max_events);
}
static auto Fields(HistoryResp& m) { return std::tie(m.req_id, m.ok, m.error, m.events); }
static auto Fields(TriggerReq& m) { return std::tie(m.req_id, m.target_host, m.spec); }
static auto Fields(TriggerResp& m) { return std::tie(m.req_id, m.ok, m.error, m.trigger_id); }
static auto Fields(FileRecord& f) { return std::tie(f.fd, f.path, f.mode); }
static auto Fields(FilesReq& m) { return std::tie(m.req_id, m.target); }
static auto Fields(FilesResp& m) { return std::tie(m.req_id, m.ok, m.error, m.files); }
static auto Fields(MigrateReq& m) { return std::tie(m.req_id, m.target, m.dest_host); }
static auto Fields(MigrateResp& m) { return std::tie(m.req_id, m.ok, m.error, m.new_gpid); }
static auto Fields(RegisterChild& m) { return std::tie(m.parent_pid, m.child); }

static auto Fields(PidDrop& d) { return std::tie(d.pid, d.dropped); }
static auto Fields(GroupStatEntry& g) { return std::tie(g.name, g.members, g.exited); }
static auto Fields(BarrierStatEntry& b) { return std::tie(b.name, b.epoch, b.waiters, b.expected); }
static auto Fields(LpmStatRecord& r) {
  return std::tie(r.host, r.user, r.uid, r.lpm_pid, r.mode, r.is_ccs, r.ccs_host,
                  r.recovery_rank, r.siblings, r.handlers, r.handlers_busy, r.queue_depth,
                  r.queue_watermark, r.tool_circuits, r.requests, r.forwards, r.kernel_events,
                  r.handlers_created, r.handler_reuses, r.snapshots_served, r.bcasts_originated,
                  r.bcast_duplicates, r.triggers_fired, r.failures_detected,
                  r.recoveries_started, r.request_timeouts, r.requests_shed, r.busy_sent,
                  r.retries, r.deadline_expired, r.dup_suppressed, r.breaker_open,
                  r.eventlog_size, r.eventlog_recorded, r.eventlog_filtered, r.eventlog_dropped,
                  r.dropped_by_pid, r.store_enabled, r.journal_seq, r.journal_bytes,
                  r.journal_pending, r.pmd_registry, r.pmd_requests, r.flight_records,
                  r.flight_dumps, r.health, r.health_reasons, r.procs, r.groups, r.barriers,
                  r.envars, r.envar_watchers, r.acct_cpu_us, r.acct_rusage_records);
}
static auto Fields(StatReq& m) {
  return std::tie(m.req_id, m.origin_host, m.bcast_seq, m.signed_ts, m.route, m.dump_flight);
}
static auto Fields(StatResp& m) {
  return std::tie(m.req_id, m.origin_host, m.bcast_seq, m.replier_host, m.forwarded_to,
                  m.route, m.route_index, m.records);
}
static auto Fields(StatSubscribe& m) {
  return std::tie(m.req_id, m.origin_host, m.watch_id, m.bcast_seq, m.signed_ts, m.route,
                  m.interval_us);
}
static auto Fields(StatDeltaRecord& r) {
  return std::tie(r.host, r.user, r.uid, r.seq, r.t_us, r.dt_us, r.d_kernel_events,
                  r.d_requests, r.d_requests_shed, r.d_retries, r.d_journal_bytes,
                  r.d_eventlog_recorded, r.d_acct_cpu_us, r.queue_depth, r.procs_live,
                  r.health);
}
static auto Fields(StatDelta& m) { return std::tie(m.req_id, m.origin_host, m.watch_id, m.records); }
static auto Fields(StatUnsubscribe& m) { return std::tie(m.req_id, m.origin_host, m.watch_id); }

static auto Fields(BecomeCcs& m) { return std::tie(m.requested_by); }
static auto Fields(CcsChanged& m) { return std::tie(m.new_ccs); }
static auto Fields(Probe& m) { return std::tie(m.req_id); }
static auto Fields(ProbeAck& m) { return std::tie(m.req_id, m.host, m.is_ccs); }
static auto Fields(BusyResp& m) { return std::tie(m.req_id, m.error, m.retry_after_us); }

static auto Fields(GroupSpawnReq& m) { return std::tie(m.req_id, m.group, m.hosts, m.commands); }
static auto Fields(GroupSpawnResp& m) {
  return std::tie(m.req_id, m.ok, m.error, m.members, m.host_errors);
}
static auto Fields(GroupPartReq& m) { return std::tie(m.req_id, m.group, m.coordinator, m.command); }
static auto Fields(GroupPartResp& m) { return std::tie(m.req_id, m.ok, m.error, m.gpid); }
static auto Fields(GroupUndoReq& m) { return std::tie(m.req_id, m.group, m.target); }
static auto Fields(GroupAck& m) { return std::tie(m.req_id, m.ok, m.error, m.ccs_hint); }
static auto Fields(GroupExitNotify& m) { return std::tie(m.req_id, m.group, m.gpid, m.exit_status); }
static auto Fields(GroupAddNotify& m) { return std::tie(m.req_id, m.group, m.gpid); }
static auto Fields(GroupSignalReq& m) { return std::tie(m.req_id, m.group, m.sig); }
static auto Fields(GroupSignalResp& m) {
  return std::tie(m.req_id, m.ok, m.error, m.delivered, m.failed);
}
static auto Fields(GroupJoinReq& m) { return std::tie(m.req_id, m.group); }
static auto Fields(GroupExit& e) { return std::tie(e.gpid, e.exit_status); }
static auto Fields(GroupJoinResp& m) { return std::tie(m.req_id, m.ok, m.error, m.group, m.exits); }
static auto Fields(BarrierEnterReq& m) { return std::tie(m.req_id, m.name, m.epoch, m.expected); }
static auto Fields(BarrierEnterResp& m) {
  return std::tie(m.req_id, m.ok, m.error, m.released, m.epoch, m.stragglers);
}
static auto Fields(BarrierJoinReq& m) {
  return std::tie(m.req_id, m.name, m.epoch, m.expected, m.host, m.count);
}
static auto Fields(BarrierReleaseReq& m) {
  return std::tie(m.req_id, m.name, m.epoch, m.released, m.stragglers);
}
static auto Fields(EnvarSetReq& m) { return std::tie(m.req_id, m.key, m.value); }
static auto Fields(EnvarSetResp& m) { return std::tie(m.req_id, m.ok, m.error, m.version); }
static auto Fields(EnvarGetReq& m) { return std::tie(m.req_id, m.key); }
static auto Fields(EnvarGetResp& m) {
  return std::tie(m.req_id, m.ok, m.error, m.key, m.value, m.version);
}
static auto Fields(EnvarUpdate& m) {
  return std::tie(m.req_id, m.origin_host, m.bcast_seq, m.signed_ts, m.route, m.key, m.value,
                  m.version, m.version_origin);
}
static auto Fields(EnvarEntry& e) { return std::tie(e.key, e.value, e.version, e.origin); }
static auto Fields(EnvarSync& m) { return std::tie(m.req_id, m.entries); }
static auto Fields(EnvarWatchReq& m) { return std::tie(m.req_id, m.key, m.spec); }
static auto Fields(EnvarWatchResp& m) { return std::tie(m.req_id, m.ok, m.error, m.watch_id); }

namespace {

// --- the opcode table ------------------------------------------------------------

constexpr int kNoSub = -1;

// One row per Msg alternative, in variant order: the type's name (it
// keys the net.op.<name>.* counters), its opcode byte, and, for the
// escape families, the sub-byte that follows it.  Encode, Parse,
// MsgTypeName and ClassifyWireFrame all read this table; adding a
// message takes one row here and one field list above.
struct Opcode {
  const char* name;
  uint8_t tag;
  int sub = kNoSub;
};

constexpr Opcode kOpcodes[] = {
    {"HelloSibling", 0x00},
    {"HelloTool", 0x01},
    {"HelloAck", 0x02},
    {"HelloReject", 0x03},
    {"CreateReq", 0x04},
    {"CreateResp", 0x05},
    {"SignalReq", 0x06},
    {"SignalResp", 0x07},
    {"SnapshotReq", 0x08},
    {"SnapshotResp", 0x09},
    {"RusageReq", 0x0A},
    {"RusageResp", 0x0B},
    {"AdoptReq", 0x0C},
    {"AdoptResp", 0x0D},
    {"TraceReq", 0x0E},
    {"TraceResp", 0x0F},
    {"HistoryReq", 0x10},
    {"HistoryResp", 0x11},
    {"TriggerReq", 0x12},
    {"TriggerResp", 0x13},
    {"BecomeCcs", 0x14},
    {"CcsChanged", 0x15},
    {"Probe", 0x16},
    {"ProbeAck", 0x17},
    {"FilesReq", 0x18},
    {"FilesResp", 0x19},
    {"MigrateReq", 0x1A},
    {"MigrateResp", 0x1B},
    {"RegisterChild", 0x1C},
    {"StatReq", kStatMsgTag, kStatReqSub},
    {"StatResp", kStatMsgTag, kStatRespSub},
    {"BusyResp", kBusyMsgTag},
    {"GroupSpawnReq", kGroupMsgTag, 0},
    {"GroupSpawnResp", kGroupMsgTag, 1},
    {"GroupPartReq", kGroupMsgTag, 2},
    {"GroupPartResp", kGroupMsgTag, 3},
    {"GroupUndoReq", kGroupMsgTag, 4},
    {"GroupAck", kGroupMsgTag, 5},
    {"GroupExitNotify", kGroupMsgTag, 6},
    {"GroupAddNotify", kGroupMsgTag, 7},
    {"GroupSignalReq", kGroupMsgTag, 8},
    {"GroupSignalResp", kGroupMsgTag, 9},
    {"GroupJoinReq", kGroupMsgTag, 10},
    {"GroupJoinResp", kGroupMsgTag, 11},
    {"BarrierEnterReq", kGroupMsgTag, 12},
    {"BarrierEnterResp", kGroupMsgTag, 13},
    {"BarrierJoinReq", kGroupMsgTag, 14},
    {"BarrierReleaseReq", kGroupMsgTag, 15},
    {"EnvarSetReq", kGroupMsgTag, 16},
    {"EnvarSetResp", kGroupMsgTag, 17},
    {"EnvarGetReq", kGroupMsgTag, 18},
    {"EnvarGetResp", kGroupMsgTag, 19},
    {"EnvarUpdate", kGroupMsgTag, 20},
    {"EnvarSync", kGroupMsgTag, 21},
    {"EnvarWatchReq", kGroupMsgTag, 22},
    {"EnvarWatchResp", kGroupMsgTag, 23},
    {"StatSubscribe", kStatMsgTag, kStatSubscribeSub},
    {"StatDelta", kStatMsgTag, kStatDeltaSub},
    {"StatUnsubscribe", kStatMsgTag, kStatUnsubscribeSub},
};
static_assert(std::size(kOpcodes) == std::variant_size_v<Msg>, "one kOpcodes row per Msg type");

// The decode side of kOpcodes, derived from it at compile time: the row
// of every opcode byte, and of every sub-byte under an escape byte.
// Deriving it rejects a row that collides with another row or with a
// header escape, so the build fails instead of a frame misdecoding.
constexpr uint8_t kNoRow = 0xFF;
constexpr size_t kSubRoom = 32;  // every sub-byte in use is below this
enum class TagKind : uint8_t { kUnused, kPlain, kEscape };

struct OpcodeIndex {
  TagKind kind[256] = {};
  uint8_t row[256][kSubRoom] = {};  // [tag][sub]; a plain tag uses sub 0
};

constexpr OpcodeIndex IndexOpcodes() {
  OpcodeIndex x;
  for (auto& subs : x.row) {
    for (uint8_t& r : subs) r = kNoRow;
  }
  for (size_t i = 0; i < std::size(kOpcodes); ++i) {
    const Opcode& op = kOpcodes[i];
    const TagKind kind = op.sub == kNoSub ? TagKind::kPlain : TagKind::kEscape;
    const size_t sub = op.sub == kNoSub ? 0 : static_cast<size_t>(op.sub);
    if (op.tag == kChecksumHeaderTag || op.tag == kTraceHeaderTag ||
        op.tag == kDeadlineHeaderTag || sub >= kSubRoom ||
        (x.kind[op.tag] != TagKind::kUnused && x.kind[op.tag] != kind) ||
        x.row[op.tag][sub] != kNoRow) {
      throw "kOpcodes: opcode collision";
    }
    x.kind[op.tag] = kind;
    x.row[op.tag][sub] = static_cast<uint8_t>(i);
  }
  return x;
}

constexpr OpcodeIndex kOpcodeIndex = IndexOpcodes();

constexpr int kUnknownOp = -1;
constexpr int kTruncatedOp = -2;

// The kOpcodes row of opcode byte `tag`, reading its sub-byte from `r`
// when `tag` opens an escape family.
int FindRow(uint8_t tag, codec::Reader& r) {
  uint8_t sub = 0;
  if (kOpcodeIndex.kind[tag] == TagKind::kEscape && !codec::Get(r, sub)) return kTruncatedOp;
  const uint8_t row = sub < kSubRoom ? kOpcodeIndex.row[tag][sub] : kNoRow;
  return row == kNoRow ? kUnknownOp : row;
}

// Decodes the body of Msg alternative I straight into `out`.
template <size_t I>
bool DecodeBody(codec::Reader& r, std::optional<Msg>& out) {
  return codec::Get(r, std::get<I>(out.emplace(std::in_place_index<I>)));
}

template <size_t... I>
constexpr auto MakeDecoders(std::index_sequence<I...>) {
  return std::array<bool (*)(codec::Reader&, std::optional<Msg>&), sizeof...(I)>{
      &DecodeBody<I>...};
}

// Indexed by variant index, like kOpcodes.
constexpr auto kDecoders = MakeDecoders(std::make_index_sequence<std::variant_size_v<Msg>>{});

// Fletcher-16 over `n` bytes.  Detects every single-byte change — which
// is exactly the corruption a LinkFaultProfile injects — at two bytes of
// header cost.
uint16_t Fletcher16(const uint8_t* p, size_t n) {
  uint32_t lo = 0, hi = 0;
  for (size_t i = 0; i < n; ++i) {
    lo = (lo + p[i]) % 255;
    hi = (hi + lo) % 255;
  }
  return static_cast<uint16_t>((hi << 8) | lo);
}

obs::Counter* CorruptFramesCounter() {
  static obs::Counter* c = obs::Registry::Instance().GetCounter("net.corrupt_frames");
  return c;
}

}  // namespace

// --- serialize --------------------------------------------------------------

void Serialize(const Msg& msg, const obs::TraceContext& trace,
               const DeadlineStamp& stamp, WireBuffer& out) {
  PPM_PROF_SCOPE("wire.encode");
  Metrics().frames_encoded->Inc();
  Metrics().hdr_checksum_bytes->Inc(kChecksumHeaderBytes);
  out.Clear();
  // Checksum header first, with a placeholder checksum patched in after
  // the body is encoded — one pass, no copy of the frame body.
  out.U8(kChecksumHeaderTag);
  out.U16(0);
  if (trace.valid()) {
    Metrics().hdr_trace_bytes->Inc(kTraceHeaderBytes);
    codec::PutAll(out, kTraceHeaderTag, trace.trace_id, trace.span_id, trace.parent_span);
  }
  if (stamp.valid()) {
    Metrics().hdr_deadline_bytes->Inc(kDeadlineHeaderBytes);
    codec::PutAll(out, kDeadlineHeaderTag, stamp.deadline_us, stamp.idem_token);
  }
  const Opcode& op = kOpcodes[msg.index()];
  out.U8(op.tag);
  if (op.sub != kNoSub) out.U8(static_cast<uint8_t>(op.sub));
  std::visit([&out](const auto& m) { codec::Put(out, m); }, msg);
  uint16_t ck = Fletcher16(out.data() + kChecksumHeaderBytes, out.size() - kChecksumHeaderBytes);
  out.PatchU16(1, ck);
}

void Serialize(const Msg& msg, const obs::TraceContext& trace, WireBuffer& out) {
  Serialize(msg, trace, DeadlineStamp{}, out);
}

std::vector<uint8_t> Serialize(const Msg& msg) {
  WireBuffer b;
  Serialize(msg, obs::TraceContext{}, DeadlineStamp{}, b);
  return b.TakeOut();
}

std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace) {
  WireBuffer b;
  Serialize(msg, trace, DeadlineStamp{}, b);
  return b.TakeOut();
}

std::vector<uint8_t> Serialize(const Msg& msg, const obs::TraceContext& trace,
                               const DeadlineStamp& stamp) {
  WireBuffer b;
  Serialize(msg, trace, stamp, b);
  return b.TakeOut();
}

// --- parse ---------------------------------------------------------------------

std::optional<Msg> Parse(WireView bytes) { return Parse(bytes, nullptr, nullptr); }

std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace) {
  return Parse(bytes, trace, nullptr);
}

std::optional<Msg> Parse(WireView bytes, obs::TraceContext* trace,
                         DeadlineStamp* stamp) {
  PPM_PROF_SCOPE("wire.decode");
  Metrics().frames_decoded->Inc();
  codec::Reader r(bytes.data(), bytes.size());
  if (trace) *trace = obs::TraceContext{};
  if (stamp) *stamp = DeadlineStamp{};
  uint8_t tag = 0;
  if (!codec::Get(r, tag)) return std::nullopt;
  if (tag == kChecksumHeaderTag) {
    uint16_t want = 0;
    if (!codec::Get(r, want)) return std::nullopt;
    uint16_t got = Fletcher16(bytes.data() + kChecksumHeaderBytes,
                              bytes.size() - kChecksumHeaderBytes);
    if (want != got) {
      // Corruption detected in flight: reject and count, never deliver.
      CorruptFramesCounter()->Inc();
      return std::nullopt;
    }
    if (!codec::Get(r, tag)) return std::nullopt;
  }
  if (tag == kTraceHeaderTag) {
    obs::TraceContext t;
    if (!codec::GetAll(r, t.trace_id, t.span_id, t.parent_span)) return std::nullopt;
    if (trace) *trace = t;
    if (!codec::Get(r, tag)) return std::nullopt;
  }
  if (tag == kDeadlineHeaderTag) {
    DeadlineStamp s;
    if (!codec::GetAll(r, s.deadline_us, s.idem_token)) return std::nullopt;
    if (stamp) *stamp = s;
    if (!codec::Get(r, tag)) return std::nullopt;
  }
  const int row = FindRow(tag, r);
  if (row < 0) return std::nullopt;
  std::optional<Msg> msg;
  // A well-formed frame is consumed exactly; trailing bytes mean the
  // length fields inside were tampered with.
  if (!kDecoders[row](r, msg) || !r.AtEnd()) return std::nullopt;
  return msg;
}

const char* MsgTypeName(const Msg& msg) { return kOpcodes[msg.index()].name; }

const char* ClassifyWireFrame(const uint8_t* frame, size_t len) {
  size_t pos = 0;
  if (pos < len && frame[pos] == kChecksumHeaderTag) {
    pos += kChecksumHeaderBytes;
  }
  if (pos < len && frame[pos] == kTraceHeaderTag) {
    pos += kTraceHeaderBytes;
  }
  if (pos < len && frame[pos] == kDeadlineHeaderTag) {
    pos += kDeadlineHeaderBytes;
  }
  if (pos >= len) return "malformed";
  codec::Reader r(frame + pos + 1, len - pos - 1);
  const int row = FindRow(frame[pos], r);
  if (row == kTruncatedOp) return "malformed";
  if (row == kUnknownOp) return "unknown";
  return kOpcodes[row].name;
}

}  // namespace ppm::core

#include "store/lpm_store.h"

#include <tuple>

#include "core/codec.h"
#include "obs/metrics.h"
#include "util/bytes.h"

namespace ppm::store {

namespace codec = core::codec;

// --- field lists of the store's records ---------------------------------------
// Walked by core/codec.h, which also holds the lists of the core records
// (GPid, HistEvent, TriggerSpec, RusageRecord) the journal shares with the
// wire protocol.  Argument-dependent lookup finds them beside their types;
// static keeps them private to this file.

static auto Fields(ProcHint& h) { return std::tie(h.logical_parent, h.command); }
static auto Fields(GroupMemberHint& h) { return std::tie(h.gpid, h.exited, h.exit_status); }
static auto Fields(LocalMemberHint& h) { return std::tie(h.group, h.coordinator); }
static auto Fields(EnvarHint& h) { return std::tie(h.value, h.version, h.origin); }

// The checkpoint body after its magic: every section of the state a warm
// restart recovers, in file order.  The replay bookkeeping (found,
// replayed_records, torn_bytes) is not stored.
static auto Fields(RecoveredState& st) {
  return std::tie(st.last_seq, st.generation, st.ccs_host, st.events, st.triggers, st.rusage,
                  st.procs, st.remote_children, st.groups, st.group_local, st.envars,
                  st.barrier_epochs);
}

namespace {

struct StoreMetrics {
  obs::Counter* records;
  obs::Counter* checkpoints;
  obs::Counter* checkpoint_bytes;
  obs::Counter* compactions;
  obs::Counter* recoveries;
  obs::Counter* replay_events;
  obs::Counter* replay_records;
};

StoreMetrics& Metrics() {
  static StoreMetrics m = [] {
    auto& r = obs::Registry::Instance();
    StoreMetrics mm;
    mm.records = r.GetCounter("store.records");
    mm.checkpoints = r.GetCounter("store.checkpoints");
    mm.checkpoint_bytes = r.GetCounter("store.checkpoint_bytes");
    mm.compactions = r.GetCounter("store.compactions");
    mm.recoveries = r.GetCounter("store.recoveries");
    mm.replay_events = r.GetCounter("store.replay_events");
    mm.replay_records = r.GetCounter("store.replay_records");
    return mm;
  }();
  return m;
}

// Checkpoint file magic: "PCK" + version byte.  Version 2 added the
// group-operations sections (groups, local memberships, envars, barrier
// epochs); a v1 checkpoint fails decode and recovery starts from the
// journal alone.
constexpr uint32_t kCkptMagic = 0x324B4350;  // 'P' 'C' 'K' '2'

// Marks `gpid` exited in `group`'s member list, appending the member if
// it was never journaled (exit surviving a rollback race).
void ApplyGroupExit(RecoveredState& st, const std::string& group,
                    const core::GPid& gpid, int32_t status) {
  auto& members = st.groups[group];
  for (auto& m : members) {
    if (m.gpid == gpid) {
      m.exited = true;
      m.exit_status = status;
      return;
    }
  }
  members.push_back(GroupMemberHint{gpid, true, status});
}

// --- record application ------------------------------------------------------

// Applies one decoded journal payload to `st`.  Returns false when the
// payload is malformed (a CRC-valid frame whose fields do not decode —
// should not happen, but a store must never crash its manager).  Each
// record decodes into locals first, so a malformed one leaves `st`
// untouched.
bool ApplyRecord(RecoveredState& st, const std::vector<uint8_t>& payload) {
  codec::Reader r(payload.data(), payload.size());
  uint64_t seq = 0;
  uint8_t type = 0;
  if (!codec::GetAll(r, seq, type)) return false;
  if (seq <= st.last_seq && st.found) {
    // Pre-checkpoint record surviving an interrupted compaction: the
    // checkpoint already covers it.
    return true;
  }
  switch (static_cast<RecordType>(type)) {
    case RecordType::kBoot: {
      uint32_t gen = 0;
      if (!codec::Get(r, gen)) return false;
      // A new kernel generation means every process of the previous one
      // died with the host; those pids may be reused, so the genealogy
      // hints are void.  History, triggers, rusage and the CCS hint
      // survive — that is the point of the store.
      if (gen != st.generation) {
        st.procs.clear();
        st.remote_children.clear();
      }
      st.generation = gen;
      break;
    }
    case RecordType::kEvent: {
      core::HistEvent ev;
      if (!codec::Get(r, ev)) return false;
      st.events.push_back(std::move(ev));
      break;
    }
    case RecordType::kTriggerInstall: {
      uint64_t id = 0;
      core::TriggerSpec spec;
      if (!codec::GetAll(r, id, spec)) return false;
      st.triggers[id] = std::move(spec);
      break;
    }
    case RecordType::kTriggerRemove: {
      uint64_t id = 0;
      if (!codec::Get(r, id)) return false;
      st.triggers.erase(id);
      break;
    }
    case RecordType::kRusage: {
      core::RusageRecord rec;
      if (!codec::Get(r, rec)) return false;
      st.rusage.push_back(std::move(rec));
      break;
    }
    case RecordType::kProcNew: {
      host::Pid pid = 0;
      ProcHint hint;
      if (!codec::GetAll(r, pid, hint)) return false;
      st.procs[pid] = std::move(hint);
      break;
    }
    case RecordType::kProcExit: {
      host::Pid pid = 0;
      if (!codec::Get(r, pid)) return false;
      st.procs.erase(pid);
      break;
    }
    case RecordType::kRemoteChild: {
      std::pair<host::Pid, core::GPid> link;
      if (!codec::Get(r, link)) return false;
      st.remote_children.push_back(std::move(link));
      break;
    }
    case RecordType::kCcs: {
      std::string ccs;
      if (!codec::Get(r, ccs)) return false;
      st.ccs_host = std::move(ccs);
      break;
    }
    case RecordType::kGroupMember: {
      std::string group;
      core::GPid gpid;
      if (!codec::GetAll(r, group, gpid)) return false;
      st.groups[group].push_back(GroupMemberHint{std::move(gpid), false, 0});
      break;
    }
    case RecordType::kGroupExit: {
      std::string group;
      core::GPid gpid;
      int32_t status = 0;
      if (!codec::GetAll(r, group, gpid, status)) return false;
      ApplyGroupExit(st, group, gpid, status);
      break;
    }
    case RecordType::kGroupLocalMember: {
      host::Pid pid = 0;
      LocalMemberHint hint;
      if (!codec::GetAll(r, pid, hint)) return false;
      st.group_local[pid] = std::move(hint);
      break;
    }
    case RecordType::kGroupLocalRemove: {
      host::Pid pid = 0;
      if (!codec::Get(r, pid)) return false;
      st.group_local.erase(pid);
      break;
    }
    case RecordType::kEnvar: {
      std::string key;
      EnvarHint hint;
      if (!codec::GetAll(r, key, hint)) return false;
      st.envars[key] = std::move(hint);
      break;
    }
    case RecordType::kBarrierEpoch: {
      std::string name;
      uint64_t epoch = 0;
      if (!codec::GetAll(r, name, epoch)) return false;
      uint64_t& e = st.barrier_epochs[name];
      if (epoch > e) e = epoch;
      break;
    }
    default:
      return false;
  }
  st.last_seq = seq;
  st.found = true;
  return true;
}

std::string EncodeCheckpoint(const RecoveredState& st) {
  util::ByteWriter w;
  codec::PutAll(w, kCkptMagic, st);
  std::vector<uint8_t> body = w.Take();
  return std::string(body.begin(), body.end());
}

bool DecodeCheckpoint(const std::string& content, RecoveredState& st) {
  codec::Reader r(reinterpret_cast<const uint8_t*>(content.data()), content.size());
  uint32_t magic = 0;
  RecoveredState out;
  if (!codec::Get(r, magic) || magic != kCkptMagic || !codec::Get(r, out)) return false;
  out.found = true;
  st = std::move(out);
  return true;
}

}  // namespace

LpmStore::LpmStore(host::Disk disk, StoreConfig config)
    : disk_(disk),
      config_(config),
      journal_(disk, kJournalFile, config.group_commit) {}

RecoveredState LpmStore::Recover(const host::Disk& disk) {
  Metrics().recoveries->Inc();
  RecoveredState st;
  if (auto ckpt = disk.Read(kCheckpointFile)) {
    // A checkpoint is written atomically-durably (Filesystem::Write), so
    // a decode failure means a format change, not a tear; start empty.
    DecodeCheckpoint(*ckpt, st);
  }
  Journal::Replayed replayed = Journal::Replay(disk, kJournalFile);
  for (const auto& payload : replayed.payloads) {
    if (ApplyRecord(st, payload)) ++st.replayed_records;
  }
  st.torn_bytes = replayed.torn_bytes;
  Metrics().replay_records->Inc(st.replayed_records);
  Metrics().replay_events->Inc(st.events.size());
  return st;
}

void LpmStore::Open(const RecoveredState& recovered, uint32_t generation) {
  mirror_ = recovered;
  mirror_.replayed_records = 0;
  mirror_.torn_bytes = 0;
  seq_ = recovered.last_seq;
  open_ = true;
  if (generation != mirror_.generation) {
    mirror_.procs.clear();
    mirror_.remote_children.clear();
    // Local group memberships are pid-keyed; a new generation voids them
    // (coordinated groups, envars and barrier epochs survive — that is
    // the point of journaling them).
    mirror_.group_local.clear();
  }
  mirror_.generation = generation;
  // Checkpoint-on-open serves two purposes.  It bounds the next replay
  // to this incarnation's records, and — crucially — it truncates any
  // torn tail the previous crash left in the journal file: appending
  // the boot record AFTER surviving garbage would hide it (and every
  // later record) from the next replay, which stops at the first bad
  // frame.
  Checkpoint();
  AppendRecord(RecordType::kBoot, generation);
  // The boot record is a natural sync point: after it is durable, any
  // later replay knows which generation the genealogy hints belong to.
  journal_.Sync();
}

template <class... T>
void LpmStore::AppendRecord(RecordType type, const T&... fields) {
  if (!open_) return;  // nothing may be journaled before Open() resumes seq
  util::ByteWriter w;
  codec::PutAll(w, ++seq_, type, fields...);
  journal_.Append(w.bytes());
  Metrics().records->Inc();
  mirror_.last_seq = seq_;
  mirror_.found = true;
  if (config_.checkpoint_every != 0 && ++records_since_ckpt_ >= config_.checkpoint_every)
    Checkpoint();
}

void LpmStore::RecordEvent(const core::HistEvent& ev) {
  mirror_.events.push_back(ev);
  // Mirror the EventLog's ring bound so checkpoints stay proportional
  // to the history a query could actually return.
  while (mirror_.events.size() > config_.event_capacity)
    mirror_.events.erase(mirror_.events.begin());
  AppendRecord(RecordType::kEvent, ev);
}

void LpmStore::RecordTriggerInstall(uint64_t id, const core::TriggerSpec& spec) {
  mirror_.triggers[id] = spec;
  AppendRecord(RecordType::kTriggerInstall, id, spec);
  // A trigger acknowledged to the user must survive a crash: explicit
  // sync point (the paper's "history dependent events" are a contract).
  journal_.Sync();
}

void LpmStore::RecordTriggerRemove(uint64_t id) {
  mirror_.triggers.erase(id);
  AppendRecord(RecordType::kTriggerRemove, id);
}

void LpmStore::RecordRusage(const core::RusageRecord& rec) {
  mirror_.rusage.push_back(rec);
  AppendRecord(RecordType::kRusage, rec);
}

void LpmStore::RecordProcNew(host::Pid pid, const core::GPid& logical_parent,
                             const std::string& command) {
  mirror_.procs[pid] = ProcHint{logical_parent, command};
  AppendRecord(RecordType::kProcNew, pid, logical_parent, command);
}

void LpmStore::RecordProcExit(host::Pid pid) {
  mirror_.procs.erase(pid);
  AppendRecord(RecordType::kProcExit, pid);
}

void LpmStore::RecordRemoteChild(host::Pid parent, const core::GPid& child) {
  mirror_.remote_children.emplace_back(parent, child);
  AppendRecord(RecordType::kRemoteChild, parent, child);
}

void LpmStore::RecordCcs(const std::string& ccs_host) {
  mirror_.ccs_host = ccs_host;
  AppendRecord(RecordType::kCcs, ccs_host);
}

void LpmStore::RecordGroupMember(const std::string& group, const core::GPid& gpid) {
  mirror_.groups[group].push_back(GroupMemberHint{gpid, false, 0});
  AppendRecord(RecordType::kGroupMember, group, gpid);
}

void LpmStore::RecordGroupExit(const std::string& group, const core::GPid& gpid,
                               int32_t exit_status) {
  ApplyGroupExit(mirror_, group, gpid, exit_status);
  AppendRecord(RecordType::kGroupExit, group, gpid, exit_status);
}

void LpmStore::RecordGroupLocalMember(host::Pid pid, const std::string& group,
                                      const std::string& coordinator) {
  mirror_.group_local[pid] = LocalMemberHint{group, coordinator};
  AppendRecord(RecordType::kGroupLocalMember, pid, group, coordinator);
}

void LpmStore::RecordGroupLocalRemove(host::Pid pid) {
  mirror_.group_local.erase(pid);
  AppendRecord(RecordType::kGroupLocalRemove, pid);
}

void LpmStore::RecordEnvar(const std::string& key, const std::string& value,
                           uint64_t version, const std::string& origin) {
  mirror_.envars[key] = EnvarHint{value, version, origin};
  AppendRecord(RecordType::kEnvar, key, value, version, origin);
}

void LpmStore::RecordBarrierEpoch(const std::string& name, uint64_t epoch) {
  uint64_t& e = mirror_.barrier_epochs[name];
  if (epoch > e) e = epoch;
  AppendRecord(RecordType::kBarrierEpoch, name, epoch);
  // A barrier verdict acknowledged to anyone must survive a crash —
  // epoch reuse after restart would split the release decision.
  journal_.Sync();
}

void LpmStore::Checkpoint() {
  if (!open_) return;
  records_since_ckpt_ = 0;
  std::string body = EncodeCheckpoint(mirror_);
  // Order is the whole crash-safety argument: (1) the checkpoint lands
  // atomically-durably under a name replay reads first; (2) only then is
  // the journal compacted.  A crash between the two leaves stale journal
  // records whose seq <= last_seq — replay skips them.
  disk_.Write(kCheckpointFile, body);
  Metrics().checkpoints->Inc();
  Metrics().checkpoint_bytes->Inc(body.size());
  journal_.Reset();
  Metrics().compactions->Inc();
}

}  // namespace ppm::store

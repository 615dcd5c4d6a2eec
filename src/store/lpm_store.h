// lpm_store.h — the durable state store of one LPM.
//
// The paper promises "historical processing information" and exited-
// process resource statistics that outlive the processes themselves;
// this store is what makes them outlive the *manager* too.  It couples
// a write-ahead Journal with periodic checkpoints:
//
//   * every LPM state mutation (history event, trigger install/remove,
//     rusage record, genealogy change, CCS change) is appended to the
//     journal as one framed record before — or atomically with — the
//     in-memory mutation becoming visible;
//   * every `checkpoint_every` records, the full state is written
//     atomically to the checkpoint file and the journal is compacted
//     (truncated), so warm-restart replay cost is bounded by the
//     checkpoint interval, not by total history;
//   * records carry a monotone sequence number.  A crash between
//     checkpoint write and journal truncation is safe: replay skips
//     journal records with seq <= the checkpoint's last_seq.
//
// Record payload layout: [u64 seq][u8 type][type-specific fields].  The
// fields are encoded by the same field lists and the same generic
// writer and reader as the wire protocol (core/codec.h), so a GPid,
// HistEvent, TriggerSpec or RusageRecord has one layout on the network
// and on disk.  codec.h is header-only: the store does NOT link against
// core, so the dependency order stays store -> host and core -> store
// without a cycle.
//
// Warm restart: Recover() decodes checkpoint + journal read-only and
// returns a RecoveredState; the LPM seeds its EventLog, TriggerTable
// and rusage list from it, uses the genealogy hints to re-adopt still-
// live processes (same kernel generation only — a reboot destroys every
// process and pids are reused), then Open()s the store to continue
// journaling from the recovered sequence number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "store/journal.h"

namespace ppm::store {

// Journal record types (payload byte after the seq).
enum class RecordType : uint8_t {
  kBoot = 1,           // u32 generation — an LPM incarnation started
  kEvent = 2,          // HistEvent
  kTriggerInstall = 3, // u64 id + TriggerSpec
  kTriggerRemove = 4,  // u64 id (fired or explicitly removed)
  kRusage = 5,         // RusageRecord
  kProcNew = 6,        // i32 pid + logical-parent GPid + command string
  kProcExit = 7,       // i32 pid
  kRemoteChild = 8,    // i32 local parent pid + child GPid
  kCcs = 9,            // host string (empty = cleared)
  kGroupMember = 10,   // group string + member GPid (coordinator side)
  kGroupExit = 11,     // group string + member GPid + i32 exit status
  kGroupLocalMember = 12,  // i32 pid + group + coordinator host
  kGroupLocalRemove = 13,  // i32 pid
  kEnvar = 14,         // key + value + u64 version + origin host
  kBarrierEpoch = 15,  // barrier name + u64 highest epoch decided
};

// A genealogy hint: a process the LPM managed when it last wrote the
// journal.  Valid for re-adoption only within the same kernel
// generation (pids are reused across reboots).
struct ProcHint {
  core::GPid logical_parent;  // may be remote or invalid (computation root)
  std::string command;
};

// One member of a coordinated group, as journaled at the coordinator.
struct GroupMemberHint {
  core::GPid gpid;
  bool exited = false;
  int32_t exit_status = 0;
};

// One local group member (member-host side): which group the pid
// belongs to and which host coordinates it.  Generation-scoped like
// ProcHint — pids are reused across reboots.
struct LocalMemberHint {
  std::string group;
  std::string coordinator;
};

// One replicated global-envar entry.
struct EnvarHint {
  std::string value;
  uint64_t version = 0;
  std::string origin;
};

// Everything a warm restart can learn from disk.
struct RecoveredState {
  bool found = false;        // true when a checkpoint or any record existed
  uint64_t last_seq = 0;     // highest sequence number applied
  uint32_t generation = 0;   // kernel generation of the last kBoot record
  std::vector<core::HistEvent> events;
  std::map<uint64_t, core::TriggerSpec> triggers;
  std::vector<core::RusageRecord> rusage;
  std::map<host::Pid, ProcHint> procs;  // live procs of the last generation
  std::vector<std::pair<host::Pid, core::GPid>> remote_children;
  std::string ccs_host;
  // Group operations state: coordinated groups (survive restart), local
  // memberships (generation-scoped), the replicated envar table, and
  // the highest barrier epoch decided per name (what makes an epoch
  // unreusable across a warm restart).
  std::map<std::string, std::vector<GroupMemberHint>> groups;
  std::map<host::Pid, LocalMemberHint> group_local;
  std::map<std::string, EnvarHint> envars;
  std::map<std::string, uint64_t> barrier_epochs;
  size_t replayed_records = 0;  // journal records applied (after the ckpt)
  size_t torn_bytes = 0;        // discarded torn/corrupt journal tail
};

struct StoreConfig {
  uint32_t group_commit = 8;      // journal frames per physical sync
  uint32_t checkpoint_every = 256;  // records per checkpoint; 0 = never
  size_t event_capacity = 4096;   // ring bound mirrored from the EventLog
};

class LpmStore {
 public:
  // Files live in the disk owner's home directory.
  static constexpr const char* kJournalFile = "lpm.journal";
  static constexpr const char* kCheckpointFile = "lpm.ckpt";

  LpmStore(host::Disk disk, StoreConfig config);

  // Read-only decode of checkpoint + journal as found on disk.  Never
  // parses a torn tail: framing CRCs cut replay at the first bad frame.
  static RecoveredState Recover(const host::Disk& disk);
  RecoveredState Recover() const { return Recover(disk_); }

  // Starts this incarnation: seeds the in-memory mirror (the state the
  // next checkpoint will serialize) from `recovered`, resumes the
  // sequence counter, and journals a kBoot record for `generation`.
  void Open(const RecoveredState& recovered, uint32_t generation);

  // Mutation records.  Each appends one journal frame write-through;
  // group commit and checkpointing happen underneath.
  void RecordEvent(const core::HistEvent& ev);
  void RecordTriggerInstall(uint64_t id, const core::TriggerSpec& spec);
  void RecordTriggerRemove(uint64_t id);
  void RecordRusage(const core::RusageRecord& rec);
  void RecordProcNew(host::Pid pid, const core::GPid& logical_parent,
                     const std::string& command);
  void RecordProcExit(host::Pid pid);
  void RecordRemoteChild(host::Pid parent, const core::GPid& child);
  void RecordCcs(const std::string& ccs_host);
  void RecordGroupMember(const std::string& group, const core::GPid& gpid);
  void RecordGroupExit(const std::string& group, const core::GPid& gpid,
                       int32_t exit_status);
  void RecordGroupLocalMember(host::Pid pid, const std::string& group,
                              const std::string& coordinator);
  void RecordGroupLocalRemove(host::Pid pid);
  void RecordEnvar(const std::string& key, const std::string& value,
                   uint64_t version, const std::string& origin);
  void RecordBarrierEpoch(const std::string& name, uint64_t epoch);

  // Explicit sync point: makes everything journaled so far durable.
  void Sync() { journal_.Sync(); }

  // Serializes the mirror to the checkpoint file and compacts the
  // journal.  Called automatically every `checkpoint_every` records;
  // public for tests and for a clean shutdown.
  void Checkpoint();

  Journal& journal() { return journal_; }
  uint64_t seq() const { return seq_; }
  const StoreConfig& config() const { return config_; }

 private:
  // Journals [seq][type][fields...]; defined (and only used) in lpm_store.cc.
  template <class... T>
  void AppendRecord(RecordType type, const T&... fields);

  host::Disk disk_;
  StoreConfig config_;
  Journal journal_;
  uint64_t seq_ = 0;
  uint32_t records_since_ckpt_ = 0;
  bool open_ = false;
  RecoveredState mirror_;  // the state a checkpoint serializes
};

}  // namespace ppm::store

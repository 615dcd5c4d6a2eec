// store_test.cc — the durable state store: filesystem crash semantics,
// journal framing, group commit, checkpoint/compaction, and LPM warm
// restart end to end.
//
// The layering mirrors the subsystem: Filesystem/Disk durability first
// (synced data survives a crash, the unsynced tail tears), then the
// CRC-framed journal (a torn tail is detected and discarded, never
// parsed), then LpmStore (checkpoints bound replay, interrupted
// compaction is safe), then a live cluster whose LPM is killed and
// warm-restarts from disk.
#include <gtest/gtest.h>

#include "chaos/invariants.h"
#include "core/cluster.h"
#include "core/lpm.h"
#include "host/filesystem.h"
#include "sim/rng.h"
#include "store/journal.h"
#include "store/lpm_store.h"
#include "tests/test_util.h"
#include "tools/client.h"

namespace ppm {
namespace {

using test::kTestUid;
using test::kTestUser;

// --- Filesystem durability ---------------------------------------------------

TEST(FilesystemCrash, WriteIsDurable) {
  host::Filesystem fs;
  sim::Rng rng(7);
  fs.Write(100, "ckpt", "atomic and synced");
  fs.TearUnsynced(rng);
  EXPECT_EQ(fs.Read(100, "ckpt"), "atomic and synced");
}

TEST(FilesystemCrash, UnsyncedTailMayTearButSyncedPrefixSurvives) {
  host::Filesystem fs;
  fs.Write(100, "j", "SYNCED|");
  fs.Append(100, "j", "unsynced tail that a crash may cut anywhere");
  size_t synced = fs.SyncedSize(100, "j");
  size_t full = fs.Size(100, "j");
  ASSERT_LT(synced, full);
  // Tear across many seeds: every outcome keeps the synced prefix and
  // never grows the file; at least one seed must actually cut the tail
  // (a tear that always keeps everything would be vacuous).
  bool cut_somewhere = false;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    host::Filesystem trial;
    trial.Write(100, "j", "SYNCED|");
    trial.Append(100, "j", "unsynced tail that a crash may cut anywhere");
    sim::Rng rng(seed);
    trial.TearUnsynced(rng);
    std::optional<std::string> left = trial.Read(100, "j");
    ASSERT_TRUE(left.has_value());
    EXPECT_GE(left->size(), synced);
    EXPECT_LE(left->size(), full);
    EXPECT_EQ(left->substr(0, synced), "SYNCED|");
    if (left->size() < full) cut_somewhere = true;
  }
  EXPECT_TRUE(cut_somewhere);
}

TEST(FilesystemCrash, SyncMakesAppendedTailDurable) {
  host::Filesystem fs;
  sim::Rng rng(3);
  fs.Append(100, "j", "tail");
  EXPECT_EQ(fs.Sync(100, "j"), 4u);
  EXPECT_EQ(fs.Sync(100, "j"), 0u);  // already clean
  fs.TearUnsynced(rng);
  EXPECT_EQ(fs.Read(100, "j"), "tail");
}

TEST(FilesystemCrash, ListIsSortedAndStableAcrossTear) {
  host::Filesystem fs;
  sim::Rng rng(5);
  fs.Write(100, "zeta", "z");
  fs.Write(100, "alpha", "a");
  fs.Append(100, "mid", "partial");
  std::vector<std::string> before = fs.List(100);
  ASSERT_EQ(before, (std::vector<std::string>{"alpha", "mid", "zeta"}));
  fs.TearUnsynced(rng);
  EXPECT_EQ(fs.List(100), before);  // tear changes content, never names
}

// --- Journal -----------------------------------------------------------------

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

TEST(Journal, RoundTripsFramesInOrder) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::Journal j(disk, "wal", 4);
  j.Append(Payload({1, 2, 3}));
  j.Append(Payload({}));  // empty payloads are legal frames
  j.Append(Payload({0xff, 0x00, 0x7f}));
  store::Journal::Replayed r = store::Journal::Replay(disk, "wal");
  ASSERT_EQ(r.payloads.size(), 3u);
  EXPECT_EQ(r.payloads[0], Payload({1, 2, 3}));
  EXPECT_EQ(r.payloads[1], Payload({}));
  EXPECT_EQ(r.payloads[2], Payload({0xff, 0x00, 0x7f}));
  EXPECT_EQ(r.torn_bytes, 0u);
}

TEST(Journal, GroupCommitSyncsEveryNthAppend) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::Journal j(disk, "wal", 3);
  size_t hook_calls = 0;
  j.set_sync_hook([&](size_t flushed) {
    ++hook_calls;
    EXPECT_GT(flushed, 0u);
  });
  EXPECT_FALSE(j.Append(Payload({1})));
  EXPECT_FALSE(j.Append(Payload({2})));
  EXPECT_EQ(disk.SyncedSize("wal"), 0u);  // batch still open
  EXPECT_EQ(j.pending_appends(), 2u);
  EXPECT_TRUE(j.Append(Payload({3})));  // batch full: physical sync
  EXPECT_EQ(disk.SyncedSize("wal"), disk.Size("wal"));
  EXPECT_EQ(j.pending_appends(), 0u);
  EXPECT_EQ(hook_calls, 1u);
  // Explicit sync point flushes a partial batch.
  j.Append(Payload({4}));
  EXPECT_GT(j.Sync(), 0u);
  EXPECT_EQ(disk.SyncedSize("wal"), disk.Size("wal"));
  EXPECT_EQ(hook_calls, 2u);
}

TEST(Journal, TornTailIsDiscardedNeverParsed) {
  // Synced frames must all replay; the torn unsynced tail must yield
  // only intact frames (a prefix of what was appended), whatever byte
  // the tear lands on.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    host::Filesystem fs;
    host::Disk disk(fs, 100);
    store::Journal j(disk, "wal", 100);  // wide batch: nothing auto-syncs
    std::vector<std::vector<uint8_t>> written;
    for (uint8_t i = 0; i < 6; ++i) {
      written.push_back(Payload({i, uint8_t(i + 1), uint8_t(i + 2)}));
      j.Append(written.back());
    }
    j.Sync();  // first 6 durable
    for (uint8_t i = 6; i < 12; ++i) {
      written.push_back(Payload({i, uint8_t(i + 1), uint8_t(i + 2)}));
      j.Append(written.back());
    }
    sim::Rng rng(seed);
    fs.TearUnsynced(rng);
    store::Journal::Replayed r = store::Journal::Replay(disk, "wal");
    ASSERT_GE(r.payloads.size(), 6u) << "seed " << seed << ": synced frames lost";
    ASSERT_LE(r.payloads.size(), 12u);
    for (size_t i = 0; i < r.payloads.size(); ++i) {
      EXPECT_EQ(r.payloads[i], written[i]) << "seed " << seed << " frame " << i;
    }
  }
}

TEST(Journal, CorruptFrameCutsReplay) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::Journal j(disk, "wal", 1);
  j.Append(Payload({10, 11}));
  j.Append(Payload({20, 21}));
  j.Append(Payload({30, 31}));
  // Flip a byte inside the second frame's payload (frame = 8B header +
  // 2B payload): the CRC must reject it, and replay must stop there —
  // the intact third frame is unreachable past a bad one.
  std::string raw = *disk.Read("wal");
  raw[10 + 8] ^= 0x5a;
  disk.Write("wal", raw);
  store::Journal::Replayed r = store::Journal::Replay(disk, "wal");
  ASSERT_EQ(r.payloads.size(), 1u);
  EXPECT_EQ(r.payloads[0], Payload({10, 11}));
  EXPECT_EQ(r.torn_bytes, 2u * 10u);  // frames 2 and 3 discarded
}

TEST(Journal, ResetTruncatesDurably) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::Journal j(disk, "wal", 2);
  j.Append(Payload({1}));
  j.Reset();
  sim::Rng rng(9);
  fs.TearUnsynced(rng);
  EXPECT_EQ(disk.Size("wal"), 0u);
  EXPECT_EQ(store::Journal::Replay(disk, "wal").payloads.size(), 0u);
}

// --- LpmStore ----------------------------------------------------------------

core::HistEvent Ev(host::Pid pid, sim::SimTime at) {
  core::HistEvent ev;
  ev.kind = host::KEvent::kExec;
  ev.pid = pid;
  ev.at = at;
  return ev;
}

TEST(LpmStore, RecordsRoundTripThroughRecover) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;  // sync every record: deterministic durability
  store::LpmStore s(disk, cfg);
  s.Open(store::RecoveredState{}, /*generation=*/0);
  s.RecordEvent(Ev(4, 100));
  s.RecordEvent(Ev(5, 200));
  core::TriggerSpec spec;
  spec.event_kind = host::KEvent::kExit;
  spec.subject_pid = 4;
  s.RecordTriggerInstall(7, spec);
  core::RusageRecord ru;
  ru.gpid = core::GPid{"h", 4};
  ru.command = "worker";
  ru.rusage.cpu_time = 1234;
  s.RecordRusage(ru);
  s.RecordProcNew(5, core::GPid{"elsewhere", 9}, "srv");
  s.RecordRemoteChild(5, core::GPid{"other", 2});
  s.RecordCcs("h0");

  store::RecoveredState st = store::LpmStore::Recover(disk);
  ASSERT_TRUE(st.found);
  EXPECT_EQ(st.torn_bytes, 0u);
  ASSERT_EQ(st.events.size(), 2u);
  EXPECT_EQ(st.events[0], Ev(4, 100));
  EXPECT_EQ(st.events[1], Ev(5, 200));
  ASSERT_EQ(st.triggers.size(), 1u);
  EXPECT_EQ(st.triggers.at(7), spec);
  ASSERT_EQ(st.rusage.size(), 1u);
  EXPECT_EQ(st.rusage[0], ru);
  ASSERT_EQ(st.procs.size(), 1u);
  EXPECT_EQ(st.procs.at(5).command, "srv");
  EXPECT_EQ(st.procs.at(5).logical_parent, (core::GPid{"elsewhere", 9}));
  ASSERT_EQ(st.remote_children.size(), 1u);
  EXPECT_EQ(st.remote_children[0].second, (core::GPid{"other", 2}));
  EXPECT_EQ(st.ccs_host, "h0");
}

TEST(LpmStore, TriggerRemoveAndProcExitApplyOnReplay) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;
  store::LpmStore s(disk, cfg);
  s.Open(store::RecoveredState{}, 0);
  core::TriggerSpec spec;
  s.RecordTriggerInstall(1, spec);
  s.RecordTriggerInstall(2, spec);
  s.RecordTriggerRemove(1);
  s.RecordProcNew(5, {}, "a");
  s.RecordProcNew(6, {}, "b");
  s.RecordProcExit(5);
  store::RecoveredState st = store::LpmStore::Recover(disk);
  ASSERT_EQ(st.triggers.size(), 1u);
  EXPECT_TRUE(st.triggers.count(2));
  ASSERT_EQ(st.procs.size(), 1u);
  EXPECT_TRUE(st.procs.count(6));
}

TEST(LpmStore, CheckpointBoundsJournalAndReplayCost) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;
  cfg.checkpoint_every = 16;
  store::LpmStore s(disk, cfg);
  s.Open(store::RecoveredState{}, 0);
  for (int i = 0; i < 200; ++i) s.RecordEvent(Ev(i, i));
  // Compaction keeps the journal bounded by the checkpoint interval: at
  // most checkpoint_every records ever sit in it.
  store::Journal::Replayed tail = store::Journal::Replay(disk, store::LpmStore::kJournalFile);
  EXPECT_LE(tail.payloads.size(), 16u);
  EXPECT_TRUE(disk.Exists(store::LpmStore::kCheckpointFile));
  // Recovery still sees all 200 events (checkpoint + journal tail).
  store::RecoveredState st = store::LpmStore::Recover(disk);
  ASSERT_EQ(st.events.size(), 200u);
  EXPECT_EQ(st.events.front(), Ev(0, 0));
  EXPECT_EQ(st.events.back(), Ev(199, 199));
}

TEST(LpmStore, InterruptedCompactionReplaysWithoutDuplicates) {
  // A crash between checkpoint write and journal truncation leaves the
  // journal full of records the checkpoint already covers.  Replay must
  // skip them by sequence number, not apply them twice.
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;
  cfg.checkpoint_every = 0;  // manual checkpoints only
  store::LpmStore s(disk, cfg);
  s.Open(store::RecoveredState{}, 0);
  for (int i = 0; i < 5; ++i) s.RecordEvent(Ev(i, i));
  std::string journal_before = *disk.Read(store::LpmStore::kJournalFile);
  s.Checkpoint();
  // Simulate the interrupted truncation: the pre-checkpoint journal
  // content reappears (as if Reset never happened).
  disk.Write(store::LpmStore::kJournalFile, journal_before);
  store::RecoveredState st = store::LpmStore::Recover(disk);
  EXPECT_EQ(st.events.size(), 5u) << "stale journal records were re-applied";
}

TEST(LpmStore, GenerationChangeClearsGenealogyHintsOnly) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;
  {
    store::LpmStore s(disk, cfg);
    s.Open(store::RecoveredState{}, /*generation=*/1);
    s.RecordEvent(Ev(3, 30));
    s.RecordProcNew(3, {}, "tool");
  }
  // Same generation: hints usable.
  store::RecoveredState same = store::LpmStore::Recover(disk);
  EXPECT_EQ(same.generation, 1u);
  EXPECT_EQ(same.procs.size(), 1u);
  // Reboot (generation 2): a new incarnation opens, hints die, history
  // survives.
  {
    store::LpmStore s(disk, cfg);
    store::RecoveredState rec = store::LpmStore::Recover(disk);
    s.Open(rec, /*generation=*/2);
  }
  store::RecoveredState after = store::LpmStore::Recover(disk);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_EQ(after.procs.size(), 0u);
  ASSERT_EQ(after.events.size(), 1u);
  EXPECT_EQ(after.events[0], Ev(3, 30));
}

TEST(LpmStore, OpenPurgesTornTailFromDisk) {
  // The torn tail survives in the *file* even though replay discards it;
  // open-time compaction must purge it, or records appended after it
  // would be unreachable to the next replay.
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 100;  // keep everything unsynced
  {
    store::LpmStore s(disk, cfg);
    s.Open(store::RecoveredState{}, 0);
    s.Sync();  // boot record durable
    for (int i = 0; i < 8; ++i) s.RecordEvent(Ev(i, i));
  }
  sim::Rng rng(11);
  fs.TearUnsynced(rng);
  store::RecoveredState torn = store::LpmStore::Recover(disk);
  size_t survived = torn.events.size();
  ASSERT_LT(survived, 8u);  // seed 11 cuts mid-batch
  {
    store::LpmStore s(disk, cfg);
    store::RecoveredState rec = store::LpmStore::Recover(disk);
    s.Open(rec, 0);
    s.RecordEvent(Ev(99, 990));
    s.Sync();
  }
  store::RecoveredState st = store::LpmStore::Recover(disk);
  EXPECT_EQ(st.torn_bytes, 0u);
  ASSERT_EQ(st.events.size(), survived + 1);
  EXPECT_EQ(st.events.back(), Ev(99, 990));
}

// --- the on-disk format, byte for byte ---------------------------------------
//
// One journal record of every RecordType and the checkpoint of the state
// they build, as hex.  The bytes were captured from the hand-written
// store encoder; any change to the journal or checkpoint layout shows up
// here as a diff instead of riding along silently.

constexpr const char* kGoldenJournal =
    "0d000000d2d13e5701000000000000000101000000270000004e8b595b020000"
    "000000000002d2040000000000000304000000020000000af7ffffff04000000"
    "6e6f7465400000000dac76f90300000000000000030700000000000000020400"
    "0000020904000000626574614d0000000500000067616d6d6107000000726573"
    "7061776e040000006661726d11000000cb9cee34040000000000000004080000"
    "00000000006600000045d6f06405000000000000000505000000616c70686104"
    "00000006000000776f726b65720300000001090500000000000000f401000000"
    "00000009030000000000000b0000000000000016000000000000000300000000"
    "000000800200000000000002000000000000002000000048483e010600000000"
    "0000000605000000040000006265746109000000030000007372760d00000016"
    "c34ce5070000000000000007060000001a000000828906700800000000000000"
    "08050000000500000067616d6d6102000000120000005277583f090000000000"
    "00000905000000616c7068611d0000005be80a9e0a000000000000000a040000"
    "006661726d040000006265746129000000210000002ab84f790b000000000000"
    "000b040000006661726d040000006265746129000000070000001e000000b8f9"
    "f3ab0c000000000000000c0c000000040000006661726d05000000616c706861"
    "0d000000903aa2420d000000000000000d0d000000300000007aff60850e0000"
    "00000000000e090000006661726d2e6d6f646505000000647261696e04000000"
    "0000000005000000616c7068611a000000557222a00f000000000000000f0500"
    "000070686173650300000000000000";
constexpr const char* kGoldenCheckpoint =
    "50434b320f000000000000000100000005000000616c70686101000000d20400"
    "00000000000304000000020000000af7ffffff040000006e6f74650100000007"
    "000000000000000204000000020904000000626574614d000000050000006761"
    "6d6d61070000007265737061776e040000006661726d0100000005000000616c"
    "7068610400000006000000776f726b65720300000001090500000000000000f4"
    "0100000000000009030000000000000b00000000000000160000000000000003"
    "0000000000000080020000000000000200000000000000010000000500000004"
    "0000006265746109000000030000007372760100000005000000050000006761"
    "6d6d610200000001000000040000006661726d01000000040000006265746129"
    "0000000107000000010000000c000000040000006661726d05000000616c7068"
    "6101000000090000006661726d2e6d6f646505000000647261696e0400000000"
    "00000005000000616c7068610100000005000000706861736503000000000000"
    "00";

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

core::HistEvent GoldenEvent() {
  core::HistEvent ev;
  ev.at = 1234;
  ev.kind = host::KEvent::kSignal;
  ev.pid = 4;
  ev.other = 2;
  ev.sig = host::Signal::kSigUsr1;
  ev.status = -9;
  ev.detail = "note";
  return ev;
}

core::TriggerSpec GoldenTrigger() {
  core::TriggerSpec spec;
  spec.event_kind = host::KEvent::kExit;
  spec.subject_pid = 4;
  spec.action = core::TriggerAction::kSpawn;
  spec.action_signal = host::Signal::kSigKill;
  spec.action_target = {"beta", 77};
  spec.migrate_dest = "gamma";
  spec.spawn_command = "respawn";
  spec.group = "farm";
  return spec;
}

core::RusageRecord GoldenRusage() {
  core::RusageRecord rec;
  rec.gpid = {"alpha", 4};
  rec.command = "worker";
  rec.exit_status = 3;
  rec.killed_by_signal = true;
  rec.death_signal = host::Signal::kSigKill;
  rec.start_time = 5;
  rec.end_time = 500;
  rec.rusage = host::Rusage{777, 11, 22, 3, 640, 2};
  return rec;
}

// Boot (from Open) plus one record of each of the fourteen other types.
void WriteOneOfEachRecord(store::LpmStore& s) {
  s.RecordEvent(GoldenEvent());
  s.RecordTriggerInstall(7, GoldenTrigger());
  s.RecordTriggerRemove(8);
  s.RecordRusage(GoldenRusage());
  s.RecordProcNew(5, {"beta", 9}, "srv");
  s.RecordProcExit(6);
  s.RecordRemoteChild(5, {"gamma", 2});
  s.RecordCcs("alpha");
  s.RecordGroupMember("farm", {"beta", 41});
  s.RecordGroupExit("farm", {"beta", 41}, 7);
  s.RecordGroupLocalMember(12, "farm", "alpha");
  s.RecordGroupLocalRemove(13);
  s.RecordEnvar("farm.mode", "drain", 4, "alpha");
  s.RecordBarrierEpoch("phase", 3);
}

// The state WriteOneOfEachRecord leaves behind.  The three removals name
// ids nothing installed, so every record's fields stay visible.
void ExpectGoldenState(const store::RecoveredState& st) {
  EXPECT_TRUE(st.found);
  EXPECT_EQ(st.last_seq, 15u);
  EXPECT_EQ(st.generation, 1u);
  EXPECT_EQ(st.events, std::vector<core::HistEvent>{GoldenEvent()});
  ASSERT_EQ(st.triggers.size(), 1u);
  EXPECT_EQ(st.triggers.at(7), GoldenTrigger());
  EXPECT_EQ(st.rusage, std::vector<core::RusageRecord>{GoldenRusage()});
  ASSERT_EQ(st.procs.size(), 1u);
  EXPECT_EQ(st.procs.at(5).logical_parent, (core::GPid{"beta", 9}));
  EXPECT_EQ(st.procs.at(5).command, "srv");
  ASSERT_EQ(st.remote_children.size(), 1u);
  EXPECT_EQ(st.remote_children[0].first, 5);
  EXPECT_EQ(st.remote_children[0].second, (core::GPid{"gamma", 2}));
  EXPECT_EQ(st.ccs_host, "alpha");
  ASSERT_EQ(st.groups.size(), 1u);
  ASSERT_EQ(st.groups.at("farm").size(), 1u);
  EXPECT_EQ(st.groups.at("farm")[0].gpid, (core::GPid{"beta", 41}));
  EXPECT_TRUE(st.groups.at("farm")[0].exited);
  EXPECT_EQ(st.groups.at("farm")[0].exit_status, 7);
  ASSERT_EQ(st.group_local.size(), 1u);
  EXPECT_EQ(st.group_local.at(12).group, "farm");
  EXPECT_EQ(st.group_local.at(12).coordinator, "alpha");
  ASSERT_EQ(st.envars.size(), 1u);
  EXPECT_EQ(st.envars.at("farm.mode").value, "drain");
  EXPECT_EQ(st.envars.at("farm.mode").version, 4u);
  EXPECT_EQ(st.envars.at("farm.mode").origin, "alpha");
  ASSERT_EQ(st.barrier_epochs.size(), 1u);
  EXPECT_EQ(st.barrier_epochs.at("phase"), 3u);
}

TEST(LpmStoreFormat, EncoderReproducesGoldenBytes) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  store::StoreConfig cfg;
  cfg.group_commit = 1;
  cfg.checkpoint_every = 0;  // keep every record in the journal
  store::LpmStore s(disk, cfg);
  s.Open(store::RecoveredState{}, /*generation=*/1);
  WriteOneOfEachRecord(s);
  EXPECT_EQ(Hex(*disk.Read(store::LpmStore::kJournalFile)), kGoldenJournal);
  s.Checkpoint();
  EXPECT_EQ(Hex(*disk.Read(store::LpmStore::kCheckpointFile)), kGoldenCheckpoint);
}

TEST(LpmStoreFormat, GoldenJournalReplays) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  disk.Write(store::LpmStore::kJournalFile, Unhex(kGoldenJournal));
  store::RecoveredState st = store::LpmStore::Recover(disk);
  EXPECT_EQ(st.replayed_records, 15u);
  EXPECT_EQ(st.torn_bytes, 0u);
  ExpectGoldenState(st);
}

TEST(LpmStoreFormat, GoldenCheckpointRecovers) {
  host::Filesystem fs;
  host::Disk disk(fs, 100);
  disk.Write(store::LpmStore::kCheckpointFile, Unhex(kGoldenCheckpoint));
  store::RecoveredState st = store::LpmStore::Recover(disk);
  EXPECT_EQ(st.replayed_records, 0u);
  ExpectGoldenState(st);
}

// --- warm restart end to end -------------------------------------------------

core::ClusterConfig DurableConfig() {
  core::ClusterConfig config;
  config.lpm.durable_store = true;
  // Sync every record: the assertions below are about *restart*, not
  // about which suffix a crash loses.
  config.lpm.store_group_commit = 1;
  return config;
}

core::Lpm* KillLpm(core::Cluster& cluster, const std::string& host) {
  core::Lpm* lpm = cluster.FindLpm(host, kTestUid);
  EXPECT_NE(lpm, nullptr);
  if (!lpm) return nullptr;
  cluster.host(host).kernel().PostSignal(lpm->pid(), host::Signal::kSigKill,
                                         host::kRootUid);
  cluster.RunFor(sim::Millis(100));
  return lpm;
}

TEST(WarmRestart, LpmKillPreservesHistoryTriggersRusageAndProcs) {
  core::Cluster cluster(DurableConfig());
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  tools::PpmClient* client = test::ConnectTool(cluster, "alpha");
  ASSERT_NE(client, nullptr);

  // Workload: a survivor process, an exited process, and a trigger.
  std::optional<core::CreateResp> survivor;
  client->CreateProcess("alpha", "survivor", {},
                        [&](const core::CreateResp& r) { survivor = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return survivor.has_value(); }));
  ASSERT_TRUE(survivor->ok);
  std::optional<core::CreateResp> doomed;
  client->CreateProcess("alpha", "doomed", {},
                        [&](const core::CreateResp& r) { doomed = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return doomed.has_value(); }));
  std::optional<core::SignalResp> sig;
  client->Signal(doomed->gpid, host::Signal::kSigKill,
                 [&](const core::SignalResp& r) { sig = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return sig.has_value(); }));
  core::TriggerSpec spec;
  spec.event_kind = host::KEvent::kExit;
  spec.subject_pid = survivor->gpid.pid;
  std::optional<core::TriggerResp> trig;
  client->InstallTrigger("alpha", spec,
                         [&](const core::TriggerResp& r) { trig = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return trig.has_value(); }));
  ASSERT_TRUE(trig->ok);
  cluster.RunFor(sim::Millis(200));

  core::Lpm* old_lpm = cluster.FindLpm("alpha", kTestUid);
  ASSERT_NE(old_lpm, nullptr);
  std::vector<core::HistEvent> old_events = old_lpm->event_log().Query();
  std::vector<core::RusageRecord> old_rusage = old_lpm->exited_stats();
  ASSERT_FALSE(old_events.empty());
  ASSERT_EQ(old_rusage.size(), 1u);
  host::Pid old_pid = old_lpm->pid();
  KillLpm(cluster, "alpha");

  // A fresh tool contact mints the successor, which warm-restarts.
  tools::PpmClient* again = test::ConnectTool(cluster, "alpha", "tool2");
  ASSERT_NE(again, nullptr);
  core::Lpm* new_lpm = cluster.FindLpm("alpha", kTestUid);
  ASSERT_NE(new_lpm, nullptr);
  ASSERT_NE(new_lpm->pid(), old_pid);

  // History, trigger and rusage survived the manager's death.
  std::vector<core::HistEvent> new_events = new_lpm->event_log().Query();
  ASSERT_GE(new_events.size(), old_events.size());
  EXPECT_TRUE(std::equal(old_events.begin(), old_events.end(), new_events.begin()))
      << "recovered history must start with the predecessor's events";
  EXPECT_EQ(new_lpm->exited_stats(), old_rusage);
  ASSERT_EQ(new_lpm->triggers().entries().size(), 1u);
  EXPECT_EQ(new_lpm->triggers().entries().begin()->second, spec);

  // The survivor was re-adopted: same generation, pid still alive.
  const host::Process* p =
      cluster.host("alpha").kernel().Find(survivor->gpid.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->alive());
  EXPECT_EQ(p->adopter, new_lpm->pid());

  // And the re-armed trigger still fires: kill the survivor, the stored
  // trigger (kSignal on exit) consumes itself.
  std::optional<core::SignalResp> sig2;
  again->Signal(survivor->gpid, host::Signal::kSigKill,
                [&](const core::SignalResp& r) { sig2 = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return sig2.has_value(); }));
  ASSERT_TRUE(test::RunUntil(cluster, [&] {
    return new_lpm->triggers().entries().empty();
  }));
}

TEST(WarmRestart, HostCrashRecoversHistoryButNotGenealogy) {
  core::Cluster cluster(DurableConfig());
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  tools::PpmClient* client = test::ConnectTool(cluster, "alpha");
  ASSERT_NE(client, nullptr);
  std::optional<core::CreateResp> created;
  client->CreateProcess("alpha", "worker", {},
                        [&](const core::CreateResp& r) { created = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return created.has_value(); }));
  cluster.RunFor(sim::Millis(200));
  core::Lpm* old_lpm = cluster.FindLpm("alpha", kTestUid);
  ASSERT_NE(old_lpm, nullptr);
  std::vector<core::HistEvent> old_events = old_lpm->event_log().Query();
  ASSERT_FALSE(old_events.empty());

  cluster.Crash("alpha");
  cluster.RunFor(sim::Seconds(1));
  cluster.Reboot("alpha");
  cluster.RunFor(sim::Millis(100));

  tools::PpmClient* again = test::ConnectTool(cluster, "alpha", "tool2");
  ASSERT_NE(again, nullptr);
  core::Lpm* new_lpm = cluster.FindLpm("alpha", kTestUid);
  ASSERT_NE(new_lpm, nullptr);
  // Every record was synced (group_commit=1), so the full history
  // survived the crash; the pre-crash events lead the recovered log.
  std::vector<core::HistEvent> new_events = new_lpm->event_log().Query();
  ASSERT_GE(new_events.size(), old_events.size());
  EXPECT_TRUE(std::equal(old_events.begin(), old_events.end(), new_events.begin()));
  // But the pre-crash pid is NOT re-adopted: its process died with the
  // host, and the generation gate must refuse the stale hint.
  const host::Process* p =
      cluster.host("alpha").kernel().Find(created->gpid.pid);
  EXPECT_TRUE(p == nullptr || !p->alive() ||
              p->adopter != new_lpm->pid());
}

TEST(WarmRestart, StoreDurabilityInvariantDetectsTampering) {
  // The chaos invariant must be non-vacuous: a clean cluster passes, a
  // cluster whose journal is corrupted behind the LPM's back fails.
  core::Cluster cluster(DurableConfig());
  cluster.AddHost("alpha");
  test::InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  tools::PpmClient* client = test::ConnectTool(cluster, "alpha");
  ASSERT_NE(client, nullptr);
  std::optional<core::CreateResp> created;
  client->CreateProcess("alpha", "worker", {},
                        [&](const core::CreateResp& r) { created = r; });
  ASSERT_TRUE(test::RunUntil(cluster, [&] { return created.has_value(); }));
  cluster.RunFor(sim::Millis(200));

  std::vector<chaos::InvariantViolation> clean;
  chaos::CheckStoreDurability(cluster, kTestUid, &clean);
  EXPECT_TRUE(clean.empty()) << clean.front().name << ": " << clean.front().detail;

  // Vandalize the journal: replay now diverges from the live manager.
  cluster.host("alpha").fs().Write(kTestUid, store::LpmStore::kJournalFile,
                                   "not a journal");
  cluster.host("alpha").fs().Write(kTestUid, store::LpmStore::kCheckpointFile,
                                   "not a checkpoint");
  std::vector<chaos::InvariantViolation> dirty;
  chaos::CheckStoreDurability(cluster, kTestUid, &dirty);
  EXPECT_FALSE(dirty.empty());
}

}  // namespace
}  // namespace ppm

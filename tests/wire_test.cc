// wire_test.cc — the PPM wire protocol: round trips for every message
// type, the 112-byte kernel event format, and robustness against
// truncation and garbage (an LPM must survive sibling garbage).
#include <gtest/gtest.h>

#include "core/wire.h"
#include "host/filesystem.h"
#include "store/lpm_store.h"

namespace ppm::core {
namespace {

ProcRecord MakeProcRecord() {
  ProcRecord rec;
  rec.gpid = {"vaxA", 42};
  rec.logical_parent = {"vaxB", 7};
  rec.uid = 100;
  rec.command = "cruncher";
  rec.state = host::ProcState::kStopped;
  rec.exited = false;
  rec.start_time = 1000;
  rec.end_time = 0;
  rec.cpu_time = 12345;
  return rec;
}

RusageRecord MakeRusageRecord() {
  RusageRecord rec;
  rec.gpid = {"sun1", 9};
  rec.command = "worker";
  rec.exit_status = 3;
  rec.killed_by_signal = true;
  rec.death_signal = host::Signal::kSigKill;
  rec.start_time = 5;
  rec.end_time = 500;
  rec.rusage.cpu_time = 777;
  rec.rusage.messages_sent = 11;
  rec.rusage.messages_received = 22;
  rec.rusage.files_opened = 3;
  rec.rusage.max_rss_kb = 640;
  rec.rusage.forks = 2;
  return rec;
}

LpmStatRecord MakeLpmStatRecord() {
  LpmStatRecord rec;
  rec.host = "vaxA";
  rec.lpm_pid = 31;
  rec.mode = 1;
  rec.is_ccs = true;
  rec.ccs_host = "vaxA";
  rec.recovery_rank = 0;
  rec.siblings = {"vaxB", "vaxC"};
  rec.handlers = 4;
  rec.handlers_busy = 2;
  rec.queue_depth = 1;
  rec.queue_watermark = 7;
  rec.tool_circuits = 1;
  rec.requests = 100;
  rec.forwards = 10;
  rec.kernel_events = 5000;
  rec.handlers_created = 4;
  rec.handler_reuses = 96;
  rec.snapshots_served = 12;
  rec.bcasts_originated = 3;
  rec.bcast_duplicates = 2;
  rec.triggers_fired = 1;
  rec.failures_detected = 1;
  rec.recoveries_started = 1;
  rec.request_timeouts = 2;
  rec.eventlog_size = 256;
  rec.eventlog_recorded = 4000;
  rec.eventlog_filtered = 1000;
  rec.eventlog_dropped = 3744;
  rec.dropped_by_pid = {{42, 3000}, {43, 744}};
  rec.store_enabled = true;
  rec.journal_seq = 88;
  rec.journal_bytes = 4096;
  rec.journal_pending = 3;
  rec.pmd_registry = 2;
  rec.pmd_requests = 9;
  rec.flight_records = 777;
  rec.flight_dumps = 1;
  rec.health = 1;
  rec.health_reasons = {"dispatcher backlog (9 queued)"};
  rec.procs = {MakeProcRecord()};
  return rec;
}

// One representative of every message type.
std::vector<Msg> AllMessages() {
  std::vector<Msg> msgs;
  msgs.push_back(HelloSibling{"leslie", "vaxA", 17, 0xdeadbeefcafeULL, "vaxB"});
  msgs.push_back(HelloTool{"leslie", 100, "snapshot"});
  msgs.push_back(HelloAck{"vaxB", 21, "vaxA"});
  msgs.push_back(HelloReject{"authentication failed"});
  msgs.push_back(CreateReq{5, "vaxC", "worker", {"vaxA", 3}, false, host::kTraceExit});
  msgs.push_back(CreateResp{5, true, "", {"vaxC", 88}});
  msgs.push_back(SignalReq{6, {"vaxB", 12}, host::Signal::kSigStop});
  msgs.push_back(SignalResp{6, false, "no such process"});
  SnapshotReq sreq;
  sreq.req_id = 7;
  sreq.origin_host = "vaxA";
  sreq.bcast_seq = 3;
  sreq.signed_ts = 999;
  sreq.route = {"vaxA", "vaxB"};
  msgs.push_back(sreq);
  SnapshotResp sresp;
  sresp.req_id = 7;
  sresp.origin_host = "vaxA";
  sresp.bcast_seq = 3;
  sresp.replier_host = "vaxC";
  sresp.forwarded_to = {"vaxD"};
  sresp.route = {"vaxA", "vaxB", "vaxC"};
  sresp.route_index = 1;
  sresp.records = {MakeProcRecord(), MakeProcRecord()};
  msgs.push_back(sresp);
  msgs.push_back(RusageReq{8, "vaxB"});
  RusageResp rresp;
  rresp.req_id = 8;
  rresp.ok = true;
  rresp.records = {MakeRusageRecord()};
  msgs.push_back(rresp);
  msgs.push_back(AdoptReq{9, {"vaxA", 5}, host::kTraceAll});
  AdoptResp aresp;
  aresp.req_id = 9;
  aresp.ok = true;
  aresp.adopted_pids = {5, 6, 7};
  msgs.push_back(aresp);
  msgs.push_back(TraceReq{10, {"vaxA", 5}, host::kTraceIpc});
  msgs.push_back(TraceResp{10, true, ""});
  msgs.push_back(HistoryReq{11, "vaxB", -1, 100});
  HistoryResp hresp;
  hresp.req_id = 11;
  hresp.ok = true;
  HistEvent ev;
  ev.at = 123;
  ev.kind = host::KEvent::kSignal;
  ev.pid = 4;
  ev.other = 2;
  ev.sig = host::Signal::kSigTerm;
  ev.status = -1;
  ev.detail = "d";
  hresp.events = {ev};
  msgs.push_back(hresp);
  TriggerReq treq;
  treq.req_id = 12;
  treq.target_host = "vaxB";
  treq.spec.event_kind = host::KEvent::kExit;
  treq.spec.subject_pid = 31;
  treq.spec.action_signal = host::Signal::kSigKill;
  treq.spec.action_target = {"vaxC", 77};
  msgs.push_back(treq);
  msgs.push_back(TriggerResp{12, true, "", 4});
  msgs.push_back(BecomeCcs{"vaxB"});
  msgs.push_back(CcsChanged{"vaxC"});
  msgs.push_back(Probe{13});
  msgs.push_back(ProbeAck{13, "vaxA", true});
  msgs.push_back(FilesReq{14, {"vaxB", 8}});
  FilesResp fresp;
  fresp.req_id = 14;
  fresp.ok = true;
  fresp.files = {{3, "/etc/motd", "r"}, {4, "/tmp/x", "rw"}};
  msgs.push_back(fresp);
  msgs.push_back(MigrateReq{15, {"vaxA", 6}, "vaxC"});
  msgs.push_back(MigrateResp{15, true, "", {"vaxC", 31}});
  TriggerReq mig_trig;
  mig_trig.req_id = 16;
  mig_trig.target_host = "vaxA";
  mig_trig.spec.event_kind = host::KEvent::kExit;
  mig_trig.spec.subject_pid = 3;
  mig_trig.spec.action = TriggerAction::kMigrate;
  mig_trig.spec.action_target = {"vaxA", 9};
  mig_trig.spec.migrate_dest = "vaxB";
  msgs.push_back(mig_trig);
  msgs.push_back(RegisterChild{17, {"vaxC", 4}});
  StatReq stat_req;
  stat_req.req_id = 18;
  stat_req.origin_host = "vaxA";
  stat_req.bcast_seq = 5;
  stat_req.signed_ts = 777;
  stat_req.route = {"vaxA", "vaxB"};
  stat_req.dump_flight = true;
  msgs.push_back(stat_req);
  StatResp stat_resp;
  stat_resp.req_id = 18;
  stat_resp.origin_host = "vaxA";
  stat_resp.bcast_seq = 5;
  stat_resp.replier_host = "vaxB";
  stat_resp.forwarded_to = {"vaxC"};
  stat_resp.route = {"vaxA", "vaxB"};
  stat_resp.route_index = 1;
  stat_resp.records = {MakeLpmStatRecord()};
  msgs.push_back(stat_resp);
  BusyResp busy;
  busy.req_id = 19;
  busy.error = "handler queue full";
  busy.retry_after_us = 250000;
  msgs.push_back(busy);
  msgs.push_back(GroupSpawnReq{20, "farm", {"vaxA", "vaxB"}, {"worker 1", "worker 2"}});
  GroupSpawnResp gsresp;
  gsresp.req_id = 20;
  gsresp.ok = true;
  gsresp.members = {{"vaxA", 41}, {"vaxB", 42}};
  gsresp.host_errors = {"vaxC: no handler"};
  msgs.push_back(gsresp);
  msgs.push_back(GroupPartReq{21, "farm", "vaxA", "worker 3"});
  msgs.push_back(GroupPartResp{21, true, "", {"vaxB", 43}});
  msgs.push_back(GroupUndoReq{22, "farm", {"vaxB", 43}});
  msgs.push_back(GroupAck{23, false, "not the central coordinator (ccs=vaxB)", "vaxB"});
  msgs.push_back(GroupExitNotify{24, "farm", {"vaxA", 41}, 7});
  msgs.push_back(GroupAddNotify{25, "farm", {"vaxA", 44}});
  msgs.push_back(GroupSignalReq{26, "farm", host::Signal::kSigUsr1});
  msgs.push_back(GroupSignalResp{26, true, "", 3, 1});
  msgs.push_back(GroupJoinReq{27, "farm"});
  GroupJoinResp gjresp;
  gjresp.req_id = 27;
  gjresp.ok = true;
  gjresp.group = "farm";
  gjresp.exits = {{{"vaxA", 41}, 0}, {{"vaxB", 42}, 9}};
  msgs.push_back(gjresp);
  msgs.push_back(BarrierEnterReq{28, "phase", 3, 5});
  BarrierEnterResp beresp;
  beresp.req_id = 28;
  beresp.ok = true;
  beresp.released = false;
  beresp.epoch = 3;
  beresp.stragglers = {"vaxC", "vaxD"};
  msgs.push_back(beresp);
  msgs.push_back(BarrierJoinReq{29, "phase", 3, 5, "vaxB", 2});
  BarrierReleaseReq brel;
  brel.req_id = 30;
  brel.name = "phase";
  brel.epoch = 3;
  brel.released = true;
  msgs.push_back(brel);
  msgs.push_back(EnvarSetReq{31, "farm.mode", "drain"});
  msgs.push_back(EnvarSetResp{31, true, "", 4});
  msgs.push_back(EnvarGetReq{32, "farm.mode"});
  msgs.push_back(EnvarGetResp{32, true, "", "farm.mode", "drain", 4});
  EnvarUpdate eup;
  eup.req_id = 33;
  eup.origin_host = "vaxA";
  eup.bcast_seq = 6;
  eup.signed_ts = 888;
  eup.route = {"vaxA", "vaxB"};
  eup.key = "farm.mode";
  eup.value = "drain";
  eup.version = 4;
  eup.version_origin = "vaxA";
  msgs.push_back(eup);
  EnvarSync esync;
  esync.req_id = 34;
  esync.entries = {{"farm.mode", "drain", 4, "vaxA"}, {"farm.size", "16", 1, "vaxB"}};
  msgs.push_back(esync);
  EnvarWatchReq ewreq;
  ewreq.req_id = 35;
  ewreq.key = "farm.mode";
  ewreq.spec.event_kind = host::KEvent::kExit;
  ewreq.spec.action = TriggerAction::kSpawn;
  ewreq.spec.spawn_command = "reconfig";
  ewreq.spec.group = "farm";
  msgs.push_back(ewreq);
  msgs.push_back(EnvarWatchResp{35, true, "", 2});
  StatSubscribe ssub;
  ssub.req_id = 36;
  ssub.origin_host = "vaxA";
  ssub.watch_id = 7;
  ssub.bcast_seq = 8;
  ssub.signed_ts = 991;
  ssub.route = {"vaxA", "vaxB"};
  ssub.interval_us = 100'000;
  msgs.push_back(ssub);
  StatDeltaRecord drec;
  drec.host = "vaxB";
  drec.user = "leslie";
  drec.uid = 100;
  drec.seq = 4;
  drec.t_us = 1'234'567;
  drec.dt_us = 100'000;
  drec.d_kernel_events = 55;
  drec.d_requests = 12;
  drec.d_requests_shed = 1;
  drec.d_retries = 2;
  drec.d_journal_bytes = 4096;
  drec.d_eventlog_recorded = 60;
  drec.d_acct_cpu_us = 70'000;
  drec.queue_depth = 3;
  drec.procs_live = 9;
  drec.health = 1;
  StatDelta sdelta;
  sdelta.req_id = 36;
  sdelta.origin_host = "vaxA";
  sdelta.watch_id = 7;
  sdelta.records = {drec, drec};
  msgs.push_back(sdelta);
  StatUnsubscribe sunsub;
  sunsub.req_id = 37;
  sunsub.origin_host = "vaxA";
  sunsub.watch_id = 7;
  msgs.push_back(sunsub);
  return msgs;
}

class WireRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(WireRoundTrip, SerializeParseIdentity) {
  Msg original = AllMessages()[GetParam()];
  auto bytes = Serialize(original);
  auto parsed = Parse(bytes);
  ASSERT_TRUE(parsed.has_value()) << MsgTypeName(original);
  EXPECT_EQ(parsed->index(), original.index());
  // Re-serialization is byte-identical (canonical encoding).
  EXPECT_EQ(Serialize(*parsed), bytes) << MsgTypeName(original);
  // The classifier names the frame from its opcode alone, exactly as
  // MsgTypeName names the value — bare, and behind the trace and
  // deadline headers.
  EXPECT_STREQ(ClassifyWireFrame(bytes), MsgTypeName(original));
  const obs::TraceContext trace{0x1234, 0x5678, 0x9abc};
  const DeadlineStamp stamp{4'000'000, 0x77};
  EXPECT_STREQ(ClassifyWireFrame(Serialize(original, trace, stamp)), MsgTypeName(original));
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WireRoundTrip,
                         ::testing::Range<size_t>(0, AllMessages().size()));

class WireTruncation : public ::testing::TestWithParam<size_t> {};

TEST_P(WireTruncation, EveryPrefixRejectedOrWhole) {
  // Chopping any number of bytes off the end must yield a clean parse
  // failure, never a crash or a bogus success that reads out of bounds.
  Msg original = AllMessages()[GetParam()];
  auto bytes = Serialize(original);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    auto parsed = Parse(prefix);
    // Most prefixes fail; a few may parse if trailing fields are empty
    // collections — those must at least be the same type.
    if (parsed) {
      EXPECT_EQ(parsed->index(), original.index());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WireTruncation,
                         ::testing::Range<size_t>(0, AllMessages().size()));

TEST(Wire, GarbageRejected) {
  EXPECT_FALSE(Parse(std::vector<uint8_t>{}).has_value());
  EXPECT_FALSE(Parse(std::vector<uint8_t>{0xff}).has_value());
  EXPECT_FALSE(Parse(std::vector<uint8_t>{200, 1, 2, 3}).has_value());
}

TEST(Wire, FieldValuesSurvive) {
  CreateReq req;
  req.req_id = 0x1122334455667788ULL;
  req.target_host = "host-with-long-name.berkeley.edu";
  req.command = "a out with spaces";
  req.logical_parent = {"x", -1};
  req.initially_running = true;
  req.trace_mask = 0x5a;
  auto parsed = Parse(Serialize(Msg{req}));
  ASSERT_TRUE(parsed.has_value());
  const auto& got = std::get<CreateReq>(*parsed);
  EXPECT_EQ(got.req_id, req.req_id);
  EXPECT_EQ(got.target_host, req.target_host);
  EXPECT_EQ(got.command, req.command);
  EXPECT_EQ(got.logical_parent, req.logical_parent);
  EXPECT_EQ(got.initially_running, true);
  EXPECT_EQ(got.trace_mask, 0x5au);
}

TEST(Wire, SnapshotRecordsSurvive) {
  SnapshotResp resp;
  resp.req_id = 1;
  resp.origin_host = "o";
  resp.replier_host = "r";
  resp.records = {MakeProcRecord()};
  auto parsed = Parse(Serialize(Msg{resp}));
  ASSERT_TRUE(parsed.has_value());
  const auto& got = std::get<SnapshotResp>(*parsed);
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].gpid, (GPid{"vaxA", 42}));
  EXPECT_EQ(got.records[0].logical_parent, (GPid{"vaxB", 7}));
  EXPECT_EQ(got.records[0].state, host::ProcState::kStopped);
  EXPECT_EQ(got.records[0].cpu_time, 12345);
}

// --- the STAT escape opcode (0xF6) ---------------------------------------

TEST(Wire, StatRecordFieldsSurvive) {
  StatResp resp;
  resp.req_id = 99;
  resp.origin_host = "o";
  resp.replier_host = "r";
  resp.records = {MakeLpmStatRecord()};
  auto parsed = Parse(Serialize(Msg{resp}));
  ASSERT_TRUE(parsed.has_value());
  const auto& got = std::get<StatResp>(*parsed);
  ASSERT_EQ(got.records.size(), 1u);
  const LpmStatRecord& rec = got.records[0];
  const LpmStatRecord want = MakeLpmStatRecord();
  EXPECT_EQ(rec.host, want.host);
  EXPECT_EQ(rec.mode, want.mode);
  EXPECT_EQ(rec.is_ccs, want.is_ccs);
  EXPECT_EQ(rec.recovery_rank, want.recovery_rank);
  EXPECT_EQ(rec.siblings, want.siblings);
  EXPECT_EQ(rec.queue_watermark, want.queue_watermark);
  EXPECT_EQ(rec.kernel_events, want.kernel_events);
  EXPECT_EQ(rec.request_timeouts, want.request_timeouts);
  EXPECT_EQ(rec.eventlog_dropped, want.eventlog_dropped);
  EXPECT_EQ(rec.dropped_by_pid, want.dropped_by_pid);
  EXPECT_EQ(rec.store_enabled, want.store_enabled);
  EXPECT_EQ(rec.journal_pending, want.journal_pending);
  EXPECT_EQ(rec.flight_records, want.flight_records);
  EXPECT_EQ(rec.health, want.health);
  EXPECT_EQ(rec.health_reasons, want.health_reasons);
  ASSERT_EQ(rec.procs.size(), 1u);
  EXPECT_EQ(rec.procs[0].gpid, (GPid{"vaxA", 42}));
}

TEST(Wire, StatUsesEscapeOpcodeNotVariantIndex) {
  // The body (after the checksum header) must lead with 0xF6 + sub-byte,
  // so a pre-STAT decoder sees an unknown opcode instead of misparsing.
  StatReq req;
  req.req_id = 1;
  auto bytes = Serialize(Msg{req});
  ASSERT_GT(bytes.size(), kChecksumHeaderBytes + 1);
  EXPECT_EQ(bytes[kChecksumHeaderBytes], kStatMsgTag);
  EXPECT_EQ(bytes[kChecksumHeaderBytes + 1], kStatReqSub);
}

TEST(Wire, StatUnknownSubByteRejected) {
  StatReq req;
  req.req_id = 1;
  auto bytes = Serialize(Msg{req});
  // Flip the sub-byte to something undefined; the checksum must be
  // recomputed or the frame dies earlier for the wrong reason.
  std::vector<uint8_t> body(bytes.begin() + kChecksumHeaderBytes, bytes.end());
  body[1] = 0x7e;
  auto reframed = Parse(body);  // unchecksummed frames are still parsed
  EXPECT_FALSE(reframed.has_value());
}

// TriggerAction has three values (kSignal, kMigrate, kSpawn).  A fourth
// must be refused wherever a TriggerSpec is decoded: in a TriggerReq or
// EnvarWatchReq frame, and in a trigger-install journal record on
// replay.  kSpawn, the largest legal value, is the control.
TEST(Wire, TriggerActionOutOfRangeRejected) {
  for (uint8_t action : {uint8_t{2}, uint8_t{3}}) {
    const bool legal = action <= static_cast<uint8_t>(TriggerAction::kSpawn);
    TriggerSpec spec;
    spec.action = static_cast<TriggerAction>(action);
    spec.spawn_command = "respawn";
    TriggerReq treq;
    treq.req_id = 1;
    treq.target_host = "vaxA";
    treq.spec = spec;
    EXPECT_EQ(Parse(Serialize(Msg{treq})).has_value(), legal) << int{action};
    EnvarWatchReq wreq;
    wreq.req_id = 2;
    wreq.key = "farm.mode";
    wreq.spec = spec;
    EXPECT_EQ(Parse(Serialize(Msg{wreq})).has_value(), legal) << int{action};

    host::Filesystem fs;
    host::Disk disk(fs, 100);
    store::StoreConfig cfg;
    cfg.group_commit = 1;
    store::LpmStore s(disk, cfg);
    s.Open(store::RecoveredState{}, 0);
    s.RecordTriggerInstall(7, spec);
    store::RecoveredState st = store::LpmStore::Recover(disk);
    // The boot record always replays; the install only when legal.
    EXPECT_EQ(st.replayed_records, legal ? 2u : 1u) << int{action};
    EXPECT_EQ(st.triggers.count(7), legal ? 1u : 0u) << int{action};
  }
}

TEST(Wire, MsgTypeNamesDistinct) {
  std::set<std::string> names;
  std::set<size_t> indices;
  for (const Msg& m : AllMessages()) {
    names.insert(MsgTypeName(m));
    indices.insert(m.index());
  }
  // One distinct human-readable name per distinct wire tag.
  EXPECT_EQ(names.size(), indices.size());
  EXPECT_EQ(indices.size(), std::variant_size_v<Msg>);
}

// --- the 112-byte kernel event format (Table 1's message) ---------------------

TEST(KernelEventWire, ExactlyTable1Size) {
  host::KernelEvent ev;
  ev.kind = host::KEvent::kExit;
  ev.pid = 12;
  ev.status = 3;
  ev.at = 999;
  auto bytes = SerializeKernelEvent(ev);
  EXPECT_EQ(bytes.size(), kKernelEventWireBytes);
  EXPECT_EQ(bytes.size(), 112u);
}

TEST(KernelEventWire, RoundTrip) {
  host::KernelEvent ev;
  ev.kind = host::KEvent::kSignal;
  ev.pid = 7;
  ev.other = 3;
  ev.sig = host::Signal::kSigUsr1;
  ev.status = -9;
  ev.at = 123456789;
  ev.detail = "note";
  auto parsed = ParseKernelEvent(SerializeKernelEvent(ev));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ev.kind);
  EXPECT_EQ(parsed->pid, ev.pid);
  EXPECT_EQ(parsed->other, ev.other);
  EXPECT_EQ(parsed->sig, ev.sig);
  EXPECT_EQ(parsed->status, ev.status);
  EXPECT_EQ(parsed->at, ev.at);
  EXPECT_EQ(parsed->detail, ev.detail);
}

TEST(KernelEventWire, LongDetailTruncatedToFit) {
  host::KernelEvent ev;
  ev.kind = host::KEvent::kFileOpen;
  ev.pid = 1;
  ev.detail = std::string(500, 'p');
  auto bytes = SerializeKernelEvent(ev);
  EXPECT_EQ(bytes.size(), 112u);
  auto parsed = ParseKernelEvent(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_LT(parsed->detail.size(), 112u);
  EXPECT_EQ(parsed->detail, std::string(parsed->detail.size(), 'p'));
}

TEST(KernelEventWire, WrongSizeRejected) {
  host::KernelEvent ev;
  ev.kind = host::KEvent::kFork;
  auto bytes = SerializeKernelEvent(ev);
  bytes.pop_back();
  EXPECT_FALSE(ParseKernelEvent(bytes).has_value());
  bytes.push_back(0);
  bytes.push_back(0);
  EXPECT_FALSE(ParseKernelEvent(bytes).has_value());
}

TEST(KernelEventWire, BadKindRejected) {
  host::KernelEvent ev;
  ev.kind = host::KEvent::kFork;
  auto bytes = SerializeKernelEvent(ev);
  bytes[0] = 200;  // not a KEvent
  EXPECT_FALSE(ParseKernelEvent(bytes).has_value());
}

}  // namespace
}  // namespace ppm::core

// tools_test.cc — forest assembly/rendering and the built-in tools
// (snapshot with control, rusage statistics, files, IPC trace).
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/lpm.h"
#include "obs/json.h"
#include "tests/test_util.h"
#include "tools/builtin_tools.h"
#include "tools/client.h"
#include "tools/display.h"
#include "tools/ppmstat.h"

namespace ppm::tools {
namespace {

using core::GPid;
using core::ProcRecord;
using test::ConnectTool;
using test::InstallTestUser;
using test::kTestUid;
using test::RunUntil;

ProcRecord Rec(const std::string& host, host::Pid pid, const std::string& parent_host,
               host::Pid parent_pid, const std::string& cmd,
               host::ProcState state = host::ProcState::kRunning, bool exited = false) {
  ProcRecord r;
  r.gpid = {host, pid};
  if (parent_pid != host::kNoPid) r.logical_parent = {parent_host, parent_pid};
  r.command = cmd;
  r.state = state;
  r.exited = exited;
  return r;
}

TEST(Forest, SingleTree) {
  auto forest = BuildForest({
      Rec("a", 1, "", host::kNoPid, "root"),
      Rec("a", 2, "a", 1, "kid"),
      Rec("b", 3, "a", 1, "kid2"),
      Rec("b", 4, "b", 3, "grand"),
  });
  EXPECT_TRUE(forest.IsTree());
  EXPECT_EQ(forest.size(), 4u);
  EXPECT_EQ(forest.HostCount(), 2u);
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_EQ(forest.nodes[forest.roots[0]].record.command, "root");
}

TEST(Forest, OrphanBecomesRoot) {
  auto forest = BuildForest({
      Rec("a", 1, "", host::kNoPid, "root"),
      Rec("b", 9, "gone", 42, "orphan"),  // parent host crashed
  });
  EXPECT_FALSE(forest.IsTree());
  EXPECT_EQ(forest.roots.size(), 2u);
}

TEST(Forest, DuplicateRecordsSuppressed) {
  auto forest = BuildForest({
      Rec("a", 1, "", host::kNoPid, "root"),
      Rec("a", 1, "", host::kNoPid, "root"),
  });
  EXPECT_EQ(forest.size(), 1u);
}

TEST(Forest, DeterministicOrder) {
  std::vector<ProcRecord> records = {
      Rec("b", 2, "", host::kNoPid, "r2"),
      Rec("a", 1, "", host::kNoPid, "r1"),
  };
  auto f1 = BuildForest(records);
  std::swap(records[0], records[1]);
  auto f2 = BuildForest(records);
  EXPECT_EQ(RenderForest(f1), RenderForest(f2));
}

TEST(Forest, RenderShowsStatesAndExitMarks) {
  auto forest = BuildForest({
      Rec("a", 1, "", host::kNoPid, "root"),
      Rec("a", 2, "a", 1, "paused", host::ProcState::kStopped),
      Rec("b", 3, "a", 1, "gone", host::ProcState::kDead, true),
  });
  std::string out = RenderForest(forest);
  EXPECT_NE(out.find("<a,1> root [running]"), std::string::npos);
  EXPECT_NE(out.find("<a,2> paused [stopped]"), std::string::npos);
  EXPECT_NE(out.find("<b,3> gone (exited)"), std::string::npos);
  EXPECT_NE(out.find("|--"), std::string::npos);
  EXPECT_NE(out.find("`--"), std::string::npos);
}

TEST(Forest, SummaryCountsStates) {
  auto forest = BuildForest({
      Rec("a", 1, "", host::kNoPid, "r"),
      Rec("a", 2, "a", 1, "s", host::ProcState::kStopped),
      Rec("b", 3, "a", 1, "x", host::ProcState::kDead, true),
  });
  EXPECT_EQ(SummarizeForest(forest),
            "3 processes on 2 hosts: 1 running, 0 sleeping, 1 stopped, 1 exited");
}

TEST(Forest, EmptySnapshot) {
  auto forest = BuildForest({});
  EXPECT_EQ(forest.size(), 0u);
  EXPECT_EQ(RenderForest(forest), "");
}

// --- end-to-end tool runs -------------------------------------------------------

class ToolsTest : public ::testing::Test {
 protected:
  ToolsTest() {
    test::BuildThreeSegments(cluster_);
    InstallTestUser(cluster_);
    cluster_.RunFor(sim::Millis(10));
    client_ = ConnectTool(cluster_, "vaxA");
  }

  GPid Create(const std::string& host, const std::string& cmd, const GPid& parent = {}) {
    std::optional<core::CreateResp> result;
    client_->CreateProcess(host, cmd, parent,
                           [&](const core::CreateResp& r) { result = r; });
    EXPECT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
    return result->gpid;
  }

  core::Cluster cluster_;
  PpmClient* client_ = nullptr;
};

TEST_F(ToolsTest, SnapshotToolRendersDistributedTree) {
  ASSERT_NE(client_, nullptr);
  GPid root = Create("vaxA", "make");
  Create("vaxB", "cc1", root);
  Create("vaxC", "cc2", root);
  std::optional<SnapshotResult> result;
  RunSnapshotTool(*client_, [&](const SnapshotResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }, sim::Seconds(60)));
  ASSERT_TRUE(result->ok);
  EXPECT_TRUE(result->forest.IsTree());
  EXPECT_EQ(result->forest.HostCount(), 3u);
  EXPECT_NE(result->rendering.find("make"), std::string::npos);
  EXPECT_NE(result->rendering.find("cc1"), std::string::npos);
  EXPECT_EQ(result->hosts_covered.size(), 3u);
}

TEST_F(ToolsTest, StopResumeKillVerbs) {
  ASSERT_NE(client_, nullptr);
  GPid g = Create("vaxB", "victim");
  host::Kernel& kernel = cluster_.host("vaxB").kernel();

  std::optional<bool> ok;
  StopProcess(*client_, g, [&](bool success, std::string) { ok = success; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return ok.has_value(); }));
  EXPECT_TRUE(*ok);
  EXPECT_EQ(kernel.Find(g.pid)->state, host::ProcState::kStopped);

  ok.reset();
  ResumeProcess(*client_, g, [&](bool success, std::string) { ok = success; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return ok.has_value(); }));
  EXPECT_EQ(kernel.Find(g.pid)->state, host::ProcState::kRunning);

  ok.reset();
  KillProcess(*client_, g, [&](bool success, std::string) { ok = success; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return ok.has_value(); }));
  EXPECT_FALSE(kernel.Find(g.pid)->alive());
}

TEST_F(ToolsTest, StopWholeComputationAcrossHosts) {
  // "broadcasting, say, a software interrupt to stop execution".
  ASSERT_NE(client_, nullptr);
  GPid root = Create("vaxA", "root");
  GPid w1 = Create("vaxB", "w1", root);
  GPid w2 = Create("vaxC", "w2", root);
  std::optional<std::pair<size_t, size_t>> result;
  SignalComputation(*client_, host::Signal::kSigStop,
                    [&](size_t ok, size_t failed) { result = {ok, failed}; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }, sim::Seconds(60)));
  EXPECT_EQ(result->first, 3u);
  EXPECT_EQ(result->second, 0u);
  EXPECT_EQ(cluster_.host("vaxA").kernel().Find(root.pid)->state,
            host::ProcState::kStopped);
  EXPECT_EQ(cluster_.host("vaxB").kernel().Find(w1.pid)->state,
            host::ProcState::kStopped);
  EXPECT_EQ(cluster_.host("vaxC").kernel().Find(w2.pid)->state,
            host::ProcState::kStopped);
}

TEST_F(ToolsTest, RusageToolFormatsTable) {
  ASSERT_NE(client_, nullptr);
  GPid g = Create("vaxA", "ephemeral");
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  std::optional<RusageResult> result;
  RunRusageTool(*client_, "", [&](const RusageResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok);
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_NE(result->table.find("ephemeral"), std::string::npos);
  EXPECT_NE(result->table.find("killed(SIGKILL)"), std::string::npos);
  EXPECT_NE(result->table.find("PROCESS"), std::string::npos);
}

TEST_F(ToolsTest, FilesToolListsDescriptors) {
  ASSERT_NE(client_, nullptr);
  GPid g = Create("vaxB", "editor");
  cluster_.host("vaxB").kernel().OpenFileFor(g.pid, "/usr/leslie/paper.tex", "rw");
  std::optional<FilesResult> result;
  RunFilesTool(*client_, g, [&](const FilesResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok);
  ASSERT_EQ(result->files.size(), 1u);
  EXPECT_NE(result->table.find("/usr/leslie/paper.tex"), std::string::npos);
}

TEST_F(ToolsTest, IpcTraceToolAggregates) {
  ASSERT_NE(client_, nullptr);
  GPid g = Create("vaxA", "chatty");
  host::Kernel& kernel = cluster_.host("vaxA").kernel();
  kernel.RecordIpc(g.pid, true, 100);
  kernel.RecordIpc(g.pid, true, 50);
  kernel.RecordIpc(g.pid, false, 25);
  cluster_.RunFor(sim::Seconds(1));  // events reach the LPM history
  std::optional<IpcTraceResult> result;
  RunIpcTraceTool(*client_, "", g.pid, [&](const IpcTraceResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok);
  EXPECT_EQ(result->sends, 2u);
  EXPECT_EQ(result->receives, 1u);
  EXPECT_EQ(result->bytes, 175u);
  EXPECT_NE(result->report.find("2 sends"), std::string::npos);
}

// --- ppmstat: live cluster introspection --------------------------------------

// The acceptance scenario: a 16-host star, one process per host, and a
// single stat broadcast from a tool on the hub must come back with all
// 16 manager records — genealogy, health verdicts, queue watermarks —
// in ONE covering-graph round (the origin's broadcast counter moves by
// exactly one).
TEST(PpmStat, SixteenHostStarInOneBroadcastRound) {
  core::Cluster cluster;
  std::vector<std::string> hosts;
  for (int i = 0; i < 16; ++i) hosts.push_back("h" + std::to_string(i));
  for (const std::string& h : hosts) cluster.AddHost(h);
  for (int i = 1; i < 16; ++i) cluster.Link("h0", hosts[static_cast<size_t>(i)]);
  InstallTestUser(cluster, {"h0", "h1"});
  cluster.RunFor(sim::Millis(10));

  PpmClient* client = ConnectTool(cluster, "h0", "ppmstat");
  ASSERT_NE(client, nullptr);
  GPid root;
  for (const std::string& h : hosts) {
    std::optional<core::CreateResp> created;
    client->CreateProcess(h, "worker-" + h, h == "h0" ? GPid{} : root,
                          [&](const core::CreateResp& r) { created = r; }, false);
    ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); })) << h;
    ASSERT_TRUE(created->ok) << h << ": " << created->error;
    if (h == "h0") root = created->gpid;
  }
  cluster.RunFor(sim::Seconds(1));

  core::Lpm* origin = cluster.FindLpm("h0", kTestUid);
  ASSERT_NE(origin, nullptr);
  uint64_t bcasts_before = origin->stats().bcasts_originated;

  std::optional<PpmStatResult> result;
  RunPpmStatTool(*client, [&](const PpmStatResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return result.has_value(); }, sim::Seconds(60)));
  ASSERT_TRUE(result->ok);

  // One record per host, exactly one broadcast originated.
  EXPECT_EQ(result->records.size(), 16u);
  EXPECT_EQ(result->hosts_covered.size(), 16u);
  EXPECT_EQ(origin->stats().bcasts_originated, bcasts_before + 1);

  // Full genealogy: every worker shows up in some manager's subtree.
  EXPECT_GE(result->procs_total, 16u);
  size_t workers = 0;
  for (const core::LpmStatRecord& rec : result->records) {
    for (const core::ProcRecord& p : rec.procs) {
      if (p.command.rfind("worker-", 0) == 0) ++workers;
    }
  }
  EXPECT_EQ(workers, 16u);

  for (const core::LpmStatRecord& rec : result->records) {
    // Per-host health classification: idle hosts must read healthy.
    EXPECT_EQ(rec.health, 0u) << rec.host << ": "
                              << (rec.health_reasons.empty() ? ""
                                                             : rec.health_reasons[0]);
    // Dispatcher instrumentation: the queue watermark is monotone over
    // the current depth and the LPM reports live handler counts.
    EXPECT_GE(rec.queue_watermark, rec.queue_depth) << rec.host;
    EXPECT_GE(rec.handlers, 1u) << rec.host;
    EXPECT_FALSE(rec.ccs_host.empty()) << rec.host;
  }

  // Exactly one CCS in the answers, and the recovery ranks follow the
  // installed ~/.recovery list.
  size_t ccs_count = 0;
  for (const core::LpmStatRecord& rec : result->records) {
    if (rec.is_ccs) ++ccs_count;
    if (rec.host == "h0") {
      EXPECT_EQ(rec.recovery_rank, 0);
    }
    if (rec.host == "h1") {
      EXPECT_EQ(rec.recovery_rank, 1);
    }
    if (rec.host == "h2") {
      EXPECT_EQ(rec.recovery_rank, -1);
    }
  }
  EXPECT_EQ(ccs_count, 1u);

  // Renderings: every host appears in the table; the JSON parses and
  // carries all sixteen host objects.
  for (const std::string& h : hosts) {
    EXPECT_NE(result->table.find(h), std::string::npos) << h;
  }
  auto parsed = obs::json::Parse(result->json);
  ASSERT_TRUE(parsed.has_value());
  // Machine consumers key off the top-level schema version; ppmtop's
  // JSON shares the same constant, so the tools stay in lock-step.
  const obs::json::Value* schema = parsed->Find("schema_version");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->number, static_cast<double>(kStatSchemaVersion));
  const obs::json::Value* hosts_json = parsed->Find("hosts");
  ASSERT_NE(hosts_json, nullptr);
  EXPECT_EQ(hosts_json->arr.size(), 16u);
}

TEST(PpmStat, ReportsEventLogDropBreakdown) {
  // A tiny event log so one chatty process forces evictions, which the
  // STAT record must break down per pid.
  core::ClusterConfig config;
  config.lpm.event_log_capacity = 64;
  core::Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);

  std::optional<core::CreateResp> created;
  client->CreateProcess("solo", "chatty", {},
                        [&](const core::CreateResp& r) { created = r; }, false);
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  ASSERT_TRUE(created->ok);
  host::Pid pid = created->gpid.pid;
  host::Kernel& kernel = cluster.host("solo").kernel();
  for (int i = 0; i < 500; ++i) kernel.RecordIpc(pid, true, 1);
  cluster.RunFor(sim::Seconds(2));

  std::optional<PpmStatResult> result;
  RunPpmStatTool(*client, [&](const PpmStatResult& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return result.has_value(); }, sim::Seconds(60)));
  ASSERT_TRUE(result->ok);
  ASSERT_EQ(result->records.size(), 1u);
  const core::LpmStatRecord& rec = result->records[0];
  EXPECT_GT(rec.eventlog_dropped, 0u);
  uint64_t from_pid = 0;
  for (const core::PidDrop& d : rec.dropped_by_pid) {
    if (d.pid == pid) from_pid = d.dropped;
  }
  EXPECT_GT(from_pid, 0u);
  // The breakdown never loses events: per-pid counts sum to the total.
  uint64_t sum = 0;
  for (const core::PidDrop& d : rec.dropped_by_pid) sum += d.dropped;
  EXPECT_EQ(sum, rec.eventlog_dropped);
}

TEST(PpmStat, RendersGroupsSectionFromStatRecords) {
  // Synthetic records: a coordinator carrying a gang and a CCS-side
  // barrier tally, and a plain host with only replicated envar state.
  core::LpmStatRecord coord;
  coord.host = "vaxA";
  core::GroupStatEntry gang;
  gang.name = "farm";
  gang.members = 32;
  gang.exited = 1;
  coord.groups.push_back(gang);
  core::BarrierStatEntry barrier;
  barrier.name = "farm-start";
  barrier.epoch = 3;
  barrier.waiters = 4;
  barrier.expected = 5;
  coord.barriers.push_back(barrier);
  coord.envars = 2;
  coord.envar_watchers = 0;
  core::LpmStatRecord plain;
  plain.host = "vaxB";
  plain.envars = 2;
  plain.envar_watchers = 1;

  std::string table = RenderStatTable({coord, plain});
  EXPECT_NE(table.find("GROUPS"), std::string::npos);
  EXPECT_NE(table.find("farm"), std::string::npos);
  EXPECT_NE(table.find("farm-start"), std::string::npos);
  EXPECT_NE(table.find("32"), std::string::npos);

  // The JSON carries the same state, machine-readable.
  std::string json = RenderStatJson({coord, plain});
  auto doc = obs::json::Parse(json);
  ASSERT_TRUE(doc && doc->is_object());
  const auto* hosts = doc->Find("hosts");
  ASSERT_TRUE(hosts && hosts->is_array());
  ASSERT_EQ(hosts->arr.size(), 2u);
  const auto* groups = hosts->arr[0].Find("groups");
  ASSERT_TRUE(groups && groups->is_array());
  ASSERT_EQ(groups->arr.size(), 1u);
  const auto* name = groups->arr[0].Find("name");
  ASSERT_TRUE(name && name->is_string());
  EXPECT_EQ(name->str, "farm");
  const auto* members = groups->arr[0].Find("members");
  ASSERT_TRUE(members && members->is_number());
  EXPECT_EQ(static_cast<int>(members->number), 32);
  const auto* barriers = hosts->arr[0].Find("barriers");
  ASSERT_TRUE(barriers && barriers->is_array());
  ASSERT_EQ(barriers->arr.size(), 1u);
  const auto* epoch = barriers->arr[0].Find("epoch");
  ASSERT_TRUE(epoch && epoch->is_number());
  EXPECT_EQ(static_cast<int>(epoch->number), 3);
  const auto* watchers = hosts->arr[1].Find("envar_watchers");
  ASSERT_TRUE(watchers && watchers->is_number());
  EXPECT_EQ(static_cast<int>(watchers->number), 1);

  // No group state anywhere -> no GROUPS section at all.
  core::LpmStatRecord bare;
  bare.host = "vaxC";
  EXPECT_EQ(RenderStatTable({bare}).find("GROUPS"), std::string::npos);
}

}  // namespace
}  // namespace ppm::tools

// lpm_test.cc — end-to-end PPM behaviour: session establishment, the LPM
// as creation server, cross-host control, snapshots, history, triggers,
// adoption, handler pool, and time-to-live.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "core/cluster.h"
#include "core/lpm.h"
#include "tests/test_util.h"
#include "tools/client.h"

namespace ppm::core {
namespace {

using test::ConnectTool;
using test::InstallTestUser;
using test::kTestUid;
using test::kTestUser;
using test::RunUntil;
using tools::PpmClient;

class LpmTest : public ::testing::Test {
 protected:
  LpmTest() {
    test::BuildThreeSegments(cluster_);
    InstallTestUser(cluster_, {"vaxA", "vaxB"});
    cluster_.RunFor(sim::Millis(10));
  }

  // Creates a process via `client` and waits for the result.
  GPid Create(PpmClient& client, const std::string& host, const std::string& command,
              const GPid& parent = {}) {
    std::optional<CreateResp> result;
    client.CreateProcess(host, command, parent,
                         [&](const CreateResp& r) { result = r; });
    EXPECT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
    EXPECT_TRUE(result && result->ok) << (result ? result->error : "no response");
    return result ? result->gpid : GPid{};
  }

  SnapshotResp Snap(PpmClient& client) {
    std::optional<SnapshotResp> result;
    client.Snapshot([&](const SnapshotResp& r) { result = r; });
    EXPECT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }, sim::Seconds(120)));
    return result.value_or(SnapshotResp{});
  }

  Cluster cluster_;
};

TEST_F(LpmTest, ToolSessionEstablishes) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->connected());
  EXPECT_EQ(client->lpm_host(), "vaxA");
  // First invocation made this LPM the default CCS.
  EXPECT_EQ(client->session_ccs(), "vaxA");
  Lpm* lpm = cluster_.FindLpm("vaxA", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_TRUE(lpm->is_ccs());
}

TEST_F(LpmTest, ToolWithWrongUidRejected) {
  cluster_.AddUserEverywhere("eve", 200);
  PpmClient* client = tools::SpawnTool(cluster_.host("vaxA"), kTestUser, 200, "evil");
  bool done = false, ok = true;
  client->Start([&](bool success, std::string) {
    done = true;
    ok = success;
  });
  RunUntil(cluster_, [&] { return done; });
  EXPECT_FALSE(ok);
}

TEST_F(LpmTest, CreateLocalProcess) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxA", "cruncher");
  EXPECT_EQ(g.host, "vaxA");
  const host::Process* proc = cluster_.host("vaxA").kernel().Find(g.pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_TRUE(proc->alive());
  EXPECT_EQ(proc->command, "cruncher");
  EXPECT_EQ(proc->uid, kTestUid);
  // Created adopted: the LPM tracks it.
  EXPECT_NE(proc->adopter, host::kNoPid);
  EXPECT_EQ(cluster_.FindLpm("vaxA", kTestUid)->adopted_live_count(), 1u);
}

TEST_F(LpmTest, CreateRemoteProcessOneHop) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxB", "remote-worker");
  EXPECT_EQ(g.host, "vaxB");
  const host::Process* proc = cluster_.host("vaxB").kernel().Find(g.pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_TRUE(proc->alive());
  // A sibling channel now exists between the two LPMs (Figure 3).
  Lpm* a = cluster_.FindLpm("vaxA", kTestUid);
  Lpm* b = cluster_.FindLpm("vaxB", kTestUid);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->sibling_hosts(), std::vector<std::string>{"vaxB"});
  EXPECT_EQ(b->sibling_hosts(), std::vector<std::string>{"vaxA"});
  // The remote LPM learned the CCS from the Hello exchange.
  EXPECT_EQ(b->ccs_host(), "vaxA");
  EXPECT_FALSE(b->is_ccs());
}

TEST_F(LpmTest, CreateRemoteProcessTwoHops) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxC", "far-worker");
  EXPECT_EQ(g.host, "vaxC");
  EXPECT_TRUE(cluster_.host("vaxC").kernel().Find(g.pid)->alive());
}

TEST_F(LpmTest, CreateOnUnknownHostFails) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> result;
  client->CreateProcess("nonesuch", "x", {}, [&](const CreateResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  EXPECT_FALSE(result->ok);
}

TEST_F(LpmTest, SignalRemoteProcess) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxB", "victim");
  std::optional<SignalResp> result;
  client->Signal(g, host::Signal::kSigStop, [&](const SignalResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(cluster_.host("vaxB").kernel().Find(g.pid)->state,
            host::ProcState::kStopped);
  // Resume it.
  result.reset();
  client->Signal(g, host::Signal::kSigCont, [&](const SignalResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  EXPECT_EQ(cluster_.host("vaxB").kernel().Find(g.pid)->state,
            host::ProcState::kRunning);
}

TEST_F(LpmTest, SignalDeadProcessFails) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxB", "shortlived");
  cluster_.host("vaxB").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  std::optional<SignalResp> result;
  client->Signal(g, host::Signal::kSigTerm, [&](const SignalResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  EXPECT_FALSE(result->ok);
}

TEST_F(LpmTest, SnapshotSpansThreeHostsAsTree) {
  // Reproduces the shape of Figure 1: a computation spanning three
  // hosts, rooted at one process.
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid root = Create(*client, "vaxA", "root");
  GPid left = Create(*client, "vaxB", "left", root);
  GPid right = Create(*client, "vaxC", "right", root);
  GPid leaf = Create(*client, "vaxC", "leaf", right);

  SnapshotResp snap = Snap(*client);
  ASSERT_EQ(snap.records.size(), 4u);
  // Coverage: all three hosts replied.
  EXPECT_EQ(snap.forwarded_to.size(), 3u);

  // Verify parentage edges.
  auto find = [&](const GPid& g) -> const ProcRecord* {
    for (const auto& r : snap.records)
      if (r.gpid == g) return &r;
    return nullptr;
  };
  ASSERT_NE(find(root), nullptr);
  ASSERT_NE(find(leaf), nullptr);
  EXPECT_EQ(find(left)->logical_parent, root);
  EXPECT_EQ(find(right)->logical_parent, root);
  EXPECT_EQ(find(leaf)->logical_parent, right);
  EXPECT_FALSE(find(root)->logical_parent.valid());
}

TEST_F(LpmTest, ExitedInteriorNodeRetainedAndMarked) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid root = Create(*client, "vaxA", "root");
  GPid mid = Create(*client, "vaxB", "mid", root);
  GPid leaf = Create(*client, "vaxB", "leaf", mid);
  (void)leaf;
  // Kill the middle process; its child lives on.
  cluster_.host("vaxB").kernel().PostSignal(mid.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));

  SnapshotResp snap = Snap(*client);
  const ProcRecord* mid_rec = nullptr;
  for (const auto& r : snap.records)
    if (r.gpid == mid) mid_rec = &r;
  ASSERT_NE(mid_rec, nullptr) << "exited interior node must be retained";
  EXPECT_TRUE(mid_rec->exited);
}

TEST_F(LpmTest, ExitedLeafEventuallyDropsFromSnapshot) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid root = Create(*client, "vaxA", "root");
  GPid leaf = Create(*client, "vaxA", "leaf", root);
  cluster_.host("vaxA").kernel().PostSignal(leaf.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  SnapshotResp snap = Snap(*client);
  // Leaf anchored nothing, so it is not in the genealogical display.
  for (const auto& r : snap.records) EXPECT_NE(r.gpid, leaf);
  ASSERT_EQ(snap.records.size(), 1u);
  EXPECT_EQ(snap.records[0].gpid, root);
}

TEST_F(LpmTest, ForkInheritanceVisibleInSnapshot) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid root = Create(*client, "vaxA", "root");
  // The process forks on its own (outside the PPM request path).
  host::Pid kid = cluster_.host("vaxA").kernel().Spawn(root.pid, kTestUid, "self-fork");
  cluster_.RunFor(sim::Seconds(1));  // kernel fork event reaches the LPM
  SnapshotResp snap = Snap(*client);
  const ProcRecord* kid_rec = nullptr;
  for (const auto& r : snap.records)
    if (r.gpid.pid == kid) kid_rec = &r;
  ASSERT_NE(kid_rec, nullptr) << "kernel fork event should add the child";
  EXPECT_EQ(kid_rec->logical_parent, root);
}

TEST_F(LpmTest, AdoptExistingTree) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  // A pre-existing computation, started outside the PPM.
  host::Kernel& kernel = cluster_.host("vaxA").kernel();
  host::Pid root = kernel.Spawn(host::kNoPid, kTestUid, "old-root");
  host::Pid kid = kernel.Spawn(root, kTestUid, "old-kid");
  std::optional<AdoptResp> result;
  client->Adopt(GPid{"vaxA", root}, host::kTraceAll,
                [&](const AdoptResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->adopted_pids.size(), 2u);
  SnapshotResp snap = Snap(*client);
  EXPECT_EQ(snap.records.size(), 2u);
  // Parent link derived from kernel genealogy.
  for (const auto& r : snap.records) {
    if (r.gpid.pid == kid) {
      EXPECT_EQ(r.logical_parent, (GPid{"vaxA", root}));
    }
  }
}

TEST_F(LpmTest, AdoptForeignProcessFails) {
  cluster_.AddUserEverywhere("eve", 200);
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  host::Pid foreign = cluster_.host("vaxA").kernel().Spawn(host::kNoPid, 200, "foreign");
  std::optional<AdoptResp> result;
  client->Adopt(GPid{"vaxA", foreign}, host::kTraceAll,
                [&](const AdoptResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  EXPECT_FALSE(result->ok);
}

TEST_F(LpmTest, RusageOfExitedProcesses) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxA", "worker");
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  std::optional<RusageResp> result;
  client->Rusage("", [&](const RusageResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok);
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].gpid, g);
  EXPECT_TRUE(result->records[0].killed_by_signal);
  EXPECT_EQ(result->records[0].death_signal, host::Signal::kSigKill);
}

TEST_F(LpmTest, RemoteRusage) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxB", "remote-worker");
  cluster_.host("vaxB").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  std::optional<RusageResp> result;
  client->Rusage("vaxB", [&](const RusageResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok) << result->error;
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].gpid, g);
}

TEST_F(LpmTest, HistoryRecordsLifecycle) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxA", "hist");
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigStop, kTestUid);
  cluster_.RunFor(sim::Millis(200));
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigCont, kTestUid);
  cluster_.RunFor(sim::Millis(200));
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Millis(200));
  std::optional<HistoryResp> result;
  client->History("", g.pid, 0, [&](const HistoryResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok);
  std::vector<host::KEvent> kinds;
  for (const auto& ev : result->events) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<host::KEvent>{host::KEvent::kExec, host::KEvent::kStop,
                                              host::KEvent::kContinue,
                                              host::KEvent::kExit}));
}

TEST_F(LpmTest, GranularityMaskFiltersHistory) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  Lpm* lpm = cluster_.FindLpm("vaxA", kTestUid);
  ASSERT_NE(lpm, nullptr);
  lpm->set_granularity_mask(host::kTraceExit);  // record exits only
  GPid g = Create(*client, "vaxA", "quiet");
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigStop, kTestUid);
  cluster_.RunFor(sim::Millis(200));
  cluster_.host("vaxA").kernel().PostSignal(g.pid, host::Signal::kSigKill, kTestUid);
  cluster_.RunFor(sim::Millis(200));
  std::optional<HistoryResp> result;
  client->History("", g.pid, 0, [&](const HistoryResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_EQ(result->events.size(), 1u);
  EXPECT_EQ(result->events[0].kind, host::KEvent::kExit);
  EXPECT_GT(lpm->event_log().total_filtered(), 0u);
}

TEST_F(LpmTest, TriggerFiresLocally) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid watched = Create(*client, "vaxA", "watched");
  GPid dependent = Create(*client, "vaxA", "dependent");
  // When `watched` exits, kill `dependent`.
  TriggerSpec spec;
  spec.event_kind = host::KEvent::kExit;
  spec.subject_pid = watched.pid;
  spec.action_signal = host::Signal::kSigKill;
  spec.action_target = dependent;
  std::optional<TriggerResp> installed;
  client->InstallTrigger("", spec, [&](const TriggerResp& r) { installed = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return installed.has_value(); }));
  ASSERT_TRUE(installed->ok);

  cluster_.host("vaxA").kernel().PostSignal(watched.pid, host::Signal::kSigKill, kTestUid);
  ASSERT_TRUE(RunUntil(cluster_, [&] {
    const host::Process* p = cluster_.host("vaxA").kernel().Find(dependent.pid);
    return p == nullptr || !p->alive();
  }));
  EXPECT_GT(cluster_.FindLpm("vaxA", kTestUid)->stats().triggers_fired, 0u);
}

TEST_F(LpmTest, TriggerActsAcrossHosts) {
  // History-dependent, cross-machine state change: exit on vaxA stops a
  // process on vaxC (two hops away).
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid watched = Create(*client, "vaxA", "watched");
  GPid far = Create(*client, "vaxC", "far");
  TriggerSpec spec;
  spec.event_kind = host::KEvent::kExit;
  spec.subject_pid = watched.pid;
  spec.action_signal = host::Signal::kSigStop;
  spec.action_target = far;
  std::optional<TriggerResp> installed;
  client->InstallTrigger("", spec, [&](const TriggerResp& r) { installed = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return installed.has_value(); }));

  cluster_.host("vaxA").kernel().PostSignal(watched.pid, host::Signal::kSigKill, kTestUid);
  ASSERT_TRUE(RunUntil(cluster_, [&] {
    return cluster_.host("vaxC").kernel().Find(far.pid)->state ==
           host::ProcState::kStopped;
  }));
}

TEST_F(LpmTest, TriggersAreOneShot) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid a = Create(*client, "vaxA", "a");
  GPid b = Create(*client, "vaxA", "b");
  TriggerSpec spec;
  spec.event_kind = host::KEvent::kStop;
  spec.subject_pid = a.pid;
  spec.action_signal = host::Signal::kSigStop;
  spec.action_target = b;
  std::optional<TriggerResp> installed;
  client->InstallTrigger("", spec, [&](const TriggerResp& r) { installed = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return installed.has_value(); }));

  host::Kernel& kernel = cluster_.host("vaxA").kernel();
  kernel.PostSignal(a.pid, host::Signal::kSigStop, kTestUid);
  ASSERT_TRUE(RunUntil(cluster_, [&] {
    return kernel.Find(b.pid)->state == host::ProcState::kStopped;
  }));
  // Resume b, stop a again: the trigger must not re-fire.
  kernel.PostSignal(b.pid, host::Signal::kSigCont, kTestUid);
  kernel.PostSignal(a.pid, host::Signal::kSigCont, kTestUid);
  cluster_.RunFor(sim::Seconds(1));
  kernel.PostSignal(a.pid, host::Signal::kSigStop, kTestUid);
  cluster_.RunFor(sim::Seconds(2));
  EXPECT_EQ(kernel.Find(b.pid)->state, host::ProcState::kRunning);
}

TEST_F(LpmTest, OpenFilesQuery) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  GPid g = Create(*client, "vaxB", "filer");
  cluster_.host("vaxB").kernel().OpenFileFor(g.pid, "/etc/motd", "r");
  cluster_.host("vaxB").kernel().OpenFileFor(g.pid, "/tmp/out", "w");
  std::optional<FilesResp> result;
  client->OpenFiles(g, [&](const FilesResp& r) { result = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }));
  ASSERT_TRUE(result->ok) << result->error;
  ASSERT_EQ(result->files.size(), 2u);
  EXPECT_EQ(result->files[0].path, "/etc/motd");
  EXPECT_EQ(result->files[1].mode, "w");
}

TEST_F(LpmTest, EndpointInventoryMatchesFigure4) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  Create(*client, "vaxB", "w1");
  Create(*client, "vaxC", "w2");
  Lpm* lpm = cluster_.FindLpm("vaxA", kTestUid);
  ASSERT_NE(lpm, nullptr);
  LpmEndpoints ep = lpm->Endpoints();
  EXPECT_TRUE(ep.kernel_socket);
  EXPECT_TRUE(ep.accept_socket.valid());
  EXPECT_EQ(ep.siblings.size(), 2u);
  EXPECT_EQ(ep.tool_circuits, 1u);
}

TEST_F(LpmTest, HandlersAreReused) {
  PpmClient* client = ConnectTool(cluster_, "vaxA");
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 5; ++i) Create(*client, "vaxA", "w" + std::to_string(i));
  Lpm* lpm = cluster_.FindLpm("vaxA", kTestUid);
  ASSERT_NE(lpm, nullptr);
  // Sequential requests: one handler forked once, then reused.
  EXPECT_EQ(lpm->stats().handlers_created, 1u);
  EXPECT_GE(lpm->stats().handler_reuses, 4u);
}

TEST_F(LpmTest, ForkPerRequestPolicyCreatesHandlerPerRequest) {
  ClusterConfig config;
  config.lpm.handler_reuse = false;
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 4; ++i) {
    std::optional<CreateResp> result;
    client->CreateProcess("solo", "w", {}, [&](const CreateResp& r) { result = r; });
    ASSERT_TRUE(RunUntil(cluster, [&] { return result.has_value(); }));
  }
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_EQ(lpm->stats().handlers_created, 4u);
  EXPECT_EQ(lpm->stats().handler_reuses, 0u);
}

// --- the request route ------------------------------------------------------------

// Every host-targeted request kind takes one route: served on its target's
// host, or forwarded there and the answer relayed.
using RouteDone = std::function<void(bool ok, const std::string& error)>;

struct RouteCase {
  const char* name;
  // Issues the kind toward `host`, or toward `proc` (a process adopted
  // there) for the kinds that name a process.
  void (*issue)(PpmClient& client, const std::string& host, const GPid& proc,
                RouteDone done);
};

void PrintTo(const RouteCase& c, std::ostream* os) { *os << c.name; }

template <typename Resp>
std::function<void(const Resp&)> Answer(RouteDone done) {
  return [done](const Resp& r) { done(r.ok, r.error); };
}

const RouteCase kRouteCases[] = {
    {"Create",
     [](PpmClient& c, const std::string& host, const GPid&, RouteDone d) {
       c.CreateProcess(host, "w", {}, Answer<CreateResp>(d));
     }},
    {"Signal",
     [](PpmClient& c, const std::string&, const GPid& proc, RouteDone d) {
       c.Signal(proc, host::Signal::kSigStop, Answer<SignalResp>(d));
     }},
    {"Rusage",
     [](PpmClient& c, const std::string& host, const GPid&, RouteDone d) {
       c.Rusage(host, Answer<RusageResp>(d));
     }},
    {"Adopt",
     [](PpmClient& c, const std::string&, const GPid& proc, RouteDone d) {
       c.Adopt(proc, host::kTraceAll, Answer<AdoptResp>(d));
     }},
    {"Trace",
     [](PpmClient& c, const std::string&, const GPid& proc, RouteDone d) {
       c.SetTraceMask(proc, host::kTraceAll, Answer<TraceResp>(d));
     }},
    {"History",
     [](PpmClient& c, const std::string& host, const GPid&, RouteDone d) {
       c.History(host, host::kNoPid, 0, Answer<HistoryResp>(d));
     }},
    {"Trigger",
     [](PpmClient& c, const std::string& host, const GPid&, RouteDone d) {
       c.InstallTrigger(host, TriggerSpec{}, Answer<TriggerResp>(d));
     }},
    {"Files",
     [](PpmClient& c, const std::string&, const GPid& proc, RouteDone d) {
       c.OpenFiles(proc, Answer<FilesResp>(d));
     }},
    {"Migrate",
     [](PpmClient& c, const std::string&, const GPid& proc, RouteDone d) {
       c.Migrate(proc, "a", Answer<MigrateResp>(d));
     }},
};

class LpmRouteTest : public ::testing::TestWithParam<RouteCase> {};

TEST_P(LpmRouteTest, ServesAcrossOneHopAndFailsTowardUnknownHost) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> made;
  client->CreateProcess("b", "w", {}, [&](const CreateResp& r) { made = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return made.has_value(); }));
  ASSERT_TRUE(made->ok) << made->error;

  struct Outcome {
    bool ok = false;
    std::string error = "no answer";
  };
  auto issue = [&](const std::string& host, const GPid& proc) {
    auto out = std::make_shared<std::optional<Outcome>>();
    GetParam().issue(*client, host, proc, [out](bool ok, const std::string& err) {
      *out = Outcome{ok, err};
    });
    EXPECT_TRUE(RunUntil(cluster, [&] { return out->has_value(); }));
    return out->value_or(Outcome{});
  };
  Outcome hop = issue("b", made->gpid);
  EXPECT_TRUE(hop.ok) << hop.error;
  Outcome unknown = issue("nowhere", GPid{"nowhere", made->gpid.pid});
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, "sibling unreachable");

  // Nothing of either request is left behind at the origin.
  Lpm* origin = cluster.FindLpm("a", kTestUid);
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->pending_forward_count(), 0u);
  EXPECT_EQ(origin->queued_request_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(NineKinds, LpmRouteTest, ::testing::ValuesIn(kRouteCases),
                         [](const auto& info) { return std::string(info.param.name); });

// --- time-to-live -----------------------------------------------------------------

TEST(LpmTtlTest, IdleLpmExitsAfterTtlAndUnregisters) {
  ClusterConfig config;
  config.lpm.time_to_live = sim::Seconds(30);
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_FALSE(lpm->ttl_armed());  // tool connected

  client->Disconnect();
  cluster.RunFor(sim::Seconds(1));
  ASSERT_NE(cluster.FindLpm("solo", kTestUid), nullptr);
  EXPECT_TRUE(cluster.FindLpm("solo", kTestUid)->ttl_armed());

  cluster.RunFor(sim::Seconds(35));
  EXPECT_EQ(cluster.FindLpm("solo", kTestUid), nullptr);
  // pmd registry cleaned: a new request creates a fresh LPM.
  daemon::Pmd* pmd = cluster.FindPmd("solo");
  ASSERT_NE(pmd, nullptr);
  EXPECT_EQ(pmd->registry_size(), 0u);
}

TEST(LpmTtlTest, LiveProcessesBlockTtl) {
  ClusterConfig config;
  config.lpm.time_to_live = sim::Seconds(30);
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> created;
  client->CreateProcess("solo", "longrunner", {},
                        [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  client->Disconnect();
  cluster.RunFor(sim::Seconds(60));
  // The PPM outlives the login session while user processes remain.
  ASSERT_NE(cluster.FindLpm("solo", kTestUid), nullptr);
  // Kill the process: now the TTL runs out.
  cluster.host("solo").kernel().PostSignal(created->gpid.pid, host::Signal::kSigKill,
                                           kTestUid);
  cluster.RunFor(sim::Seconds(60));
  EXPECT_EQ(cluster.FindLpm("solo", kTestUid), nullptr);
}

TEST(LpmTtlTest, ReconnectAfterLogoutFindsSameLpm) {
  // "a user's request for a LPM following a new login will yield an
  // existing one" — knowledge and control of running processes persists.
  ClusterConfig config;
  config.lpm.time_to_live = sim::Seconds(600);
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* first = ConnectTool(cluster, "solo");
  ASSERT_NE(first, nullptr);
  std::optional<CreateResp> created;
  first->CreateProcess("solo", "daemon-like", {},
                       [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  Lpm* lpm_before = cluster.FindLpm("solo", kTestUid);
  first->Disconnect();
  cluster.RunFor(sim::Seconds(120));  // "logged out" for two minutes

  PpmClient* second = ConnectTool(cluster, "solo", "newlogin");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(cluster.FindLpm("solo", kTestUid), lpm_before);
  // The old computation is still visible.
  std::optional<SnapshotResp> snap;
  second->Snapshot([&](const SnapshotResp& r) { snap = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return snap.has_value(); }));
  ASSERT_EQ(snap->records.size(), 1u);
  EXPECT_EQ(snap->records[0].gpid, created->gpid);
}

}  // namespace
}  // namespace ppm::core

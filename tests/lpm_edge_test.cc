// lpm_edge_test.cc — edge cases and adversarial paths of the LPM:
// handler pool saturation, partial snapshots, in-flight failures,
// multi-user isolation, token rotation, concurrent circuit setup.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/cluster.h"
#include "core/lpm.h"
#include "tests/test_util.h"
#include "tools/client.h"

namespace ppm::core {
namespace {

using test::CollectiveKind;
using test::CollectiveResult;
using test::ConnectTool;
using test::InstallTestUser;
using test::IssueCollective;
using test::kTestUid;
using test::kTestUser;
using test::RunUntil;
using tools::PpmClient;

TEST(LpmEdge, HandlerPoolSaturationQueuesAndDrains) {
  ClusterConfig config;
  config.lpm.max_handlers = 2;  // tiny pool
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);

  int done = 0;
  for (int i = 0; i < 12; ++i) {
    client->CreateProcess(
        "solo", "w" + std::to_string(i), {}, [&](const CreateResp& r) {
          EXPECT_TRUE(r.ok);
          ++done;
        },
        /*initially_running=*/false);
  }
  ASSERT_TRUE(RunUntil(cluster, [&] { return done == 12; }, sim::Seconds(60)));
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  // The pool never grew past its bound; the excess queued.
  EXPECT_LE(lpm->stats().handlers_created, 2u);
  EXPECT_EQ(lpm->handler_count(), lpm->stats().handlers_created);
  // Every request was eventually served: twelve adopted processes exist.
  EXPECT_EQ(lpm->adopted_live_count(), 12u);
}

// Crashes c right as a broadcast of `kind` starts, so the origin floods
// to it before the loss is detected.  The origin must answer at
// snapshot_timeout with what it has: records from a and b, none from c.
void CheckPartialResultsAtTimeout(CollectiveKind kind) {
  ClusterConfig config;
  config.lpm.snapshot_timeout = sim::Seconds(3);
  Cluster cluster(config);
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.AddHost("c");
  cluster.Ethernet({"a", "b", "c"});
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> c0, c1, c2;
  client->CreateProcess("a", "w0", {}, [&](const CreateResp& r) { c0 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return c0.has_value(); }));
  client->CreateProcess("b", "w1", {}, [&](const CreateResp& r) { c1 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return c1.has_value(); }));
  client->CreateProcess("c", "w2", {}, [&](const CreateResp& r) { c2 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return c2.has_value(); }));

  std::optional<CollectiveResult> result;
  const sim::SimTime issued = cluster.simulator().Now();
  IssueCollective(cluster, client, kind, &result);
  cluster.Crash("c");
  ASSERT_TRUE(RunUntil(cluster, [&] { return result.has_value(); }, sim::Seconds(30)));
  // b answered; c could not.  Partial results at the timeout, not a hang.
  const auto waited = static_cast<sim::SimDuration>(result->answered_at - issued);
  EXPECT_GE(waited, sim::Seconds(3));
  EXPECT_LT(waited, sim::Seconds(4));
  std::vector<std::string> hosts = result->record_hosts;
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(hosts, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result->covered, (std::vector<std::string>{"a", "b"}));
}

TEST(LpmEdge, SnapshotTimeoutReturnsPartialResults) {
  CheckPartialResultsAtTimeout(CollectiveKind::kSnapshot);
}

TEST(LpmEdge, StatTimeoutReturnsPartialResults) {
  CheckPartialResultsAtTimeout(CollectiveKind::kStat);
}

TEST(LpmEdge, InFlightRequestFailsWhenChannelBreaks) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> created;
  client->CreateProcess("b", "w", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));

  // Issue a signal and kill the target host while the request is on the
  // wire: the handler's pending entry must fail, not leak.
  std::optional<SignalResp> sig;
  client->Signal(created->gpid, host::Signal::kSigStop,
                 [&](const SignalResp& r) { sig = r; });
  cluster.RunFor(sim::Millis(30));  // request is in flight now
  cluster.Crash("b");
  ASSERT_TRUE(RunUntil(cluster, [&] { return sig.has_value(); }, sim::Seconds(30)));
  EXPECT_FALSE(sig->ok);
  EXPECT_FALSE(sig->error.empty());
}

TEST(LpmEdge, ToolDisconnectWithOutstandingRequestIsSafe) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  bool callback_ran = false;
  client->CreateProcess("b", "w", {}, [&](const CreateResp&) { callback_ran = true; });
  cluster.RunFor(sim::Millis(20));
  client->Disconnect();  // fails the pending locally
  EXPECT_TRUE(callback_ran);
  // The LPM keeps running and remains usable from a new tool.
  cluster.RunFor(sim::Seconds(2));
  PpmClient* again = ConnectTool(cluster, "a", "second");
  ASSERT_NE(again, nullptr);
  std::optional<SnapshotResp> snap;
  again->Snapshot([&](const SnapshotResp& r) { snap = r; });
  EXPECT_TRUE(RunUntil(cluster, [&] { return snap.has_value(); }, sim::Seconds(60)));
}

TEST(LpmEdge, TwoToolsShareOneLpm) {
  Cluster cluster;
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* t1 = ConnectTool(cluster, "solo", "one");
  PpmClient* t2 = ConnectTool(cluster, "solo", "two");
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_EQ(lpm->Endpoints().tool_circuits, 2u);

  // A process created by tool 1 is visible to tool 2.
  std::optional<CreateResp> created;
  t1->CreateProcess("solo", "shared", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  std::optional<SnapshotResp> snap;
  t2->Snapshot([&](const SnapshotResp& r) { snap = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return snap.has_value(); }));
  ASSERT_EQ(snap->records.size(), 1u);
  EXPECT_EQ(snap->records[0].command, "shared");
}

TEST(LpmEdge, UsersAreIsolated) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.AddUserEverywhere("eve", 200);
  cluster.TrustUserEverywhere("eve", 200);
  cluster.RunFor(sim::Millis(10));

  PpmClient* leslie = ConnectTool(cluster, "a");
  ASSERT_NE(leslie, nullptr);
  PpmClient* eve = tools::SpawnTool(cluster.host("a"), "eve", 200, "evetool");
  bool up = false;
  eve->Start([&](bool ok, std::string) { up = ok; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return up; }));

  // Two separate LPMs on the same host.
  Lpm* lpm_leslie = cluster.FindLpm("a", kTestUid);
  Lpm* lpm_eve = cluster.FindLpm("a", 200);
  ASSERT_NE(lpm_leslie, nullptr);
  ASSERT_NE(lpm_eve, nullptr);
  EXPECT_NE(lpm_leslie, lpm_eve);
  EXPECT_NE(lpm_leslie->accept_addr().port, lpm_eve->accept_addr().port);

  std::optional<CreateResp> lw, ew;
  leslie->CreateProcess("b", "leslie-w", {}, [&](const CreateResp& r) { lw = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return lw.has_value(); }));
  eve->CreateProcess("b", "eve-w", {}, [&](const CreateResp& r) { ew = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return ew.has_value(); }));
  ASSERT_TRUE(ew->ok);

  // Eve's snapshot sees only eve's process.
  std::optional<SnapshotResp> snap;
  eve->Snapshot([&](const SnapshotResp& r) { snap = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return snap.has_value(); }));
  ASSERT_EQ(snap->records.size(), 1u);
  EXPECT_EQ(snap->records[0].command, "eve-w");

  // Eve cannot signal leslie's process: her LPM posts with her uid and
  // the kernel refuses.
  std::optional<SignalResp> sig;
  eve->Signal(lw->gpid, host::Signal::kSigKill, [&](const SignalResp& r) { sig = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return sig.has_value(); }));
  EXPECT_FALSE(sig->ok);
  EXPECT_TRUE(cluster.host("b").kernel().Find(lw->gpid.pid)->alive());
}

TEST(LpmEdge, TokenRotatesAcrossLpmGenerations) {
  Cluster cluster;
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  Lpm* first = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(first, nullptr);
  uint64_t old_token = first->token();

  // Kill the LPM; a new session creates a fresh one.
  cluster.host("solo").kernel().PostSignal(first->pid(), host::Signal::kSigKill,
                                           host::kRootUid);
  cluster.RunFor(sim::Seconds(1));
  PpmClient* again = ConnectTool(cluster, "solo", "relogin");
  ASSERT_NE(again, nullptr);
  Lpm* second = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  // A captured old token is useless against the new manager.
  EXPECT_NE(second->token(), old_token);
}

TEST(LpmEdge, ConcurrentSiblingSetupYieldsOneCircuit) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  // Two creations to the same cold host in the same instant: the second
  // must wait for the first's Figure-2 setup, not run its own.
  std::optional<CreateResp> r1, r2;
  client->CreateProcess("b", "w1", {}, [&](const CreateResp& r) { r1 = r; });
  client->CreateProcess("b", "w2", {}, [&](const CreateResp& r) { r2 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return r1.has_value() && r2.has_value(); }));
  EXPECT_TRUE(r1->ok && r2->ok);
  Lpm* a = cluster.FindLpm("a", kTestUid);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->sibling_hosts().size(), 1u);
  daemon::Pmd* pmd = cluster.FindPmd("b");
  ASSERT_NE(pmd, nullptr);
  EXPECT_EQ(pmd->stats().lpms_created, 1u);
}

// Two managers that dial each other within one link latency: both must
// keep the same circuit (the one the lower-named host opened), not each
// keep the other's and close its own, which loses both.
struct CrossingCase {
  const char* first;  // host whose tool sends its Create first
  sim::SimDuration stagger;
  bool protection;
};

void PrintTo(const CrossingCase& c, std::ostream* os) {
  *os << c.first << " first, " << c.stagger << " us, protection "
      << (c.protection ? "on" : "off");
}

class CrossingSetupTest : public ::testing::TestWithParam<CrossingCase> {};

TEST_P(CrossingSetupTest, BothForwardsSucceedOverOneCircuit) {
  const CrossingCase& c = GetParam();
  ClusterConfig config;
  config.lpm.overload_protection = c.protection;
  Cluster cluster(config);
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* tool_a = ConnectTool(cluster, "a");
  PpmClient* tool_b = ConnectTool(cluster, "b");
  ASSERT_NE(tool_a, nullptr);
  ASSERT_NE(tool_b, nullptr);
  const bool a_first = std::string(c.first) == "a";
  PpmClient* first = a_first ? tool_a : tool_b;
  PpmClient* second = a_first ? tool_b : tool_a;

  // Each tool creates a process on the other host, so each manager opens
  // a sibling circuit toward the other.
  std::optional<CreateResp> r1, r2;
  first->CreateProcess(a_first ? "b" : "a", "w1", {},
                       [&](const CreateResp& r) { r1 = r; });
  if (c.stagger > 0) cluster.RunFor(c.stagger);
  second->CreateProcess(a_first ? "a" : "b", "w2", {},
                        [&](const CreateResp& r) { r2 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return r1.has_value() && r2.has_value(); }));
  EXPECT_TRUE(r1->ok) << r1->error;
  EXPECT_TRUE(r2->ok) << r2->error;
  for (const char* h : {"a", "b"}) {
    Lpm* lpm = cluster.FindLpm(h, kTestUid);
    ASSERT_NE(lpm, nullptr) << h;
    EXPECT_EQ(lpm->stats().retries, 0u) << h;
    EXPECT_EQ(lpm->sibling_hosts().size(), 1u) << h;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothOrders, CrossingSetupTest,
    ::testing::Values(CrossingCase{"a", 0, true}, CrossingCase{"a", 0, false},
                      CrossingCase{"a", sim::Millis(2), true},
                      CrossingCase{"a", sim::Millis(2), false},
                      CrossingCase{"b", 0, true}, CrossingCase{"b", 0, false},
                      CrossingCase{"b", sim::Millis(2), true},
                      CrossingCase{"b", sim::Millis(2), false}),
    [](const auto& info) {
      const CrossingCase& c = info.param;
      return std::string(c.first) + "First_" + std::to_string(c.stagger / 1000) + "ms_" +
             (c.protection ? "Protected" : "Unprotected");
    });

TEST(LpmEdge, GracefulSigtermExitDoesNotTriggerSiblingRecovery) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> created;
  client->CreateProcess("b", "w", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  Lpm* a = cluster.FindLpm("a", kTestUid);
  Lpm* b = cluster.FindLpm("b", kTestUid);
  ASSERT_NE(b, nullptr);

  // Politely terminate b's LPM (it catches SIGTERM and exits cleanly).
  cluster.host("b").kernel().PostSignal(b->pid(), host::Signal::kSigTerm,
                                        host::kRootUid);
  cluster.RunFor(sim::Seconds(2));
  EXPECT_EQ(cluster.FindLpm("b", kTestUid), nullptr);
  // Peer saw a graceful close: no failure detected, no recovery.
  EXPECT_EQ(a->stats().failures_detected, 0u);
  EXPECT_EQ(a->stats().recoveries_started, 0u);
  EXPECT_TRUE(a->sibling_hosts().empty());
  // And b's pmd registry entry is gone.
  daemon::Pmd* pmd = cluster.FindPmd("b");
  ASSERT_NE(pmd, nullptr);
  EXPECT_EQ(pmd->registry_size(), 0u);
}

TEST(LpmEdge, EventLogCapacityIsBounded) {
  ClusterConfig config;
  config.lpm.event_log_capacity = 16;
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> created;
  client->CreateProcess("solo", "busy", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  host::Kernel& kernel = cluster.host("solo").kernel();
  for (int i = 0; i < 100; ++i) {
    int fd = kernel.OpenFileFor(created->gpid.pid, "/tmp/spam", "w");
    kernel.CloseFileFor(created->gpid.pid, fd);
  }
  cluster.RunFor(sim::Seconds(5));
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_LE(lpm->event_log().size(), 16u);
  EXPECT_GT(lpm->event_log().total_recorded(), 100u);
  // Queries still work and return the newest events.
  std::optional<HistoryResp> hist;
  client->History("", host::kNoPid, 0, [&](const HistoryResp& r) { hist = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return hist.has_value(); }));
  EXPECT_LE(hist->events.size(), 16u);
}

TEST(LpmEdge, SecondCircuitReusedNotRebuilt) {
  Cluster cluster;
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> r1;
  client->CreateProcess("b", "w1", {}, [&](const CreateResp& r) { r1 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return r1.has_value(); }));
  uint64_t conns_after_first = cluster.network().stats().conns_opened;
  std::optional<CreateResp> r2;
  client->CreateProcess("b", "w2", {}, [&](const CreateResp& r) { r2 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return r2.has_value(); }));
  // No new circuits: neither to inetd nor a second sibling channel.
  EXPECT_EQ(cluster.network().stats().conns_opened, conns_after_first);
}


TEST(LpmEdge, KilledHandlerIsPrunedAndReplaced) {
  Cluster cluster;
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);
  std::optional<CreateResp> first;
  client->CreateProcess("solo", "w1", {}, [&](const CreateResp& r) { first = r; },
                        false);
  ASSERT_TRUE(RunUntil(cluster, [&] { return first.has_value(); }));

  // Murder the handler process (it belongs to the user, so the user can).
  host::Kernel& kernel = cluster.host("solo").kernel();
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  host::Pid handler_pid = host::kNoPid;
  for (host::Pid p : kernel.ProcessesOf(kTestUid)) {
    if (kernel.Find(p)->command == "lpm-handler") handler_pid = p;
  }
  ASSERT_NE(handler_pid, host::kNoPid);
  kernel.PostSignal(handler_pid, host::Signal::kSigKill, kTestUid);
  cluster.RunFor(sim::Millis(100));

  // The manager forks a replacement and keeps serving.
  std::optional<CreateResp> second;
  client->CreateProcess("solo", "w2", {}, [&](const CreateResp& r) { second = r; },
                        false);
  ASSERT_TRUE(RunUntil(cluster, [&] { return second.has_value(); }));
  EXPECT_TRUE(second->ok);
  EXPECT_EQ(lpm->stats().handlers_created, 2u);
  EXPECT_EQ(lpm->handler_count(), 1u);  // the corpse was pruned
}

TEST(LpmEdge, CcsTtlFrozenWhileSiblingsExist) {
  // Paper Section 5: "For the CCS, the time-to-live interval has a
  // different meaning: as long as there is any sibling LPM in the
  // networked system, time-to-live is not decremented."
  ClusterConfig config;
  config.lpm.time_to_live = sim::Seconds(20);
  Cluster cluster(config);
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Link("a", "b");
  InstallTestUser(cluster);
  cluster.RunFor(sim::Millis(10));
  PpmClient* client = ConnectTool(cluster, "a");
  ASSERT_NE(client, nullptr);
  // One remote worker: the CCS on a has no local processes, only the
  // sibling channel to b.
  std::optional<CreateResp> created;
  client->CreateProcess("b", "w", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return created.has_value(); }));
  client->Disconnect();
  cluster.RunFor(sim::Seconds(60));
  // Far past the TTL, yet the CCS must still be there: a sibling exists.
  Lpm* a = cluster.FindLpm("a", kTestUid);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_ccs());

  // Kill the remote worker; b's LPM expires, closes the channel, and only
  // then does the CCS countdown start.
  cluster.host("b").kernel().PostSignal(created->gpid.pid, host::Signal::kSigKill,
                                        kTestUid);
  ASSERT_TRUE(RunUntil(cluster,
                       [&] { return cluster.FindLpm("b", kTestUid) == nullptr; },
                       sim::Seconds(60)));
  ASSERT_TRUE(RunUntil(cluster,
                       [&] { return cluster.FindLpm("a", kTestUid) == nullptr; },
                       sim::Seconds(60)));
}

}  // namespace
}  // namespace ppm::core


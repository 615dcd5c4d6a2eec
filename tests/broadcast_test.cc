// broadcast_test.cc — duplicate suppression (Section 4), the origin's
// coverage tally and reverse route, and the graph-covering snapshot and
// STAT broadcasts on cyclic sibling graphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/broadcast.h"
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
using test::RunUntil;
using tools::PpmClient;

TEST(BroadcastFilter, FirstSightingAccepted) {
  BroadcastFilter filter(sim::Seconds(60));
  EXPECT_TRUE(filter.CheckAndRecord("vaxA", 1, 0));
  EXPECT_FALSE(filter.CheckAndRecord("vaxA", 1, 1000));
  EXPECT_EQ(filter.duplicates_suppressed(), 1u);
}

TEST(BroadcastFilter, DifferentOriginsIndependent) {
  BroadcastFilter filter(sim::Seconds(60));
  EXPECT_TRUE(filter.CheckAndRecord("vaxA", 1, 0));
  EXPECT_TRUE(filter.CheckAndRecord("vaxB", 1, 0));
  EXPECT_TRUE(filter.CheckAndRecord("vaxA", 2, 0));
}

TEST(BroadcastFilter, EntriesAgeOutOfWindow) {
  BroadcastFilter filter(sim::Seconds(10));
  EXPECT_TRUE(filter.CheckAndRecord("vaxA", 1, 0));
  EXPECT_EQ(filter.Size(sim::Seconds(5)), 1u);
  // Past the window the entry is forgotten: a late duplicate re-floods.
  EXPECT_EQ(filter.Size(static_cast<sim::SimTime>(sim::Seconds(11))), 0u);
  EXPECT_TRUE(
      filter.CheckAndRecord("vaxA", 1, static_cast<sim::SimTime>(sim::Seconds(12))));
  EXPECT_EQ(filter.stale_refloods(), 1u);
}

TEST(BroadcastFilter, WindowBoundsMemory) {
  BroadcastFilter filter(sim::Seconds(10));
  for (uint64_t i = 0; i < 1000; ++i) {
    filter.CheckAndRecord("vaxA", i, i * 100'000);  // one per 100ms
  }
  // Only ~100 fit in a 10s window.
  EXPECT_LE(filter.Size(1000 * 100'000), 101u);
}

// --- the origin's coverage tally and the reverse route -------------------------

TEST(CoverageTally, OriginAloneIsDone) {
  CoverageTally tally("a", {});
  EXPECT_TRUE(tally.done());
  EXPECT_EQ(tally.Covered(), std::vector<std::string>{"a"});
}

TEST(CoverageTally, DuplicateReplyRefused) {
  CoverageTally tally("a", {"b", "c"});
  EXPECT_TRUE(tally.Reply("b", {}));
  EXPECT_FALSE(tally.Reply("b", {"d"}));  // no second count, no widening
  EXPECT_FALSE(tally.Reply("a", {}));     // the origin counts as replied
  EXPECT_FALSE(tally.done());
  EXPECT_TRUE(tally.Reply("c", {}));
  EXPECT_TRUE(tally.done());
}

TEST(CoverageTally, ForwardedToWidensOutstanding) {
  // a floods to b; b re-floods to c and d, which a never addressed.
  CoverageTally tally("a", {"b"});
  EXPECT_TRUE(tally.Reply("b", {"c", "d"}));
  EXPECT_FALSE(tally.done());
  EXPECT_TRUE(tally.Reply("d", {}));
  EXPECT_FALSE(tally.done());  // c still outstanding
  EXPECT_TRUE(tally.Reply("c", {}));
  EXPECT_TRUE(tally.done());
}

TEST(CoverageTally, HostThatAlreadyRepliedIsNotReExpected) {
  // On a cycle a later reply can name a host that already answered.
  CoverageTally tally("a", {"b", "c"});
  EXPECT_TRUE(tally.Reply("c", {}));
  EXPECT_TRUE(tally.Reply("b", {"c", "a"}));
  EXPECT_TRUE(tally.done());
}

TEST(CoverageTally, CoveredIsSorted) {
  CoverageTally tally("m", {"z", "b"});
  tally.Reply("z", {"c"});
  tally.Reply("c", {});
  EXPECT_EQ(tally.Covered(), (std::vector<std::string>{"c", "m", "z"}));
  tally.Reply("b", {});
  EXPECT_EQ(tally.Covered(), (std::vector<std::string>{"b", "c", "m", "z"}));
}

TEST(PreviousHop, WalksTheRecordedRouteBackwards) {
  const std::vector<std::string> route = {"a", "b", "c"};
  const std::string* hop = PreviousHop(route, "c");
  ASSERT_NE(hop, nullptr);
  EXPECT_EQ(*hop, "b");
  hop = PreviousHop(route, "b");
  ASSERT_NE(hop, nullptr);
  EXPECT_EQ(*hop, "a");
}

TEST(PreviousHop, NoneAtTheOriginOrOffTheRoute) {
  const std::vector<std::string> route = {"a", "b", "c"};
  EXPECT_EQ(PreviousHop(route, "a"), nullptr);
  EXPECT_EQ(PreviousHop(route, "x"), nullptr);
  EXPECT_EQ(PreviousHop({}, "a"), nullptr);
}

// --- snapshots over cyclic sibling graphs --------------------------------------

class CyclicSnapshotTest : public ::testing::Test {
 protected:
  CyclicSnapshotTest() {
    cluster_.AddHost("a");
    cluster_.AddHost("b");
    cluster_.AddHost("c");
    cluster_.Ethernet({"a", "b", "c"});
    InstallTestUser(cluster_);
    cluster_.RunFor(sim::Millis(10));
  }
  void CheckTriangleTerminates(CollectiveKind kind);
  Cluster cluster_;
};

// Builds a *cyclic* sibling graph, a—b, b—c, c—a, by creating processes
// in a ring from tools on each host, then runs one broadcast of `kind`
// from a.  The flood crosses the ring both ways; duplicate suppression
// must stop it, and every host must answer exactly once.
void CyclicSnapshotTest::CheckTriangleTerminates(CollectiveKind kind) {
  PpmClient* ta = ConnectTool(cluster_, "a");
  ASSERT_NE(ta, nullptr);
  std::optional<CreateResp> r1, r2, r3;
  ta->CreateProcess("b", "w1", {}, [&](const CreateResp& r) { r1 = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return r1.has_value(); }));
  PpmClient* tb = ConnectTool(cluster_, "b");
  ASSERT_NE(tb, nullptr);
  tb->CreateProcess("c", "w2", {}, [&](const CreateResp& r) { r2 = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return r2.has_value(); }));
  PpmClient* tc = ConnectTool(cluster_, "c");
  ASSERT_NE(tc, nullptr);
  tc->CreateProcess("a", "w3", {}, [&](const CreateResp& r) { r3 = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return r3.has_value(); }));

  Lpm* a = cluster_.FindLpm("a", kTestUid);
  Lpm* b = cluster_.FindLpm("b", kTestUid);
  Lpm* c = cluster_.FindLpm("c", kTestUid);
  ASSERT_EQ(a->sibling_hosts().size(), 2u);
  ASSERT_EQ(b->sibling_hosts().size(), 2u);
  ASSERT_EQ(c->sibling_hosts().size(), 2u);

  std::optional<CollectiveResult> result;
  IssueCollective(cluster_, ta, kind, &result);
  ASSERT_TRUE(RunUntil(cluster_, [&] { return result.has_value(); }, sim::Seconds(60)));
  // One record per host (one process each; one manager each for STAT),
  // and coverage names each host once.
  std::vector<std::string> hosts = result->record_hosts;
  std::sort(hosts.begin(), hosts.end());
  const std::vector<std::string> abc = {"a", "b", "c"};
  EXPECT_EQ(hosts, abc);
  EXPECT_EQ(result->covered, abc);
  // b and c each served the request once; the origin serves none.
  EXPECT_EQ(a->stats().snapshots_served, 0u);
  EXPECT_EQ(b->stats().snapshots_served, 1u);
  EXPECT_EQ(c->stats().snapshots_served, 1u);
  // At least one duplicate was suppressed somewhere in the ring.
  uint64_t dups = a->stats().bcast_duplicates + b->stats().bcast_duplicates +
                  c->stats().bcast_duplicates;
  EXPECT_GE(dups, 1u);
}

TEST_F(CyclicSnapshotTest, TriangleSiblingGraphTerminates) {
  CheckTriangleTerminates(CollectiveKind::kSnapshot);
}

TEST_F(CyclicSnapshotTest, TriangleSiblingGraphTerminatesForStat) {
  CheckTriangleTerminates(CollectiveKind::kStat);
}

TEST_F(CyclicSnapshotTest, RepeatedSnapshotsUseFreshSequences) {
  PpmClient* ta = ConnectTool(cluster_, "a");
  ASSERT_NE(ta, nullptr);
  std::optional<CreateResp> created;
  ta->CreateProcess("b", "w", {}, [&](const CreateResp& r) { created = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return created.has_value(); }));
  for (int round = 0; round < 5; ++round) {
    std::optional<SnapshotResp> snap;
    ta->Snapshot([&](const SnapshotResp& r) { snap = r; });
    ASSERT_TRUE(RunUntil(cluster_, [&] { return snap.has_value(); }, sim::Seconds(60)));
    EXPECT_EQ(snap->records.size(), 1u) << "round " << round;
  }
  // 5 distinct broadcast sequences, no cross-round suppression.
  EXPECT_EQ(cluster_.FindLpm("a", kTestUid)->stats().bcasts_originated, 5u);
}

TEST_F(CyclicSnapshotTest, ConcurrentSnapshotsFromDifferentOrigins) {
  PpmClient* ta = ConnectTool(cluster_, "a");
  PpmClient* tb = ConnectTool(cluster_, "b");
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  std::optional<CreateResp> c1, c2;
  ta->CreateProcess("b", "w1", {}, [&](const CreateResp& r) { c1 = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return c1.has_value(); }));
  tb->CreateProcess("a", "w2", {}, [&](const CreateResp& r) { c2 = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return c2.has_value(); }));

  std::optional<SnapshotResp> sa, sb;
  ta->Snapshot([&](const SnapshotResp& r) { sa = r; });
  tb->Snapshot([&](const SnapshotResp& r) { sb = r; });
  ASSERT_TRUE(RunUntil(cluster_, [&] { return sa.has_value() && sb.has_value(); },
                       sim::Seconds(60)));
  EXPECT_EQ(sa->records.size(), 2u);
  EXPECT_EQ(sb->records.size(), 2u);
}

}  // namespace
}  // namespace ppm::core

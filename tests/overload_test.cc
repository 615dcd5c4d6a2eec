// overload_test.cc — overload protection across the PPM.
//
// Exercises the four legs of PR 8's protection layer in isolation, where
// the chaos OverloadPlan exercises them in combination:
//
//   * admission control — a full handler queue sheds with an explicit
//     BusyResp (never silence), and the shed-partition accounting is
//     exact; the master switch restores the unbounded pre-protection
//     dispatcher;
//   * retry + idempotency — lossy links force forward retries that reuse
//     the same request id and idempotency token, so the receiver
//     executes each request at most once even when the first attempt's
//     reply was the frame that died;
//   * deadlines — queued work whose origin has already timed out is
//     cancelled from the queue instead of executed;
//   * circuit breaker — consecutive sibling-setup failures quarantine
//     the peer (fast failure instead of a connect timeout per request)
//     and a half-open probe readmits it once it recovers;
//
// plus the connect-path cleanup the chaos invariant depends on: a
// handshake that loses its SYN-ACK (link fault, crash mid-handshake)
// must leave no half-open endpoint on either side, and pmd's inflight
// window must shed with an explicit busy reply.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "daemon/protocol.h"
#include "host/loadgen.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "tests/test_util.h"

namespace ppm {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::CreateResp;
using core::Lpm;
using test::ConnectTool;
using test::InstallTestUser;
using test::kTestUid;
using test::RunUntil;

// Counts kernel processes of the test user on `host` running `command`
// (alive or exited — a duplicate execution leaves a table entry even if
// something later kills it).
size_t ProcsRunning(Cluster& cluster, const std::string& host,
                    const std::string& command) {
  host::Kernel& k = cluster.host(host).kernel();
  size_t n = 0;
  for (host::Pid pid : k.ProcessesOf(kTestUid)) {
    const host::Process* p = k.Find(pid);
    if (p && p->command == command) ++n;
  }
  return n;
}

// --- admission control ------------------------------------------------------

// A dispatcher with one handler and a one-deep queue must shed a burst
// that arrives while the queue is occupied — explicitly, with a BUSY the
// client surfaces as a typed failure, and with requests_shed == busy_sent
// (the shed-partition invariant).
TEST(OverloadShedTest, FullQueueShedsWithExplicitBusy) {
  ClusterConfig config;
  config.lpm.max_handlers = 1;
  config.lpm.max_queue_depth = 1;
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  tools::PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);

  std::vector<CreateResp> done;
  auto create = [&] {
    client->CreateProcess("solo", "burst-w", {},
                          [&](const CreateResp& r) { done.push_back(r); });
  };

  // First wave: fills the handler and stacks the queue well past its
  // bound (simultaneous arrivals are all admitted against the same
  // empty-queue snapshot; the bound bites arrivals that come *after*
  // the queue has built).
  constexpr size_t kFirstWave = 12;
  constexpr size_t kSecondWave = 8;
  for (size_t i = 0; i < kFirstWave; ++i) create();
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  ASSERT_TRUE(RunUntil(cluster, [&] { return lpm->queued_request_count() >= 4; }));

  // Second wave arrives against a deep queue: shed.
  for (size_t i = 0; i < kSecondWave; ++i) create();
  ASSERT_TRUE(RunUntil(
      cluster, [&] { return done.size() == kFirstWave + kSecondWave; }));

  // Nothing was silently dropped: every request terminated, and every
  // failure names the overload explicitly.
  size_t busy_failures = 0;
  for (const CreateResp& r : done) {
    if (r.ok) continue;
    EXPECT_NE(r.error.find("busy"), std::string::npos) << r.error;
    ++busy_failures;
  }
  const core::LpmStats& stats = lpm->stats();
  EXPECT_GT(stats.requests_shed, 0u);
  EXPECT_EQ(stats.requests_shed, stats.busy_sent);
  EXPECT_EQ(busy_failures, stats.requests_shed);
  EXPECT_EQ(lpm->queued_request_count(), 0u);
}

// The master switch restores the pre-protection dispatcher exactly: the
// same burst queues unboundedly and every request eventually succeeds.
TEST(OverloadShedTest, MasterSwitchOffNeverSheds) {
  ClusterConfig config;
  config.lpm.max_handlers = 1;
  config.lpm.max_queue_depth = 1;
  config.lpm.overload_protection = false;
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  tools::PpmClient* client = ConnectTool(cluster, "solo");
  ASSERT_NE(client, nullptr);

  std::vector<CreateResp> done;
  for (size_t i = 0; i < 20; ++i) {
    client->CreateProcess("solo", "burst-w", {},
                          [&](const CreateResp& r) { done.push_back(r); });
  }
  ASSERT_TRUE(RunUntil(cluster, [&] { return done.size() == 20; }));
  for (const CreateResp& r : done) EXPECT_TRUE(r.ok) << r.error;
  Lpm* lpm = cluster.FindLpm("solo", kTestUid);
  ASSERT_NE(lpm, nullptr);
  EXPECT_EQ(lpm->stats().requests_shed, 0u);
  EXPECT_EQ(lpm->stats().busy_sent, 0u);
}

// --- retry + idempotency ----------------------------------------------------

// Lossy links between origin and target force forward retries.  The
// guarantee under test: a retry reuses the first attempt's request id
// and idempotency token, so even when the lost frame was the *response*
// to an already-executed create, the receiver replays its cached reply
// instead of forking a duplicate — at most one process per request.
TEST(OverloadRetryTest, RetriesAreIdempotentOverLossyLinks) {
  ClusterConfig config;
  config.seed = 7;
  Cluster cluster(config);
  cluster.AddHost("vaxA");
  cluster.AddHost("vaxB");
  cluster.Ethernet({"vaxA", "vaxB"});
  InstallTestUser(cluster);
  tools::PpmClient* client = ConnectTool(cluster, "vaxA");
  ASSERT_NE(client, nullptr);

  net::LinkFaultProfile faults;
  faults.drop = 0.15;
  faults.duplicate = 0.10;
  cluster.network().SetLinkFaults(cluster.host("vaxA").net_id(),
                                  cluster.host("vaxB").net_id(), faults);

  constexpr size_t kRequests = 30;
  std::vector<CreateResp> done;
  // Waves of five bound concurrency so the target never sheds — this
  // test isolates the retry path from admission control.
  for (size_t wave = 0; wave < kRequests; wave += 5) {
    for (size_t i = 0; i < 5; ++i) {
      client->CreateProcess("vaxB", "lossy-w", {},
                            [&](const CreateResp& r) { done.push_back(r); });
    }
    ASSERT_TRUE(RunUntil(cluster, [&] { return done.size() >= wave + 5; },
                         sim::Seconds(120)))
        << "wave stalled at " << done.size() << " responses";
  }
  cluster.network().ClearLinkFaults();
  cluster.RunFor(sim::Seconds(2));  // settle: let stragglers terminate

  size_t oks = 0;
  for (const CreateResp& r : done) {
    if (r.ok) {
      ++oks;
    } else {
      EXPECT_FALSE(r.error.empty());  // explicit failure, never silence
    }
  }

  // Exactly-once effect: every ok response corresponds to one execution,
  // and no request executed twice.  (An execution whose reply died after
  // every retry leaves an orphan with an explicit error at the origin,
  // so executions may exceed oks — but never the request count.)
  size_t executed = ProcsRunning(cluster, "vaxB", "lossy-w");
  EXPECT_GE(executed, oks);
  EXPECT_LE(executed, kRequests);

  Lpm* origin = cluster.FindLpm("vaxA", kTestUid);
  Lpm* target = cluster.FindLpm("vaxB", kTestUid);
  ASSERT_NE(origin, nullptr);
  ASSERT_NE(target, nullptr);
  // The faults actually bit: the origin retried, and at least one retry
  // hit an already-executed token on the target (drop=0.15 over 30
  // round trips makes both certain at this seed).
  EXPECT_GT(origin->stats().retries, 0u);
  EXPECT_GT(target->stats().dup_suppressed, 0u);
  // No silent loss at quiescence.
  EXPECT_EQ(origin->pending_forward_count(), 0u);
  EXPECT_EQ(target->queued_request_count(), 0u);
  EXPECT_EQ(target->stats().requests_shed, target->stats().busy_sent);
}

// --- deadlines --------------------------------------------------------------

// Work queued behind a loaded host whose origin deadline has already
// passed must be cancelled out of the queue, not executed: the origin
// reported the timeout long ago, so executing would waste a loaded
// host's cycles on a request nobody is waiting for.
//
// Geometry matters here: one origin can never overrun the target (its
// own handler pool bounds its in-flight forwards at the target's pool
// size), so *two* origins flood the target — 4+4 concurrent forwards
// against 4 handlers keeps a queue standing, and a pinned CPU (la ~32
// scales a create to ~680 ms on a VAX780) holds queued work past the
// 600 ms deadline (the unloaded forward path alone costs ~340 ms, so
// the deadline cannot be much tighter).
TEST(OverloadDeadlineTest, ExpiredQueuedWorkIsCancelledNotExecuted) {
  ClusterConfig config;
  config.lpm.request_timeout = sim::Millis(600);
  config.lpm.max_handlers = 4;
  config.lpm.max_retries = 0;      // isolate expiry from the retry machinery
  config.la_tau = sim::Millis(500);  // load estimator converges in ~2 s
  Cluster cluster(config);
  cluster.AddHost("vaxA");
  cluster.AddHost("vaxB");
  cluster.AddHost("vaxC");
  cluster.Ethernet({"vaxA", "vaxB", "vaxC"});
  InstallTestUser(cluster);
  tools::PpmClient* left = ConnectTool(cluster, "vaxA", "left");
  tools::PpmClient* right = ConnectTool(cluster, "vaxB", "right");
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);

  // Warm-up on an unloaded target: the LPM on vaxC and both sibling
  // circuits must exist before the flood, or the deadlines die
  // in LPM-creation latency instead of the queue.  A local tool session
  // forces the LPM up (LPM creation alone costs more than a deadline);
  // the two warm-up creates then only pay sibling setup.
  ASSERT_NE(ConnectTool(cluster, "vaxC", "warmer"), nullptr);
  std::optional<CreateResp> w1, w2;
  left->CreateProcess("vaxC", "warm-w", {}, [&](const CreateResp& r) { w1 = r; });
  right->CreateProcess("vaxC", "warm-w", {}, [&](const CreateResp& r) { w2 = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return w1 && w2; }));
  ASSERT_TRUE(w1->ok) << w1->error;
  ASSERT_TRUE(w2->ok) << w2->error;

  // Pin vaxC's CPU and let the load estimator converge.
  host::LoadGenerator noisy(cluster.host("vaxC"), kTestUid, 32, /*duty=*/1.0);
  cluster.RunFor(sim::Seconds(3));

  constexpr size_t kPerOrigin = 8;
  std::vector<CreateResp> done;
  for (size_t i = 0; i < kPerOrigin; ++i) {
    left->CreateProcess("vaxC", "late-w", {},
                        [&](const CreateResp& r) { done.push_back(r); });
    right->CreateProcess("vaxC", "late-w", {},
                         [&](const CreateResp& r) { done.push_back(r); });
  }
  ASSERT_TRUE(RunUntil(cluster, [&] { return done.size() == 2 * kPerOrigin; },
                       sim::Seconds(120)));

  // Every origin-side outcome is explicit (ok or an error string).
  size_t failures = 0;
  for (const CreateResp& r : done) {
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty());
      ++failures;
    }
  }
  EXPECT_GT(failures, 0u) << "load never pushed any request past its deadline";

  Lpm* target = cluster.FindLpm("vaxC", kTestUid);
  ASSERT_NE(target, nullptr);
  EXPECT_GT(target->stats().deadline_expired, 0u);

  // Cancelled work drains: nothing may rot in the queue once the
  // backlog clears (the no-silent-loss invariant at quiescence).
  noisy.Stop();
  cluster.RunFor(sim::Seconds(10));
  EXPECT_EQ(target->queued_request_count(), 0u);
  for (const char* origin_host : {"vaxA", "vaxB"}) {
    Lpm* origin = cluster.FindLpm(origin_host, kTestUid);
    ASSERT_NE(origin, nullptr);
    EXPECT_EQ(origin->pending_forward_count(), 0u);
  }
}

// --- circuit breaker --------------------------------------------------------

// Three consecutive sibling-setup failures open the per-host breaker:
// further forwards fail fast (no connect timeout burned per request)
// until a half-open probe readmits the recovered peer.
TEST(OverloadBreakerTest, TripsQuarantinesAndReadmits) {
  ClusterConfig config;
  Cluster cluster(config);
  cluster.AddHost("vaxA");
  cluster.AddHost("vaxB");
  cluster.Ethernet({"vaxA", "vaxB"});
  InstallTestUser(cluster);
  tools::PpmClient* client = ConnectTool(cluster, "vaxA");
  ASSERT_NE(client, nullptr);

  // Establish the sibling once so vaxB's LPM exists, then crash it.
  std::optional<CreateResp> first;
  client->CreateProcess("vaxB", "w", {},
                        [&](const CreateResp& r) { first = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return first.has_value(); }));
  ASSERT_TRUE(first->ok) << first->error;

  cluster.Crash("vaxB");
  cluster.RunFor(sim::Millis(500));  // break detection tears the circuit down

  Lpm* origin = cluster.FindLpm("vaxA", kTestUid);
  ASSERT_NE(origin, nullptr);

  // One forwarded request burns its initial attempt plus max_retries
  // reconnects against the dead host — core::kBreakerThreshold consecutive
  // setup failures — and trips the breaker.
  std::optional<CreateResp> tripped;
  client->CreateProcess("vaxB", "w", {},
                        [&](const CreateResp& r) { tripped = r; });
  ASSERT_TRUE(
      RunUntil(cluster, [&] { return tripped.has_value(); }, sim::Seconds(30)));
  EXPECT_FALSE(tripped->ok);
  EXPECT_TRUE(origin->breaker_open_for("vaxB"));
  EXPECT_EQ(origin->open_breaker_count(), 1u);

  // Quarantined: the next forward fails fast, without waiting out a
  // connect timeout.
  sim::SimTime before = cluster.simulator().Now();
  std::optional<CreateResp> quarantined;
  client->CreateProcess("vaxB", "w", {},
                        [&](const CreateResp& r) { quarantined = r; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return quarantined.has_value(); },
                       sim::Seconds(5), sim::Millis(1)));
  EXPECT_FALSE(quarantined->ok);
  EXPECT_LT(cluster.simulator().Now() - before,
            static_cast<sim::SimTime>(config.net.connect_timeout));

  // Readmission: once the peer is back and the quarantine has elapsed,
  // the next forward is the half-open probe — it succeeds and closes
  // the breaker.
  cluster.Reboot("vaxB");
  cluster.RunFor(core::kBreakerProbe + sim::Seconds(2));
  std::optional<CreateResp> readmitted;
  client->CreateProcess("vaxB", "w", {},
                        [&](const CreateResp& r) { readmitted = r; });
  ASSERT_TRUE(
      RunUntil(cluster, [&] { return readmitted.has_value(); }, sim::Seconds(30)));
  EXPECT_TRUE(readmitted->ok) << readmitted->error;
  EXPECT_FALSE(origin->breaker_open_for("vaxB"));
  EXPECT_EQ(origin->open_breaker_count(), 0u);
}

// --- pmd admission ----------------------------------------------------------

// pmd's inflight window sheds excess requests with an explicit busy
// reply carrying a retry-after hint — never silence, never a stall.
TEST(OverloadPmdTest, InflightWindowShedsWithBusyReply) {
  ClusterConfig config;
  config.pmd.max_inflight = 2;
  Cluster cluster(config);
  cluster.AddHost("solo");
  InstallTestUser(cluster);
  // Connecting a tool forces inetd to create pmd (and the LPM).
  ASSERT_NE(ConnectTool(cluster, "solo"), nullptr);
  daemon::Pmd* pmd = cluster.FindPmd("solo");
  ASSERT_NE(pmd, nullptr);

  daemon::LpmRequest request;
  request.user = test::kTestUser;
  request.origin_host = "solo";
  request.origin_user = test::kTestUser;

  std::vector<daemon::LpmResponse> replies;
  for (int i = 0; i < 6; ++i) {
    pmd->EnsureLpm(request, /*local=*/true,
                   [&](const daemon::LpmResponse& r) { replies.push_back(r); });
  }
  ASSERT_TRUE(RunUntil(cluster, [&] { return replies.size() == 6; }));

  size_t busy = 0, ok = 0;
  for (const daemon::LpmResponse& r : replies) {
    if (r.busy) {
      ++busy;
      EXPECT_FALSE(r.ok);
      EXPECT_GT(r.retry_after_us, 0u);
    } else if (r.ok) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, 2u);    // the two admitted into the window
  EXPECT_EQ(busy, 4u);  // the rest shed at admission
  EXPECT_EQ(pmd->stats().requests_shed, 4u);
}

// A response frame in the original (pre-trailer) format still parses,
// with the overload fields defaulted — mixed-version clusters keep
// working through a rolling upgrade.
TEST(OverloadPmdTest, LpmResponseTrailerIsVersionTolerant) {
  daemon::LpmResponse resp;
  resp.ok = true;
  resp.accept_addr = net::SocketAddr{3, 41};
  resp.token = 0xfeedULL;
  resp.lpm_pid = 17;
  resp.created = true;
  resp.busy = true;
  resp.retry_after_us = 12'345;

  std::vector<uint8_t> wire = resp.Serialize();
  auto round = daemon::LpmResponse::Parse(wire);
  ASSERT_TRUE(round.has_value());
  EXPECT_TRUE(round->busy);
  EXPECT_EQ(round->retry_after_us, 12'345u);

  // Chop the 9-byte trailer (Bool + U64) to recreate a legacy frame.
  ASSERT_GT(wire.size(), 9u);
  std::vector<uint8_t> legacy(wire.begin(), wire.end() - 9);
  auto old = daemon::LpmResponse::Parse(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->ok);
  EXPECT_EQ(old->token, 0xfeedULL);
  EXPECT_FALSE(old->busy);
  EXPECT_EQ(old->retry_after_us, 0u);
}

// --- connect-path cleanup ---------------------------------------------------

// Direct network-level tests of the half-open unwind that the chaos
// circuit-leak invariant audits cluster-wide.
class HalfOpenTest : public ::testing::Test {
 protected:
  HalfOpenTest() : sim_(1), net_(sim_) {
    a_ = net_.AddHost("a");
    b_ = net_.AddHost("b");
    net_.AddLink(a_, b_);
  }

  // Steps the simulator until `pred()` holds or `horizon` elapses.
  template <typename Pred>
  bool StepUntil(Pred pred, sim::SimDuration horizon = sim::Seconds(5)) {
    sim::SimTime deadline = sim_.Now() + static_cast<sim::SimTime>(horizon);
    while (!pred()) {
      if (sim_.Now() >= deadline) return false;
      sim_.RunUntil(sim_.Now() + static_cast<sim::SimTime>(sim::Micros(500)));
    }
    return true;
  }

  sim::Simulator sim_;
  net::Network net_;
  net::HostId a_ = 0, b_ = 0;
};

// The SYN reaches the acceptor but the SYN-ACK dies on the downed link:
// the initiator's connect must time out AND the acceptor's half-open
// endpoint must be notified and reaped — no entry survives on either
// side.
TEST_F(HalfOpenTest, LostSynAckReapsBothSides) {
  bool accepted = false;
  std::optional<net::CloseReason> acceptor_close;
  net_.Listen(b_, 99, [&](net::ConnId, net::SocketAddr) {
    accepted = true;
    net::ConnCallbacks cb;
    cb.on_close = [&](net::ConnId, net::CloseReason r) { acceptor_close = r; };
    return cb;
  });

  std::optional<std::optional<net::ConnId>> result;
  net_.Connect(a_, net::SocketAddr{b_, 99}, net::ConnCallbacks{},
               [&](std::optional<net::ConnId> c) { result = c; });

  // Down the link in the handshake_cpu window between accept and the
  // SYN-ACK send: the acceptor is now half-open, the initiator pending.
  ASSERT_TRUE(StepUntil([&] { return accepted; }));
  net_.SetLinkUp(a_, b_, false);

  sim_.RunUntil(sim_.Now() + static_cast<sim::SimTime>(sim::Seconds(1)));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());  // connect reported failure
  ASSERT_TRUE(acceptor_close.has_value());  // acceptor was told, not leaked
  EXPECT_EQ(net_.HalfOpenConnCount(a_), 0u);
  EXPECT_EQ(net_.HalfOpenConnCount(b_), 0u);
  EXPECT_EQ(net_.stats().connects_timed_out, 1u);
  EXPECT_EQ(net_.stats().half_open_reaped, 1u);
}

// A refused connect (no listener) unwinds without ever creating a
// half-open endpoint: the RST path erases the initiator's entry.
TEST_F(HalfOpenTest, RefusedConnectLeavesNoEntry) {
  std::optional<std::optional<net::ConnId>> result;
  net_.Connect(a_, net::SocketAddr{b_, 77}, net::ConnCallbacks{},
               [&](std::optional<net::ConnId> c) { result = c; });
  sim_.RunUntil(sim_.Now() + static_cast<sim::SimTime>(sim::Seconds(1)));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());
  EXPECT_EQ(net_.HalfOpenConnCount(a_), 0u);
  EXPECT_EQ(net_.HalfOpenConnCount(b_), 0u);
  EXPECT_EQ(net_.stats().connects_timed_out, 0u);
  EXPECT_EQ(net_.stats().half_open_reaped, 0u);
}

// The initiator crashes after its SYN was accepted but before the
// handshake completes: the crash sweep must notify and reap the
// acceptor's half-open endpoint (historically it was skipped, leaking
// the endpoint forever).
TEST_F(HalfOpenTest, InitiatorCrashMidHandshakeReapsAcceptor) {
  bool accepted = false;
  std::optional<net::CloseReason> acceptor_close;
  net_.Listen(b_, 99, [&](net::ConnId, net::SocketAddr) {
    accepted = true;
    net::ConnCallbacks cb;
    cb.on_close = [&](net::ConnId, net::CloseReason r) { acceptor_close = r; };
    return cb;
  });

  std::optional<std::optional<net::ConnId>> result;
  net_.Connect(a_, net::SocketAddr{b_, 99}, net::ConnCallbacks{},
               [&](std::optional<net::ConnId> c) { result = c; });
  ASSERT_TRUE(StepUntil([&] { return accepted; }));
  net_.SetHostUp(a_, false);

  sim_.RunUntil(sim_.Now() + static_cast<sim::SimTime>(sim::Seconds(1)));
  ASSERT_TRUE(acceptor_close.has_value());
  EXPECT_EQ(*acceptor_close, net::CloseReason::kPeerCrash);
  EXPECT_EQ(net_.HalfOpenConnCount(a_), 0u);
  EXPECT_EQ(net_.HalfOpenConnCount(b_), 0u);
  EXPECT_EQ(net_.stats().half_open_reaped, 1u);
}

}  // namespace
}  // namespace ppm

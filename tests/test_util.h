// test_util.h — shared fixtures and helpers for the PPM test suite.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/engine.h"
#include "chaos/plan.h"
#include "core/cluster.h"
#include "tools/client.h"

namespace ppm::test {

// Advances the simulation until `pred()` holds, in small increments, up
// to `horizon` from now.  Returns true if the predicate became true.
template <typename Pred>
bool RunUntil(core::Cluster& cluster, Pred pred,
              sim::SimDuration horizon = sim::Seconds(60),
              sim::SimDuration step = sim::Millis(10)) {
  sim::SimTime deadline = cluster.simulator().Now() + static_cast<sim::SimTime>(horizon);
  while (!pred()) {
    if (cluster.simulator().Now() >= deadline) return false;
    cluster.RunFor(step);
  }
  return true;
}

// A ready-made three-Ethernet environment mirroring the paper's:
//   segment 1: vaxA vaxB sun1        (the user's home segment)
//   segment 2: vaxB vaxC sun2        (vaxB is the gateway)
//   segment 3: vaxC vaxD             (vaxC is the gateway)
// so vaxA—vaxC is two hops and vaxA—vaxD is three.
inline void BuildThreeSegments(core::Cluster& cluster) {
  cluster.AddHost("vaxA", host::HostType::kVax780);
  cluster.AddHost("vaxB", host::HostType::kVax780);
  cluster.AddHost("sun1", host::HostType::kSun2);
  cluster.AddHost("vaxC", host::HostType::kVax750);
  cluster.AddHost("sun2", host::HostType::kSun2);
  cluster.AddHost("vaxD", host::HostType::kVax780);
  cluster.Ethernet({"vaxA", "vaxB", "sun1"});
  cluster.Ethernet({"vaxB", "vaxC", "sun2"});
  cluster.Ethernet({"vaxC", "vaxD"});
}

constexpr host::Uid kTestUid = 100;
inline const char* kTestUser = "leslie";

// Installs the standard test account with full trust and a recovery list.
inline void InstallTestUser(core::Cluster& cluster,
                            const std::vector<std::string>& recovery = {}) {
  cluster.AddUserEverywhere(kTestUser, kTestUid);
  cluster.TrustUserEverywhere(kTestUser, kTestUid);
  if (!recovery.empty()) cluster.SetRecoveryList(kTestUid, recovery);
}

// Spawns a tool for the test user on `host_name` and completes its
// session establishment; returns nullptr on failure.
inline tools::PpmClient* ConnectTool(core::Cluster& cluster, const std::string& host_name,
                                     const std::string& tool_name = "testtool") {
  tools::PpmClient* client =
      tools::SpawnTool(cluster.host(host_name), kTestUser, kTestUid, tool_name);
  bool done = false;
  bool ok = false;
  client->Start([&](bool success, std::string) {
    done = true;
    ok = success;
  });
  if (!RunUntil(cluster, [&] { return done; })) return nullptr;
  return ok ? client : nullptr;
}

// Snapshot and STAT are one covering-graph request/reply broadcast with
// different payloads; a property of the broadcast is checked for both.
enum class CollectiveKind { kSnapshot, kStat };

// What both report at the origin: the hosts that answered (the reply's
// coverage list) and, per record, the host it describes.
struct CollectiveResult {
  std::vector<std::string> covered;
  std::vector<std::string> record_hosts;
  sim::SimTime answered_at = 0;  // virtual time the tool got the reply
};

// Issues one broadcast of `kind` through `client`; `*out` is set when the
// origin answers.
inline void IssueCollective(core::Cluster& cluster, tools::PpmClient* client,
                            CollectiveKind kind, std::optional<CollectiveResult>* out) {
  auto finish = [&cluster, out](const std::vector<std::string>& covered,
                                std::vector<std::string> record_hosts) {
    *out = CollectiveResult{covered, std::move(record_hosts), cluster.simulator().Now()};
  };
  if (kind == CollectiveKind::kSnapshot) {
    client->Snapshot([finish](const core::SnapshotResp& r) {
      std::vector<std::string> hosts;
      for (const core::ProcRecord& rec : r.records) hosts.push_back(rec.gpid.host);
      finish(r.forwarded_to, std::move(hosts));
    });
  } else {
    client->Stat(/*dump_flight=*/false, [finish](const core::StatResp& r) {
      std::vector<std::string> hosts;
      for (const core::LpmStatRecord& rec : r.records) hosts.push_back(rec.host);
      finish(r.forwarded_to, std::move(hosts));
    });
  }
}

// Runs a chaos plan at a seed and folds the outcome into a gtest
// assertion.  The failure message always leads with the (seed, plan)
// replay pair, which reproduces the run exactly.
inline ::testing::AssertionResult RunChaos(uint64_t seed,
                                           const chaos::ChaosPlan& plan) {
  chaos::ChaosOutcome outcome = chaos::RunChaosPlan(seed, plan);
  if (outcome.ok()) return ::testing::AssertionSuccess() << outcome.Summary();
  // Post-mortem: drop the auto-emitted flight dump next to the test
  // binary so CI can upload it as an artifact.
  if (!outcome.flight_dump.empty()) {
    std::string path = "flight-" + plan.name + "-" + std::to_string(seed) + ".txt";
    std::ofstream f(path);
    if (f) f << outcome.flight_dump;
  }
  return ::testing::AssertionFailure() << outcome.Summary();
}

}  // namespace ppm::test

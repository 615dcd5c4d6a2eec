// The four ppmbench workloads.  Each runs a fixed amount of work, so
// every count it produces is deterministic for a given seed; the seed
// drives the benchmark's own op-sequence RNG (Run::rng) and
// ClusterConfig.seed, and the PPM receives only the generated requests.
//
//   kmsg        the paper's Table 1 path: kernel events from traced
//               processes to the LPM, open loop in virtual time.
//   admin       the paper's Table 2 request path at 0, 1 and 2 hops,
//               steady state, closed loop.
//   churn       the write workload: gang-spawn, group signal/join,
//               envars, barriers and the durable store.
//   collective  the paper's Table 3 / Fig. 5 covering-graph broadcasts
//               (Snapshot and Stat) beside a standing StatSubscribe.
#include "ppmbench.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace ppmbench {

using namespace ppm;

namespace {

// prefix + decimal n, e.g. "h12".
std::string Name(const char* prefix, uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

std::vector<std::string> HostNames(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back(Name("h", static_cast<uint64_t>(i)));
  return names;
}

// Two Ethernet segments joined at h0: {h0 .. h(split-1)} and
// {h0, h(split) ..}, so requests travel 0, 1 or 2 hops.
void TwoSegments(core::Cluster& cluster, const std::vector<std::string>& hosts,
                 size_t split) {
  const auto mid = hosts.begin() + static_cast<ptrdiff_t>(split);
  std::vector<std::string> a(hosts.begin(), mid);
  std::vector<std::string> b{hosts[0]};
  b.insert(b.end(), mid, hosts.end());
  cluster.Ethernet(a);
  cluster.Ethernet(b);
}

// One tool session per listed host (which also starts each host's LPM).
bool ConnectAll(core::Cluster& cluster, const std::vector<std::string>& hosts,
                std::vector<tools::PpmClient*>& clients) {
  for (const std::string& h : hosts) {
    tools::PpmClient* c = bench::Connect(cluster, h, "ppmbench");
    if (c == nullptr) return false;
    clients.push_back(c);
  }
  return true;
}

// Issues `n` set-up requests through `issue(i, done)` at once and waits
// for every `done(ok)`.
bool SetupBatch(core::Cluster& cluster, size_t n,
                const std::function<void(size_t, std::function<void(bool)>)>& issue) {
  size_t pending = n;
  bool ok = true;
  for (size_t i = 0; i < n; ++i) {
    issue(i, [&](bool r) {
      ok = ok && r;
      --pending;
    });
  }
  return bench::RunUntil(cluster, [&] { return pending == 0; }) && ok;
}

// --- kmsg -------------------------------------------------------------------

// 2 hosts.  Every round (1 ms of virtual time on average, jittered from
// the seed) the benchmark opens and closes a file and sends stop/cont to
// each of 8 fully traced local workers, so about 24 kernel events reach
// the LPM per round whether or not it keeps up.  Every 100th round the tool
// signals one of 4 remote workers.  A one-hop Signal holds an LPM
// handler for its whole round trip (~360 virtual ms here), so this rate
// keeps about 4 of the 8 handlers busy: the handler queue stays empty and
// vt_* is the Signal's own latency, not a growing backlog.
constexpr int kKmsgRounds = 250'000;
constexpr int kKmsgLocalWorkers = 8;
constexpr int kKmsgRemoteWorkers = 4;
constexpr int kKmsgSignalEvery = 100;

void Kmsg(Run& run) {
  core::Cluster cluster(run.Config());
  cluster.AddHost("a");
  cluster.AddHost("b");
  cluster.Ethernet({"a", "b"});
  bench::InstallUser(cluster);
  cluster.RunFor(sim::Millis(10));
  tools::PpmClient* client = bench::Connect(cluster, "a", "ppmbench");
  if (client == nullptr) return run.Fail("kmsg: tool session failed");
  std::vector<host::Pid> local;
  for (int i = 0; i < kKmsgLocalWorkers; ++i) {
    auto g = bench::CreateSync(cluster, *client, "a", "worker", {}, true);
    if (!g) return run.Fail("kmsg: local worker creation failed");
    local.push_back(g->pid);
  }
  std::vector<core::GPid> remote;
  for (int i = 0; i < kKmsgRemoteWorkers; ++i) {
    auto g = bench::CreateSync(cluster, *client, "b", "remote-worker", {}, true);
    if (!g) return run.Fail("kmsg: remote worker creation failed");
    remote.push_back(*g);
  }
  std::vector<bool> remote_stopped(remote.size(), false);

  run.CountKernelEventsAsOps();
  if (!run.BeginTimed(cluster)) return;
  host::Kernel& kernel = cluster.host("a").kernel();
  sim::Simulator& sim = cluster.simulator();
  const int rounds = run.Scaled(kKmsgRounds);
  int round = 0;
  std::function<void()> tick = [&] {
    const host::Signal sig =
        (round % 2 == 0) ? host::Signal::kSigStop : host::Signal::kSigCont;
    {
      PPM_PROF_SCOPE("host.calls");
      for (host::Pid pid : local) {
        const int fd = kernel.OpenFileFor(pid, "/tmp/ppmbench", "r");
        kernel.CloseFileFor(pid, fd);
        kernel.PostSignal(pid, sig, bench::kUid);
      }
    }
    if (round % kKmsgSignalEvery == 0) {
      const size_t w = static_cast<size_t>(round / kKmsgSignalEvery) % remote.size();
      const host::Signal rsig =
          remote_stopped[w] ? host::Signal::kSigCont : host::Signal::kSigStop;
      remote_stopped[w] = !remote_stopped[w];
      const sim::SimTime t = run.Now();
      run.Issue([&] {
        client->Signal(remote[w], rsig,
                       [&run, t](const core::SignalResp& r) { run.Reply(t, r.ok); });
      });
    }
    if (++round < rounds) {
      const auto gap = sim::Micros(500 + static_cast<int64_t>(run.rng().Below(1001)));
      sim.ScheduleIn(gap, tick, "ppmbench-tick");
    }
  };
  sim.ScheduleIn(sim::Millis(1), tick, "ppmbench-tick");
  run.RunUntil(
      cluster, [&] { return round == rounds && run.outstanding() == 0; }, sim::Millis(50),
      sim::Millis(4) * rounds + sim::Seconds(30));
  run.EndTimed(cluster);
}

// --- admin ------------------------------------------------------------------

// 16 hosts on two segments joined at h0.  One closed-loop tool per host
// with zero think time; per op: 70% Signal stop/cont to the sleeping
// worker of a random host, 20% History(max 32) of a random host, 10%
// Rusage of a random host.  Each host's exited set is fixed at set-up
// (8 exits), and nothing is created or exits in the timed region: the
// request path is measured in steady state, without the growth that
// churn exercises.
constexpr int kAdminHosts = 16;
constexpr int kAdminOps = 100'000;
constexpr int kAdminExitsPerHost = 8;
constexpr uint32_t kAdminHistoryMax = 32;

void Admin(Run& run) {
  core::Cluster cluster(run.Config());
  const std::vector<std::string> hosts = HostNames(kAdminHosts);
  for (const std::string& h : hosts) cluster.AddHost(h);
  TwoSegments(cluster, hosts, kAdminHosts / 2);
  bench::InstallUser(cluster);
  cluster.RunFor(sim::Millis(10));
  std::vector<tools::PpmClient*> clients;
  if (!ConnectAll(cluster, hosts, clients)) return run.Fail("admin: tool session failed");

  std::vector<core::GPid> workers(hosts.size());
  std::vector<core::GPid> doomed(hosts.size() * kAdminExitsPerHost);
  // Requests 0..15 create the workers, the rest the processes that exit.
  const size_t n = hosts.size();
  const bool created =
      SetupBatch(cluster, n * (1 + kAdminExitsPerHost), [&](size_t i, auto done) {
        core::GPid& slot = i < n ? workers[i] : doomed[i - n];
        clients[i % n]->CreateProcess(
            hosts[i % n], i < n ? "worker" : "exiter", {},
            [&slot, done](const core::CreateResp& r) {
              slot = r.gpid;
              done(r.ok);
            },
            false);
      });
  if (!created) return run.Fail("admin: population failed");
  const bool killed = SetupBatch(cluster, doomed.size(), [&](size_t i, auto done) {
    clients[i % n]->Signal(doomed[i], host::Signal::kSigKill,
                           [done](const core::SignalResp& r) { done(r.ok); });
  });
  const bool exits_recorded = bench::RunUntil(cluster, [&] {
    for (const std::string& h : hosts) {
      const core::Lpm* lpm = cluster.FindLpm(h, bench::kUid);
      if (lpm == nullptr || lpm->exited_stats().size() != kAdminExitsPerHost) {
        return false;
      }
    }
    return true;
  });
  if (!killed || !exits_recorded) return run.Fail("admin: exited set not recorded");
  std::vector<bool> stopped(n, false);

  if (!run.BeginTimed(cluster)) return;
  const uint64_t total = static_cast<uint64_t>(run.Scaled(kAdminOps));
  std::function<void(size_t)> next = [&](size_t c) {
    if (run.issued() >= total) return;
    const uint64_t pick = run.rng().Below(10);
    const size_t target = run.rng().Below(n);
    const sim::SimTime t = run.Now();
    tools::PpmClient* client = clients[c];
    run.Issue([&] {
      if (pick < 7) {
        const host::Signal sig =
            stopped[target] ? host::Signal::kSigCont : host::Signal::kSigStop;
        stopped[target] = !stopped[target];
        client->Signal(workers[target], sig, [&, c, t](const core::SignalResp& r) {
          run.Reply(t, r.ok);
          next(c);
        });
      } else if (pick < 9) {
        client->History(hosts[target], host::kNoPid, kAdminHistoryMax,
                        [&, c, t](const core::HistoryResp& r) {
                          const bool some = !r.events.empty();
                          run.Check(!r.ok || some, "admin: empty History reply");
                          run.Reply(t, r.ok && some);
                          next(c);
                        });
      } else {
        client->Rusage(hosts[target], [&, c, t](const core::RusageResp& r) {
          const bool fixed = r.records.size() == kAdminExitsPerHost;
          run.Check(!r.ok || fixed, "admin: Rusage reply lost its fixed exited set");
          run.Reply(t, r.ok && fixed);
          next(c);
        });
      }
    });
  };
  for (size_t c = 0; c < clients.size(); ++c) next(c);
  run.RunUntil(
      cluster, [&] { return run.issued() >= total && run.outstanding() == 0; },
      sim::Millis(100), sim::Millis(20) * static_cast<int64_t>(total) + sim::Seconds(60));
  run.EndTimed(cluster);
}

// --- churn ------------------------------------------------------------------

// 16 hosts on one segment, CCS h0 (via ~/.recovery), durable store on.
// Four coordinators (h0, h4, h8, h12) each loop: GenvSet -> GroupSpawn
// of 8 members on consecutive hosts from a seeded start -> GroupSignal
// KILL -> GroupJoin -> Rusage of their own host -> BarrierEnter(round, 4).
// The barrier keeps them in lockstep.  Genealogy and exited-process
// state grow with every round, and throughput is superlinear in run
// length, so the run length is part of the workload.
constexpr int kChurnHosts = 16;
constexpr int kChurnRounds = 300;
constexpr int kChurnMembers = 8;
constexpr size_t kChurnCoordinators = 4;

void Churn(Run& run) {
  core::ClusterConfig config = run.Config();
  config.lpm.durable_store = true;
  // Members discover the CCS within a probe round, so assembly stays in
  // set-up.
  config.lpm.probe_interval = sim::Seconds(1);
  core::Cluster cluster(config);
  const std::vector<std::string> hosts = HostNames(kChurnHosts);
  for (const std::string& h : hosts) cluster.AddHost(h);
  cluster.Ethernet(hosts);
  bench::InstallUser(cluster, {hosts[0]});
  cluster.RunFor(sim::Millis(10));
  std::vector<tools::PpmClient*> clients;
  if (!ConnectAll(cluster, hosts, clients)) return run.Fail("churn: tool session failed");
  const bool assembled = bench::RunUntil(cluster, [&] {
    for (const std::string& h : hosts) {
      const core::Lpm* lpm = cluster.FindLpm(h, bench::kUid);
      if (lpm == nullptr) return false;
      if (h == hosts[0] ? !lpm->is_ccs() : lpm->ccs_host() != hosts[0]) return false;
    }
    return true;
  });
  if (!assembled) return run.Fail("churn: CCS h0 never assembled");

  if (!run.BeginTimed(cluster)) return;
  const int rounds = run.Scaled(kChurnRounds);
  const size_t stride = hosts.size() / kChurnCoordinators;
  const std::vector<std::string> commands(kChurnMembers, "worker");
  std::vector<int> round_of(kChurnCoordinators, 0);
  auto key = [](size_t c) { return Name("ppmbench.c", c); };
  auto group = [&](size_t c) {
    std::string name = Name("g", c);
    name += Name(".", static_cast<uint64_t>(round_of[c]));
    return name;
  };
  std::function<void(size_t, int)> step = [&](size_t c, int stage) {
    if (round_of[c] >= rounds) return;
    tools::PpmClient* client = clients[c * stride];
    const sim::SimTime t = run.Now();
    auto then = [&, c, t](bool ok, int following) {
      run.Reply(t, ok);
      step(c, following);
    };
    run.Issue([&] {
      switch (stage) {
        case 0:
          client->GenvSet(key(c), Name("r", static_cast<uint64_t>(round_of[c])),
                          [then](const core::EnvarSetResp& r) { then(r.ok, 1); });
          break;
        case 1: {
          const size_t start = run.rng().Below(hosts.size());
          std::vector<std::string> members;
          for (size_t i = 0; i < kChurnMembers; ++i) {
            members.push_back(hosts[(start + i) % hosts.size()]);
          }
          client->GroupSpawn(group(c), members, commands,
                             [&run, then](const core::GroupSpawnResp& r) {
                               const bool all = r.members.size() == kChurnMembers;
                               run.Check(!r.ok || all, "churn: spawn without 8 members");
                               then(r.ok && all, 2);
                             });
          break;
        }
        case 2:
          client->GroupSignal(group(c), host::Signal::kSigKill,
                              [then](const core::GroupSignalResp& r) { then(r.ok, 3); });
          break;
        case 3:
          client->GroupJoin(group(c), [&run, then](const core::GroupJoinResp& r) {
            const bool all = r.exits.size() == kChurnMembers;
            run.Check(!r.ok || all, "churn: join without 8 exits");
            then(r.ok && all, 4);
          });
          break;
        case 4:
          client->Rusage(hosts[c * stride],
                         [then](const core::RusageResp& r) { then(r.ok, 5); });
          break;
        default: {
          auto released = [&run, &round_of, c, then](const core::BarrierEnterResp& r) {
            run.Check(!r.ok || r.released, "churn: barrier not released");
            ++round_of[c];
            then(r.ok && r.released, 0);
          };
          client->BarrierEnter("ppmbench.round", static_cast<uint64_t>(round_of[c]) + 1,
                               kChurnCoordinators, released);
          break;
        }
      }
    });
  };
  for (size_t c = 0; c < kChurnCoordinators; ++c) step(c, 0);
  auto finished = [&] {
    for (int r : round_of) {
      if (r < rounds) return false;
    }
    return run.outstanding() == 0;
  };
  run.RunUntil(cluster, finished, sim::Millis(100),
               sim::Seconds(10) * rounds + sim::Seconds(60));
  run.EndTimed(cluster);

  // Every host's replica holds each coordinator's last value.
  const std::string last = Name("r", static_cast<uint64_t>(rounds - 1));
  const bool replicated =
      SetupBatch(cluster, hosts.size() * kChurnCoordinators, [&](size_t i, auto done) {
        clients[i % hosts.size()]->GenvGet(
            key(i / hosts.size()),
            [last, done](const core::EnvarGetResp& r) { done(r.ok && r.value == last); });
      });
  run.Check(replicated, "churn: GenvGet does not return the last value on every host");
}

// --- collective -------------------------------------------------------------

// 48 hosts on two segments joined at h0, one sleeping process on every
// host but h0.  Four tools (h0, h12, h25,
// h36) alternate Snapshot and one-shot Stat in a closed loop, each
// starting at a seeded offset with a seeded first op, while the h0 tool
// holds a StatSubscribe watch at a 100 ms interval.  Frames per op grow
// with the host count.
constexpr int kCollectiveHosts = 48;
constexpr int kCollectiveOps = 2000;
constexpr uint64_t kWatchIntervalUs = 100'000;

void Collective(Run& run) {
  core::Cluster cluster(run.Config());
  const std::vector<std::string> hosts = HostNames(kCollectiveHosts);
  for (const std::string& h : hosts) cluster.AddHost(h);
  TwoSegments(cluster, hosts, kCollectiveHosts / 2);
  bench::InstallUser(cluster);
  cluster.RunFor(sim::Millis(10));
  std::vector<tools::PpmClient*> clients;
  if (!ConnectAll(cluster, {"h0", "h12", "h25", "h36"}, clients)) {
    return run.Fail("collective: tool session failed");
  }
  const bool populated = SetupBatch(cluster, hosts.size() - 1, [&](size_t i, auto done) {
    clients[0]->CreateProcess(hosts[i + 1], "sleeper", {},
                              [done](const core::CreateResp& r) { done(r.ok); }, false);
  });
  if (!populated) return run.Fail("collective: population failed");

  // Per-host delta sequence numbers must be contiguous for the whole run.
  std::map<std::string, uint64_t> last_seq;
  bool contiguous = true;
  std::optional<bool> subscribed;
  clients[0]->StatSubscribe(
      kWatchIntervalUs,
      [&](const core::StatDelta& d) {
        for (const core::StatDeltaRecord& rec : d.records) {
          auto [it, fresh] = last_seq.try_emplace(rec.host, rec.seq);
          if (!fresh) {
            contiguous = contiguous && rec.seq == it->second + 1;
            it->second = rec.seq;
          }
        }
      },
      [&](bool ok, uint64_t) { subscribed = ok; });
  if (!bench::RunUntil(cluster, [&] { return subscribed.has_value(); }) || !*subscribed) {
    return run.Fail("collective: StatSubscribe failed");
  }

  if (!run.BeginTimed(cluster)) return;
  const uint64_t total = static_cast<uint64_t>(run.Scaled(kCollectiveOps));
  const size_t snapshot_records = hosts.size() - 1;
  std::vector<bool> snapshot_next(clients.size());
  std::function<void(size_t)> next = [&](size_t c) {
    if (run.issued() >= total) return;
    const bool snapshot = snapshot_next[c];
    snapshot_next[c] = !snapshot;
    const sim::SimTime t = run.Now();
    run.Issue([&] {
      if (snapshot) {
        clients[c]->Snapshot([&, c, t](const core::SnapshotResp& r) {
          const bool ok = r.records.size() == snapshot_records;
          run.Check(ok, "collective: Snapshot without one record per non-root host");
          run.Reply(t, ok);
          next(c);
        });
      } else {
        clients[c]->Stat(false, [&, c, t](const core::StatResp& r) {
          const bool ok = r.records.size() == hosts.size();
          run.Check(ok, "collective: Stat without one record per host");
          run.Reply(t, ok);
          next(c);
        });
      }
    });
  };
  for (size_t c = 0; c < clients.size(); ++c) {
    snapshot_next[c] = run.rng().Chance(0.5);
    const auto offset = sim::Micros(static_cast<int64_t>(run.rng().Below(100'000)));
    cluster.simulator().ScheduleIn(offset, [&next, c] { next(c); }, "ppmbench-start");
  }
  run.RunUntil(
      cluster, [&] { return run.issued() >= total && run.outstanding() == 0; },
      sim::Millis(100), sim::Seconds(5) * static_cast<int64_t>(total) + sim::Seconds(60));
  run.EndTimed(cluster);
  run.Check(contiguous && last_seq.size() == hosts.size(),
            "collective: watch sequence numbers not contiguous on every host");
}

}  // namespace

WorkloadFn FindWorkload(const std::string& name) {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"kmsg", &Kmsg}, {"admin", &Admin}, {"churn", &Churn}, {"collective", &Collective}};
  auto it = kWorkloads.find(name);
  return it == kWorkloads.end() ? nullptr : it->second;
}

}  // namespace ppmbench

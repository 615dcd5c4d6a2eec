// ppmbench — end-to-end and per-layer benchmark of the PPM, one
// workload per process (see README.md).
//
//   ppmbench --workload kmsg|admin|churn|collective [--seed N] [--seconds S]
//            [--min-reps R] [--smoke] [--untraced-ops-per-s X]
//            [--expect-fingerprint F]
//
// Runs fixed-work repetitions of the workload until S seconds have
// passed, and at least R of them (by default 3 in the untraced build and
// 1 in the profiler build), checks them, and prints one line per metric,
// "workload metric value unit", then a JSON object as the last line.
// The build selects the report: the PPM_PROFILE=OFF build gives the
// end-to-end metrics, the profiler build the per-layer ones.  Exits 1
// when a check fails and 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ppmbench.h"

namespace {

using ppmbench::Counts;
using ppmbench::Rep;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double PerOp(double count, const Counts& c) {
  return c.ops > 0 ? count / static_cast<double>(c.ops) : 0;
}

// FNV-1a: a short, stable digest of the counts for cross-process checks.
std::string Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Every ppmprof site belongs to exactly one layer, by name prefix.  Sites
// "sim.dispatch.<label>" are named after the simulator event label, and
// each label belongs to the module that schedules it.  "tools.issue" and
// "host.calls" are the benchmark's own spans around its calls into
// PpmClient and the kernel; "sim.dispatch.ppmbench-*" are its own
// simulator events.
struct LayerRule {
  const char* prefix;
  const char* layer;
};
constexpr LayerRule kLayerRules[] = {
    {"sim.run", "sim"},
    {"sim.dispatch.ppmbench-", "sim"},
    {"sim.dispatch.lpm-", "lpm"},
    {"sim.dispatch.ccs-ns", "lpm"},
    {"sim.dispatch.kernel-event", "host"},
    {"sim.dispatch.proc-", "host"},
    {"sim.dispatch.procfs-", "host"},
    {"sim.dispatch.loadgen-", "host"},
    {"sim.dispatch.frame-", "net"},
    {"sim.dispatch.syn-", "net"},
    {"sim.dispatch.conn-", "net"},
    {"sim.dispatch.connect-", "net"},
    {"sim.dispatch.circuit-", "net"},
    {"sim.dispatch.rdp-", "net"},
    {"sim.dispatch.pmd-", "daemon"},
    {"sim.dispatch.inetd-", "daemon"},
    {"lpm.", "lpm"},
    {"wire.", "wire"},
    {"store.", "store"},
    {"host.", "host"},
    {"tools.", "tools"},
};
constexpr const char* kLayers[] = {"sim", "host", "net",    "wire",
                                   "lpm", "store", "daemon", "tools"};

const char* LayerOf(const std::string& site) {
  for (const LayerRule& r : kLayerRules) {
    if (site.rfind(r.prefix, 0) == 0) return r.layer;
  }
  return nullptr;
}

using Sites = std::vector<ppm::obs::prof::SiteSnapshot>;

double SiteAverageNs(const Sites& sites, const char* name) {
  for (const auto& s : sites) {
    if (s.name == name && s.count > 0) return static_cast<double>(s.total_ns) / s.count;
  }
  return 0;
}

// The per-layer metrics that are counts: deterministic, from every run.
std::vector<Metric> CountMetrics(const Counts& c) {
  const double useful = static_cast<double>(c.lpm_served);
  const double flooded = useful + static_cast<double>(c.lpm_bcast_duplicates);
  return {
      {"sim.events_per_op", PerOp(c.sim_events, c), "1/op"},
      {"host.kernel_events_per_op", PerOp(c.kernel_events, c), "1/op"},
      {"net.frames_per_op", PerOp(c.net_frames, c), "1/op"},
      {"net.bytes_per_op", PerOp(c.net_bytes, c), "B/op"},
      {"net.frames_dropped", static_cast<double>(c.net_frames_dropped), "count"},
      {"net.unknown_frames", static_cast<double>(c.net_unknown_frames), "count"},
      {"wire.frames_per_op", PerOp(c.wire_frames, c), "1/op"},
      {"lpm.requests_per_op", PerOp(c.lpm_requests, c), "1/op"},
      {"lpm.forwards_per_op", PerOp(c.lpm_forwards, c), "1/op"},
      {"lpm.queue_depth_max", static_cast<double>(c.lpm_queue_depth_max), "count"},
      {"lpm.shed", static_cast<double>(c.lpm_shed), "count"},
      {"lpm.retries", static_cast<double>(c.lpm_retries), "count"},
      {"lpm.flood_useful_ratio", flooded > 0 ? useful / flooded : 0, "ratio"},
      {"group.spawns_per_op", PerOp(c.gang_spawns, c), "1/op"},
      {"store.appends_per_op", PerOp(c.store_appends, c), "1/op"},
      {"store.fsyncs_per_op", PerOp(c.store_fsyncs, c), "1/op"},
      {"store.bytes_per_op", PerOp(c.store_bytes, c), "B/op"},
      {"daemon.pmd_requests", static_cast<double>(c.pmd_requests), "count"},
      {"obs.spans_dropped", static_cast<double>(c.spans_dropped), "count"},
      {"trace.hops_per_op", PerOp(c.spans_started, c), "1/op"},
      {"trace.hop_vt_ms_p50", c.hop_vt_ms_p50, "virtual_ms"},
  };
}

// The per-layer wall-clock metrics of one profiled repetition.
std::vector<Metric> ProfileMetrics(const Rep& rep, double ops_per_s,
                                   double untraced_ops_per_s,
                                   std::vector<std::string>& problems) {
  std::map<std::string, double> self_ns;
  double total_self_ns = 0;
  for (const auto& s : rep.sites) {
    const char* layer = LayerOf(s.name);
    if (layer == nullptr) {
      problems.push_back("profiler site " + s.name + " maps to no layer");
      continue;
    }
    self_ns[layer] += static_cast<double>(s.self_ns());
    total_self_ns += static_cast<double>(s.self_ns());
  }
  const double runfor_ns =
      1e9 * std::accumulate(rep.slice_s.begin(), rep.slice_s.end(), 0.0);
  auto share = [runfor_ns](double ns) {
    return runfor_ns > 0 ? 100.0 * ns / runfor_ns : 0;
  };
  std::vector<Metric> out;
  for (const char* layer : kLayers) {
    const std::string name = layer;
    out.push_back({name + ".self_ns_per_op", PerOp(self_ns[name], rep.counts), "ns/op"});
    out.push_back({name + ".self_pct", share(self_ns[name]), "%"});
  }
  // Mean wall time per call of single sites.
  constexpr std::pair<const char*, const char*> kSiteMeans[] = {
      {"wire.encode_ns", "wire.encode"},
      {"wire.decode_ns", "wire.decode"},
      {"wire.kevent.encode_ns", "wire.kevent.encode"},
      {"wire.kevent.decode_ns", "wire.kevent.decode"},
      {"lpm.dispatch_ns", "lpm.dispatch"},
      {"lpm.kernel_event_ns", "lpm.kernel_event"},
      {"group.gang_part_ns", "sim.dispatch.lpm-gang-part"},
      {"store.append_ns", "store.journal.append"},
      {"store.sync_ns", "store.journal.sync"},
      {"tools.issue_ns", "tools.issue"},
  };
  for (const auto& [metric, site] : kSiteMeans) {
    out.push_back({metric, SiteAverageNs(rep.sites, site), "ns"});
  }
  out.push_back({"obs.trace_overhead_pct",
                 untraced_ops_per_s > 0 && ops_per_s > 0
                     ? 100.0 * (untraced_ops_per_s / ops_per_s - 1.0)
                     : 0,
                 "%"});
  out.push_back({"attribution_pct", share(total_self_ns), "%"});
  return out;
}

void Print(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.10g %s\n", workload.c_str(), m.name.c_str(), m.value,
              m.unit.c_str());
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ppmbench: %s\nusage: ppmbench --workload kmsg|admin|churn|collective "
               "[--seed N] [--seconds S] [--min-reps R] [--smoke] "
               "[--untraced-ops-per-s X] [--expect-fingerprint F]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The untraced build repeats the work three times, so every slice is
  // observed three times and determinism is checked across repetitions;
  // the profiler build needs one repetition for its per-layer times.
  constexpr bool kProfiled = PPM_PROF_ENABLED;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  size_t min_reps = kProfiled ? 1 : 3;
  bool smoke = false;
  double untraced_ops_per_s = 0;
  std::string expect_fingerprint;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-reps" && has_value) {
      min_reps = std::max<size_t>(1, std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--untraced-ops-per-s" && has_value) {
      untraced_ops_per_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--expect-fingerprint" && has_value) {
      expect_fingerprint = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  const ppmbench::WorkloadFn fn = ppmbench::FindWorkload(workload);
  if (fn == nullptr) return Usage("missing or unknown --workload");

  // Fixed-work repetitions until the time budget is spent.
  const double scale = smoke ? 0.01 : 1.0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start).count();
  };
  std::vector<std::string> problems;
  std::vector<double> setups;
  // Set-up takes milliseconds, so its median is taken over many more
  // set-ups than there are full repetitions.  They run in batches before,
  // between and after the repetitions: the machine's speed shifts for
  // tenths of a second at a time, and one batch can fall entirely inside
  // such a shift.
  constexpr int kSetupsPerBatch = 25;
  auto setup_batch = [&] {
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      ppmbench::Run run(seed, scale, true);
      fn(run);
      const Rep r = run.Finish();
      problems.insert(problems.end(), r.errors.begin(), r.errors.end());
      setups.push_back(r.setup_s);
    }
  };
  std::vector<Rep> reps;
  double slowest_rep_s = 0;
  // The peak after the first repetition: later ones reuse the freed heap
  // and only add allocator fragmentation, which grows with their number.
  double peak_rss_mb = 0;
  do {
    setup_batch();
    const double rep_start = elapsed();
    ppmbench::Run run(seed, scale, false);
    fn(run);
    reps.push_back(run.Finish());
    if (reps.size() == 1) peak_rss_mb = PeakRssMb();
    slowest_rep_s = std::max(slowest_rep_s, elapsed() - rep_start);
  } while (reps.size() < min_reps || elapsed() + slowest_rep_s <= seconds);
  setup_batch();

  const Counts& counts = reps.front().counts;
  const std::string fingerprint = Digest(counts.Fingerprint());
  uint64_t attempted = 0, failed = 0;
  // Every repetition runs the same slices of identical work, so the
  // fastest observation of each slice is its time with the least
  // interference from the rest of the machine; their sum is the run's
  // time for the fixed work.  Only the first three repetitions enter it,
  // so the estimate does not shift with how many repetitions fit.
  constexpr size_t kEstimatorReps = 3;
  std::vector<double> best_slice_s(counts.slices, 1e300);
  size_t fastest = 0;
  auto total = [](const std::vector<double>& xs) {
    return std::accumulate(xs.begin(), xs.end(), 0.0);
  };
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const size_t observed =
        i < kEstimatorReps ? std::min(best_slice_s.size(), r.slice_s.size()) : 0;
    for (size_t k = 0; k < observed; ++k) {
      best_slice_s[k] = std::min(best_slice_s[k], r.slice_s[k]);
    }
    for (const std::string& e : r.errors) problems.push_back(e);
    if (r.counts.Fingerprint() != counts.Fingerprint()) {
      problems.push_back("counts differ between repetitions: " + counts.Fingerprint() +
                         " vs " + r.counts.Fingerprint());
    }
    attempted += r.counts.requests;
    failed += r.counts.failed;
    setups.push_back(r.setup_s);
    if (total(r.slice_s) < total(reps[fastest].slice_s)) fastest = i;
  }
  if (!expect_fingerprint.empty() && expect_fingerprint != fingerprint) {
    problems.push_back("counts differ from the run whose fingerprint is " +
                       expect_fingerprint);
  }
  if (counts.ops == 0 || counts.requests == 0) problems.push_back("no work was done");
  if (failed > 0) problems.push_back(std::to_string(failed) + " requests failed");
  // p99 is reported only when at least ten samples lie beyond it.
  if (!smoke && counts.vt_samples < 1000) {
    problems.push_back("fewer than 1000 latency samples");
  }

  const double ops_per_s = static_cast<double>(counts.ops) / total(best_slice_s);
  // The untraced build reports the end-to-end metrics; the profiler build
  // reports the per-layer ones (its own ops_per_s is the traced rate,
  // which only enters obs.trace_overhead_pct).  Both print the counts.
  std::vector<Metric> per_layer = CountMetrics(counts);
  std::vector<Metric> reported;
  if (kProfiled) {
    for (Metric& m :
         ProfileMetrics(reps[fastest], ops_per_s, untraced_ops_per_s, problems)) {
      per_layer.push_back(std::move(m));
    }
    reported = per_layer;
  } else {
    reported = {
        {"ops_per_s", ops_per_s, "ops/s"},
        {"vt_p50_ms", counts.vt_p50_ms, "virtual_ms"},
        {"vt_p99_ms", counts.vt_p99_ms, "virtual_ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    const double fail_frac = static_cast<double>(failed) /
                             static_cast<double>(std::max<uint64_t>(attempted, 1));
    Print(workload, {"fail_frac", fail_frac, "ratio"});
    for (const Metric& m : per_layer) Print(workload, m);
  }
  for (const Metric& m : reported) Print(workload, m);
  std::printf("%s repetitions %zu count\n", workload.c_str(), reps.size());
  std::printf("%s fingerprint %s fnv1a64\n", workload.c_str(), fingerprint.c_str());
  for (const std::string& p : problems) {
    std::fprintf(stderr, "ppmbench %s: %s\n", workload.c_str(), p.c_str());
  }

  const bool correct = problems.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " + JsonNumber(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

// ppmbench.h — the repetition harness shared by the four workloads.
//
// One repetition builds a fresh Cluster, populates it (set-up), then
// runs a fixed amount of work (the timed region) in Cluster::RunFor
// slices.  Everything the benchmark reports is read from outside the
// PPM: the wall clock around its own calls, and instrumentation that
// already exists in src/ (metrics Registry, ppmprof sites, obs::Tracer,
// LpmStats, KernelStats, Lpm::queued_request_count()).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/prof.h"
#include "sim/rng.h"

namespace ppmbench {

// The deterministic outcome of one repetition: counts and virtual-time
// figures only.  It must be identical across the repetitions of a run
// and across runs (and profiler builds) with the same seed.
struct Counts {
  uint64_t ops = 0;       // work units behind ops_per_s
  uint64_t requests = 0;  // client requests issued in the timed region
  uint64_t failed = 0;    // not-ok, BUSY or unanswered requests
  uint64_t slices = 0;  // Cluster::RunFor slices of the timed region
  uint64_t vt_samples = 0;
  double vt_p50_ms = 0;
  double vt_p99_ms = 0;
  uint64_t sim_events = 0;
  uint64_t kernel_events = 0;  // emitted by traced processes (KernelStats)
  uint64_t net_frames = 0;
  uint64_t net_bytes = 0;
  uint64_t net_frames_dropped = 0;
  uint64_t net_unknown_frames = 0;
  uint64_t wire_frames = 0;  // message frames through the codec
  uint64_t lpm_requests = 0;
  uint64_t lpm_forwards = 0;
  uint64_t lpm_queue_depth_max = 0;
  uint64_t lpm_shed = 0;
  uint64_t lpm_retries = 0;
  uint64_t lpm_served = 0;  // local snapshot/stat scans
  uint64_t lpm_bcast_duplicates = 0;
  uint64_t gang_spawns = 0;
  uint64_t store_appends = 0;
  uint64_t store_fsyncs = 0;
  uint64_t store_bytes = 0;
  uint64_t pmd_requests = 0;  // set-up and timed region together
  uint64_t spans_started = 0;
  uint64_t spans_dropped = 0;
  double hop_vt_ms_p50 = 0;  // retained obs::Tracer hop spans
  bool partition_exact = false;

  // Stable text form; equal Counts give equal text.
  std::string Fingerprint() const;
};

struct Rep {
  Counts counts;
  double setup_s = 0;  // Cluster construction to the first timed op
  // Wall time of each Cluster::RunFor slice of the timed region.  The
  // slices of repetitions with the same seed do identical work.
  std::vector<double> slice_s;
  std::vector<ppm::obs::prof::SiteSnapshot> sites;  // profiler build only
  std::vector<std::string> errors;
};

// One repetition in progress.  A workload function receives it, builds
// its cluster, calls BeginTimed / RunUntil / EndTimed, and reports each
// request's reply through Reply and each failed check through Check.
class Run {
 public:
  // Starts the set-up clock.  `scale` shrinks the fixed work (smoke); a
  // `setup_only` repetition ends at BeginTimed.
  Run(uint64_t seed, double scale, bool setup_only);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  ppm::core::ClusterConfig Config() const;
  ppm::sim::Rng& rng() { return rng_; }
  int Scaled(int full_work) const;

  // Ends set-up: records baselines and zeroes the process-wide registries
  // so that every count below covers the timed region only.  Returns
  // false, and the workload returns, when the repetition is set-up only.
  [[nodiscard]] bool BeginTimed(ppm::core::Cluster& cluster);
  // Advances virtual time in `slice` steps until `done` holds, sampling
  // every LPM's handler queue after each slice.  Gives up (and records an
  // error) once `horizon` of virtual time has passed.
  void RunUntil(ppm::core::Cluster& cluster, const std::function<bool()>& done,
                ppm::sim::SimDuration slice, ppm::sim::SimDuration horizon);
  // Ends the timed region and collects the counts.
  void EndTimed(ppm::core::Cluster& cluster);

  // Calls into PpmClient go through Issue, which counts the request and,
  // in the profiler build, times the call as the "tools.issue" site.
  template <typename F>
  void Issue(F&& call) {
    PPM_PROF_SCOPE("tools.issue");
    ++issued_;
    call();
  }
  // Virtual time of the timed region's cluster.
  ppm::sim::SimTime Now() const { return sim_->Now(); }
  // A reply to a request issued at virtual time `issued_at`.
  void Reply(ppm::sim::SimTime issued_at, bool ok);
  size_t outstanding() const { return issued_ - replied_; }
  uint64_t issued() const { return issued_; }

  // An op is a replied request unless the workload makes it a kernel
  // event delivered to an LPM.
  void CountKernelEventsAsOps() { kernel_event_ops_ = true; }
  void Check(bool ok, const std::string& what);
  void Fail(const std::string& what) { Check(false, what); }

  Rep Finish();

 private:
  using Clock = std::chrono::steady_clock;

  // Sums of per-LPM and per-kernel counters over every host.
  struct HostTotals {
    uint64_t kernel_events = 0;
    uint64_t delivered = 0;
    uint64_t requests = 0;
    uint64_t forwards = 0;
    uint64_t shed = 0;
    uint64_t retries = 0;
    uint64_t served = 0;
    uint64_t bcast_duplicates = 0;
    uint64_t gang_spawns = 0;
  };
  static HostTotals Totals(ppm::core::Cluster& cluster);

  uint64_t seed_;
  double scale_;
  bool setup_only_;
  ppm::sim::Rng rng_;
  Clock::time_point start_;
  ppm::sim::Simulator* sim_ = nullptr;
  HostTotals base_;
  uint64_t sim_events0_ = 0;
  uint64_t spans_dropped0_ = 0;
  uint64_t issued_ = 0;
  uint64_t replied_ = 0;
  bool kernel_event_ops_ = false;
  std::vector<double> latencies_ms_;
  Rep rep_;
};

// One repetition of a workload: kmsg, admin, churn or collective
// (workloads.cc says what each one measures and why).
using WorkloadFn = void (*)(Run&);
// nullptr when no workload has that name.
WorkloadFn FindWorkload(const std::string& name);

}  // namespace ppmbench

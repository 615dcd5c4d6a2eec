#include "ppmbench.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppmbench {

using namespace ppm;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

uint64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::Registry::Instance().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// The per-opcode accounting must partition the network totals exactly.
bool OpcodePartitionExact() {
  uint64_t frames = 0, bytes = 0;
  obs::Registry::Instance().ForEachCounter(
      [&](const std::string& name, const obs::Counter& c) {
        if (name.rfind("net.op.", 0) != 0) return;
        if (name.ends_with(".frames")) frames += c.value();
        if (name.ends_with(".bytes")) bytes += c.value();
      });
  return frames == CounterValue("net.frames.sent") &&
         bytes == CounterValue("net.bytes.sent");
}

// Median virtual duration of the hop spans of the last few traces the
// tracer still holds (Tracer::Trace scans the whole ring, so a handful
// of traces keeps this cheap).
double RecentHopMedianMs() {
  constexpr uint64_t kTraces = 16;
  const obs::Tracer& tracer = obs::Tracer::Instance();
  std::vector<double> hops;
  const uint64_t last = tracer.last_trace_id();
  for (uint64_t id = last; id > 0 && id + kTraces > last; --id) {
    for (const obs::SpanRecord& s : tracer.Trace(id)) {
      if (s.parent_span != 0 && s.arrived) {
        hops.push_back(static_cast<double>(s.end_us - s.start_us) / 1000.0);
      }
    }
  }
  std::sort(hops.begin(), hops.end());
  return Percentile(hops, 0.5);
}

}  // namespace

std::string Counts::Fingerprint() const {
  std::ostringstream out;
  out.precision(17);  // every double round-trips
  out << "ops=" << ops << " req=" << requests << " fail=" << failed
      << " slices=" << slices << " vt=" << vt_samples << '/' << vt_p50_ms << '/'
      << vt_p99_ms << " sim=" << sim_events << " kev=" << kernel_events
      << " net=" << net_frames << '/' << net_bytes << '/' << net_frames_dropped << '/'
      << net_unknown_frames << " wire=" << wire_frames << " lpm=" << lpm_requests << '/'
      << lpm_forwards << '/' << lpm_queue_depth_max << '/' << lpm_shed << '/'
      << lpm_retries << '/' << lpm_served << '/' << lpm_bcast_duplicates
      << " grp=" << gang_spawns << " store=" << store_appends << '/' << store_fsyncs
      << '/' << store_bytes << " pmd=" << pmd_requests << " spans=" << spans_started
      << '/' << spans_dropped << '/' << hop_vt_ms_p50 << " part=" << partition_exact;
  return out.str();
}

Run::Run(uint64_t seed, double scale, bool setup_only)
    : seed_(seed),
      scale_(scale),
      setup_only_(setup_only),
      rng_(seed ^ 0x70706d62656e6368ULL) {
  // Each repetition starts from empty process-wide registries, so the
  // repetitions of a run see identical state.
  obs::Registry::Instance().Reset();
  obs::Tracer::Instance().Clear();
  start_ = Clock::now();
}

core::ClusterConfig Run::Config() const {
  core::ClusterConfig config;
  config.seed = seed_;
  return config;
}

int Run::Scaled(int full_work) const {
  return std::max(1, static_cast<int>(std::lround(full_work * scale_)));
}

Run::HostTotals Run::Totals(core::Cluster& cluster) {
  HostTotals t;
  for (const std::string& name : cluster.host_names()) {
    t.kernel_events += cluster.host(name).kernel().stats().events_emitted;
    const core::Lpm* lpm = cluster.FindLpm(name, bench::kUid);
    if (lpm == nullptr) continue;
    const core::LpmStats& s = lpm->stats();
    t.delivered += s.kernel_events;
    t.requests += s.requests;
    t.forwards += s.forwards;
    t.shed += s.requests_shed;
    t.retries += s.retries;
    t.served += s.snapshots_served;
    t.bcast_duplicates += s.bcast_duplicates;
    t.gang_spawns += s.gang_spawns;
  }
  return t;
}

bool Run::BeginTimed(core::Cluster& cluster) {
  rep_.setup_s = SecondsSince(start_);
  if (setup_only_) return false;
  sim_ = &cluster.simulator();
  base_ = Totals(cluster);
  sim_events0_ = cluster.simulator().total_fired();
  rep_.counts.pmd_requests = CounterValue("pmd.requests");
  obs::Registry::Instance().Reset();
  spans_dropped0_ = obs::Tracer::Instance().spans_dropped();
  obs::prof::ProfRegistry::Instance().Reset();
  return true;
}

void Run::RunUntil(core::Cluster& cluster, const std::function<bool()>& done,
                   sim::SimDuration slice, sim::SimDuration horizon) {
  const std::vector<std::string> hosts = cluster.host_names();
  const sim::SimTime deadline =
      cluster.simulator().Now() + static_cast<sim::SimTime>(horizon);
  uint64_t& depth_max = rep_.counts.lpm_queue_depth_max;
  while (!done()) {
    if (cluster.simulator().Now() >= deadline) {
      Fail("virtual-time horizon reached before the work completed");
      return;
    }
    const Clock::time_point t0 = Clock::now();
    cluster.RunFor(slice);
    rep_.slice_s.push_back(SecondsSince(t0));
    for (const std::string& name : hosts) {
      if (const core::Lpm* lpm = cluster.FindLpm(name, bench::kUid)) {
        depth_max = std::max<uint64_t>(depth_max, lpm->queued_request_count());
      }
    }
  }
}

void Run::EndTimed(core::Cluster& cluster) {
  const HostTotals t = Totals(cluster);
  Counts& c = rep_.counts;
  c.slices = rep_.slice_s.size();
  c.requests = issued_;
  c.failed += issued_ - replied_;
  c.ops = kernel_event_ops_ ? t.delivered - base_.delivered : replied_;
  std::sort(latencies_ms_.begin(), latencies_ms_.end());
  c.vt_samples = latencies_ms_.size();
  c.vt_p50_ms = Percentile(latencies_ms_, 0.50);
  c.vt_p99_ms = Percentile(latencies_ms_, 0.99);
  c.sim_events = cluster.simulator().total_fired() - sim_events0_;
  c.kernel_events = t.kernel_events - base_.kernel_events;
  c.net_frames = CounterValue("net.frames.sent");
  c.net_bytes = CounterValue("net.bytes.sent");
  c.net_frames_dropped = CounterValue("net.frames.dropped");
  c.net_unknown_frames = CounterValue("net.op.unknown.frames");
  c.wire_frames = CounterValue("wire.frames.encoded");
  c.lpm_requests = t.requests - base_.requests;
  c.lpm_forwards = t.forwards - base_.forwards;
  c.lpm_shed = t.shed - base_.shed;
  c.lpm_retries = t.retries - base_.retries;
  c.lpm_served = t.served - base_.served;
  c.lpm_bcast_duplicates = t.bcast_duplicates - base_.bcast_duplicates;
  c.gang_spawns = t.gang_spawns - base_.gang_spawns;
  c.store_appends = CounterValue("store.journal.appends");
  c.store_fsyncs = CounterValue("store.fsyncs");
  c.store_bytes = CounterValue("store.append_bytes");
  c.pmd_requests += CounterValue("pmd.requests");
  c.spans_started = CounterValue("obs.spans.started");
  c.spans_dropped = obs::Tracer::Instance().spans_dropped() - spans_dropped0_;
  c.hop_vt_ms_p50 = RecentHopMedianMs();
  c.partition_exact = OpcodePartitionExact();
  Check(c.partition_exact, "net.op.* does not partition net.frames.sent and .bytes.sent");
  rep_.sites = obs::prof::ProfRegistry::Instance().Snapshot();  // empty without profiler
}

void Run::Reply(sim::SimTime issued_at, bool ok) {
  ++replied_;
  if (!ok) ++rep_.counts.failed;
  latencies_ms_.push_back(
      sim::ToMillis(static_cast<sim::SimDuration>(sim_->Now() - issued_at)));
}

void Run::Check(bool ok, const std::string& what) {
  // A check that fails on every reply would repeat itself thousands of
  // times; the first few say what went wrong.
  if (!ok && rep_.errors.size() < 8) rep_.errors.push_back(what);
}

Rep Run::Finish() { return std::move(rep_); }

}  // namespace ppmbench

#include "core/broadcast.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ppm::core {

void BroadcastFilter::Purge(sim::SimTime now) {
  while (!order_.empty() &&
         order_.front().first + static_cast<sim::SimTime>(window_) < now) {
    seen_.erase(order_.front().second);
    order_.pop_front();
  }
}

bool BroadcastFilter::CheckAndRecord(const std::string& origin, uint64_t seq,
                                     sim::SimTime now) {
  Purge(now);
  Key key{origin, seq};
  if (seen_.count(key)) {
    ++duplicates_;
    static obs::Counter* dups =
        obs::Registry::Instance().GetCounter("core.bcast.duplicates_suppressed");
    dups->Inc();
    return false;
  }
  // A duplicate whose original sighting already aged out of the window
  // is indistinguishable from a new request; count it if we can tell
  // from the sequence number that we must have seen it before.  (The
  // caller's per-origin sequences are monotonic, so seq < max-seen-seq
  // for this origin implies a stale re-flood.)
  auto hit = max_seq_.find(origin);
  if (hit != max_seq_.end() && seq <= hit->second) {
    ++stale_refloods_;
    static obs::Counter* stale =
        obs::Registry::Instance().GetCounter("core.bcast.stale_refloods");
    stale->Inc();
  }
  if (hit == max_seq_.end() || seq > hit->second) max_seq_[origin] = seq;
  seen_.insert(key);
  order_.emplace_back(now, std::move(key));
  return true;
}

size_t BroadcastFilter::Size(sim::SimTime now) {
  Purge(now);
  return seen_.size();
}

bool CoverageTally::Reply(const std::string& replier,
                          const std::vector<std::string>& forwarded_to) {
  if (!replied_.insert(replier).second) return false;
  outstanding_.erase(replier);
  for (const std::string& h : forwarded_to) {
    if (!replied_.count(h)) outstanding_.insert(h);
  }
  return true;
}

const std::string* PreviousHop(const std::vector<std::string>& route,
                               const std::string& self) {
  auto pos = std::find(route.begin(), route.end(), self);
  if (pos == route.end() || pos == route.begin()) return nullptr;
  return &*(pos - 1);
}

}  // namespace ppm::core

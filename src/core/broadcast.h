// broadcast.h — the parts of the graph-covering broadcast that do no I/O.
//
// The sibling graph is deliberately low-connectivity, so broadcast
// requests are flooded: every LPM re-sends a request to all siblings
// except the one it came from.  A cyclic graph would echo requests
// forever; the paper's remedy (Section 4) is "a signed timestamp in
// which the name of the originating host appears", remembered for a
// configurable time window.  BroadcastFilter is that memory: a set of
// <origin host, sequence> pairs with timestamps, purged lazily once they
// age past the window.  CoverageTally and PreviousHop are the rest: the
// origin's reply bookkeeping, and the step of a reply retracing the
// recorded route.  The sends themselves live in Lpm::Flood.
//
// The window is a genuine tuning knob ("whose optimum value will be
// derived from experience"): too short and a slow duplicate is
// re-flooded; too long and memory grows with broadcast rate.
// bench_ablate_bcast_window measures both effects.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace ppm::core {

class BroadcastFilter {
 public:
  explicit BroadcastFilter(sim::SimDuration window) : window_(window) {}

  // Records <origin, seq> seen at `now`.  Returns true if this is the
  // first sighting within the window (i.e. the request should be
  // processed and re-flooded), false for a duplicate.
  bool CheckAndRecord(const std::string& origin, uint64_t seq, sim::SimTime now);

  // Entries currently retained (after purging against `now`).
  size_t Size(sim::SimTime now);

  sim::SimDuration window() const { return window_; }
  uint64_t duplicates_suppressed() const { return duplicates_; }
  uint64_t stale_refloods() const { return stale_refloods_; }

 private:
  struct Key {
    std::string origin;
    uint64_t seq;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>()(k.origin) * 1315423911u ^ std::hash<uint64_t>()(k.seq);
    }
  };

  void Purge(sim::SimTime now);

  sim::SimDuration window_;
  std::unordered_set<Key, KeyHash> seen_;
  std::deque<std::pair<sim::SimTime, Key>> order_;  // purge queue
  std::unordered_map<std::string, uint64_t> max_seq_;  // stale-re-flood detector
  uint64_t duplicates_ = 0;
  uint64_t stale_refloods_ = 0;  // duplicates admitted because the entry aged out
};

// The origin's coverage tally of one request/reply broadcast.  A flood
// reaches hosts the origin never addressed, so the origin cannot know
// the covering graph up front; instead every reply names the hosts its
// sender re-flooded to (`forwarded_to`), and those join the outstanding
// set unless they already replied.  The broadcast is complete when
// nothing is outstanding (or the origin's timeout fires first).
class CoverageTally {
 public:
  CoverageTally() = default;
  // The origin counts as replied; `flooded_to` are its own flood targets.
  CoverageTally(const std::string& origin, const std::vector<std::string>& flooded_to)
      : replied_{origin}, outstanding_(flooded_to.begin(), flooded_to.end()) {}

  // Counts one reply.  False (and no change) for a second reply from the
  // same host.
  bool Reply(const std::string& replier, const std::vector<std::string>& forwarded_to);

  bool done() const { return outstanding_.empty(); }
  // Hosts that replied, the origin included, sorted.
  std::vector<std::string> Covered() const { return {replied_.begin(), replied_.end()}; }

 private:
  std::set<std::string> replied_;
  std::set<std::string> outstanding_;
};

// The next hop of a reply walking a recorded source-destination route
// (origin first) back toward the origin: the host before `self`.
// nullptr when `self` is the origin or not on the route.
const std::string* PreviousHop(const std::vector<std::string>& route,
                               const std::string& self);

}  // namespace ppm::core

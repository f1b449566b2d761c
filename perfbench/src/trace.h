// Spans recorded by the benchmark around calls into the program's public
// entry points, and the reducer that turns them into per-layer self times.
//
// A span has a name, a request id shared by every span of one request, a
// parent (-1 for a root) and steady_clock start/end times. Each recording
// thread owns its Tracer (no locking on the hot path); spans stay in memory
// and are reduced once the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return ToNs(Clock::now()); }

struct Span {
  const char* name = "";  // a string literal: spans never own their names
  uint64_t request = 0;
  int parent = -1;  // index into the same span vector; -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Opens a span and returns its index (pass it to End and as the
  /// parent of child spans).
  int Begin(const char* name, uint64_t request, int parent = -1) {
    spans_.push_back({name, request, parent, 0, 0});
    spans_.back().start_ns = NowNs();
    return (int)spans_.size() - 1;
  }
  void End(int id) { EndAt(id, NowNs()); }
  void EndAt(int id, int64_t end_ns) { spans_[(size_t)id].end_ns = end_ns; }

  /// Appends another thread's spans, re-basing their parent indices.
  void Merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name reduction of a span set.
struct LayerTime {
  size_t count = 0;
  double incl_us = 0;  // summed span durations
  double self_us = 0;  // summed durations minus the union of child spans
  std::vector<double> durations_us;  // one per span, for percentiles
  double mean_incl_us() const { return count ? incl_us / count : 0; }
  double mean_self_us() const { return count ? self_us / count : 0; }
};

/// Self time of a span = its duration minus the part of its interval that
/// its children's intervals (clipped to it, overlaps merged) cover.
std::map<std::string, LayerTime> ReduceSpans(const std::vector<Span>& spans);

/// What the in-process stages do not explain of a wire call: the mean
/// wire call time minus the sum of the per-request stage means (event
/// loop, socket, pool queue and contention live here).
double ResidualUs(double call_mean_us, const std::vector<double>& stage_means_us);

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
double Percentile(std::vector<double> xs, double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

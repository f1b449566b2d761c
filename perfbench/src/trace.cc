#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

void Tracer::Merge(const Tracer& other) {
  const int base = (int)spans_.size();
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, LayerTime> ReduceSpans(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[(size_t)spans[i].parent].push_back((int)i);

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (int c : children[i]) {
      const int64_t lo = std::max(spans[(size_t)c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[(size_t)c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;

    const double dur_us = (double)(s.end_ns - s.start_ns) / 1e3;
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.incl_us += dur_us;
    lt.self_us += dur_us - (double)covered / 1e3;
    lt.durations_us.push_back(dur_us);
  }
  return out;
}

double ResidualUs(double call_mean_us,
                  const std::vector<double>& stage_means_us) {
  double stages = 0;
  for (double m : stage_means_us) stages += m;
  return call_mean_us - stages;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * (double)(xs.size() - 1);
  const size_t lo = (size_t)rank;
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - (double)lo;
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

}  // namespace perfbench

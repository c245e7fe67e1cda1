// Measurement logic of sqlnf-bench that does not touch the engine:
// percentiles, trace spans with self time, and the key model the
// point_rw workload checks the server's committed state against.
// Header-only so the unit tests in perfbench/tests build it without
// the benchmark's HTTP machinery.
#ifndef SQLNF_PERFBENCH_BENCH_STATS_H_
#define SQLNF_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sqlnf_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile: the smallest sample such that at least
/// p·n samples are at or below it (p in [0, 1]). 0 for no samples.
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

inline double Median(std::vector<double> xs) {
  return Percentile(std::move(xs), 0.5);
}

/// One traced call: [start_ns, end_ns) of `name`, caused by span
/// `parent` (-1 for a root), on behalf of request `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
};

/// Spans of one thread, kept in memory until the run ends. Span ids
/// are indexes into spans().
class SpanLog {
 public:
  int Begin(std::string name, int parent, int64_t request) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NowNs(); }
  /// Records a span timed elsewhere (e.g. on a server worker thread).
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by its children. Overlapping children count once,
/// and a child reaching outside its parent counts only inside it.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int>(spans.size())) {
      const Span& p = spans[s.parent];
      const int64_t b = std::max(s.start_ns, p.start_ns);
      const int64_t e = std::min(s.end_ns, p.end_ns);
      if (b < e) kids[s.parent].push_back({b, e});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_b;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Median self time per span name, in microseconds.
inline std::map<std::string, double> MedianSelfUs(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::map<std::string, double> out;
  for (auto& [name, xs] : by_name) out[name] = Median(std::move(xs));
  return out;
}

/// The committed contents point_rw expects: key → payload version.
/// Payloads are "p<key>v<version>", so a read can be checked against
/// a range of versions when another connection owns the key.
class KeyModel {
 public:
  static std::string Payload(int64_t key, int version) {
    return "p" + std::to_string(key) + "v" + std::to_string(version);
  }

  void Insert(int64_t key) { versions_[key] = 0; }
  void Update(int64_t key) { ++versions_[key]; }
  void Erase(int64_t key) { versions_.erase(key); }
  bool Contains(int64_t key) const { return versions_.contains(key); }
  int Version(int64_t key) const { return versions_.at(key); }
  size_t size() const { return versions_.size(); }
  const std::map<int64_t, int>& versions() const { return versions_; }

  /// Adds every key of `other` (models of disjoint key classes).
  void Merge(const KeyModel& other) {
    for (const auto& [k, v] : other.versions_) versions_[k] = v;
  }

  /// Differences between the model and an observed key → payload map:
  /// missing keys, extra keys, and keys whose payload differs. Empty
  /// when they agree.
  std::vector<std::string> Diff(
      const std::map<int64_t, std::string>& observed) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : versions_) {
      auto it = observed.find(k);
      if (it == observed.end()) {
        out.push_back("missing key " + std::to_string(k));
      } else if (it->second != Payload(k, v)) {
        out.push_back("key " + std::to_string(k) + " holds " + it->second +
                      ", model " + Payload(k, v));
      }
    }
    for (const auto& [k, payload] : observed) {
      if (!versions_.contains(k)) {
        out.push_back("extra key " + std::to_string(k));
      }
    }
    return out;
  }

 private:
  std::map<int64_t, int> versions_;
};

}  // namespace sqlnf_bench

#endif  // SQLNF_PERFBENCH_BENCH_STATS_H_

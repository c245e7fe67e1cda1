// Tests of sqlnf-bench's own measurement logic: nearest-rank
// percentiles on known vectors, span self time with nested and
// overlapping children, and the key model catching a dropped write.
// Plain checks with no framework, so the benchmark builds with only a
// compiler and CMake.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentiles() {
  using sqlnf_bench::Percentile;
  Expect(Percentile({}, 0.5) == 0, "empty sample is 0");
  Expect(Percentile({7}, 0.99) == 7, "single sample");
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(Percentile(ten, 0.5) == 5, "p50 of 1..10 is 5 (nearest rank)");
  Expect(Percentile(ten, 0.9) == 9, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 0.99) == 10, "p99 of 1..10 is 10");
  Expect(Percentile(ten, 0) == 1, "p0 is the minimum");
  Expect(Percentile(ten, 1) == 10, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(sqlnf_bench::Median({3, 1, 2, 4}) == 2, "even count: lower middle");
}

void TestSelfTime() {
  using sqlnf_bench::Span;
  // root [0,100) with children [10,30) and [20,50) overlapping, and a
  // grandchild [12,18) inside the first child; a child reaching past
  // the root's end counts only inside it.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},   // 0
      {"a", 10, 30, 0, 1},       // 1
      {"b", 20, 50, 0, 1},       // 2
      {"c", 12, 18, 1, 1},       // 3
      {"d", 90, 130, 0, 1},      // 4: sticks out of root by 30
  };
  const std::vector<int64_t> self = sqlnf_bench::SelfTimes(spans);
  // root covered by [10,50) ∪ [90,100) = 50 → self 50.
  Expect(self[0] == 50, "root self time subtracts the union of children");
  Expect(self[1] == 14, "nested child subtracts its grandchild");
  Expect(self[2] == 30, "leaf span self time is its duration");
  Expect(self[3] == 6, "grandchild leaf");
  Expect(self[4] == 40, "leaf sticking out keeps its full duration");
  const std::map<std::string, double> med = sqlnf_bench::MedianSelfUs(
      {{"x", 0, 2000, -1, 1}, {"x", 0, 4000, -1, 2}, {"x", 0, 9000, -1, 3}});
  Expect(med.at("x") == 4.0, "median self time per name, in us");
}

void TestKeyModel() {
  using sqlnf_bench::KeyModel;
  KeyModel model;
  for (int64_t k = 0; k < 4; ++k) model.Insert(k);
  model.Update(2);
  model.Insert(10);
  model.Erase(3);
  std::map<int64_t, std::string> observed = {
      {0, KeyModel::Payload(0, 0)},
      {1, KeyModel::Payload(1, 0)},
      {2, KeyModel::Payload(2, 1)},
      {10, KeyModel::Payload(10, 0)},
  };
  Expect(model.Diff(observed).empty(), "model agrees with its own history");

  std::map<int64_t, std::string> lost_update = observed;
  lost_update[2] = KeyModel::Payload(2, 0);
  Expect(model.Diff(lost_update).size() == 1, "dropped UPDATE is caught");

  std::map<int64_t, std::string> lost_insert = observed;
  lost_insert.erase(10);
  Expect(model.Diff(lost_insert).size() == 1, "dropped INSERT is caught");

  std::map<int64_t, std::string> lost_delete = observed;
  lost_delete[3] = KeyModel::Payload(3, 0);
  Expect(model.Diff(lost_delete).size() == 1, "dropped DELETE is caught");

  KeyModel other;
  other.Insert(11);
  model.Merge(other);
  Expect(model.size() == 5 && model.Contains(11), "merge adds keys");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestKeyModel();
  if (failures == 0) std::printf("bench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

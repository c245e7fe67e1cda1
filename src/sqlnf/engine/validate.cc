#include "sqlnf/engine/validate.h"

#include <atomic>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/util/fnv.h"
#include "sqlnf/util/mutex.h"
#include "sqlnf/util/parallel.h"

namespace sqlnf {

namespace {

// Tables below this row count are validated serially even when the
// caller asks for threads: the pool + merge overhead dwarfs the scan.
constexpr int kParallelRowThreshold = 2048;

// True when parallelism is requested and the table is big enough to
// amortize a pool.
bool WantPool(int num_rows, const ParallelOptions& par) {
  return par.threads > 1 && num_rows >= kParallelRowThreshold;
}

std::vector<int> AllRows(int n) {
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

using BucketList = std::vector<std::vector<int>>;
using BucketMap = std::unordered_map<uint64_t, std::vector<int>>;

// A contiguous view of one bucket's row ids.
struct Span {
  const int* data = nullptr;
  size_t size = 0;
};

// Bucketed rows behind a uniform scan surface: `spans` is what
// ScanBuckets walks; `owned` (hash path) or `csr` (radix path) holds
// the storage the spans point into. Radix buckets live side by side in
// one flat array instead of one heap vector per dictionary entry.
struct Buckets {
  std::vector<Span> spans;
  BucketList owned;
  std::vector<int> csr;
};

Buckets FromBucketList(BucketList list) {
  Buckets out;
  out.owned = std::move(list);
  out.spans.reserve(out.owned.size());
  for (const std::vector<int>& b : out.owned) {
    out.spans.push_back({b.data(), b.size()});
  }
  return out;
}

// Buckets row ids by an integer key. With a pool, each thread buckets a
// contiguous slice of `rows`, and the slices merge in slice order —
// bucket contents come out in ascending row order either way.
template <typename KeyFn>
BucketList HashBuckets(const std::vector<int>& rows, KeyFn&& key,
                       ThreadPool* pool) {
  BucketMap map;
  if (pool == nullptr) {
    map.reserve(rows.size());
    for (int i : rows) map[key(i)].push_back(i);
  } else {
    map = ParallelReduce<BucketMap>(
        *pool, 0, static_cast<int64_t>(rows.size()), BucketMap{},
        [&](int64_t b, int64_t e) {
          BucketMap local;
          local.reserve(e - b);
          for (int64_t k = b; k < e; ++k) {
            local[key(rows[k])].push_back(rows[k]);
          }
          return local;
        },
        [](BucketMap acc, BucketMap part) {
          if (acc.empty()) return part;
          for (auto& [hash, ids] : part) {
            auto& dst = acc[hash];
            dst.insert(dst.end(), ids.begin(), ids.end());
          }
          return acc;
        });
  }
  BucketList out;
  out.reserve(map.size());
  for (auto& [hash, ids] : map) out.push_back(std::move(ids));
  return out;
}

// Scans every bucket for a pair with bad(i, j), short-circuiting on the
// first one. With a pool, buckets are claimed dynamically (one task per
// multi-row bucket) and a found-flag stops the remaining scans early;
// any violating pair is a correct witness, so the parallel pick may
// differ from the serial one.
template <typename BadFn>
std::optional<Violation> ScanBuckets(const Buckets& buckets, BadFn&& bad,
                                     ThreadPool* pool) {
  auto scan_one = [&](const Span& bucket) -> std::optional<Violation> {
    for (size_t i = 0; i < bucket.size; ++i) {
      for (size_t j = i + 1; j < bucket.size; ++j) {
        if (bad(bucket.data[i], bucket.data[j])) {
          return Violation{bucket.data[i], bucket.data[j], std::nullopt,
                           std::nullopt};
        }
      }
    }
    return std::nullopt;
  };
  if (pool == nullptr) {
    for (const Span& bucket : buckets.spans) {
      if (auto violation = scan_one(bucket)) return violation;
    }
    return std::nullopt;
  }
  std::vector<const Span*> work;
  work.reserve(buckets.spans.size());
  for (const Span& bucket : buckets.spans) {
    if (bucket.size > 1) work.push_back(&bucket);
  }
  std::atomic<bool> found{false};
  Mutex mu;
  std::optional<Violation> result;
  pool->RunTasks(static_cast<int>(work.size()), [&](int k) {
    if (found.load(std::memory_order_relaxed)) return;
    if (auto violation = scan_one(*work[k])) {
      MutexLock lock(mu);
      if (!result) result = violation;
      found.store(true, std::memory_order_relaxed);
    }
  });
  return result;
}

// ---- code kernels ----------------------------------------------------

uint64_t HashCodesOn(const EncodedTable& enc, int row,
                     const AttributeSet& attrs) {
  uint64_t h = kFnv64OffsetBasis;
  for (AttributeId a : attrs) h = FnvMix(h, enc.code(a, row));
  return h;
}

bool CodesEqualOn(const EncodedTable& enc, int r1, int r2,
                  const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (enc.code(a, r1) != enc.code(a, r2)) return false;
  }
  return true;
}

bool CodesWeaklySimilarOn(const EncodedTable& enc, int r1, int r2,
                          const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (!CodesWeaklySimilar(enc.code(a, r1), enc.code(a, r2))) return false;
  }
  return true;
}

bool RowTotalOn(const EncodedTable& enc, int row,
                const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (enc.code(a, row) == EncodedTable::kNullCode) return false;
  }
  return true;
}

// Buckets `rows` by their codes on `group`. Rows must be total on
// `group` (both call sites guarantee it). Single-column groups
// radix-bucket directly on the dense code value — no hashing and no
// collisions; wider groups hash-mix the codes, and *exact is cleared so
// the scan re-confirms group equality per pair.
//
// The radix path is a CSR count → prefix → scatter build: row codes
// are gathered through simd::GatherCodes, histogrammed per code, and
// scattered into one flat row array — bucket contents stay in
// ascending row order (stable scatter over an ascending row list),
// matching the hash path's ordering guarantee.
Buckets BucketByCodes(const EncodedTable& enc, const AttributeSet& group,
                      const std::vector<int>& rows, ThreadPool* pool,
                      bool* exact) {
  *exact = true;
  if (group.empty()) {
    Buckets out;
    out.csr = rows;
    if (!out.csr.empty()) out.spans.push_back({out.csr.data(), out.csr.size()});
    return out;
  }
  if (group.size() == 1) {
    const AttributeId a = *group.begin();
    // Rows are total on `a`, so every gathered code is a dense
    // dictionary code < d — the histogram needs no sentinel slot.
    const size_t d = static_cast<size_t>(enc.dictionary_size(a));
    const int n = static_cast<int>(rows.size());
    std::vector<uint32_t> codes(rows.size());
    simd::GatherCodes(simd::ActiveLevel(), enc.column(a).data(), rows.data(),
                      n, codes.data());
    std::vector<uint32_t> starts(d + 1, 0);
    for (int k = 0; k < n; ++k) ++starts[codes[k] + 1];
    for (size_t c = 1; c <= d; ++c) starts[c] += starts[c - 1];
    Buckets out;
    out.csr.resize(rows.size());
    std::vector<uint32_t> cursor(starts.begin(), starts.end() - 1);
    for (int k = 0; k < n; ++k) out.csr[cursor[codes[k]]++] = rows[k];
    out.spans.reserve(d);
    for (size_t c = 0; c < d; ++c) {
      const size_t len = starts[c + 1] - starts[c];
      if (len > 0) out.spans.push_back({out.csr.data() + starts[c], len});
    }
    return out;
  }
  *exact = false;
  return FromBucketList(HashBuckets(
      rows, [&](int i) { return HashCodesOn(enc, i, group); }, pool));
}

}  // namespace

std::optional<Violation> FindFdViolationEncoded(
    const EncodedTable& enc, const FunctionalDependency& fd,
    const ParallelOptions& par) {
  assert(fd.lhs.Union(fd.rhs).IsSubsetOf(enc.encoded_columns()));
  std::optional<ThreadPool> pool;
  if (WantPool(enc.num_rows(), par)) pool.emplace(par.threads);
  ThreadPool* p = pool ? &*pool : nullptr;
  std::optional<Violation> violation;
  bool exact = false;
  if (fd.is_possible()) {
    // Only rows total on the LHS participate; strong similarity within
    // a full-LHS bucket is automatic.
    std::vector<int> rows;
    for (int i = 0; i < enc.num_rows(); ++i) {
      if (RowTotalOn(enc, i, fd.lhs)) rows.push_back(i);
    }
    Buckets buckets = BucketByCodes(enc, fd.lhs, rows, p, &exact);
    violation = ScanBuckets(
        buckets,
        [&](int i, int j) {
          return (exact || CodesEqualOn(enc, i, j, fd.lhs)) &&
                 !CodesEqualOn(enc, i, j, fd.rhs);
        },
        p);
  } else {
    const AttributeSet group = fd.lhs.Intersect(enc.NullFreeColumns());
    const AttributeSet rest = fd.lhs.Difference(group);
    Buckets buckets =
        BucketByCodes(enc, group, AllRows(enc.num_rows()), p, &exact);
    violation = ScanBuckets(
        buckets,
        [&](int i, int j) {
          return (exact || CodesEqualOn(enc, i, j, group)) &&
                 CodesWeaklySimilarOn(enc, i, j, rest) &&
                 !CodesEqualOn(enc, i, j, fd.rhs);
        },
        p);
  }
  if (violation) violation->constraint = Constraint(fd);
  return violation;
}

std::optional<Violation> FindKeyViolationEncoded(const EncodedTable& enc,
                                                 const KeyConstraint& key,
                                                 const ParallelOptions& par) {
  assert(key.attrs.IsSubsetOf(enc.encoded_columns()));
  std::optional<ThreadPool> pool;
  if (WantPool(enc.num_rows(), par)) pool.emplace(par.threads);
  ThreadPool* p = pool ? &*pool : nullptr;
  std::optional<Violation> violation;
  bool exact = false;
  if (key.is_possible()) {
    std::vector<int> rows;
    for (int i = 0; i < enc.num_rows(); ++i) {
      if (RowTotalOn(enc, i, key.attrs)) rows.push_back(i);
    }
    Buckets buckets = BucketByCodes(enc, key.attrs, rows, p, &exact);
    violation = ScanBuckets(
        buckets,
        [&](int i, int j) {
          return exact || CodesEqualOn(enc, i, j, key.attrs);
        },
        p);
  } else {
    const AttributeSet group = key.attrs.Intersect(enc.NullFreeColumns());
    const AttributeSet rest = key.attrs.Difference(group);
    Buckets buckets =
        BucketByCodes(enc, group, AllRows(enc.num_rows()), p, &exact);
    violation = ScanBuckets(
        buckets,
        [&](int i, int j) {
          return (exact || CodesEqualOn(enc, i, j, group)) &&
                 CodesWeaklySimilarOn(enc, i, j, rest);
        },
        p);
  }
  if (violation) violation->constraint = Constraint(key);
  return violation;
}

bool ValidateAllEncoded(const EncodedTable& enc, const AttributeSet& nfs,
                        const ConstraintSet& sigma,
                        const ParallelOptions& par) {
  assert(nfs.IsSubsetOf(enc.encoded_columns()));
  if (!nfs.IsSubsetOf(enc.NullFreeColumns())) return false;
  for (const auto& fd : sigma.fds()) {
    if (FindFdViolationEncoded(enc, fd, par)) return false;
  }
  for (const auto& key : sigma.keys()) {
    if (FindKeyViolationEncoded(enc, key, par)) return false;
  }
  return true;
}

}  // namespace sqlnf

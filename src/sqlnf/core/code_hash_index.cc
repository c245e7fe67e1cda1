#include "sqlnf/core/code_hash_index.h"

#include <algorithm>

#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/util/fnv.h"
#include "sqlnf/util/parallel.h"

namespace sqlnf {
namespace {

// Rows per bucket-id tile in the count/fill passes: big enough to
// amortize the kernel dispatch, small enough that the uint32 bucket-id
// scratch stays in L1 alongside the histogram.
constexpr int kHashTile = 512;

}  // namespace

uint64_t CodeHashIndex::HashKey(
    const std::vector<const std::vector<uint32_t>*>& keys, int row) {
  uint64_t h = kFnv64OffsetBasis;
  for (const std::vector<uint32_t>* col : keys) {
    h = FnvMix(h, (*col)[row]);
  }
  return h;
}

void CodeHashIndex::HashRows(
    const std::vector<const std::vector<uint32_t>*>& keys, int begin,
    int end, uint64_t* out) {
  const int n = end - begin;
  if (n <= 0) return;
  std::fill(out, out + n, kFnv64OffsetBasis);
  // Column-major mixing: every row folds its columns in list order,
  // exactly the HashKey sequence, just batched across rows.
  for (const std::vector<uint32_t>* col : keys) {
    simd::FnvMixCodes(col->data() + begin, n, out);
  }
}

CodeHashIndex::CodeHashIndex(
    const std::vector<const std::vector<uint32_t>*>& keys, int rows,
    ThreadPool* pool) {
  uint64_t buckets = 1;
  while (buckets < static_cast<uint64_t>(rows)) buckets <<= 1;
  mask_ = buckets - 1;
  hashes_.resize(rows);
  starts_.assign(buckets + 1, 0);
  row_ids_.resize(rows);
  if (rows == 0) return;

  // One histogram per chunk keeps the fill pass synchronization-free;
  // chunks = threads bounds the transient memory at threads × buckets.
  const int chunks = pool == nullptr ? 1 : pool->num_threads();
  const int per_chunk = (rows + chunks - 1) / chunks;
  std::vector<uint32_t> cursors(static_cast<size_t>(chunks) * buckets, 0);
  auto run = [&](const std::function<void(int)>& task) {
    if (pool == nullptr) {
      task(0);
    } else {
      pool->RunTasks(chunks, task);
    }
  };

  // Count: hash every row once (batched column-major mixing), then
  // histogram per (chunk, bucket) by tiling the bucket-id fold through
  // simd::FoldMask — the scatter increment itself stays scalar.
  const simd::Level level = simd::ActiveLevel();
  run([&](int c) {
    uint32_t* counts = cursors.data() + static_cast<size_t>(c) * buckets;
    const int b = c * per_chunk;
    const int e = std::min(rows, b + per_chunk);
    if (b >= e) return;
    HashRows(keys, b, e, hashes_.data() + b);
    uint32_t ids[kHashTile];
    for (int at = b; at < e; at += kHashTile) {
      const int len = std::min(kHashTile, e - at);
      simd::FoldMask(level, hashes_.data() + at, len, mask_, ids);
      for (int i = 0; i < len; ++i) ++counts[ids[i]];
    }
  });

  // Exclusive prefix sum, bucket-major with chunks in order inside each
  // bucket: chunk c's cursor for bucket b starts where chunk c−1's rows
  // for b end, so ascending chunks (= ascending row ranges) land in
  // ascending slots and every bucket lists its rows in ascending order.
  uint32_t total = 0;
  for (uint64_t b = 0; b < buckets; ++b) {
    starts_[b] = total;
    for (int c = 0; c < chunks; ++c) {
      uint32_t* cursor = cursors.data() + static_cast<size_t>(c) * buckets + b;
      const uint32_t count = *cursor;
      *cursor = total;
      total += count;
    }
  }
  starts_[buckets] = total;

  // Fill: scatter row ids through the per-chunk cursors, re-deriving
  // bucket ids tile-wise from the cached hashes.
  run([&](int c) {
    uint32_t* cursor = cursors.data() + static_cast<size_t>(c) * buckets;
    const int b = c * per_chunk;
    const int e = std::min(rows, b + per_chunk);
    uint32_t ids[kHashTile];
    for (int at = b; at < e; at += kHashTile) {
      const int len = std::min(kHashTile, e - at);
      simd::FoldMask(level, hashes_.data() + at, len, mask_, ids);
      for (int i = 0; i < len; ++i) {
        row_ids_[cursor[ids[i]]++] = at + i;
      }
    }
  });
}

}  // namespace sqlnf

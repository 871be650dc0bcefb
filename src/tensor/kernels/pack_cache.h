#ifndef PRISTI_TENSOR_KERNELS_PACK_CACHE_H_
#define PRISTI_TENSOR_KERNELS_PACK_CACHE_H_

// Internal interface between the tiled SGEMM driver (sgemm.cc) and the
// packed-panel cache (pack_cache.cc). Not part of the public kernel API —
// include tensor/kernels/kernels.h instead.
//
// The cache maps a panel identity — which storage bytes, which layout,
// which panel format — to the packed float buffer produced from them. The
// storage version is NOT part of the map key: it is stored in the entry and
// checked on lookup, so a mutated weight misses once, repacks, and replaces
// its own stale entry in place instead of leaking one dead panel per
// optimizer step.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/kernels/kernels.h"

namespace pristi::tensor::kernels {

// Process-wide atomic counters behind GetKernelStats(). Shared by sgemm.cc
// (calls/flops/packs) and pack_cache.cc (hits/misses/bytes).
struct KernelCounters {
  std::atomic<uint64_t> gemm_calls{0};
  std::atomic<uint64_t> flops{0};
  std::atomic<uint64_t> panels_packed{0};
  std::atomic<uint64_t> pack_cache_hits{0};
  std::atomic<uint64_t> pack_cache_misses{0};
  std::atomic<uint64_t> pack_cache_bytes{0};
  std::atomic<uint64_t> fused_attn_rows{0};
  std::atomic<uint64_t> fused_attn_kv_blocks{0};
  std::atomic<uint64_t> fused_attn_bytes_avoided{0};
};

KernelCounters& Counters();

// Identity of a packed panel: which bytes (storage id + element offset),
// read how (layout), packed into which format (operand 'A' = kRowTile-
// interleaved row panels, 'B' = kColTile-interleaved column panels), with
// which logical dims (rows/cols of the STORED matrix as the kernel sees it:
// m x k for A, k x n for B), and the row stride of a strided operand (the
// fused-attention K, whose heads share each row; 0 for a contiguous one).
struct PackKey {
  uint64_t storage_id = 0;
  int64_t offset = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  Layout layout = Layout::kNormal;
  char operand = 'B';
  int64_t stride = 0;
};

// Panels are immutable once packed and shared by reference, so an evicted
// entry stays valid for any GEMM still holding it.
using PackedPanel = std::shared_ptr<const std::vector<float>>;

// Returns the cached panel iff an entry with this identity exists AND was
// packed from the given storage version; counts a hit/miss either way.
PackedPanel PackCacheLookup(const PackKey& key, uint64_t version);

// Installs (or replaces, if the identity already exists at an older
// version) a freshly packed panel, then evicts least-recently-used entries
// until the byte cap holds.
void PackCacheInsert(const PackKey& key, uint64_t version, PackedPanel panel);

// Storage-destruction hook (called by ~Storage): drops every entry packed
// from this storage id. Ids are process-unique, so such entries can never
// hit again — without this, panels of short-lived cacheable tensors would
// sit resident until LRU pressure evicted them, pushing live weight panels
// out of the byte cap. Cheap for the common (never-cached) storage: an
// atomic emptiness check, then one hash probe under the lock.
void PackCacheOnStorageDestroyed(uint64_t storage_id);

}  // namespace pristi::tensor::kernels

#endif  // PRISTI_TENSOR_KERNELS_PACK_CACHE_H_

#include "tensor/storage.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.h"

// Forward-declared instead of including pack_cache.h: the hook is the one
// point of contact between storage and the kernel layer's panel cache.
namespace pristi::tensor::kernels {
void PackCacheOnStorageDestroyed(uint64_t storage_id);
}  // namespace pristi::tensor::kernels

namespace pristi::tensor {
namespace {

// Buckets are powers of two from 64 floats (256 B — below that the header
// overhead dominates and glibc's fastbins are already fine) up to 1 Gi
// floats (4 GiB). Requests above the top bucket bypass the pool entirely.
constexpr int kMinBucketLog2 = 6;
constexpr int kMaxBucketLog2 = 30;
constexpr int kNumBuckets = kMaxBucketLog2 - kMinBucketLog2 + 1;
// Blocks a thread keeps privately per bucket before spilling to the shared
// free list. The sampler's steady state needs only a handful of distinct
// sizes live at once, so a shallow cache captures nearly all reuse.
constexpr int kThreadCacheDepth = 4;
// Cap on capacity bytes cached in the free lists (512 MiB). A free that
// would push the pool past it goes back to the heap instead.
constexpr uint64_t kMaxPooledBytes = uint64_t{512} << 20;

int BucketFor(int64_t numel) {
  if (numel > (int64_t{1} << kMaxBucketLog2)) return -1;
  int bucket = 0;
  while ((int64_t{1} << (kMinBucketLog2 + bucket)) < numel) ++bucket;
  return bucket;
}

int64_t BucketCapacity(int bucket) {
  return int64_t{1} << (kMinBucketLog2 + bucket);
}

struct Counters {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> heap_allocs{0};
  std::atomic<uint64_t> bytes_requested{0};
  std::atomic<uint64_t> live_bytes{0};
  std::atomic<uint64_t> pooled_bytes{0};
  std::atomic<uint64_t> peak_live_bytes{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

void NoteLiveBytes(uint64_t added) {
  Counters& c = counters();
  uint64_t live =
      c.live_bytes.fetch_add(added, std::memory_order_relaxed) + added;
  uint64_t peak = c.peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !c.peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

struct GlobalPool {
  std::mutex mu;
  std::vector<float*> free_lists[kNumBuckets];
};

GlobalPool& global_pool() {
  // Leaked deliberately: thread-local cache destructors flush here during
  // thread teardown, which can outlive static destruction order.
  static GlobalPool* pool = std::make_unique<GlobalPool>().release();
  return *pool;
}

float* HeapAllocate(int64_t capacity) {
  counters().heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::allocator<float>().allocate(static_cast<size_t>(capacity));
}

void HeapFree(float* p, int64_t capacity) {
  std::allocator<float>().deallocate(p, static_cast<size_t>(capacity));
}

// Per-thread front cache. Destructor hands any cached blocks to the global
// pool so worker-thread exits do not strand capacity.
struct ThreadCache {
  float* blocks[kNumBuckets][kThreadCacheDepth] = {};
  int count[kNumBuckets] = {};

  ~ThreadCache() {
    GlobalPool& pool = global_pool();
    std::scoped_lock lock(pool.mu);
    for (int b = 0; b < kNumBuckets; ++b) {
      for (int i = 0; i < count[b]; ++i) {
        pool.free_lists[b].push_back(blocks[b][i]);
      }
      count[b] = 0;
    }
  }
};

thread_local ThreadCache t_cache;

float* PoolAcquire(int bucket) {
  ThreadCache& cache = t_cache;
  if (cache.count[bucket] > 0) {
    return cache.blocks[bucket][--cache.count[bucket]];
  }
  GlobalPool& pool = global_pool();
  std::scoped_lock lock(pool.mu);
  std::vector<float*>& list = pool.free_lists[bucket];
  if (list.empty()) return nullptr;
  float* p = list.back();
  list.pop_back();
  return p;
}

// Returns false when the pool is full and the caller should free to the heap.
bool PoolRelease(float* p, int bucket) {
  const uint64_t capacity_bytes =
      static_cast<uint64_t>(BucketCapacity(bucket)) * sizeof(float);
  Counters& c = counters();
  uint64_t pooled = c.pooled_bytes.load(std::memory_order_relaxed);
  if (pooled + capacity_bytes > kMaxPooledBytes) return false;
  c.pooled_bytes.fetch_add(capacity_bytes, std::memory_order_relaxed);
  ThreadCache& cache = t_cache;
  if (cache.count[bucket] < kThreadCacheDepth) {
    cache.blocks[bucket][cache.count[bucket]++] = p;
    return true;
  }
  GlobalPool& pool = global_pool();
  std::scoped_lock lock(pool.mu);
  pool.free_lists[bucket].push_back(p);
  return true;
}

}  // namespace

Storage::Storage(int64_t numel) {
  PRISTI_CHECK(numel > 0) << "Storage::Allocate requires numel > 0, got "
                          << numel << " (empty tensors hold no storage)";
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  size_ = numel;
  bucket_ = BucketFor(numel);
  const int64_t capacity = bucket_ >= 0 ? BucketCapacity(bucket_) : numel;

  Counters& c = counters();
  c.requests.fetch_add(1, std::memory_order_relaxed);
  c.bytes_requested.fetch_add(static_cast<uint64_t>(numel) * sizeof(float),
                              std::memory_order_relaxed);
  const uint64_t capacity_bytes =
      static_cast<uint64_t>(capacity) * sizeof(float);

  if (bucket_ >= 0) {
    data_ = PoolAcquire(bucket_);
    if (data_ != nullptr) {
      c.pool_hits.fetch_add(1, std::memory_order_relaxed);
      c.pooled_bytes.fetch_sub(capacity_bytes, std::memory_order_relaxed);
    }
  }
  if (data_ == nullptr) data_ = HeapAllocate(capacity);
  NoteLiveBytes(capacity_bytes);
}

Storage::~Storage() {
  // Packed panels keyed on this id can never hit again (ids are unique for
  // the process lifetime); drop them now instead of letting dead panels
  // squat in the cache until LRU pressure pushes live weights out.
  kernels::PackCacheOnStorageDestroyed(id_);
  const int64_t capacity = bucket_ >= 0 ? BucketCapacity(bucket_) : size_;
  counters().live_bytes.fetch_sub(
      static_cast<uint64_t>(capacity) * sizeof(float),
      std::memory_order_relaxed);
  if (bucket_ >= 0 && PoolRelease(data_, bucket_)) return;
  HeapFree(data_, capacity);
}

AllocStats GetAllocStats() {
  const Counters& c = counters();
  AllocStats s;
  s.requests = c.requests.load(std::memory_order_relaxed);
  s.pool_hits = c.pool_hits.load(std::memory_order_relaxed);
  s.heap_allocs = c.heap_allocs.load(std::memory_order_relaxed);
  s.bytes_requested = c.bytes_requested.load(std::memory_order_relaxed);
  s.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  s.pooled_bytes = c.pooled_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = c.peak_live_bytes.load(std::memory_order_relaxed);
  return s;
}

void BufferPoolTrim() {
  GlobalPool& pool = global_pool();
  std::scoped_lock lock(pool.mu);
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t capacity_bytes =
        static_cast<uint64_t>(BucketCapacity(b)) * sizeof(float);
    for (float* p : pool.free_lists[b]) {
      HeapFree(p, BucketCapacity(b));
      counters().pooled_bytes.fetch_sub(capacity_bytes,
                                        std::memory_order_relaxed);
    }
    pool.free_lists[b].clear();
  }
}

}  // namespace pristi::tensor

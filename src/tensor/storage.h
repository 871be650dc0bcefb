#ifndef PRISTI_TENSOR_STORAGE_H_
#define PRISTI_TENSOR_STORAGE_H_

// Ref-counted float storage over a pooled workspace allocator.
//
// `Storage` is the single buffer type behind tensor::Tensor: a Tensor is a
// cheap header (shape + offset + shared_ptr<Storage>), so copies and views
// share one block and copy-on-write forks it only on mutation. Blocks come
// from a process-wide BufferPool with four size classes per octave
// (2^e * {1, 1.25, 1.5, 1.75} floats): freeing a Storage returns its block
// to the pool, and the next allocation in the same class reuses
// it instead of touching the heap, so reverse-diffusion steps recycle the
// previous step's activation buffers at pool-hit cost, with no mmap/munmap
// churn.
//
// Thread model: the pool keeps a small per-thread block cache in front of a
// mutex-protected global free list, so ParallelFor workers allocating
// kernel temporaries do not contend. All counters are atomics; the pool is
// safe (and TSan-clean) under concurrent allocation from any thread.
// Pooling only changes WHERE a buffer lives, never its contents: freshly
// allocated tensors are still zero-initialized by their constructors, so
// results are bit-identical whether the pool is cold or warm.
//
// The free lists hold at most 512 MiB of cached blocks (kMaxPooledBytes in
// storage.cc); frees beyond that cap go back to the heap.

#include <atomic>
#include <cstdint>
#include <memory>

namespace pristi::tensor {

// Snapshot of the allocator counters since process start. Benches report
// phase deltas by snapshotting before/after a region; `requests` counts
// Storage blocks asked for, `pool_hits` the ones served by recycling, and
// `heap_allocs` the ones that actually touched the heap — so
// requests/heap_allocs is the "fewer heap allocations" factor the pool
// buys. Byte counters track class-rounded capacities.
struct AllocStats {
  uint64_t requests = 0;         // Storage blocks requested
  uint64_t pool_hits = 0;        // served by recycling a pooled block
  uint64_t heap_allocs = 0;      // served by a fresh heap allocation
  uint64_t bytes_requested = 0;  // cumulative requested payload bytes
  uint64_t live_bytes = 0;       // capacity bytes in live Storage blocks
  uint64_t pooled_bytes = 0;     // capacity bytes cached in the free pool
  uint64_t peak_live_bytes = 0;  // high-water mark of live_bytes
};

AllocStats GetAllocStats();

// Restarts the `peak_live_bytes` high-water mark at the current live bytes,
// so a test can read the peak of one region of work.
void ResetPeakLiveBytes();

// A ref-counted block of floats. Always obtained via Allocate() and held
// through shared_ptr; destruction returns the block to the BufferPool. The
// payload is NOT initialized — Tensor constructors zero-fill, so recycled
// (dirty) blocks can never leak stale values into results.
class Storage {
 public:
  // Grabs a pooled block with capacity for at least `numel` floats.
  // Public only so std::make_shared can see it; use Allocate().
  explicit Storage(int64_t numel);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  // Requested size in floats (its size class may hold up to 1.25x more).
  int64_t size() const { return size_; }

  // Identity for content-addressed caches (the GEMM pack cache in
  // tensor/kernels/). `id()` is unique per Storage for the process lifetime
  // — NOT the buffer address, which the pool recycles — and `version()`
  // counts mutations: Tensor bumps it on every non-const data() access, so
  // (id, version) pins exact contents. A stale (id, version) pair can never
  // be revived, which makes cache entries keyed on it safe without keeping
  // the Storage alive.
  uint64_t id() const { return id_; }
  // The counter is atomic (relaxed) so a mutating access on one thread
  // overlapping a pack-cache lookup on another stays a well-defined data
  // race on the counter itself — the lookup sees some monotonic value and
  // at worst misses/repacks once; the caller still owns synchronization of
  // the payload bytes. Relaxed suffices: no ordering with the data is
  // implied, only torn reads are excluded (and TSan stays clean).
  uint64_t version() const { return version_.load(std::memory_order_relaxed); }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_relaxed); }

  static std::shared_ptr<Storage> Allocate(int64_t numel) {
    return std::make_shared<Storage>(numel);
  }

 private:
  float* data_ = nullptr;
  int64_t size_ = 0;
  int32_t bucket_ = -1;  // size class; -1 = unpooled (above the top class)
  uint64_t id_ = 0;  // process-unique (atomic counter, not the address)
  std::atomic<uint64_t> version_{0};  // mutations; bumped via BumpVersion()
};

}  // namespace pristi::tensor

#endif  // PRISTI_TENSOR_STORAGE_H_

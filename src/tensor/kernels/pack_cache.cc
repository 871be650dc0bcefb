#include "tensor/kernels/pack_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pristi::tensor::kernels {
namespace {

// Cap on resident packed panels (64 MiB). Inserts past it evict
// least-recently-used entries.
constexpr uint64_t kCapBytes = uint64_t{64} << 20;

size_t MixHash(size_t h, uint64_t v) {
  return h ^ (static_cast<size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
              (h >> 2));
}

struct KeyHash {
  size_t operator()(const PackKey& k) const {
    size_t h = MixHash(0, k.storage_id);
    h = MixHash(h, static_cast<uint64_t>(k.offset));
    h = MixHash(h, static_cast<uint64_t>(k.rows));
    h = MixHash(h, static_cast<uint64_t>(k.cols));
    h = MixHash(h, static_cast<uint64_t>(k.layout));
    return MixHash(h, static_cast<uint64_t>(k.operand));
  }
};

struct KeyEq {
  bool operator()(const PackKey& a, const PackKey& b) const {
    return a.storage_id == b.storage_id && a.offset == b.offset &&
           a.rows == b.rows && a.cols == b.cols && a.layout == b.layout &&
           a.operand == b.operand;
  }
};

struct Entry {
  uint64_t version = 0;
  PackedPanel panel;
  uint64_t bytes = 0;
  std::list<PackKey>::iterator lru_it;
};

struct Cache {
  std::mutex mu;
  std::list<PackKey> lru;  // front = most recently used
  std::unordered_map<PackKey, Entry, KeyHash, KeyEq> map;
  // Secondary index for the storage-destruction hook: every key currently
  // in `map`, grouped by storage id (a storage caches at most a handful of
  // panel shapes, so the vectors stay tiny).
  std::unordered_map<uint64_t, std::vector<PackKey>> by_storage;
  uint64_t bytes = 0;
  // Lock-free emptiness check so ~Storage skips the mutex entirely while
  // nothing is cached (training runs).
  std::atomic<size_t> entry_count{0};
};

Cache& cache() {
  // Leaked deliberately: GEMMs on worker threads can outlive static
  // destruction order (same rationale as the BufferPool free list).
  static Cache* c = std::make_unique<Cache>().release();
  return *c;
}

// Removes one entry from every cache structure (map, LRU list, by-storage
// index, byte/entry accounting). Caller holds c.mu; `it` must be valid.
void EraseEntryLocked(
    Cache& c,
    std::unordered_map<PackKey, Entry, KeyHash, KeyEq>::iterator it) {
  auto bucket = c.by_storage.find(it->first.storage_id);
  if (bucket != c.by_storage.end()) {
    std::vector<PackKey>& keys = bucket->second;
    keys.erase(std::remove_if(
                   keys.begin(), keys.end(),
                   [&](const PackKey& k) { return KeyEq{}(k, it->first); }),
               keys.end());
    if (keys.empty()) c.by_storage.erase(bucket);
  }
  c.bytes -= it->second.bytes;
  c.lru.erase(it->second.lru_it);
  c.map.erase(it);
  c.entry_count.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace

KernelCounters& Counters() {
  static KernelCounters c;
  return c;
}

PackedPanel PackCacheLookup(const PackKey& key, uint64_t version) {
  Cache& c = cache();
  std::scoped_lock lock(c.mu);
  auto it = c.map.find(key);
  if (it == c.map.end() || it->second.version != version) {
    Counters().pack_cache_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  c.lru.splice(c.lru.begin(), c.lru, it->second.lru_it);
  Counters().pack_cache_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.panel;
}

void PackCacheInsert(const PackKey& key, uint64_t version, PackedPanel panel) {
  if (panel == nullptr) return;
  const uint64_t bytes = panel->size() * sizeof(float);
  Cache& c = cache();
  std::scoped_lock lock(c.mu);
  auto it = c.map.find(key);
  if (it != c.map.end()) {
    // Same identity at a new version: replace in place. The old version can
    // never be requested again (versions only grow), so nothing is lost.
    c.bytes -= it->second.bytes;
    it->second.version = version;
    it->second.panel = std::move(panel);
    it->second.bytes = bytes;
    c.bytes += bytes;
    c.lru.splice(c.lru.begin(), c.lru, it->second.lru_it);
  } else {
    c.lru.push_front(key);
    c.map.emplace(key,
                  Entry{version, std::move(panel), bytes, c.lru.begin()});
    c.by_storage[key.storage_id].push_back(key);
    c.bytes += bytes;
    c.entry_count.fetch_add(1, std::memory_order_relaxed);
  }
  while (c.bytes > kCapBytes && !c.lru.empty()) {
    EraseEntryLocked(c, c.map.find(c.lru.back()));
  }
  Counters().pack_cache_bytes.store(c.bytes, std::memory_order_relaxed);
}

void PackCacheClear() {
  Cache& c = cache();
  std::scoped_lock lock(c.mu);
  c.map.clear();
  c.lru.clear();
  c.by_storage.clear();
  c.bytes = 0;
  c.entry_count.store(0, std::memory_order_relaxed);
  Counters().pack_cache_bytes.store(0, std::memory_order_relaxed);
}

void PackCacheOnStorageDestroyed(uint64_t storage_id) {
  Cache& c = cache();
  // Relaxed pre-check: a racing insert for a DIFFERENT storage may be
  // missed here, but entries for THIS storage cannot appear concurrently —
  // the inserting GEMM holds the tensor (and thus the storage) alive.
  if (c.entry_count.load(std::memory_order_relaxed) == 0) return;
  std::scoped_lock lock(c.mu);
  auto bucket = c.by_storage.find(storage_id);
  if (bucket == c.by_storage.end()) return;
  // Detach the key list first: EraseEntryLocked edits the bucket in place.
  const std::vector<PackKey> keys = std::move(bucket->second);
  c.by_storage.erase(bucket);
  for (const PackKey& key : keys) {
    auto it = c.map.find(key);
    if (it != c.map.end()) EraseEntryLocked(c, it);
  }
  Counters().pack_cache_bytes.store(c.bytes, std::memory_order_relaxed);
}

}  // namespace pristi::tensor::kernels

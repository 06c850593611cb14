// Facade tying the SRAM cache to the DRAM backing store (Fig. 3): the
// *programmable key-value store* that is the paper's hardware contribution.
//
// The GROUPBY executor in src/runtime drives one KeyValueStore per (query,
// switch); tests and the Fig. 5/6 harnesses drive it directly.
#pragma once

#include <memory>
#include <vector>

#include "kvstore/backing_store.hpp"
#include "kvstore/cache.hpp"

namespace perfq::kv {

class KeyValueStore {
 public:
  KeyValueStore(CacheGeometry geometry, std::shared_ptr<const FoldKernel> kernel,
                std::uint64_t hash_seed = 0x5eedcafe,
                EvictionPolicy policy = EvictionPolicy::kLru)
      : kernel_(std::move(kernel)),
        cache_(geometry, kernel_, hash_seed, policy),
        backing_(kernel_) {
    cache_.set_eviction_sink(
        [this](EvictedValue&& ev) { backing_.absorb(ev); });
  }

  /// Fold one record into the store under `key`.
  void process(const Key& key, const PacketRecord& rec) { cache_.process(key, rec); }

  /// Software-prefetch the cache bucket `key` maps to (batched engine path).
  void prefetch(const Key& key) const { cache_.prefetch(key); }

  /// Push all cache-resident values to the backing store (query window end,
  /// or the paper's periodic refresh). After flush(), reads from the backing
  /// store see every packet processed so far.
  void flush(Nanos now) { cache_.flush(now); }

  /// Authoritative read: the paper specifies results are pulled from the
  /// backing store (the cache's copy is partial for previously-evicted keys).
  [[nodiscard]] const StateVector* read(const Key& key) const {
    return backing_.lookup(key);
  }

  /// The application pull (§3.2): the backing store's entries with the live
  /// cache merged on top as a flush at `now` would, disturbing neither.
  [[nodiscard]] std::vector<ExportedEntry> export_entries(Nanos now) const {
    ExportOverlay out(backing_.export_entries(cache_.occupancy()));
    cache_.snapshot_into(
        now, [&](EvictedValue&& ev) { out.merge(backing_, ev); });
    return std::move(out).take();
  }

  [[nodiscard]] const Cache& cache() const { return cache_; }
  [[nodiscard]] Cache& cache() { return cache_; }
  [[nodiscard]] const BackingStore& backing() const { return backing_; }
  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

 private:
  std::shared_ptr<const FoldKernel> kernel_;
  Cache cache_;
  BackingStore backing_;
};

/// Reference executor: an unbounded exact table applying the fold directly.
/// This is the ground truth the split design is differential-tested against
/// (for linear folds the merged backing value must match it exactly).
class ReferenceStore {
 public:
  explicit ReferenceStore(std::shared_ptr<const FoldKernel> kernel)
      : kernel_(std::move(kernel)) {
    if (kernel_ == nullptr) throw ConfigError{"ReferenceStore: null kernel"};
  }

  void process(const Key& key, const PacketRecord& rec) {
    auto [it, inserted] = table_.try_emplace(key, kernel_->initial_state());
    kernel_->update(it->second, rec);
  }

  [[nodiscard]] const StateVector* read(const Key& key) const {
    const auto it = table_.find(key);
    return it == table_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t key_count() const { return table_.size(); }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [key, state] : table_) fn(key, state);
  }

 private:
  std::shared_ptr<const FoldKernel> kernel_;
  std::unordered_map<Key, StateVector> table_;
};

}  // namespace perfq::kv

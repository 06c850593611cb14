// The off-chip backing store of the split key-value store (§3.2, Fig. 3).
//
// On every cache eviction the evicted (key, value) arrives here. For folds
// that are linear in state the store *merges* the new value into the existing
// one exactly:
//
//     merged = S_new + P · (replay(S_backing, boundary) − S_h)
//
// where replay() re-applies the epoch's first h boundary records to the
// backing value (h = the kernel's bounded history window; h = 0 folds replay
// nothing and S_h = S_0, giving the paper's EWMA formula
// S_new + (1−α)^N (S_backing − S_0) verbatim).
//
// For folds that are NOT linear in state no merge function exists (§3.2);
// the store keeps a list of per-epoch value segments for each key and marks
// keys with more than one segment invalid — each segment is still correct
// over its own interval, which is exactly the semantics Fig. 6 evaluates.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kvstore/cache.hpp"
#include "kvstore/fold.hpp"
#include "kvstore/key.hpp"

namespace perfq::kv {

/// One per-epoch value of a non-linear fold: correct over [start, end).
struct ValueSegment {
  Nanos start;
  Nanos end;
  StateVector value;
  std::uint64_t packets = 0;
};

/// Validity accounting for non-linear queries (drives Fig. 6).
struct AccuracyStats {
  std::uint64_t total_keys = 0;
  std::uint64_t valid_keys = 0;  ///< exactly one value segment

  [[nodiscard]] double accuracy() const {
    return total_keys == 0
               ? 1.0
               : static_cast<double>(valid_keys) / static_cast<double>(total_keys);
  }
};

/// One key's merged state lifted out of a store — the cross-store federation
/// unit (src/kvstore/federated.hpp). `valid` mirrors for_each(): at most one
/// value segment covers the query window.
struct ExportedEntry {
  Key key;
  StateVector value;
  std::vector<ValueSegment> segments;  ///< non-linear folds only
  std::uint64_t packets = 0;
  bool valid = true;
};

class BackingStore {
 public:
  explicit BackingStore(std::shared_ptr<const FoldKernel> kernel);

  /// Absorb one eviction; merges (linear) or appends a segment (non-linear).
  void absorb(const EvictedValue& ev);

  /// Merged value for a key, or nullptr if never evicted. For non-linear
  /// folds this is the latest segment's value (callers should consult
  /// segments()/valid() for windowed semantics).
  [[nodiscard]] const StateVector* lookup(const Key& key) const;

  /// Non-linear folds: the per-epoch segments of a key (empty if unknown).
  [[nodiscard]] const std::vector<ValueSegment>* segments(const Key& key) const;

  /// A key is valid when a single value covers the whole query window.
  [[nodiscard]] bool valid(const Key& key) const;

  /// O(1): served from counters absorb() maintains, not an entry scan, so a
  /// telemetry reader can poll it mid-run without touching the map.
  [[nodiscard]] AccuracyStats accuracy() const {
    return AccuracyStats{key_count_, valid_keys_};
  }

  [[nodiscard]] std::size_t key_count() const { return key_count_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t capacity_writes() const { return capacity_writes_; }

  /// Visit (key, merged value, valid) for result collection.
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [key, e] : entries_) {
      fn(key, e.value, e.segments.size() <= 1);
    }
  }

  /// Lift every entry out of the store for federation, with room reserved
  /// for `spare` more (the keys an ExportOverlay may add). Entry order is
  /// unspecified (hash-map iteration); consumers sort or re-hash.
  [[nodiscard]] std::vector<ExportedEntry> export_entries(
      std::size_t spare = 0) const {
    std::vector<ExportedEntry> out;
    out.reserve(entries_.size() + spare);
    for (const auto& [key, e] : entries_) {
      out.push_back(
          ExportedEntry{key, e.value, e.segments, e.packets, e.segments.size() <= 1});
    }
    return out;
  }

  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

 private:
  struct Entry {
    StateVector value;
    std::vector<ValueSegment> segments;  ///< non-linear folds only
    std::uint64_t packets = 0;
  };

  friend class ExportOverlay;

  /// The one per-entry merge: fold eviction `ev` into `entry` (an Entry or
  /// an ExportedEntry; `first` when the key has no earlier value). Merges
  /// linear and associative folds exactly, appends a segment otherwise.
  template <typename E>
  void merge(E& entry, bool first, const EvictedValue& ev) const;

  /// Re-apply `records` to `state` with the ground-truth update.
  [[nodiscard]] StateVector replay(StateVector state,
                                   const std::vector<PacketRecord>& records) const;

  std::shared_ptr<const FoldKernel> kernel_;
  bool linear_;
  bool associative_ = false;
  std::unordered_map<Key, Entry> entries_;
  /// Telemetry slots (single writer: whoever calls absorb() — the engines
  /// serialize absorbs per store). key_count_/valid_keys_ mirror the map so
  /// accuracy()/key_count() never scan or touch entries_, which makes them
  /// safe to read from a metrics thread while absorbs continue.
  obs::RelaxedU64 writes_;
  obs::RelaxedU64 capacity_writes_;
  obs::RelaxedU64 key_count_;
  obs::RelaxedU64 valid_keys_;
};

/// The mid-run read: a live store's export with values not yet absorbed —
/// a cache's snapshot_into() copies, at most one per key — merged on top by
/// absorb()'s per-entry merge. The export is indexed once by cached key hash
/// (one flat table), so neither the backing map is copied nor the store
/// touched.
class ExportOverlay {
 public:
  explicit ExportOverlay(std::vector<ExportedEntry> entries);

  /// Merge `ev` into its key's entry with `store`'s merge; a key the export
  /// lacks is added with `ev` as its first epoch.
  void merge(const BackingStore& store, const EvictedValue& ev);

  [[nodiscard]] std::vector<ExportedEntry> take() && {
    return std::move(entries_);
  }

 private:
  /// The index slot holding `key`'s entry, or the empty slot ending its probe.
  [[nodiscard]] std::uint32_t& slot(const Key& key);

  std::vector<ExportedEntry> entries_;
  std::vector<std::uint32_t> slots_;  ///< entry index + 1; 0 = empty
  std::size_t mask_ = 0;
};

}  // namespace perfq::kv

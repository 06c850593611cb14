// Cross-store exact merge: the split key-value store's federation entry
// point (§3.2's mergeability analysis lifted from one switch to a fabric).
//
// A FederatedStore combines per-source (per-switch) StoreExports into one
// network-wide result. Records of one key may interleave arbitrarily across
// sources, so which keys merge EXACTLY depends on the fold's algebra:
//
//   kAdditive      the update is S' = S + B(pkt) (const-A, A = I, h = 0).
//                  Per-stream totals compose by summation no matter how the
//                  streams interleave:  merged = s0 + Σ_i (v_i − s0).
//                  Bit-exact whenever those additions are FP-exact — integer
//                  counters and sums (COUNT, SUM over integer-valued fields,
//                  and their CombinedKernel compositions); ULP-level for
//                  fractional addends. This is the FP caveat that mirrors the
//                  attach/detach contract note in runtime/engine_api.hpp.
//
//   kAssociative   the kernel provides a commutative exact merge_values()
//                  (extremum folds). Folding per-source values is bit-exact.
//
//   kSingleSource  everything else. A linear-but-not-additive fold (EWMA) is
//                  order-sensitive: the backing store's linear merge is
//                  SEQUENTIAL COMPOSITION, not commutative, so streams that
//                  interleave across switches admit no exact cross-stream
//                  merge. Keys observed at exactly ONE source pass through
//                  exactly (their whole record stream lived on that switch);
//                  keys seen at several sources are marked invalid and keep
//                  one value segment per source — each still correct over its
//                  own source — which is the paper's §3.2 non-mergeable
//                  escape hatch applied at fabric scope instead of epoch
//                  scope.
//
// MERGE-ORDER DETERMINISM: absorb() only stores contributions; reduction
// happens at read time in ascending source id. The reduced result is
// therefore byte-for-byte identical no matter which order sources were
// absorbed in — shuffled, incremental (read between absorbs), or batched —
// and re-absorbing a source REPLACES its contribution (exports are
// monotone supersets of earlier exports from the same source, because
// backing-store keys are never removed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvstore/backing_store.hpp"
#include "kvstore/fold.hpp"

namespace perfq::kv {

/// How a fold's per-source values combine across interleaved record streams.
enum class MergeCapability : std::uint8_t {
  kAdditive,      ///< S' = S + B: merged = s0 + Σ (v_i − s0), order-free
  kAssociative,   ///< kernel merge_values() is commutative and exact
  kSingleSource,  ///< exact only for keys observed at exactly one source
};

[[nodiscard]] constexpr const char* to_cstring(MergeCapability c) {
  switch (c) {
    case MergeCapability::kAdditive: return "additive";
    case MergeCapability::kAssociative: return "associative";
    case MergeCapability::kSingleSource: return "single-source";
  }
  return "?";
}

/// Classify a kernel's cross-stream merge algebra. Additive means const-A
/// with A = identity and no history window — the update can only add a
/// packet-determined increment, so per-stream totals are interleaving-
/// independent. Associative wins over additive when a kernel claims both
/// (merge_values is the kernel's own exact merge).
[[nodiscard]] MergeCapability merge_capability(const FoldKernel& kernel);

/// One store's contribution to a federated merge: every entry of one
/// switch's backing store (plus cache overlay, for mid-run exports), stamped
/// with the engine's record count and export time.
struct StoreExport {
  std::string query;            ///< plan name the entries belong to
  std::uint64_t records = 0;    ///< source engine records at export time
  Nanos time;                   ///< export stamp (snapshot/finish `now`)
  std::vector<ExportedEntry> entries;

  /// Visit (key, merged value, valid) — the read surface of BackingStore,
  /// so runtime::materialize_switch_table() renders one export directly.
  template <typename F>
  void for_each(F&& fn) const {
    for (const ExportedEntry& e : entries) fn(e.key, e.value, e.valid);
  }
};

/// The network-wide merged store. Same read surface shape as BackingStore /
/// ShardedBackingStore (for_each / lookup / segments / valid / accuracy), so
/// runtime::materialize_switch_table() renders it directly.
class FederatedStore {
 public:
  explicit FederatedStore(std::shared_ptr<const FoldKernel> kernel);

  /// Merge one source's export. Re-absorbing a source id replaces its prior
  /// contribution (see header contract).
  void absorb(std::uint32_t source, const StoreExport& exported);

  /// Visit (key, merged value, valid) — reduction runs per key in ascending
  /// source order, so the visited values are independent of absorb order.
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [key, contribs] : entries_) {
      const Reduced r = reduce(contribs);
      fn(key, r.value, r.valid);
    }
  }

  /// Merged value, or nullopt for an unknown key. For invalid multi-source
  /// keys this is the highest source's value (consult segments()).
  [[nodiscard]] std::optional<StateVector> read(const Key& key) const;

  /// Per-interval values of a key that did NOT merge exactly: the
  /// concatenation, in ascending source order, of each source's own
  /// segments (non-linear folds) or one synthesized whole-source segment
  /// (linear folds). Empty for exactly merged keys and unknown keys.
  [[nodiscard]] std::vector<ValueSegment> segments(const Key& key) const;

  [[nodiscard]] bool valid(const Key& key) const;

  /// Validity accounting over the federated result (scans entries; collector
  /// cadence, not hot path).
  [[nodiscard]] AccuracyStats accuracy() const;

  [[nodiscard]] std::size_t key_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }
  /// Sum of the latest contribution's records across sources.
  [[nodiscard]] std::uint64_t records() const { return records_; }
  /// Max export stamp across sources (Nanos{0} before any absorb).
  [[nodiscard]] Nanos time() const { return time_; }
  [[nodiscard]] MergeCapability capability() const { return capability_; }
  [[nodiscard]] const FoldKernel& kernel() const { return *kernel_; }

 private:
  struct Contribution {
    std::uint32_t source = 0;
    StateVector value;
    std::vector<ValueSegment> segments;  ///< non-linear folds only
    std::uint64_t packets = 0;
    Nanos time;  ///< the source export's stamp (synthesized segment end)
    bool valid = true;
  };
  struct Reduced {
    StateVector value;
    bool valid = true;
  };

  /// Reduce one key's contributions (sorted ascending by source id).
  [[nodiscard]] Reduced reduce(const std::vector<Contribution>& contribs) const;

  std::shared_ptr<const FoldKernel> kernel_;
  MergeCapability capability_;
  StateVector s0_;
  std::unordered_map<Key, std::vector<Contribution>> entries_;
  std::map<std::uint32_t, std::uint64_t> sources_;  ///< source → records
  std::uint64_t records_ = 0;
  Nanos time_{0};
};

}  // namespace perfq::kv

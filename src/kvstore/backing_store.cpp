#include "kvstore/backing_store.hpp"

#include <bit>

#include "common/error.hpp"

namespace perfq::kv {

BackingStore::BackingStore(std::shared_ptr<const FoldKernel> kernel)
    : kernel_(std::move(kernel)) {
  if (kernel_ == nullptr) throw ConfigError{"BackingStore: null kernel"};
  linear_ = is_linear(kernel_->linearity());
  associative_ = kernel_->has_associative_merge();
}

StateVector BackingStore::replay(StateVector state,
                                 const std::vector<PacketRecord>& records) const {
  for (const PacketRecord& rec : records) kernel_->update(state, rec);
  return state;
}

template <typename E>
void BackingStore::merge(E& entry, bool first, const EvictedValue& ev) const {
  entry.packets += ev.packets;

  if (!linear_ && associative_) {
    // Extension: exact non-linear merge for semilattice-style folds.
    if (first) {
      entry.value = ev.state;
    } else {
      kernel_->merge_values(entry.value, ev.state);
    }
    return;
  }

  if (!linear_) {
    // §3.2 "Operations that are not linear in state": keep one value per
    // epoch; >1 segment ⇒ invalid over the full window.
    entry.segments.push_back(
        ValueSegment{ev.first_tin, ev.evict_time, ev.state, ev.packets});
    entry.value = ev.state;
    return;
  }

  if (first) {
    // First epoch for this key: the cache folded from the true initial state,
    // so the evicted value is already exact.
    entry.value = ev.state;
    return;
  }

  const std::size_t h = kernel_->history_window();
  if (ev.packets <= h) {
    // The whole epoch sits inside the boundary window: replay it outright.
    check(ev.boundary.size() == ev.packets,
          "BackingStore: boundary/packet count mismatch");
    entry.value = replay(entry.value, ev.boundary);
    return;
  }

  // General exact merge. `corrected` is what S_h would have been had the
  // epoch started from the true backing value instead of S_0.
  check(ev.boundary.size() == h, "BackingStore: expected h boundary records");
  const StateVector corrected = replay(entry.value, ev.boundary);

  SmallMatrix p = ev.product;
  if (kernel_->linearity() == Linearity::kLinearConstA) {
    p = kernel_->constant_a().power(ev.packets - h);
  }

  StateVector delta = corrected - ev.state_after_h;
  entry.value = ev.state + p.apply(delta);
}

void BackingStore::absorb(const EvictedValue& ev) {
  ++writes_;
  if (!ev.final_flush) ++capacity_writes_;

  auto [it, inserted] = entries_.try_emplace(ev.key);
  merge(it->second, inserted, ev);
  // Mirror the key count and validity (at most one segment) so accuracy()
  // stays O(1): a new key is valid, a non-linear key's 1 → 2 segment flip
  // makes it invalid for good.
  if (inserted) {
    ++key_count_;
    ++valid_keys_;
  } else if (it->second.segments.size() == 2) {
    valid_keys_.sub(1);
  }
}

const StateVector* BackingStore::lookup(const Key& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.value;
}

const std::vector<ValueSegment>* BackingStore::segments(const Key& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.segments;
}

bool BackingStore::valid(const Key& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  return linear_ || it->second.segments.size() <= 1;
}

ExportOverlay::ExportOverlay(std::vector<ExportedEntry> entries)
    : entries_(std::move(entries)),
      slots_(std::bit_ceil(2 * entries_.size() + 1), 0),
      mask_(slots_.size() - 1) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    slot(entries_[i].key) = static_cast<std::uint32_t>(i + 1);
  }
}

std::uint32_t& ExportOverlay::slot(const Key& key) {
  // Linear probing at load factor <= 1/2; keys carry their hash.
  for (std::size_t i = key.raw_hash() & mask_;; i = (i + 1) & mask_) {
    std::uint32_t& s = slots_[i];
    if (s == 0 || entries_[s - 1].key == key) return s;
  }
}

void ExportOverlay::merge(const BackingStore& store, const EvictedValue& ev) {
  const std::uint32_t s = slot(ev.key);
  const bool first = s == 0;
  ExportedEntry& entry = first ? entries_.emplace_back() : entries_[s - 1];
  if (first) entry.key = ev.key;
  store.merge(entry, first, ev);
  entry.valid = entry.segments.size() <= 1;
}

}  // namespace perfq::kv

// The stage ledger: replays a round's bursts through the public functions the
// serial engine's ingest path calls — wire::check_frame, then
// runtime::SwitchFoldCore::prepare (prefilter, compiler::extract_key, bucket
// prefetch) and SwitchFoldCore::fold (kv::Cache::process) over the same plans,
// geometries, chunking and tenant windows — with its own caches whose
// eviction sink times kv::BackingStore::absorb.
#pragma once

#include "bench.hpp"

namespace perfbench {

struct LedgerPass {
  // Per record, clock-read cost removed.
  double check_ns = 0.0;
  double key_ns = 0.0;     ///< SwitchFoldCore::prepare over every active plan
  double fold_ns = 0.0;    ///< SwitchFoldCore::fold, minus the absorbs inside it
  double absorb_ns = 0.0;  ///< BackingStore::absorb of capacity evictions
  /// The ledger's R1, materialized from its own backing store after the same
  /// final flush the engine performs.
  perfq::runtime::ResultTable r1;

  [[nodiscard]] double sum() const { return check_ns + key_ns + fold_ns + absorb_ns; }
};

[[nodiscard]] LedgerPass run_ledger(const WorkloadSpec& spec, const Schedule& schedule,
                                    const Inputs& inputs);

/// Cost of one steady_clock read on this machine (median of a short loop).
[[nodiscard]] double clock_read_ns();

}  // namespace perfbench

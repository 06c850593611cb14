// The serial query engine — the single-threaded fold pipeline behind the
// unified Engine interface (runtime/engine_api.hpp).
//
// Every on-switch GROUPBY gets a programmable key-value store instance
// (src/kvstore) with the chosen cache geometry, folded on the caller thread
// by a SwitchFoldCore in two passes per chunk (key extraction + bucket
// prefetch, then the fold). The one read, export_store(), merges the live
// cache over the query's backing store as it exports it; finish() flushes
// every cache into its backing store. Everything else — attach validation,
// the slot registry, stream sinks, result tables, the refresh clock,
// telemetry and the poisoned-state gate — is the shared resident-query layer
// (resident.hpp).
//
// Construct through runtime::EngineBuilder unless you specifically need the
// concrete type (engine-internals tests, the switch-pipeline comparison).
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "runtime/engine_api.hpp"
#include "runtime/fold_core.hpp"

namespace perfq::runtime {

class QueryEngine final : public Engine {
 public:
  explicit QueryEngine(compiler::CompiledProgram program, EngineConfig config = {});

  /// Feed a batch of packet observations (time-ordered). The hot path:
  /// per chunk, every switch query's keys (with their cached hashes) are
  /// extracted and their cache buckets software-prefetched up front, then the
  /// records fold — the bucket fetch of record i+k overlaps the fold of
  /// record i, mirroring dataplane burst processing. Results are identical
  /// to calling process() per record.
  void process_batch(std::span<const PacketRecord> records) override;

  /// Fused lazy wire ingest: validate each frame (skip-and-count damage),
  /// then run the SAME two-pass chunk pipeline over WireRecordViews — fields
  /// decode lazily at their wire offsets, so only what the compiled program
  /// reads (program().field_usage) is ever touched. No PacketRecord is
  /// materialized for const-A/h=0 kernels. Bit-identical to parsing the
  /// frames and calling process_batch().
  trace::IngestStats process_wire_batch(
      std::span<const FrameObservation> frames) override;

  /// End the query window: flush caches, run the collection layer. Must be
  /// called exactly once before reading results.
  void finish(Nanos now) override;

  /// The engine read (contract in engine_api.hpp): the query's backing
  /// store with its live cache merged on top — after finish() the cache is
  /// empty and the backing store is returned as is.
  [[nodiscard]] kv::StoreExport export_store(std::string_view query_name,
                                             Nanos now) override;

  /// Dynamic attach/detach (lifecycle contract in engine_api.hpp): the new
  /// query gets its own key-value store (or stream sink) and starts folding
  /// at the current record boundary; detach exports, materializes and frees.
  void attach_query(compiler::CompiledProgram program,
                    const AttachOptions& options) override;
  ResultTable detach_query(std::string_view name, Nanos now) override;

  [[nodiscard]] std::vector<StoreStats> store_stats() const override;

  /// Self-telemetry; any thread, any time, never throws (engine_api.hpp
  /// metrics coherence contract).
  [[nodiscard]] EngineMetrics metrics() const override;

  /// Direct access to a switch query's key-value store (tests, benches).
  [[nodiscard]] const kv::KeyValueStore& store(std::string_view query_name) const;

 private:
  /// Records per prefetch chunk (the fold core's two-pass scratch size).
  static constexpr std::size_t kBatchChunk = SwitchFoldCore::kChunk;

  /// One live switch query's store and fold core; detach erases it, so the
  /// hot loops only ever see live queries.
  struct SwitchInstance {
    std::size_t slot = 0;  ///< its index in the resident slot registry
    std::unique_ptr<kv::KeyValueStore> store;
    /// The reusable hot path (prefilter/extract/prefetch/fold) over the
    /// store's cache; shard workers run the same core (runtime/fold_core).
    /// Heap-owned so detach frees the core's scratch with the instance.
    std::unique_ptr<SwitchFoldCore> core;
  };

  void process_batch_impl(std::span<const PacketRecord> records);
  void process_wire_batch_impl(std::span<const FrameObservation> frames,
                               trace::IngestStats& stats);
  /// The two-pass prepare/fold pipeline over one chunk (<= kBatchChunk
  /// records), shared verbatim by the eager and lazy wire paths: record
  /// semantics differ only in where field_value() reads from.
  template <typename Rec>
  void process_chunk(std::span<const Rec> chunk);
  [[nodiscard]] SwitchInstance make_instance(
      std::size_t slot, const compiler::SwitchQueryPlan& plan,
      const kv::CacheGeometry& geometry) const;
  [[nodiscard]] const SwitchInstance& instance(std::size_t slot) const;
  /// Cache counters of one slot; returns its backing store (the shared
  /// layer reads the rest of StoreStats from it).
  const kv::BackingStore& slot_stats(std::size_t slot, StoreStats& s) const;

  std::vector<SwitchInstance> switches_;
};

}  // namespace perfq::runtime

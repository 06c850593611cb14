// Fluent construction of any Engine — the single entry point of the runtime.
//
//   auto engine = runtime::EngineBuilder(compiler::compile_source(src))
//                     .geometry(kv::CacheGeometry::set_associative(4096, 8))
//                     .refresh(1_s)
//                     .sharded(8).dispatchers(2)
//                     .build();   // std::unique_ptr<Engine>
//
// Without sharded(N) the builder produces the serial QueryEngine; with it,
// the multi-core ShardedEngine — same results either way (the sharded
// runtime is bit-identical for linear kernels), so the choice is purely a
// deployment knob. Sharded-only tuning knobs (dispatchers, ring_capacity,
// dispatch_batch, backing_shards, eviction_batch, drain_timeout) are
// rejected at build() when no sharding was requested, so a config can't
// silently misapply.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "runtime/engine_api.hpp"

namespace perfq::runtime {

class EngineBuilder {
 public:
  explicit EngineBuilder(compiler::CompiledProgram program)
      : program_(std::move(program)) {}

  /// Cache geometry for every on-switch GROUPBY (total budget; the sharded
  /// engine slices it across shards).
  EngineBuilder& geometry(const kv::CacheGeometry& g) {
    config_.geometry = g;
    return *this;
  }
  /// Per-query geometry override.
  EngineBuilder& query_geometry(const std::string& query,
                                const kv::CacheGeometry& g) {
    config_.per_query_geometry[query] = g;
    return *this;
  }
  EngineBuilder& hash_seed(std::uint64_t seed) {
    config_.hash_seed = seed;
    return *this;
  }
  EngineBuilder& eviction_policy(kv::EvictionPolicy policy) {
    config_.eviction_policy = policy;
    return *this;
  }
  /// Row cap of default (table) stream sinks; see EngineConfig.
  EngineBuilder& max_stream_rows(std::size_t rows) {
    config_.max_stream_rows = rows;
    return *this;
  }
  /// Periodic cache→backing refresh interval (§3.2); zero disables.
  EngineBuilder& refresh(Nanos interval) {
    config_.refresh_interval = interval;
    return *this;
  }
  /// Attach a user sink to the named stream SELECT query (stream_sink.hpp).
  EngineBuilder& stream_sink(const std::string& query,
                             std::shared_ptr<StreamSink> sink) {
    config_.stream_sinks[query] = std::move(sink);
    return *this;
  }
  /// Verify IPv4 header checksums on the wire ingest path
  /// (Engine::process_wire_batch); failures skip-and-count as bad_checksum.
  /// Off by default — software captures rarely carry valid checksums.
  EngineBuilder& verify_checksums(bool on = true) {
    config_.verify_checksums = on;
    return *this;
  }

  /// Scale the store across `num_shards` worker cores (0 = serial engine,
  /// the default). Requires num_buckets % num_shards == 0 per geometry.
  EngineBuilder& sharded(std::size_t num_shards) {
    shards_ = num_shards;
    return *this;
  }
  /// Dispatcher thread count D (sharded only; default 1 = the caller thread
  /// dispatches alone). D > 1 routes batch slices concurrently.
  EngineBuilder& dispatchers(std::size_t num_dispatchers) {
    dispatchers_ = num_dispatchers;
    return *this;
  }
  /// Capacity of each (dispatcher, shard) record ring, in messages.
  EngineBuilder& ring_capacity(std::size_t messages) {
    ring_capacity_ = messages;
    return *this;
  }
  /// Records a dispatcher stages per shard before publishing.
  EngineBuilder& dispatch_batch(std::size_t records) {
    dispatch_batch_ = records;
    return *this;
  }
  /// Sub-stores per query in the concurrent backing store (0 = num_shards).
  EngineBuilder& backing_shards(std::size_t stores) {
    backing_shards_ = stores;
    return *this;
  }
  /// Evictions a shard worker buffers before handing them to the merger.
  EngineBuilder& eviction_batch(std::size_t evictions) {
    eviction_batch_ = evictions;
    return *this;
  }
  /// Drain watchdog deadline for every caller-side wait on the sharded
  /// pipeline (full-ring pushes, batch completion, snapshot barriers, the
  /// finish() joins). On expiry the blocked call throws EngineFaultError
  /// with a pipeline diagnostic instead of hanging. Zero disables.
  EngineBuilder& drain_timeout(std::chrono::milliseconds deadline) {
    drain_timeout_ = deadline;
    return *this;
  }
  /// Construct the engine. Consumes the builder's program: call once.
  [[nodiscard]] std::unique_ptr<Engine> build();

 private:
  compiler::CompiledProgram program_;
  EngineConfig config_;
  std::size_t shards_ = 0;  ///< 0 = serial QueryEngine
  std::optional<std::size_t> dispatchers_;
  std::optional<std::size_t> ring_capacity_;
  std::optional<std::size_t> dispatch_batch_;
  std::optional<std::size_t> backing_shards_;
  std::optional<std::size_t> eviction_batch_;
  std::optional<std::chrono::milliseconds> drain_timeout_;
  bool built_ = false;
};

}  // namespace perfq::runtime

// Plain value types of the engine surface (engine_api.hpp): construction
// settings, attach options, per-query store stats, snapshots and the
// self-telemetry record metrics() returns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/metrics.hpp"
#include "runtime/stream_sink.hpp"
#include "runtime/table.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::runtime {

/// Construction-time settings shared by both engines (EngineBuilder fills
/// one; the sharded engine wraps it with its topology knobs).
struct EngineConfig {
  /// Cache geometry for every on-switch GROUPBY (overridable per query).
  kv::CacheGeometry geometry = kv::CacheGeometry::set_associative(1u << 16, 8);
  std::map<std::string, kv::CacheGeometry> per_query_geometry;
  std::uint64_t hash_seed = 0x5eedcafe;
  /// In-bucket replacement policy (the paper uses LRU).
  kv::EvictionPolicy eviction_policy = kv::EvictionPolicy::kLru;
  /// Cap on rows buffered by a *default* (table) stream sink. User-provided
  /// sinks implement their own bounds.
  std::size_t max_stream_rows = 1'000'000;
  /// Periodically flush caches to the backing store while processing (§3.2:
  /// "keys can be periodically evicted to ensure the backing store is
  /// fresh, and monitoring applications can pull results"). Zero disables.
  /// Thanks to the exact merge this is free of correctness cost for linear
  /// queries; refresh_count() reports how many refreshes happened.
  Nanos refresh_interval{0};
  /// User stream sinks by query result name; stream SELECTs not named here
  /// get a default TableStreamSink(max_stream_rows). Unknown names (or names
  /// of non-stream queries) are a ConfigError at engine construction.
  std::map<std::string, std::shared_ptr<StreamSink>> stream_sinks;
  /// Opt-in IPv4 header checksum verification on the wire ingest path
  /// (process_wire_batch). Off by default: software captures rarely carry
  /// valid checksums (offload). Failures skip-and-count as bad_checksum.
  bool verify_checksums = false;
};

/// Options for one dynamic attach (query lifecycle contract in engine_api.hpp).
struct AttachOptions {
  /// The resident name of the query — result table name, metrics label, and
  /// the handle detach_query() takes. Must be unique among live queries.
  std::string name;
  /// Cache slice geometry for an on-switch GROUPBY tenant; falls back to the
  /// engine's EngineConfig::geometry (then per_query_geometry by name).
  std::optional<kv::CacheGeometry> geometry;
  /// Sink for a stream-SELECT tenant; a default TableStreamSink if empty.
  std::shared_ptr<StreamSink> sink;
};

/// How an attachable program folds: one on-switch GROUPBY with its own cache
/// slice, or one stream SELECT delivered through a StreamSink.
enum class AttachKind : std::uint8_t { kSwitchQuery, kStreamSelect };

/// Per-switch-query statistics surfaced to the evaluation harnesses.
struct StoreStats {
  std::string name;
  kv::Linearity linearity = kv::Linearity::kNotLinear;
  kv::CacheStats cache;
  kv::AccuracyStats accuracy;
  std::uint64_t backing_writes = 0;
  std::uint64_t backing_capacity_writes = 0;
  std::size_t keys = 0;
  bool attached = false;              ///< dynamically attached (vs base program)
  std::uint64_t attach_records = 0;   ///< attach epoch (records seen before it)
};

/// A mid-run result pull, stamped with the record boundary it is exact at.
struct EngineSnapshot {
  ResultTable table;
  std::uint64_t records = 0;  ///< records processed when the snapshot ran
  Nanos time;                 ///< caller-supplied timestamp (epoch end stamp)
};

/// Per-stream-query delivery accounting (one per stream SELECT).
struct StreamSinkMetrics {
  std::string query;
  std::uint64_t rows_delivered = 0;  ///< rows offered to the sink
  std::uint64_t rows_dropped = 0;    ///< rows the sink discarded (bounded sinks)
  bool saturated = false;            ///< sink hit its bound at least once
  bool attached = false;             ///< dynamically attached (vs base program)
  std::uint64_t attach_records = 0;  ///< attach epoch (records seen before it)
};

/// Per-shard pipeline accounting (sharded engine only).
struct ShardMetrics {
  std::size_t shard = 0;
  std::uint64_t evictions_pushed = 0;    ///< evictions enqueued by the worker
  std::uint64_t evictions_absorbed = 0;  ///< evictions merged by the merge thread
  bool worker_exited = false;
};

/// Per-dispatcher accounting (sharded engine, dispatchers >= 2 only — with a
/// single dispatcher the caller thread dispatches inline).
struct DispatcherMetrics {
  std::size_t dispatcher = 0;
  std::uint64_t batches_posted = 0;
  std::uint64_t batches_completed = 0;
  bool exited = false;
};

/// One (dispatcher, shard) SPSC ring of the dispatch matrix.
struct RingMetrics {
  std::size_t dispatcher = 0;
  std::size_t shard = 0;
  std::uint64_t occupancy = 0;      ///< records queued right now (approximate)
  std::uint64_t occupancy_hwm = 0;  ///< high-water mark of occupancy
  std::uint64_t capacity = 0;
  std::uint64_t push_stalls = 0;  ///< publishes that blocked on a full ring
};

/// The engine's self-telemetry: everything Engine::metrics() surfaces, as
/// plain values (safe to ship across threads, serialize, diff). See the
/// metrics coherence contract in engine_api.hpp.
struct EngineMetrics {
  std::string engine;  ///< "serial" or "sharded"

  // Driver-level counters.
  std::uint64_t records = 0;    ///< records accepted by process_batch()
  std::uint64_t batches = 0;    ///< process_batch() calls
  std::uint64_t refreshes = 0;  ///< periodic cache refreshes performed
  /// One per mid-run export_store(), direct or through snapshot() or
  /// detach_query(); exports after finish() do not count.
  std::uint64_t snapshots = 0;
  bool faulted = false;         ///< poisoned-state protocol engaged

  // Per-query store stats (same shape store_stats() returns; valid mid-run).
  std::vector<StoreStats> queries;
  std::vector<StreamSinkMetrics> streams;

  // Sharded pipeline state (empty on the serial engine).
  std::vector<ShardMetrics> shards;
  std::vector<DispatcherMetrics> dispatchers;
  std::vector<RingMetrics> rings;
  bool merge_exited = false;

  // Latency histograms (log2-ns buckets; see obs::HistogramSnapshot).
  obs::HistogramSnapshot batch_ns;     ///< process_batch() wall time (sampled)
  /// Per pull in `snapshots`: the export and its overlay (sharded: with the
  /// rendezvous and drain), not the materialize a snapshot() adds.
  obs::HistogramSnapshot snapshot_ns;
  obs::HistogramSnapshot absorb_ns;    ///< merge-thread absorb sweep latency

  // Ingest/replay accounting recorded by the trace layer (record_ingest /
  // record_replay) — zero if no driver reported any.
  trace::IngestStats ingest;
  std::uint64_t replay_records = 0;
  std::uint64_t replay_nanos = 0;
};

}  // namespace perfq::runtime

// The one engine surface.
//
// Everything that runs a compiled program over packet records — the serial
// QueryEngine and the sharded multi-core ShardedEngine — implements this
// interface, and every driver (trace replay, the network simulator's
// telemetry sink, the REPL, the benches) targets it. The serial/sharded
// choice is a construction-time config knob (EngineBuilder::sharded), not a
// type decision: callers hold a std::unique_ptr<Engine> and never name the
// concrete engine.
//
// Lifecycle:  build (EngineBuilder) → process_batch()* → finish(now) →
// result()/table(). MID-RUN, before finish(), results are read through
// export_store() (below) and RingStreamSinks (stream_sink.hpp).
//
// ---- export_store(): the one engine read -----------------------------------
//
// export_store(query, now) lifts one on-switch GROUPBY's merged store out of
// the engine as a kv::StoreExport (every key's merged value, plus value
// segments for non-linear kernels), stamped with the record count and `now`:
// the paper's §3.2 "monitoring applications can pull results" made exact,
// and the unit a FederatedStore merges across engines.
//
//   - Mid-run it is exact at the current *record boundary* — after every
//     record already passed to process_batch(), before any record of a later
//     call: the live cache is merged over the backing store by the per-entry
//     merge BackingStore::absorb applies, as a flush at `now` would. For
//     linear-in-state kernels it therefore materializes, bit for bit, to the
//     table a fresh engine fed the same record prefix would produce from
//     finish(now) — on the serial AND the sharded engine (which reaches the
//     boundary with an in-band marker and an eviction drain; no thread is
//     stopped). After finish() it is the final backing store as is.
//   - Kernels NOT linear in state have no merge function (§3.2): a key
//     resident in the cache contributes one extra value segment covering
//     [its epoch start, now), exactly as a flush at `now` would. Segments
//     are correct over their own intervals; whole-window validity is the
//     same Fig. 6 semantics finish() reports.
//   - The engine is not perturbed: caches, stats, refresh schedule and final
//     results are identical whether or not exports were taken. The backing
//     map is not copied; the cost is one pass over the query's backing store
//     plus its cache occupancy — a monitoring-rate read, not a hot path.
//   - Each mid-run export is one pull in metrics().snapshots / snapshot_ns.
//   - Call it from the processing (caller) thread between process_batch()
//     calls. Stream SELECTs do not export; their rows go to StreamSinks.
//
// Derived from it: snapshot(query, now) is the export materialized as a
// result table (mid-run only); detach_query(name, now) is the export
// materialized as the tenant's final table, then the tenant's slot freed.
//
// ---- Failure semantics -----------------------------------------------------
//
// An exception escaping the engine's own machinery mid-run — a throwing user
// StreamSink, a fault injected through common/failpoint.hpp, a crashed shard
// worker or merge thread — leaves the state at an arbitrary point inside a
// batch. There is no way to resume without silently corrupting results, so
// both engines implement the same poisoned-state protocol (engine_fault.hpp):
//
//   - The FIRST failure wins: its description is captured in a FaultSlot
//     (role + shard + cause); later failures during the unwind are dropped.
//     On the sharded engine the recording thread also raises the pipeline
//     stop flag, so dispatchers, workers and the merge thread unwind promptly
//     instead of spinning on rings that will never drain.
//   - The call that observes the fault throws EngineFaultError (an Error
//     subclass) carrying the faulting role ("worker", "merge", ...), the
//     shard index if any, and the original cause. Watchdog faults append a
//     pipeline diagnostic (ring occupancy, per-thread state) to what().
//   - The engine is then POISONED: every subsequent process_batch(),
//     finish(), export_store(), snapshot(), attach/detach, result(), table()
//     and store_stats() call throws the SAME EngineFaultError. No call ever
//     hangs, returns partial results, or std::terminate()s. Destruction is
//     always safe.
//   - Argument errors thrown BEFORE any state changes (unknown snapshot
//     name, double finish, process after finish) stay ordinary
//     QueryError/ConfigError and do NOT poison the engine.
//   - The sharded engine bounds every internal wait by the builder's
//     drain_timeout (default 10 s, sharded-only knob): if the pipeline
//     cannot make progress within the deadline — a wedged ring, a stuck
//     export rendezvous (snapshot and detach included) — a watchdog records
//     a fault with a diagnostic dump instead of blocking the caller forever.
//
// ---- Metrics coherence contract (obs/) -------------------------------------
//
// metrics() returns an EngineMetrics — the engine's own telemetry: what the
// pipeline is doing, as opposed to what the queries computed. It is always on
// (the slots cost <= 2% of throughput; CI's telemetry-overhead job enforces
// that bound) and readable from ANY thread at ANY time, including while
// process_batch() runs on another thread — it never blocks, perturbs, or
// synchronizes with the pipeline, and it is TSan-clean. The price of that is
// a relaxed coherence guarantee, which is the right one for a live monitor:
//
//   - Every counter is individually torn-free and monotone (single-writer
//     relaxed slots, obs/metrics.hpp); gauges (ring occupancy) are
//     instantaneous approximations.
//   - CROSS-counter invariants (cache hits + initializations == packets;
//     shard evictions pushed == absorbed) hold exactly at quiescent points —
//     between process_batch() calls on the serial engine, and after finish()
//     (or an export's drain barrier) on the sharded one. Mid-run they hold up
//     to the records currently in flight.
//   - metrics() on a POISONED engine does NOT throw: a monitor must be able
//     to observe a wedged or crashed pipeline. `faulted` is set and the
//     per-thread exit flags show which role died.
//
// metrics_to_json() / metrics_to_prometheus() (obs/metrics_export.hpp) render
// the same enumeration of metrics — anything metrics() carries appears in
// both, by construction. obs::MetricsSampler (obs/sampler.hpp) polls
// metrics() from a background thread into a bounded time series.
//
// ---- Query lifecycle contract (dynamic attach/detach) ----------------------
//
// The engines host a RESIDENT program: queries can be attached and detached
// mid-stream (the paper's §3.2 operating model — operators submit queries
// while traffic flows), without stopping ingest and without perturbing the
// queries already running. src/service/query_service.hpp is the intended
// front end. Both engines implement this contract through ONE shared layer,
// runtime::ResidentQueries (resident.hpp): attach validation and geometry
// resolution, the slot registry, the result tables, the refresh clock and
// the fault gate. The raw engine contract is:
//
//   - attach_query(program, options) accepts a SINGLE-query compiled program:
//     either one on-switch GROUPBY chain (exactly one switch plan, no
//     collection layer) or one unconsumed stream SELECT. The query is renamed
//     to options.name (which must be unique across every resident query and
//     base-program table; collisions are a ConfigError). Anything else —
//     multi-query programs, collection-layer queries, invalid geometry (the
//     sharded engine still requires num_buckets % num_shards == 0) — is a
//     clean ConfigError thrown BEFORE any state changes: a rejected attach
//     leaves the engine exactly as it was, never with degraded results.
//   - The ATTACH EPOCH is the record boundary at which attach_query returns:
//     records processed before it are out of scope for the new query by
//     contract; every record after it folds into the new query in exact
//     global order. For linear-in-state kernels the query's results are
//     therefore bit-identical to a fresh engine fed only the post-attach
//     suffix (the final table of a linear fold is independent of eviction
//     and flush timing). One float-rounding caveat: the periodic refresh
//     clock anchors at an engine's FIRST record, so the resident engine and
//     the suffix oracle flush at different absolute times — exact for folds
//     whose merge is FP-exact (integer counters/sums) and for any linear
//     fold with refresh off, ULP-level otherwise (ewma under refresh).
//     StoreStats::attach_records records the epoch.
//   - detach_query(name, now) ends the query's window at the current record
//     boundary: export_store(name, now) is materialized and returned as the
//     final table, and every resource the attach allocated (cache slice,
//     fold-core scratch, backing store, plan storage) is freed. Only
//     dynamically attached queries can be detached — detaching a
//     base-program query would orphan the collection layer and is a
//     ConfigError. Resident queries are NOT perturbed: their caches are not
//     flushed and their final tables are byte-identical whether or not a
//     neighbor detached. Queries still attached at finish(now) end with the
//     window; their tables remain readable via table(name).
//   - Threading: attach_query/detach_query belong to the PROCESSING domain —
//     the caller must serialize them with process_batch()/finish()/
//     export_store() exactly as it serializes those with each other
//     (QueryService does this with one mutex; thread identity does not
//     matter, only serialization at batch boundaries). metrics() and
//     store_stats() stay safe from ANY thread concurrently with an
//     attach/detach — topology mutations are guarded against the metrics
//     readers, never against the hot path.
//   - Poisoned-engine interaction: attach/detach on a poisoned engine throw
//     the recorded EngineFaultError like every other mutating call.
//     Validation failures (bad program shape, name collision, over-budget
//     admission in the service layer) are argument errors — ConfigError /
//     QueryError — and do NOT poison the engine.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/program.hpp"
#include "kvstore/federated.hpp"
#include "packet/wire_view.hpp"
#include "runtime/engine_types.hpp"
#include "runtime/resident.hpp"

namespace perfq::runtime {

class Engine {
 public:
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;

  /// Feed one packet observation (call once per record, in time order).
  /// Thin wrapper over process_batch for a single record.
  void process(const PacketRecord& rec) { process_batch({&rec, 1}); }

  /// Feed a batch of packet observations (time-ordered). Results are
  /// identical to calling process() per record; batches only enable the
  /// engines' prefetch/dispatch pipelining. Stream sinks receive matching
  /// rows in one delivery per call (stream_sink.hpp).
  virtual void process_batch(std::span<const PacketRecord> records) = 0;

  /// Feed a burst of raw captured frames (time-ordered), fused with
  /// dispatch: validation, field decode and fold happen in one pass per
  /// frame. Damaged frames are SKIPPED AND COUNTED (never thrown on) into
  /// the returned stats, which also accumulate into metrics().ingest.
  /// Results over the surviving frames are bit-identical to parsing each
  /// frame into a PacketRecord and calling process_batch() — the engines
  /// decode only the fields the compiled program reads
  /// (CompiledProgram::field_usage), straight off the frame bytes.
  virtual trace::IngestStats process_wire_batch(
      std::span<const FrameObservation> frames) = 0;

  /// End the query window: flush caches, close stream sinks, run the
  /// collection layer. Must be called exactly once before result()/table().
  virtual void finish(Nanos now) = 0;

  /// The program's primary result (its last query). Only after finish().
  [[nodiscard]] const ResultTable& result() const { return resident_.result(); }

  /// A named intermediate/final table ("R1"). Throws if unknown or a stream
  /// intermediate that was not materialized. Only after finish().
  [[nodiscard]] const ResultTable& table(std::string_view name) const {
    return resident_.table(name);
  }

  /// The one engine read (contract in the file comment): one on-switch
  /// GROUPBY's store, stamped with the record boundary and `now`. Mid-run
  /// the live cache is merged on top; after finish() it is the final backing
  /// store as is.
  [[nodiscard]] virtual kv::StoreExport export_store(std::string_view query_name,
                                                     Nanos now) = 0;

  /// Mid-run result pull: export_store() materialized as a result table.
  /// Only before finish(). `now` stamps the open epoch's end (it only
  /// affects non-linear kernels' segment intervals).
  [[nodiscard]] EngineSnapshot snapshot(std::string_view query_name, Nanos now) {
    resident_.enter("engine: snapshot after finish");
    const std::size_t q = resident_.switch_slot(query_name, "snapshot");
    const kv::StoreExport exported = export_store(query_name, now);
    return EngineSnapshot{resident_.materialize(q, exported), exported.records,
                          now};
  }

  /// Attach one dynamically compiled query mid-stream (see the query
  /// lifecycle contract in the file comment). The program must be attachable
  /// — attachable_kind() in resident.hpp — and options.name unique among
  /// live queries; violations are ConfigError with no state change. Folding
  /// starts at the current record boundary (the attach epoch). Must be
  /// serialized with process_batch()/finish()/export_store() by the caller.
  virtual void attach_query(compiler::CompiledProgram program,
                            const AttachOptions& options) = 0;

  /// Detach a dynamically attached query: export it at `now`, return the
  /// export materialized, free every resource the attach allocated.
  /// Unknown or base-program names are a QueryError/ConfigError with no
  /// state change. Must be serialized like attach_query().
  virtual ResultTable detach_query(std::string_view name, Nanos now) = 0;

  /// Per-query store stats. Valid mid-run on both engines (mid-run values
  /// obey the metrics coherence contract); throws EngineFaultError if the
  /// engine is poisoned.
  [[nodiscard]] virtual std::vector<StoreStats> store_stats() const = 0;
  [[nodiscard]] std::uint64_t records_processed() const {
    return resident_.records();
  }
  [[nodiscard]] std::uint64_t refresh_count() const {
    return resident_.refreshes();
  }
  [[nodiscard]] const compiler::CompiledProgram& program() const {
    return resident_.program();
  }

  /// The engine's self-telemetry. Callable from any thread at any time,
  /// including on a poisoned engine (see the metrics coherence contract).
  [[nodiscard]] virtual EngineMetrics metrics() const = 0;

  /// Fold one feed's ingest accounting into metrics().ingest. Drivers that
  /// parse wire-format input (trace::replay_frames, TraceReader loops) call
  /// this when the feed ends; callable multiple times (stats accumulate).
  void record_ingest(const trace::IngestStats& stats) {
    resident_.record_ingest(stats);
  }

  /// Record one replay pass (trace::replay) for metrics().replay_*.
  void record_replay(std::uint64_t records, std::uint64_t nanos) {
    resident_.record_replay(records, nanos);
  }

 protected:
  Engine(compiler::CompiledProgram program, EngineConfig config)
      : resident_(std::move(program), std::move(config)) {}

  /// The resident-query layer (resident.hpp): everything about the hosted
  /// queries that does not depend on how the engine folds.
  ResidentQueries resident_;
};

}  // namespace perfq::runtime

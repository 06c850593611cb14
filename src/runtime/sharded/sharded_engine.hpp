// The sharded multi-core runtime: ShardedEngine.
//
// Topology (dispatchers → D×N ring matrix → shard workers → eviction queues
// → merge thread → concurrent backing store):
//
//   D dispatcher threads (the caller thread is dispatcher 0; D-1 helpers)
//     - each owns a disjoint contiguous slice of every input batch: it
//       evaluates each switch query's prefilter, computes the key's hash
//       straight from the record (record-direct routing — for plain-field
//       keys the compiler::KeyRouter packs and hashes on the stack, no
//       kv::Key materialized) and routes the record to shard = high bits of
//       the cache-placement hash (RSS-style);
//     - publishes batched messages into its own per-shard SPSC ring — ring
//       (d, s) has exactly one producer (dispatcher d) and one consumer
//       (worker s), so the D×N matrix needs no locks anywhere;
//     - stamps every message with a global sequence number (the record's
//       position in the stream), and ends every batch slice with a watermark
//       so consumers know the ring has gone quiet up to a bound.
//   N shard workers
//     - each merges its D input rings in sequence order (smallest seq whose
//       safety bound proves no other ring can still deliver an earlier one),
//       re-packs the key on its own core (reusing the dispatcher's hash via
//       Key::pack_prehashed — the byte-level hash is still computed once per
//       record), and folds through the same SwitchFoldCore hot path
//       QueryEngine uses against its private bucket-slice cache;
//     - cache evictions are buffered and enqueued onto the shard's MPSC
//       eviction queue instead of synchronously touching the backing store.
//   1 merge thread
//     - drains the eviction queues into the per-query ShardedBackingStore
//       (sharded by key, one mutex per sub-store), so the paper's periodic
//       refresh keeps the backing store fresh while workers keep folding.
//
// Determinism: the sequence-ordered merge means every worker folds exactly
// the record subsequence — in exactly the global order — that the serial
// dispatcher of PR 2 would have fed it, so the PR 2 guarantee carries over
// unchanged for every D: shard s's cache is exactly the bucket slice
// [s·n/N, (s+1)·n/N) of the single engine's n-bucket cache — same bucket
// contents, same LRU order, same capacity evictions, same flush times — and
// results are bit-identical to QueryEngine's for every linear-kernel query
// (identical value-segment sets and AccuracyStats for non-linear kernels).
// Refresh boundaries are detected once, in global record order, by the
// caller's pre-scan and shipped in-band with the sequence number of the
// record they precede. Requires num_buckets % num_shards == 0 per query
// geometry (and LRU/FIFO eviction; kRandom draws per-shard RNG streams and
// is only statistically equivalent).
//
// Failure domains: every worker/dispatcher/merge thread body is wrapped so
// the first escaping exception is captured into a shared FaultSlot, a stop
// flag converts every inter-thread spin (ring push/pop, lane merge, job
// completion, snapshot rendezvous) into a stop-aware bounded wait, sibling
// threads unwind cleanly, and the engine enters a permanent poisoned state:
// process_batch/finish/snapshot throw a structured EngineFaultError (role,
// shard, cause) — never a hang, never std::terminate. Caller-side drains are
// additionally guarded by a configurable watchdog (drain_timeout) that
// converts a wedged pipeline into an EngineFaultError carrying a diagnostic
// dump. See engine_fault.hpp and engine_api.hpp ("Failure semantics").
//
// Everything that does not depend on how records fold — attach validation,
// the slot registry, stream sinks (evaluated on the caller thread), result
// tables, the refresh clock, driver telemetry and the caller-side fault
// gate — is the shared resident-query layer (resident.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "common/spsc_ring.hpp"
#include "compiler/key_router.hpp"
#include "compiler/program.hpp"
#include "kvstore/sharded_backing_store.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/engine_fault.hpp"
#include "runtime/fold_core.hpp"

namespace perfq::runtime {

struct ShardedEngineConfig {
  /// Geometry/seed/policy/refresh/stream settings, shared with QueryEngine.
  /// The geometry is the *total* cache budget: each shard gets a
  /// 1/num_shards bucket slice of it.
  EngineConfig engine;
  /// Worker thread count (each owns one cache slice per query and one ring
  /// per dispatcher).
  std::size_t num_shards = 4;
  /// Dispatcher thread count D. 1 (default) = the caller thread dispatches
  /// alone, exactly PR 2's topology. D > 1 splits every batch into D
  /// contiguous slices dispatched concurrently (the caller takes slice 0,
  /// D-1 helper threads the rest) through a D×num_shards ring matrix; the
  /// workers' sequence-ordered merge keeps results bit-identical.
  std::size_t num_dispatchers = 1;
  /// Capacity of each (dispatcher, shard) SPSC record ring, in messages
  /// (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
  /// Records a dispatcher stages per shard before publishing to the ring.
  std::size_t dispatch_batch = 256;
  /// Sub-stores per query in the concurrent backing store (0 = num_shards).
  std::size_t backing_shards = 0;
  /// Evictions a worker buffers before pushing to its MPSC eviction queue.
  std::size_t eviction_batch = 128;
  /// Drain watchdog deadline for every caller-side wait on the pipeline's
  /// threads (full-ring pushes, the co-dispatcher batch completion, the
  /// snapshot rendezvous + eviction drain barrier, and the finish() thread
  /// exits). On expiry the engine records a watchdog fault with a pipeline
  /// diagnostic dump (ring occupancy, eviction counters, thread states) and
  /// the blocked call throws EngineFaultError instead of waiting forever.
  /// Zero disables the watchdog (waits become unbounded but stay stop-aware).
  std::chrono::milliseconds drain_timeout{10'000};
};

/// Drop-in multi-core implementation of the Engine interface (see the file
/// comment for the equivalence guarantee). Construct through
/// runtime::EngineBuilder::sharded(N) unless you need the concrete type.
class ShardedEngine final : public Engine {
 public:
  explicit ShardedEngine(compiler::CompiledProgram program,
                         ShardedEngineConfig config = {});
  ~ShardedEngine() override;

  /// Dispatch a batch of time-ordered records to the shard pipeline. Returns
  /// once every record is staged or published; folding proceeds async.
  void process_batch(std::span<const PacketRecord> records) override;

  /// Wire-burst front end: validate every frame (damaged frames skip-and-
  /// count), decode survivors once into a reusable caller-owned buffer, then
  /// run the ordinary dispatch pipeline. The sharded topology ships records
  /// BY VALUE through its ring matrix (workers outlive the caller's frame
  /// buffers), so — unlike QueryEngine's fully lazy override — the decode is
  /// not skipped, only fused: one pass, no per-burst allocation in steady
  /// state, identical skip/count semantics. Results are bit-identical to
  /// parse-then-process_batch.
  trace::IngestStats process_wire_batch(
      std::span<const FrameObservation> frames) override;

  /// Drain rings and eviction queues, join all threads, then materialize
  /// results (cross-shard union is exact; see file comment). Call once.
  void finish(Nanos now) override;

  /// Mid-run pull without stopping the pipeline: an in-band snapshot marker
  /// is broadcast at the current record boundary (seq 2·records); each shard
  /// worker, on merging past it, hands its pending evictions to the merge
  /// thread and writes a non-destructive epoch-stamped copy of its live
  /// cache slices; the caller waits for those copies and for the merge
  /// thread to drain every pre-boundary eviction, then overlays them on a
  /// clone of the concurrent backing store with the exact-merge machinery.
  /// No thread is joined or stopped — folding resumes the moment the worker
  /// has written its copy. Bit-for-bit equal to QueryEngine::snapshot at the
  /// same boundary for linear kernels (see engine_api.hpp).
  using Engine::snapshot;
  [[nodiscard]] EngineSnapshot snapshot(std::string_view query_name,
                                        Nanos now) override;

  /// Federation export (contract in engine_api.hpp): mid-run it reaches the
  /// record boundary with the same in-band snapshot rendezvous as snapshot()
  /// and exports the merged clone; after finish() it reads the final
  /// concurrent backing store directly.
  [[nodiscard]] kv::StoreExport export_store(std::string_view query_name,
                                             Nanos now) override;

  /// Dynamic attach/detach without stopping the pipeline's threads
  /// (lifecycle contract in engine_api.hpp). Both quiesce the pipeline at
  /// the current record boundary with an in-band barrier (the snapshot
  /// rendezvous machinery, minus the cache copy), so the per-shard topology
  /// vectors can grow (attach) or a slot's structures can be freed (detach)
  /// with nothing in flight; folding resumes on the next batch. The tenant
  /// gets a bucket slice per shard (geometry.num_buckets must divide by
  /// num_shards) and its own ShardedBackingStore. Detach flushes the
  /// tenant's slices from the caller, drains the eviction queues, and frees
  /// the slot in place (indices of resident queries never move).
  void attach_query(compiler::CompiledProgram program,
                    const AttachOptions& options) override;
  ResultTable detach_query(std::string_view name, Nanos now) override;

  /// Aggregated per-query stats (cache counters summed across shards).
  /// Valid mid-run (per-counter coherence; see the metrics contract in
  /// engine_api.hpp) and after finish() (exact).
  [[nodiscard]] std::vector<StoreStats> store_stats() const override;

  /// Self-telemetry: driver counters, per-query store stats, the full
  /// pipeline state (per-shard eviction flow, per-dispatcher job progress,
  /// per-ring occupancy/stalls) and the latency histograms. Any thread, any
  /// time — including mid-run and on a poisoned engine; never blocks the
  /// pipeline (see the metrics coherence contract in engine_api.hpp).
  [[nodiscard]] EngineMetrics metrics() const override;

  /// The concurrent backing store of a switch query. Safe to read mid-run
  /// (locked per sub-store) — the paper's "monitoring applications can pull
  /// results" while folding continues. Unlike snapshot(), this view lags by
  /// whatever is cache-resident or still in flight to the merge thread.
  [[nodiscard]] const kv::ShardedBackingStore& backing(
      std::string_view query_name) const;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t num_dispatchers() const {
    return dispatchers_.size();
  }

 private:
  /// Idle backoff for the worker/merge/co-dispatcher poll loops: yield for
  /// this many empty polls (bursty traffic), then park in short sleeps
  /// (truly idle).
  static constexpr std::uint32_t kIdlePollsBeforeSleep = 256;
  static constexpr std::chrono::microseconds kIdleSleep{100};
  /// Messages a worker pops from one ring per refill pass.
  static constexpr std::size_t kPopChunk = 64;

  // Sequence numbering (the merge order): the record at global stream index
  // g carries seq 2g+1; a refresh flush firing *before* record g carries
  // seq 2g; a watermark bounding a batch that ends at index g carries 2g; a
  // snapshot marker at the record boundary after g records carries 2g too
  // (it can never collide with a flush: flushes always precede a record, so
  // their seq stays below the boundary's). Every processable message seq is
  // unique across a worker's D rings (one dispatcher owns each record and
  // each flush; snapshots come only from the caller's ring), so a candidate
  // is safe as soon as every other ring's next-possible seq is >= it.
  struct ShardMsg {
    enum class Kind : std::uint8_t {
      kRecord,
      kFlush,
      kSnapshot,
      /// Attach/detach quiesce marker: the worker pushes its pending
      /// evictions and acks through `snapshot_ready` (same rendezvous as
      /// kSnapshot, no cache copy). raw_hash carries the generation.
      kBarrier,
      kWatermark,
      kStop
    };
    Kind kind = Kind::kRecord;
    std::uint16_t query = 0;     ///< switch-instance index (kRecord/kSnapshot)
    std::uint64_t seq = 0;       ///< global merge order (see above)
    std::uint64_t raw_hash = 0;  ///< key's seed-0 byte hash (kRecord); the
                                 ///< snapshot generation (kSnapshot)
    PacketRecord rec;  ///< the record; rec.tin carries flush/snapshot time
  };

  struct TaggedEviction {
    std::uint16_t query = 0;
    kv::EvictedValue ev;
  };

  struct Shard {
    /// rings[d]: the SPSC conduit from dispatcher d (sole producer) to this
    /// shard's worker (sole consumer).
    std::vector<std::unique_ptr<SpscRing<ShardMsg>>> rings;
    MpscQueue<TaggedEviction> evictions;
    /// Per switch query. Slots of detached queries are null (indices of
    /// resident queries stay stable; the message `query` field indexes
    /// these directly).
    std::vector<std::unique_ptr<kv::Cache>> caches;
    std::vector<std::unique_ptr<SwitchFoldCore>> cores;  ///< parallel to caches
    std::vector<TaggedEviction> evict_buf;  ///< worker-local staging
    /// Snapshot rendezvous: the worker writes a non-destructive copy of the
    /// requested query's resident entries here, then publishes the
    /// generation through
    /// `snapshot_ready` (release); the caller spins on it (acquire). Only
    /// ever touched between those two fences, so no lock is needed.
    std::vector<TaggedEviction> snapshot_out;
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> snapshot_ready{0};
    /// Eviction flow accounting for the snapshot's drain barrier: the worker
    /// counts evictions handed to the MPSC queue, the merge thread counts
    /// absorptions; pushed == absorbed means the backing store has caught
    /// up with everything this worker produced.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> evictions_pushed{0};
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> evictions_absorbed{0};
    std::size_t index = 0;  ///< shard id, for fault attribution
    /// Set by the worker thread on its way out (normal exit, fault unwind,
    /// or stop-flag abandon). The watchdog-guarded joins wait on this so a
    /// wedged thread can be reported instead of hanging finish().
    std::atomic<bool> exited{false};
    std::thread thread;
  };

  /// A refresh boundary detected by the caller's serial pre-scan: the flush
  /// fires before the record at global stream index `pos`.
  struct FlushEvent {
    std::uint64_t pos = 0;
    Nanos time;
  };

  struct Dispatcher {
    /// Per-shard staging buffers (published to rings[this dispatcher]).
    std::vector<std::vector<ShardMsg>> staging;
    // Job slot for helper dispatchers (d >= 1): the caller writes the job
    // fields, then publishes them with a release store to `posted`; the
    // helper acknowledges through `completed`.
    std::span<const PacketRecord> job_slice;
    std::uint64_t job_base = 0;
    std::span<const FlushEvent> job_flushes;
    std::uint64_t job_watermark = 0;
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> posted{0};
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> exit{false};
    std::atomic<bool> exited{false};  ///< thread body finished (see Shard)
    /// Per-shard ring telemetry for this dispatcher's rings (single writer:
    /// this dispatcher — only thread d publishes to rings[d]). Stalls count
    /// publish() calls that blocked on a full ring at least once; the
    /// high-water mark samples ring occupancy after each publish.
    std::vector<obs::RelaxedU64> ring_stalls;
    std::vector<obs::RelaxedU64> ring_hwm;
    std::thread thread;  ///< helpers only; dispatcher 0 is the caller
  };

  /// One worker-side view of one input ring: messages drained FIFO into an
  /// unbounded local buffer (the worker always drains even when the merge
  /// is blocked on another ring — that keeps dispatchers from wedging on a
  /// full ring) plus the ring's proven lower bound on future seqs.
  struct Lane {
    std::vector<ShardMsg> buf;
    std::size_t head = 0;
    std::uint64_t bound = 0;  ///< future msgs from this ring have seq >= bound
    bool stopped = false;
  };

  /// Caller-side spin bookkeeping: bounded backoff plus the lazily armed
  /// drain-watchdog deadline (armed on the first blocked poll, so unblocked
  /// paths never read the clock).
  struct SpinState {
    std::uint32_t idle_polls = 0;
    std::chrono::steady_clock::time_point deadline{};
    bool armed = false;
  };

  void worker_loop(Shard& shard);
  /// D = 1 fast path: one ring, already in global sequence order — pop
  /// straight into the fold chunk with no lane buffering or merge.
  void worker_loop_single_lane(Shard& shard);
  /// Pass 1 of a gathered chunk slot: re-pack the record's key on this core
  /// and prefetch its cache bucket. Pass 2 (prepare/fold split shared by
  /// both worker loops).
  void worker_prepare(Shard& shard, std::size_t i, const ShardMsg& msg);
  void worker_process(Shard& shard, std::size_t i, ShardMsg& msg);
  void merge_loop();
  void co_dispatcher_loop(std::size_t d);
  /// Thread entry wrappers: run the loop, convert any escaping exception
  /// into the shared fault slot (first exception wins) + engine-wide stop,
  /// and flag exit — an engine thread can never reach std::terminate or die
  /// silently while its peers spin on it.
  void worker_main(Shard& shard);
  void merge_main();
  void co_dispatcher_main(std::size_t d);
  void on_thread_fault(ThreadRole role, std::size_t shard,
                       std::string cause) noexcept;
  /// Raise the stop flag: every ring push/pop loop, lane merge, idle poll
  /// and caller-side wait observes it and unwinds instead of spinning on a
  /// dead peer. Set on first fault (and never cleared — the engine is
  /// poisoned). Idempotent.
  void begin_stop() noexcept;
  /// The fault gate's hook: a caller-side fault also stops the pipeline.
  [[nodiscard]] auto stopper() {
    return [this]() noexcept { begin_stop(); };
  }
  /// Poisoned-state gate at every mutating entry point.
  void throw_if_faulted() { resident_.throw_if_faulted(stopper()); }
  /// One backoff step of a caller-side drain spin. When `what` is non-null
  /// the spin is watchdog-guarded: past the drain deadline it records a
  /// kWatchdog fault carrying pipeline_diagnostic() and raises stop (it does
  /// NOT throw — callers that must keep waiting for span safety check the
  /// fault themselves).
  void spin_backoff(SpinState& spin, const char* what);
  /// The watchdog's dump: per-ring occupancy, per-shard eviction
  /// pushed/absorbed counters, and thread exit states.
  [[nodiscard]] std::string pipeline_diagnostic(const char* what) const;
  /// Watchdog-guarded wait for a thread's exit flag (finish() path). Returns
  /// true when the thread exited (safe to join instantly); false when the
  /// deadline plus one grace period expired with the thread still wedged —
  /// the join is then deferred to the destructor.
  bool wait_exited(const std::atomic<bool>& exited, bool watchdog,
                   const char* what);
  /// Dispatch one contiguous slice as dispatcher d: route records, emit
  /// in-slice flushes, publish staging, and (for D > 1) end with a
  /// watermark carrying `watermark_seq`.
  void dispatch_slice(std::size_t d, std::span<const PacketRecord> slice,
                      std::uint64_t base, std::span<const FlushEvent> flushes,
                      std::uint64_t watermark_seq);
  void run_stream_sinks(std::span<const PacketRecord> records);
  /// Slot q's cache slice for one shard, its evictions staged into the
  /// shard's eviction buffer (the merge thread absorbs them).
  [[nodiscard]] std::unique_ptr<kv::Cache> make_slice(
      Shard& sh, std::size_t q, const compiler::SwitchQueryPlan& plan,
      const kv::CacheGeometry& slice) const;
  /// One shard's bucket slice of a query geometry; ConfigError unless the
  /// buckets divide evenly across the shards.
  [[nodiscard]] kv::CacheGeometry shard_slice(const kv::CacheGeometry& geometry,
                                              const std::string& query,
                                              const char* what) const;
  /// Hand the worker's staged evictions to the merge thread, maintaining
  /// the pushed counter the snapshot drain barrier reads.
  static void push_evictions(Shard& sh);
  void stage(std::size_t d, std::size_t shard, ShardMsg&& msg);
  void publish(std::size_t d, std::size_t shard);
  /// Push one message to a ring, backing off while it is full. Stop-aware
  /// (the message is dropped once the engine is poisoned); `what` non-null
  /// adds the caller-side watchdog guard.
  void push_message(SpscRing<ShardMsg>& ring, ShardMsg&& msg,
                    const char* what);
  /// The batch-dispatch body of process_batch (which wraps it in the
  /// poisoned-state machinery).
  void process_batch_impl(std::span<const PacketRecord> records);
  /// Steps 1-4 of the mid-run snapshot: rendezvous at the record boundary,
  /// drain evictions, overlay every shard's cache copy on a clone of the
  /// concurrent store. Shared by snapshot and export_store.
  [[nodiscard]] std::unique_ptr<kv::ShardedBackingStore> snapshot_merged_store(
      std::size_t query, Nanos now);
  /// Broadcast a kSnapshot/kBarrier marker for `query` at the current
  /// record boundary through the caller's rings and wait for every worker's
  /// ack (a kSnapshot ack means its cache copy is in snapshot_out).
  void rendezvous(ShardMsg::Kind kind, std::size_t query, Nanos now,
                  const char* what);
  /// Quiesce at the current record boundary: broadcast a kBarrier through
  /// the caller's rings, wait for every worker's ack, then run the eviction
  /// drain barrier — on return nothing is in flight and the backing stores
  /// are boundary-exact. Folding resumes with the next dispatched message.
  /// May record a watchdog fault (callers re-check with throw_if_faulted).
  void quiesce_pipeline(const char* what);
  /// The eviction drain barrier alone (pushed == absorbed per shard).
  void drain_eviction_barrier(const char* what);
  /// Send final kFlush (optionally) + kStop through every ring (helpers
  /// push their own on exit) and join all threads. `watchdog` guards the
  /// joins with the drain deadline (finish() path); the destructor passes
  /// false and joins unboundedly.
  void stop_pipeline(bool flush, Nanos now, bool watchdog);
  /// The cache-placement hash from a key's raw (seed-0) hash; identical to
  /// kv::placement_hash(key, hash_seed) without needing the key.
  [[nodiscard]] std::uint64_t placement_of_raw(std::uint64_t raw) const;
  /// Cache counters of one slot summed across shards; returns its backing
  /// store (the shared layer reads the rest of StoreStats from it).
  const kv::ShardedBackingStore& slot_stats(std::size_t q, StoreStats& s) const;
  /// Fill the pipeline-state part of an EngineMetrics (shards, dispatchers,
  /// rings, merge state). Lock-free — also safe from the watchdog's
  /// diagnostic path while threads are wedged.
  void collect_pipeline(EngineMetrics& m) const;

  /// Topology knobs; `engine` was moved into the resident layer (read it
  /// through resident_.config()).
  ShardedEngineConfig config_;
  std::uint64_t seed_mix_ = 0;  ///< mix64(hash_seed), precomputed
  // Per switch query, indexed by resident slot; a DETACHED query's entries
  // are nulled in place (never erased — message `query` fields and
  // eviction-sink closures index these vectors, so slot indices must stay
  // stable).
  /// Record-direct router per plan; nullopt = computed key, expression path.
  std::vector<std::optional<compiler::KeyRouter>> routers_;
  std::vector<std::unique_ptr<kv::ShardedBackingStore>> backings_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
  std::vector<FlushEvent> flush_events_;  ///< per-batch scratch (caller only)
  std::vector<PacketRecord> wire_pending_;  ///< wire-burst scratch (caller only)
  std::thread merge_thread_;
  std::atomic<bool> merge_stop_{false};
  std::atomic<bool> merge_exited_{false};
  /// Failure-domain state: the first exception from any engine thread (or a
  /// watchdog expiry) wins the resident layer's fault slot, raises stop_,
  /// and poisons the engine — see engine_fault.hpp and the "Failure
  /// semantics" notes in engine_api.hpp. The pipeline threads never take
  /// the topology lock: attach/detach mutate per-slot state only after the
  /// quiesce barrier proves nothing is in flight.
  std::atomic<bool> stop_{false};
  /// Merge-thread absorb sweep latency (single writer: the merge thread).
  obs::LatencyHistogram absorb_ns_;
  std::uint64_t snapshot_gen_ = 0;  ///< caller-side snapshot generation
  bool threads_stopped_ = false;
};

}  // namespace perfq::runtime

// The resident-query layer: the paper's §3.2 operating model — a resident
// program whose queries attach, are pulled and end while traffic flows, with
// a periodic refresh keeping the backing store fresh — held once for both
// engines. runtime::Engine owns one ResidentQueries; each concrete engine
// keeps only its fold pipeline and its store type.
//
// The layer holds:
//   - the program, its EngineConfig and the StreamStage;
//   - the switch-query slot registry (plan, owned tenant program, attach
//     epoch) and the attach validation and geometry resolution in front of
//     it. Slot indices are stable: a detached slot is nulled in place, so an
//     engine may index its own per-query state by slot;
//   - the result tables and the finish() collection tail;
//   - the driver telemetry (records, batches, refreshes, snapshots, sampled
//     batch/snapshot latency, ingest/replay accounting), the metrics()
//     header and the store-stats fields every engine reports alike;
//   - the refresh clock, due();
//   - the poisoned-state fault gate, guarded() / throw_if_faulted().
//
// Threading: the processing (caller) domain owns everything here. The
// telemetry slots and the fault slot are also read from any thread by
// metrics(); the topology mutex guards the slot registry and the stream
// entries against those readers, never against the hot path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "compiler/program.hpp"
#include "obs/metrics.hpp"
#include "runtime/collection.hpp"
#include "runtime/engine_fault.hpp"
#include "runtime/engine_types.hpp"
#include "runtime/stream_stage.hpp"
#include "runtime/table.hpp"
#include "trace/ingest_stats.hpp"

namespace perfq::runtime {

/// Classify a program for attach_query(). Attachable programs are single-
/// result: either one on-switch GROUPBY chain (exactly one switch plan that
/// IS the program's last query — upstream SELECTs are composed into the
/// plan, nothing runs in the collection layer) or one unconsumed stream
/// SELECT chain. Throws ConfigError for everything else — multi-result
/// programs, collection-layer queries (joins, soft GROUPBYs, SELECTs over
/// aggregate results) have no per-record resident form.
[[nodiscard]] AttachKind attachable_kind(const compiler::CompiledProgram& program);

/// The fault gate's hook for an engine with no pipeline threads to stop.
struct NoStop {
  void operator()() const noexcept {}
};

class ResidentQueries {
 public:
  /// One on-switch GROUPBY of the resident program.
  struct Slot {
    /// Null once the query is detached.
    const compiler::SwitchQueryPlan* plan = nullptr;
    /// A dynamically attached tenant's own program (plan points into it);
    /// null for base-program queries. Doubles as the attached flag.
    std::shared_ptr<const compiler::CompiledProgram> attached;
    std::uint64_t attach_records = 0;  ///< attach epoch
  };

  /// A validated attach: the tenant's program, owned and renamed to the
  /// resident name, and (for a switch tenant) its resolved cache geometry.
  struct Tenant {
    AttachKind kind = AttachKind::kSwitchQuery;
    std::shared_ptr<compiler::CompiledProgram> program;
    kv::CacheGeometry geometry;
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Registers one slot per switch plan of `program` and builds the stream
  /// stage (which validates config.stream_sinks).
  ResidentQueries(compiler::CompiledProgram program, EngineConfig config);

  [[nodiscard]] const compiler::CompiledProgram& program() const {
    return program_;
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] StreamStage& stream() { return stream_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] FaultSlot& fault() { return fault_; }
  [[nodiscard]] const FaultSlot& fault() const { return fault_; }

  // ---- the fault gate ------------------------------------------------------

  /// Throw the recorded EngineFaultError if the engine is poisoned, after
  /// running `on_fault` (the sharded engine stops its pipeline there).
  template <typename OnFault = NoStop>
  void throw_if_faulted(OnFault&& on_fault = OnFault{}) const {
    if (fault_.faulted()) {
      on_fault();
      fault_.raise();
    }
  }

  /// Entry gate of a processing-domain call: the fault check, then
  /// `check(!finished, message)`.
  template <typename OnFault = NoStop>
  void enter(const char* message, OnFault&& on_fault = OnFault{}) const {
    throw_if_faulted(on_fault);
    check(!finished_, message);
  }

  /// Run `body` under the poisoned-state protocol: any exception escaping it
  /// other than an EngineFaultError is recorded as the engine's kCaller
  /// fault; either way `on_fault` runs and the structured error is thrown.
  template <typename Body, typename OnFault = NoStop>
  decltype(auto) guarded(Body&& body, OnFault&& on_fault = OnFault{}) {
    try {
      return body();
    } catch (const EngineFaultError&) {
      on_fault();
      throw;
    } catch (const std::exception& e) {
      fault_.record(ThreadRole::kCaller, kNoShard, e.what());
    } catch (...) {
      fault_.record(ThreadRole::kCaller, kNoShard, "unknown exception");
    }
    on_fault();
    fault_.raise();
  }

  // ---- driver telemetry and the refresh clock ------------------------------

  [[nodiscard]] std::uint64_t records() const { return records_; }
  void add_records(std::uint64_t n) { records_ += n; }
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

  /// Count one process_batch() call of `n` records; returns its start stamp
  /// when this call is sampled for batch_ns timing, 0 otherwise.
  [[nodiscard]] std::uint64_t begin_batch(std::size_t n) {
    ++batches_;
    const bool timed =
        obs::kTelemetryEnabled &&
        (n >= obs::kAlwaysTimeBatch ||
         (batch_tick_++ & obs::kSmallBatchSampleMask) == 0);
    return timed ? obs::now_ns() : 0;
  }
  void end_batch(std::uint64_t t0) {
    if (t0 != 0) batch_ns_.record(obs::now_ns() - t0);
  }

  /// Count one mid-run pull (snapshot) and return its start stamp;
  /// end_pull() records its latency into snapshot_ns.
  [[nodiscard]] std::uint64_t begin_pull() {
    ++snapshots_;
    return obs::kTelemetryEnabled ? obs::now_ns() : 0;
  }
  void end_pull(std::uint64_t t0) {
    if (obs::kTelemetryEnabled) snapshot_ns_.record(obs::now_ns() - t0);
  }

  /// Whether periodic refresh is on (EngineConfig::refresh_interval > 0).
  [[nodiscard]] bool refreshing() const {
    return config_.refresh_interval > Nanos{0};
  }

  /// The refresh clock (§3.2), one decision for both engines; call only
  /// while refreshing(), once per record in global record order. The first
  /// record anchors the clock; a refresh fires before any record stamped at
  /// or past the next boundary, which then moves to that record's time plus
  /// the interval. Returns whether one fires before this record, and counts
  /// it.
  [[nodiscard]] bool due(Nanos tin) {
    if (next_refresh_ == Nanos{0}) {
      next_refresh_ = tin + config_.refresh_interval;
    }
    if (tin < next_refresh_) return false;
    ++refreshes_;
    next_refresh_ = tin + config_.refresh_interval;
    return true;
  }

  void record_ingest(const trace::IngestStats& stats);
  void record_replay(std::uint64_t records, std::uint64_t nanos);

  // ---- attach / detach -----------------------------------------------------

  /// Cache geometry of a switch query: the engine's, overridden per name.
  [[nodiscard]] kv::CacheGeometry geometry_for(std::string_view name) const;

  /// Validate one attach and take ownership of the tenant's program. The
  /// program must be attachable (attachable_kind) and options.name non-empty
  /// and unused by any base table, live switch query or stream query; the
  /// geometry resolves as geometry_for(name), then options.geometry.
  /// Violations are a ConfigError with no state change.
  [[nodiscard]] Tenant admit(compiler::CompiledProgram program,
                             const AttachOptions& options) const;

  /// Install a validated stream tenant at the current record boundary.
  void attach_stream(Tenant tenant, const AttachOptions& options);

  /// Register a validated switch tenant at the current record boundary and
  /// return its slot index (always slots().size() before the call). The
  /// caller holds topology_lock() while it also installs its own per-slot
  /// state.
  std::size_t add_slot(std::shared_ptr<const compiler::CompiledProgram> program);

  /// Null slot `q` in place, releasing the tenant's program; the caller holds
  /// topology_lock() and has freed its per-slot state first.
  void release(std::size_t q);

  /// Slot index of the live switch query `name`, or npos.
  [[nodiscard]] std::size_t find_switch(std::string_view name) const;

  /// Slot index of the live switch query `name`; otherwise a QueryError
  /// "<what>: no on-switch GROUPBY named ..." (a usage error, checked before
  /// any fault machinery so it never poisons the engine).
  [[nodiscard]] std::size_t switch_slot(std::string_view name,
                                        const char* what) const;

  /// Slot index of the attached switch tenant `name`, or npos if no switch
  /// query has that name. Throws ConfigError for a base-program query.
  [[nodiscard]] std::size_t detach_target(std::string_view name) const;

  /// Detach the stream tenant `name` (QueryError if unknown, ConfigError for
  /// a base-program stream), under the fault gate.
  template <typename OnFault = NoStop>
  ResultTable detach_stream(std::string_view name,
                            OnFault&& on_fault = OnFault{}) {
    check_stream_detach(name);
    const auto lock = topology_lock();
    return guarded([&] { return stream_.detach(name); }, on_fault);
  }

  /// Guards the slot registry, the stream entries and the engines' own
  /// per-slot state against metrics()/store_stats() readers.
  [[nodiscard]] std::unique_lock<std::mutex> topology_lock() const {
    return std::unique_lock<std::mutex>(topology_mu_);
  }

  // ---- results -------------------------------------------------------------

  /// Slot `q`'s result table materialized from `backing` (a BackingStore or
  /// ShardedBackingStore), against the program that owns the slot's plan.
  template <typename Backing>
  [[nodiscard]] ResultTable materialize(std::size_t q,
                                        const Backing& backing) const {
    const Slot& slot = slots_[q];
    return materialize_switch_table(
        slot.attached != nullptr ? *slot.attached : program_, *slot.plan,
        backing);
  }

  /// Entry gate of finish(): as enter(), then marks the window closed (a
  /// failed finish cannot be retried).
  template <typename OnFault = NoStop>
  void begin_finish(OnFault&& on_fault = OnFault{}) {
    enter("engine: finish called twice", on_fault);
    finished_ = true;
  }

  /// The finish() tail, once the engine's stores hold the whole window:
  /// materialize every live slot from `backing_of(q)` (base queries by query
  /// index, attached ones by name — their indices belong to their own
  /// programs), finish the stream stage, run the collection layer.
  template <typename BackingOf>
  void collect_results(BackingOf&& backing_of) {
    for (std::size_t q = 0; q < slots_.size(); ++q) {
      const Slot& slot = slots_[q];
      if (slot.plan == nullptr) continue;
      ResultTable table = materialize(q, backing_of(q));
      if (slot.attached != nullptr) {
        attached_tables_.emplace(slot.plan->name, std::move(table));
      } else {
        tables_.emplace(slot.plan->query_index, std::move(table));
      }
    }
    run_collection();
  }

  [[nodiscard]] const ResultTable& result() const;
  [[nodiscard]] const ResultTable& table(std::string_view name) const;

  // ---- stats and metrics ---------------------------------------------------

  /// Per-query store stats under the fault gate. `slot_stats(q, stats)` adds
  /// the engine's cache counters to one live slot's stats and returns its
  /// backing store, whose counters the layer reads.
  template <typename SlotStats>
  [[nodiscard]] std::vector<StoreStats> store_stats(
      const SlotStats& slot_stats) const {
    throw_if_faulted();
    const auto lock = topology_lock();
    return collect_stats(slot_stats);
  }

  /// The metrics() body both engines share (never throws on a poisoned
  /// engine); the engine appends its pipeline state.
  template <typename SlotStats>
  [[nodiscard]] EngineMetrics metrics(const char* engine,
                                      const SlotStats& slot_stats) const {
    EngineMetrics m;
    m.engine = engine;
    fill_metrics(m);
    const auto lock = topology_lock();
    m.queries = collect_stats(slot_stats);
    stream_.collect(m.streams);
    return m;
  }

 private:
  template <typename SlotStats>
  [[nodiscard]] std::vector<StoreStats> collect_stats(
      const SlotStats& slot_stats) const {
    std::vector<StoreStats> out;
    for (std::size_t q = 0; q < slots_.size(); ++q) {
      const Slot& slot = slots_[q];
      if (slot.plan == nullptr) continue;
      StoreStats& s = out.emplace_back();
      s.name = slot.plan->name;
      s.linearity = slot.plan->linearity;
      s.attached = slot.attached != nullptr;
      s.attach_records = slot.attach_records;
      const auto& backing = slot_stats(q, s);
      s.accuracy = backing.accuracy();
      s.backing_writes = backing.writes();
      s.backing_capacity_writes = backing.capacity_writes();
      s.keys = backing.key_count();
    }
    return out;
  }

  void check_stream_detach(std::string_view name) const;
  void run_collection();
  void fill_metrics(EngineMetrics& m) const;

  compiler::CompiledProgram program_;
  EngineConfig config_;
  std::vector<Slot> slots_;
  StreamStage stream_;
  std::map<int, ResultTable> tables_;  ///< by query index
  /// Final tables of queries still attached at finish(), by name.
  std::map<std::string, ResultTable, std::less<>> attached_tables_;
  mutable std::mutex topology_mu_;
  bool finished_ = false;
  Nanos next_refresh_{0};
  /// First-exception-wins poisoned state, shared with the sharded engine's
  /// pipeline threads.
  FaultSlot fault_;
  /// Telemetry slots. Single writer: the caller thread (driver ingest/replay
  /// slots: the driver thread); metrics() reads them from anywhere.
  obs::RelaxedU64 records_;
  obs::RelaxedU64 refreshes_;
  obs::RelaxedU64 batches_;
  obs::RelaxedU64 snapshots_;
  std::uint32_t batch_tick_ = 0;  ///< sampling phase for small-batch timing
  obs::LatencyHistogram batch_ns_;
  obs::LatencyHistogram snapshot_ns_;
  obs::RelaxedU64 ingest_parsed_, ingest_truncated_, ingest_unsupported_,
      ingest_bad_length_, ingest_bad_checksum_;
  obs::RelaxedU64 replay_records_, replay_nanos_;
};

}  // namespace perfq::runtime

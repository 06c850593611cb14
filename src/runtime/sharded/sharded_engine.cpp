#include "runtime/sharded/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"
#include "obs/metrics_export.hpp"
#include "runtime/collection.hpp"

namespace perfq::runtime {

namespace {

/// kStop's sequence value: orders after every record and flush.
constexpr std::uint64_t kStopSeq = std::numeric_limits<std::uint64_t>::max();

}  // namespace

ShardedEngine::ShardedEngine(compiler::CompiledProgram program,
                             ShardedEngineConfig config)
    : Engine(std::move(program), std::move(config.engine)),
      config_(std::move(config)) {
  const std::size_t n_shards = config_.num_shards;
  const std::size_t n_dispatchers = config_.num_dispatchers;
  if (n_shards == 0) {
    throw ConfigError{"ShardedEngine: num_shards must be at least 1"};
  }
  if (n_dispatchers == 0) {
    throw ConfigError{"ShardedEngine: num_dispatchers must be at least 1"};
  }
  if (config_.dispatch_batch == 0) {
    throw ConfigError{"ShardedEngine: zero dispatch batch"};
  }
  if (config_.eviction_batch == 0) {
    throw ConfigError{"ShardedEngine: zero eviction batch"};
  }
  const std::size_t backing_shards =
      config_.backing_shards == 0 ? n_shards : config_.backing_shards;
  const auto& slots = resident_.slots();
  if (slots.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max())) {
    throw ConfigError{"ShardedEngine: too many switch queries"};
  }
  seed_mix_ = mix64(resident_.config().hash_seed);

  // Resolve each switch query's geometry and its per-shard bucket slice.
  std::vector<kv::CacheGeometry> shard_geometry;
  for (const auto& slot : slots) {
    const compiler::SwitchQueryPlan& plan = *slot.plan;
    routers_.push_back(compiler::KeyRouter::make(plan));
    shard_geometry.push_back(shard_slice(resident_.geometry_for(plan.name),
                                         plan.name, "ShardedEngine"));
    backings_.push_back(std::make_unique<kv::ShardedBackingStore>(
        plan.kernel, backing_shards));
  }

  // Shards: per query a cache slice whose evictions feed the shard's MPSC
  // queue (batched) instead of a synchronous backing-store absorb; one input
  // ring per dispatcher.
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    Shard& sh = *shard;
    sh.index = s;
    for (std::size_t d = 0; d < n_dispatchers; ++d) {
      sh.rings.push_back(
          std::make_unique<SpscRing<ShardMsg>>(config_.ring_capacity));
    }
    for (std::size_t q = 0; q < slots.size(); ++q) {
      sh.caches.push_back(make_slice(sh, q, *slots[q].plan, shard_geometry[q]));
      sh.cores.push_back(
          std::make_unique<SwitchFoldCore>(*slots[q].plan, *sh.caches[q]));
    }
    shards_.push_back(std::move(shard));
  }

  // Dispatchers: index 0 is the caller thread; the rest are helper threads
  // parked on their job slots.
  dispatchers_.reserve(n_dispatchers);
  for (std::size_t d = 0; d < n_dispatchers; ++d) {
    auto dispatcher = std::make_unique<Dispatcher>();
    dispatcher->staging.resize(n_shards);
    dispatcher->ring_stalls.resize(n_shards);
    dispatcher->ring_hwm.resize(n_shards);
    dispatchers_.push_back(std::move(dispatcher));
  }

  merge_thread_ = std::thread([this] { merge_main(); });
  for (auto& shard : shards_) {
    Shard& sh = *shard;
    sh.thread = std::thread([this, &sh] { worker_main(sh); });
  }
  for (std::size_t d = 1; d < n_dispatchers; ++d) {
    dispatchers_[d]->thread = std::thread([this, d] { co_dispatcher_main(d); });
  }
}

ShardedEngine::~ShardedEngine() {
  // Bench/abort/poisoned path: tear the pipeline down without the final
  // flush. Joins are unbounded here — threads are stop-aware, so they exit
  // as soon as their current blocking operation returns.
  if (!threads_stopped_) stop_pipeline(/*flush=*/false, Nanos{0},
                                       /*watchdog=*/false);
}

// ---- failure-domain machinery ----------------------------------------------

void ShardedEngine::begin_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    dispatchers_[d]->exit.store(true, std::memory_order_release);
  }
}

void ShardedEngine::on_thread_fault(ThreadRole role, std::size_t shard,
                                    std::string cause) noexcept {
  resident_.fault().record(role, shard, std::move(cause));
  begin_stop();
}

std::string ShardedEngine::pipeline_diagnostic(const char* what) const {
  // The dump is the telemetry layer's pipeline view (same enumeration
  // metrics() exports), rendered by the shared formatter. Lock-free — safe
  // while threads are wedged, which is exactly when the watchdog needs it.
  EngineMetrics m;
  collect_pipeline(m);
  std::string out = "pipeline state at watchdog expiry (waiting for ";
  out += what;
  out += ", drain_timeout " + std::to_string(config_.drain_timeout.count()) +
         " ms):";
  out += obs::format_pipeline(m);
  return out;
}

void ShardedEngine::collect_pipeline(EngineMetrics& m) const {
  m.merge_exited = merge_exited_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    ShardMetrics sm;
    sm.shard = shard->index;
    sm.evictions_pushed =
        shard->evictions_pushed.load(std::memory_order_acquire);
    sm.evictions_absorbed =
        shard->evictions_absorbed.load(std::memory_order_acquire);
    sm.worker_exited = shard->exited.load(std::memory_order_acquire);
    m.shards.push_back(sm);
  }
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    const Dispatcher& dp = *dispatchers_[d];
    DispatcherMetrics dm;
    dm.dispatcher = d;
    dm.batches_posted = dp.posted.load(std::memory_order_acquire);
    dm.batches_completed = dp.completed.load(std::memory_order_acquire);
    dm.exited = dp.exited.load(std::memory_order_acquire);
    m.dispatchers.push_back(dm);
  }
  for (std::size_t d = 0; d < dispatchers_.size(); ++d) {
    const Dispatcher& dp = *dispatchers_[d];
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      RingMetrics rm;
      rm.dispatcher = d;
      rm.shard = s;
      rm.occupancy = shards_[s]->rings[d]->size_approx();
      rm.occupancy_hwm = dp.ring_hwm[s];
      rm.capacity = shards_[s]->rings[d]->capacity();
      rm.push_stalls = dp.ring_stalls[s];
      m.rings.push_back(rm);
    }
  }
}

void ShardedEngine::spin_backoff(SpinState& spin, const char* what) {
  if (what != nullptr && config_.drain_timeout.count() > 0 &&
      !resident_.fault().faulted()) {
    if (!spin.armed) {
      spin.deadline = std::chrono::steady_clock::now() + config_.drain_timeout;
      spin.armed = true;
    } else if (std::chrono::steady_clock::now() > spin.deadline) {
      resident_.fault().record(ThreadRole::kWatchdog, kNoShard,
                    std::string{"drain deadline exceeded waiting for "} + what,
                    pipeline_diagnostic(what));
      begin_stop();
      return;  // the caller's next stop_/fault check unwinds the wait
    }
  }
  if (++spin.idle_polls < kIdlePollsBeforeSleep) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(kIdleSleep);
  }
}

bool ShardedEngine::wait_exited(const std::atomic<bool>& exited, bool watchdog,
                                const char* what) {
  SpinState spin;
  bool grace = false;
  for (;;) {
    if (exited.load(std::memory_order_acquire)) return true;
    if (watchdog && config_.drain_timeout.count() > 0) {
      if (!spin.armed) {
        spin.deadline =
            std::chrono::steady_clock::now() + config_.drain_timeout;
        spin.armed = true;
      } else if (std::chrono::steady_clock::now() > spin.deadline) {
        if (!grace) {
          // Deadline expired: record the wedge (with the dump), release
          // every stop-aware loop, and grant one more deadline of grace for
          // the thread to unwind before deferring its join to the
          // destructor.
          resident_.fault().record(ThreadRole::kWatchdog, kNoShard,
                        std::string{"drain deadline exceeded waiting for "} +
                            what,
                        pipeline_diagnostic(what));
          begin_stop();
          spin.deadline =
              std::chrono::steady_clock::now() + config_.drain_timeout;
          grace = true;
        } else {
          return false;
        }
      }
    }
    if (++spin.idle_polls < kIdlePollsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
}

void ShardedEngine::worker_main(Shard& sh) {
  try {
    worker_loop(sh);
  } catch (const std::exception& e) {
    on_thread_fault(ThreadRole::kWorker, sh.index, e.what());
  } catch (...) {
    on_thread_fault(ThreadRole::kWorker, sh.index, "unknown exception");
  }
  sh.exited.store(true, std::memory_order_release);
}

void ShardedEngine::merge_main() {
  try {
    merge_loop();
  } catch (const std::exception& e) {
    on_thread_fault(ThreadRole::kMerge, kNoShard, e.what());
  } catch (...) {
    on_thread_fault(ThreadRole::kMerge, kNoShard, "unknown exception");
  }
  merge_exited_.store(true, std::memory_order_release);
}

void ShardedEngine::co_dispatcher_main(std::size_t d) {
  try {
    co_dispatcher_loop(d);
  } catch (const std::exception& e) {
    on_thread_fault(ThreadRole::kDispatcher, kNoShard,
                    "dispatcher " + std::to_string(d) + ": " + e.what());
  } catch (...) {
    on_thread_fault(ThreadRole::kDispatcher, kNoShard,
                    "dispatcher " + std::to_string(d) + ": unknown exception");
  }
  dispatchers_[d]->exited.store(true, std::memory_order_release);
}

// ---- dispatch ---------------------------------------------------------------

std::uint64_t ShardedEngine::placement_of_raw(std::uint64_t raw) const {
  return resident_.config().hash_seed == 0 ? raw : mix64(raw ^ seed_mix_);
}

std::unique_ptr<kv::Cache> ShardedEngine::make_slice(
    Shard& sh, std::size_t q, const compiler::SwitchQueryPlan& plan,
    const kv::CacheGeometry& slice) const {
  const EngineConfig& config = resident_.config();
  auto cache = std::make_unique<kv::Cache>(
      slice, plan.kernel, config.hash_seed, config.eviction_policy,
      /*bucket_scale=*/config_.num_shards);
  const std::size_t batch = config_.eviction_batch;
  cache->set_eviction_sink([&sh, q, batch](kv::EvictedValue&& ev) {
    sh.evict_buf.push_back(
        TaggedEviction{static_cast<std::uint16_t>(q), std::move(ev)});
    if (sh.evict_buf.size() >= batch) push_evictions(sh);
  });
  return cache;
}

kv::CacheGeometry ShardedEngine::shard_slice(const kv::CacheGeometry& geometry,
                                             const std::string& query,
                                             const char* what) const {
  const std::size_t n_shards = config_.num_shards;
  if (geometry.num_buckets % n_shards != 0) {
    throw ConfigError{std::string{what} + ": geometry '" +
                      geometry.to_string() + "' for query '" + query +
                      "' needs num_buckets divisible by num_shards (" +
                      std::to_string(n_shards) +
                      ") for exact shard/bucket alignment"};
  }
  kv::CacheGeometry slice = geometry;
  slice.num_buckets = geometry.num_buckets / n_shards;
  return slice;
}

void ShardedEngine::stage(std::size_t d, std::size_t shard, ShardMsg&& msg) {
  std::vector<ShardMsg>& staging = dispatchers_[d]->staging[shard];
  staging.push_back(std::move(msg));
  if (staging.size() >= config_.dispatch_batch) publish(d, shard);
}

void ShardedEngine::publish(std::size_t d, std::size_t shard) {
  std::vector<ShardMsg>& staging = dispatchers_[d]->staging[shard];
  if (staging.empty()) return;
  PERFQ_FAILPOINT("sharded.ring_push");
  SpscRing<ShardMsg>& ring = *shards_[shard]->rings[d];
  std::span<ShardMsg> pending(staging);
  SpinState spin;
  bool stalled = false;
  while (!pending.empty()) {
    const std::size_t pushed = ring.push_bulk(pending);
    pending = pending.subspan(pushed);
    if (pushed == 0) {
      stalled = true;
      // Ring full: the worker is behind; let it run (essential on machines
      // with fewer cores than threads). Workers drain their rings even while
      // their merge is blocked, so this makes progress — unless the worker
      // is dead or wedged: the stop flag unwinds the former, the caller-side
      // watchdog converts the latter into a recorded fault. Once the engine
      // is poisoned the rest of the batch is abandoned (results are
      // forfeit; the caller throws at the batch boundary).
      if (stop_.load(std::memory_order_acquire)) break;
      spin_backoff(spin, d == 0 ? "a full shard ring (push)" : nullptr);
    }
  }
  // Ring telemetry: the occupancy high-water is sampled here, right after
  // the push (the ring's fullest observable moment from the producer side).
  Dispatcher& dp = *dispatchers_[d];
  if (stalled) ++dp.ring_stalls[shard];
  dp.ring_hwm[shard].set_max(ring.size_approx());
  staging.clear();
}

void ShardedEngine::push_message(SpscRing<ShardMsg>& ring, ShardMsg&& msg,
                                 const char* what) {
  SpinState spin;
  while (!ring.try_push(std::move(msg))) {
    if (stop_.load(std::memory_order_acquire)) return;  // poisoned: drop
    spin_backoff(spin, what);
  }
}

void ShardedEngine::dispatch_slice(std::size_t d,
                                   std::span<const PacketRecord> slice,
                                   std::uint64_t base,
                                   std::span<const FlushEvent> flushes,
                                   std::uint64_t watermark_seq) {
  const std::uint64_t n_shards = shards_.size();
  const auto& slots = resident_.slots();
  const FlushEvent* flush = flushes.data();
  const FlushEvent* flush_end = flushes.data() + flushes.size();
  for (std::size_t i = 0; i < slice.size(); ++i) {
    // Poisoned mid-slice: stop routing (publishes are being abandoned
    // anyway). Checked every 64 records to keep the dispatch hot path free
    // of per-record synchronization.
    if ((i & 63u) == 0 && stop_.load(std::memory_order_relaxed)) break;
    const PacketRecord& rec = slice[i];
    const std::uint64_t g = base + i;

    // Refresh boundaries firing before this record (detected by the
    // caller's global pre-scan): broadcast in-band through this
    // dispatcher's rings; the workers' merge executes them at exactly
    // sequence position 2g, i.e. the single-threaded trace times.
    while (flush != flush_end && flush->pos == g) {
      for (std::uint64_t s = 0; s < n_shards; ++s) {
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kFlush;
        msg.seq = 2 * g;
        msg.rec.tin = flush->time;
        stage(d, s, std::move(msg));
      }
      ++flush;
    }

    // Route: one message per switch query that admits the record. Only the
    // key's hash is computed here — record-direct for plain-field keys (no
    // kv::Key materialized); the worker re-packs the key on its own core.
    const compiler::RecordSource source({&rec, 1});
    for (std::size_t q = 0; q < slots.size(); ++q) {
      if (slots[q].plan == nullptr) continue;  // detached slot
      const compiler::SwitchQueryPlan& plan = *slots[q].plan;
      if (plan.prefilter.has_value() && !plan.prefilter->eval_bool(source)) {
        continue;
      }
      const std::uint64_t raw =
          routers_[q].has_value()
              ? routers_[q]->raw_hash(rec)
              : compiler::extract_key(plan, rec).raw_hash();
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kRecord;
      msg.query = static_cast<std::uint16_t>(q);
      msg.seq = 2 * g + 1;
      msg.raw_hash = raw;
      msg.rec = rec;
      const std::uint64_t s = reduce_range(placement_of_raw(raw), n_shards);
      stage(d, s, std::move(msg));
    }
  }
  for (std::uint64_t s = 0; s < n_shards; ++s) publish(d, s);
  // Watermark: with co-dispatchers a worker may only act on a message once
  // every other ring provably cannot deliver an earlier one; the watermark
  // is that proof for rings this slice left sparse. Pointless at D = 1.
  if (dispatchers_.size() > 1) {
    for (std::uint64_t s = 0; s < n_shards; ++s) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kWatermark;
      msg.seq = watermark_seq;
      push_message(*shards_[s]->rings[d], std::move(msg),
                   d == 0 ? "a full shard ring (watermark)" : nullptr);
    }
  }
}

void ShardedEngine::run_stream_sinks(std::span<const PacketRecord> records) {
  // Stream sinks stay on the caller: their row streams are order-sensitive
  // and must match the single-threaded engine exactly. One delivery per
  // process_batch call, same as QueryEngine (the sink batch contract).
  StreamStage& stream = resident_.stream();
  for (const PacketRecord& rec : records) stream.observe(rec);
  stream.deliver();
}

void ShardedEngine::push_evictions(Shard& sh) {
  const std::uint64_t n = sh.evict_buf.size();
  if (n == 0) return;
  PERFQ_FAILPOINT("sharded.evict_push");
  sh.evictions.push_batch(sh.evict_buf);
  sh.evictions_pushed.fetch_add(n, std::memory_order_release);
}

void ShardedEngine::process_batch(std::span<const PacketRecord> records) {
  resident_.enter("engine: process after finish", stopper());
  const std::uint64_t t0 = resident_.begin_batch(records.size());
  // Caller-side failure (stream sink callback, routing, allocation):
  // poison the engine and throw the structured error.
  resident_.guarded([&] { process_batch_impl(records); }, stopper());
  resident_.end_batch(t0);
  // A fault on another thread during this batch (worker/merge/dispatcher
  // death, watchdog expiry): dispatch may have been silently abandoned —
  // surface it at the batch boundary rather than on the next call.
  throw_if_faulted();
}

trace::IngestStats ShardedEngine::process_wire_batch(
    std::span<const FrameObservation> frames) {
  // Fused validate + decode into the reusable caller-owned scratch, then the
  // ordinary dispatch pipeline (which owns the poisoned-state machinery and
  // batch telemetry). Steady-state: zero allocations once the scratch has
  // grown to the burst size.
  trace::IngestStats stats;
  const bool verify = resident_.config().verify_checksums;
  wire_pending_.clear();
  wire_pending_.reserve(frames.size());
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    const auto parsed = wire::try_parse(frame.bytes, &err, verify);
    if (!parsed) {
      trace::count_parse_error(stats, err);
      continue;
    }
    PacketRecord& rec = wire_pending_.emplace_back();
    rec.pkt = parsed->pkt;
    rec.qid = frame.qid;
    rec.tin = frame.tin;
    rec.tout = frame.tout;
    rec.qsize = frame.qsize;
    ++stats.parsed;
  }
  process_batch(wire_pending_);
  record_ingest(stats);
  return stats;
}

void ShardedEngine::process_batch_impl(std::span<const PacketRecord> records) {
  const std::size_t n = records.size();
  if (n == 0) return;
  const std::uint64_t base = resident_.records();
  resident_.add_records(n);

  // Periodic refresh (§3.2): the boundary depends on every preceding
  // record's tin, so it is detected here — serially, in global record order
  // — and handed to whichever dispatcher owns the slice it falls in. One
  // compare per record, a sliver of the ~hash-sized routing cost.
  flush_events_.clear();
  if (resident_.refreshing()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (resident_.due(records[i].tin)) {
        flush_events_.push_back(FlushEvent{base + i, records[i].tin});
      }
    }
  }

  const std::size_t n_dispatchers = dispatchers_.size();
  const std::uint64_t watermark = 2 * (base + n);
  if (n_dispatchers == 1) {
    dispatch_slice(0, records, base, flush_events_, watermark);
    if (!resident_.stream().empty()) run_stream_sinks(records);
    return;
  }

  // Slice the batch into D contiguous runs and fan the tail slices out to
  // the helper dispatchers; the caller takes slice 0 and the (serial,
  // order-sensitive) stream sinks while the helpers work.
  const std::size_t chunk = (n + n_dispatchers - 1) / n_dispatchers;
  const auto slice_of = [&](std::size_t d) {
    const std::size_t lo = std::min(n, d * chunk);
    const std::size_t hi = std::min(n, lo + chunk);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };
  const auto flushes_in = [&](std::uint64_t lo, std::uint64_t hi) {
    // flush_events_ is sorted by pos; slice [base+lo, base+hi).
    const std::span<const FlushEvent> all(flush_events_);
    const auto begin = static_cast<std::size_t>(
        std::partition_point(all.begin(), all.end(),
                             [&](const FlushEvent& e) {
                               return e.pos < base + lo;
                             }) -
        all.begin());
    const auto end = static_cast<std::size_t>(
        std::partition_point(all.begin() + begin, all.end(),
                             [&](const FlushEvent& e) {
                               return e.pos < base + hi;
                             }) -
        all.begin());
    return all.subspan(begin, end - begin);
  };
  for (std::size_t d = 1; d < n_dispatchers; ++d) {
    Dispatcher& dp = *dispatchers_[d];
    const auto [lo, hi] = slice_of(d);
    dp.job_slice = records.subspan(lo, hi - lo);
    dp.job_base = base + lo;
    dp.job_flushes = flushes_in(lo, hi);
    dp.job_watermark = watermark;
    dp.posted.store(dp.posted.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  const auto [lo0, hi0] = slice_of(0);
  dispatch_slice(0, records.subspan(lo0, hi0 - lo0), base,
                 flushes_in(lo0, hi0), watermark);
  if (!resident_.stream().empty()) run_stream_sinks(records);
  // The records span is borrowed from the caller: do not return until every
  // helper has finished reading (and staging) its slice — or has exited (a
  // dead helper reads nothing more). This wait must never bail early on a
  // fault: a live helper could still be touching the span. The watchdog
  // inside spin_backoff records the wedge and raises stop, which releases
  // the helper's own spins, so the wait then terminates.
  for (std::size_t d = 1; d < n_dispatchers; ++d) {
    Dispatcher& dp = *dispatchers_[d];
    const std::uint64_t target = dp.posted.load(std::memory_order_relaxed);
    SpinState spin;
    while (dp.completed.load(std::memory_order_acquire) != target &&
           !dp.exited.load(std::memory_order_acquire)) {
      spin_backoff(spin, "co-dispatcher batch completion");
    }
  }
}

void ShardedEngine::co_dispatcher_loop(std::size_t d) {
  Dispatcher& dp = *dispatchers_[d];
  std::uint64_t done = 0;
  std::uint32_t idle_polls = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;  // poisoned: unwind
    const std::uint64_t posted = dp.posted.load(std::memory_order_acquire);
    if (posted == done) {
      if (dp.exit.load(std::memory_order_acquire)) {
        // Drain-free exit: push this dispatcher's kStop down every ring so
        // each worker knows lane d is done.
        for (auto& shard : shards_) {
          ShardMsg stop;
          stop.kind = ShardMsg::Kind::kStop;
          stop.seq = kStopSeq;
          push_message(*shard->rings[d], std::move(stop), nullptr);
        }
        return;
      }
      if (++idle_polls < kIdlePollsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kIdleSleep);
      }
      continue;
    }
    idle_polls = 0;
    dispatch_slice(d, dp.job_slice, dp.job_base, dp.job_flushes,
                   dp.job_watermark);
    done = posted;
    dp.completed.store(done, std::memory_order_release);
  }
}

// ---- workers ----------------------------------------------------------------

void ShardedEngine::worker_prepare(Shard& sh, std::size_t i,
                                   const ShardMsg& msg) {
  // Re-pack the record's key on this core — installing the dispatcher's
  // hash (no rehash) via the plan's KeyRouter; computed keys re-walk the
  // expression tree here, off the serial dispatcher — and prefetch its
  // cache bucket.
  const std::size_t q = msg.query;
  sh.cores[q]->prepare_extracted(
      i, routers_[q].has_value()
             ? routers_[q]->make_key(msg.rec, msg.raw_hash)
             : compiler::extract_key_prehashed(*resident_.slots()[q].plan,
                                               msg.rec, msg.raw_hash));
}

void ShardedEngine::worker_process(Shard& sh, std::size_t i, ShardMsg& msg) {
  switch (msg.kind) {
    case ShardMsg::Kind::kRecord:
      sh.cores[msg.query]->fold(i, msg.rec);
      break;
    case ShardMsg::Kind::kFlush:
      // Null slots are detached queries (their slices are gone).
      for (auto& cache : sh.caches) {
        if (cache != nullptr) cache->flush(msg.rec.tin);
      }
      // Refresh wants the backing store fresh soon: hand the flush's
      // evictions to the merge thread immediately.
      push_evictions(sh);
      break;
    case ShardMsg::Kind::kBarrier:
      // Attach/detach quiesce: everything before the barrier is folded (the
      // merge delivered it in order); push pending evictions so the caller's
      // drain barrier can prove the backing stores boundary-exact, then ack.
      push_evictions(sh);
      sh.snapshot_ready.store(msg.raw_hash, std::memory_order_release);
      break;
    case ShardMsg::Kind::kSnapshot:
      // Mid-run snapshot rendezvous, executed at exactly the requested
      // record boundary (the merge delivered every earlier record first):
      // flush pending evictions to the merge thread, copy the one requested
      // query's live cache slice (msg.query) non-destructively, and publish
      // the generation — the caller is spinning on it. Folding resumes with
      // the next message.
      PERFQ_FAILPOINT("sharded.snapshot_worker");
      push_evictions(sh);
      sh.snapshot_out.clear();
      sh.caches[msg.query]->snapshot_into(
          msg.rec.tin, [&sh, &msg](kv::EvictedValue&& ev) {
            sh.snapshot_out.push_back(TaggedEviction{msg.query, std::move(ev)});
          });
      sh.snapshot_ready.store(msg.raw_hash, std::memory_order_release);
      break;
    case ShardMsg::Kind::kWatermark:
    case ShardMsg::Kind::kStop:
      break;  // control messages carry no work
  }
}

void ShardedEngine::worker_loop_single_lane(Shard& sh) {
  // One dispatcher: its ring is already in global sequence order, so the
  // whole lane-merge machinery reduces to the direct two-pass pop loop (no
  // per-message buffering copies).
  SpscRing<ShardMsg>& ring = *sh.rings[0];
  std::array<ShardMsg, SwitchFoldCore::kChunk> buf;
  bool running = true;
  std::uint32_t idle_polls = 0;
  while (running) {
    // A poisoned engine stops feeding this ring (and may never send kStop):
    // unwind instead of spinning on a dead dispatcher.
    if (stop_.load(std::memory_order_acquire)) break;
    PERFQ_FAILPOINT("sharded.ring_pop");
    const std::size_t n = ring.pop_bulk({buf.data(), buf.size()});
    if (n == 0) {
      // Bounded backoff: yield while traffic is merely bursty, park briefly
      // once the ring looks genuinely idle so an unfed engine does not pin
      // a core (latency cost on wake: one sleep quantum).
      if (++idle_polls < kIdlePollsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kIdleSleep);
      }
      continue;
    }
    idle_polls = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (buf[i].kind == ShardMsg::Kind::kRecord) {
        worker_prepare(sh, i, buf[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (buf[i].kind == ShardMsg::Kind::kStop) {
        running = false;  // nothing follows a stop message
        break;
      }
      worker_process(sh, i, buf[i]);
    }
  }
  push_evictions(sh);
}

void ShardedEngine::worker_loop(Shard& sh) {
  const std::size_t n_lanes = sh.rings.size();
  if (n_lanes == 1) {
    worker_loop_single_lane(sh);
    return;
  }
  std::vector<Lane> lanes(n_lanes);
  std::array<ShardMsg, kPopChunk> scratch;
  std::array<ShardMsg, SwitchFoldCore::kChunk> chunk;
  std::uint32_t idle_polls = 0;

  // Drain a lane's ring into its local buffer and consume any control
  // messages at the head. Returns true if anything arrived.
  const auto poll_lane = [&](std::size_t d) {
    Lane& lane = lanes[d];
    bool progressed = false;
    if (!lane.stopped) {
      const std::size_t got =
          sh.rings[d]->pop_bulk({scratch.data(), scratch.size()});
      if (got > 0) {
        progressed = true;
        if (lane.head == lane.buf.size()) {
          lane.buf.clear();
          lane.head = 0;
        } else if (lane.head >= 4 * kPopChunk) {
          // Reclaim the consumed prefix: in steady state the merge is often
          // gated on another lane while this one keeps filling, so head may
          // never reach size() — without compaction the dead prefix grows
          // for the life of the run. Amortized O(live) moves.
          lane.buf.erase(lane.buf.begin(),
                         lane.buf.begin() +
                             static_cast<std::ptrdiff_t>(lane.head));
          lane.head = 0;
        }
        for (std::size_t i = 0; i < got; ++i) {
          lane.buf.push_back(std::move(scratch[i]));
        }
      }
    }
    while (lane.head < lane.buf.size()) {
      const ShardMsg& front = lane.buf[lane.head];
      if (front.kind == ShardMsg::Kind::kWatermark) {
        lane.bound = std::max(lane.bound, front.seq);
        ++lane.head;
      } else if (front.kind == ShardMsg::Kind::kStop) {
        lane.stopped = true;
        lane.bound = kStopSeq;
        ++lane.head;
      } else {
        break;
      }
    }
    return progressed;
  };

  for (;;) {
    // A dead dispatcher never sends its watermark/kStop, which would gate
    // this merge forever: the stop flag is the way out.
    if (stop_.load(std::memory_order_acquire)) break;
    PERFQ_FAILPOINT("sharded.ring_pop");
    bool progressed = false;
    for (std::size_t d = 0; d < n_lanes; ++d) {
      progressed |= poll_lane(d);
    }

    // Gather a chunk of safely ordered messages: repeatedly take the
    // smallest buffered seq, provided every other lane either has a later
    // message buffered or a bound proving it cannot deliver an earlier one
    // (seq uniqueness makes bound == seq safe; see the header comment).
    std::size_t n = 0;
    while (n < chunk.size()) {
      std::size_t best = n_lanes;
      std::uint64_t best_seq = kStopSeq;
      for (std::size_t d = 0; d < n_lanes; ++d) {
        const Lane& lane = lanes[d];
        if (lane.head < lane.buf.size() && lane.buf[lane.head].seq < best_seq) {
          best = d;
          best_seq = lane.buf[lane.head].seq;
        }
      }
      if (best == n_lanes) break;
      bool safe = true;
      for (std::size_t d = 0; d < n_lanes && safe; ++d) {
        const Lane& lane = lanes[d];
        if (d != best && lane.head == lane.buf.size() &&
            lane.bound < best_seq) {
          safe = false;
        }
      }
      if (!safe) break;
      Lane& lane = lanes[best];
      chunk[n++] = std::move(lane.buf[lane.head++]);
      // FIFO per producer: nothing earlier can follow from this lane.
      lane.bound = std::max(lane.bound, best_seq);
      while (lane.head < lane.buf.size()) {
        const ShardMsg& front = lane.buf[lane.head];
        if (front.kind == ShardMsg::Kind::kWatermark) {
          lane.bound = std::max(lane.bound, front.seq);
          ++lane.head;
        } else if (front.kind == ShardMsg::Kind::kStop) {
          lane.stopped = true;
          lane.bound = kStopSeq;
          ++lane.head;
        } else {
          break;
        }
      }
    }

    if (n == 0) {
      bool done = true;
      for (const Lane& lane : lanes) {
        if (!lane.stopped || lane.head < lane.buf.size()) done = false;
      }
      if (done) break;
      if (progressed) continue;
      // Bounded backoff: yield while traffic is merely bursty, park briefly
      // once the rings look genuinely idle so an unfed engine does not pin
      // a core (latency cost on wake: one sleep quantum).
      if (++idle_polls < kIdlePollsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kIdleSleep);
      }
      continue;
    }
    idle_polls = 0;

    // Pass 1: key re-pack + bucket prefetch; pass 2: fold in sequence
    // order, flush boundaries in-band (kWatermark/kStop never reach the
    // chunk — they are consumed during lane normalization).
    for (std::size_t i = 0; i < n; ++i) {
      if (chunk[i].kind == ShardMsg::Kind::kRecord) {
        worker_prepare(sh, i, chunk[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      worker_process(sh, i, chunk[i]);
    }
  }
  push_evictions(sh);
}

void ShardedEngine::merge_loop() {
  std::vector<TaggedEviction> drained;
  std::uint32_t idle_polls = 0;
  for (;;) {
    bool any = false;
    for (auto& shard : shards_) {
      if (shard->evictions.drain(drained)) {
        any = true;
        PERFQ_FAILPOINT("sharded.merge_absorb");
        // Absorb-sweep latency tap: on the merge thread, off every caller
        // path, so it is always-on (no sampling needed).
        const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
        for (TaggedEviction& t : drained) backings_[t.query]->absorb(t.ev);
        if (obs::kTelemetryEnabled) absorb_ns_.record(obs::now_ns() - t0);
        // Count only after the absorbs landed: the snapshot drain barrier
        // reads this to prove the backing store caught up.
        shard->evictions_absorbed.fetch_add(drained.size(),
                                            std::memory_order_release);
      }
    }
    // Poisoned: exit without the final sweep — results are forfeit, and a
    // dead worker may never stop producing counters we'd wait on.
    if (stop_.load(std::memory_order_acquire)) return;
    if (any) {
      idle_polls = 0;
      continue;
    }
    if (merge_stop_.load(std::memory_order_acquire)) {
      // Producers are joined before merge_stop_ is set, so nothing new can
      // arrive — but a worker may have pushed to a queue after this sweep
      // already passed it. One final sweep picks those up.
      for (auto& shard : shards_) {
        if (shard->evictions.drain(drained)) {
          const std::uint64_t t0 = obs::kTelemetryEnabled ? obs::now_ns() : 0;
          for (TaggedEviction& t : drained) backings_[t.query]->absorb(t.ev);
          if (obs::kTelemetryEnabled) absorb_ns_.record(obs::now_ns() - t0);
          shard->evictions_absorbed.fetch_add(drained.size(),
                                              std::memory_order_release);
        }
      }
      return;
    }
    if (++idle_polls < kIdlePollsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
}

// ---- teardown / results -----------------------------------------------------

void ShardedEngine::stop_pipeline(bool flush, Nanos now, bool watchdog) {
  // Helper dispatchers first: each pushes its own kStop down its rings on
  // exit (rings are single-producer; only thread d may write rings[d]).
  bool all_joined = true;
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    dispatchers_[d]->exit.store(true, std::memory_order_release);
  }
  for (std::size_t d = 1; d < dispatchers_.size(); ++d) {
    Dispatcher& dp = *dispatchers_[d];
    if (!dp.thread.joinable()) continue;
    if (!watchdog || wait_exited(dp.exited, watchdog, "co-dispatcher exit")) {
      dp.thread.join();
    } else {
      all_joined = false;
    }
  }
  // Caller-owned rings: final flush (ordered after every record) + kStop.
  // On the poisoned path the flush is pointless (results are forfeit) and
  // the pushes are best-effort — workers exit on the stop flag regardless.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (flush && !stop_.load(std::memory_order_acquire)) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kFlush;
      msg.seq = 2 * resident_.records();
      msg.rec.tin = now;
      stage(0, s, std::move(msg));
    }
    ShardMsg stop;
    stop.kind = ShardMsg::Kind::kStop;
    stop.seq = kStopSeq;
    stage(0, s, std::move(stop));
    publish(0, s);
  }
  for (auto& shard : shards_) {
    if (!shard->thread.joinable()) continue;
    if (!watchdog || wait_exited(shard->exited, watchdog, "worker exit")) {
      shard->thread.join();
    } else {
      all_joined = false;
    }
  }
  merge_stop_.store(true, std::memory_order_release);
  if (merge_thread_.joinable()) {
    if (!watchdog || wait_exited(merge_exited_, watchdog, "merge exit")) {
      merge_thread_.join();
    } else {
      all_joined = false;
    }
  }
  // A thread the watchdog gave up on is joined by the destructor (its flag
  // wait is unbounded there); until then the engine stays poisoned.
  threads_stopped_ = all_joined;
}

void ShardedEngine::finish(Nanos now) {
  resident_.begin_finish(stopper());
  resident_.guarded(
      [&] {
        stop_pipeline(/*flush=*/true, now, /*watchdog=*/true);
        // A fault recorded during the drain (thread death discovered on
        // join, watchdog expiry) forfeits the results: surface it instead of
        // materializing partial tables.
        throw_if_faulted();
        resident_.collect_results(
            [&](std::size_t q) -> const kv::ShardedBackingStore& {
              return *backings_[q];
            });
      },
      stopper());
}

EngineSnapshot ShardedEngine::snapshot(std::string_view query_name, Nanos now) {
  resident_.enter("engine: snapshot after finish", stopper());
  const std::size_t query = resident_.switch_slot(query_name, "snapshot");
  return resident_.guarded(
      [&] {
        return EngineSnapshot{
            resident_.materialize(query, *snapshot_merged_store(query, now)),
            resident_.records(), now};
      },
      stopper());
}

kv::StoreExport ShardedEngine::export_store(std::string_view query_name,
                                            Nanos now) {
  throw_if_faulted();
  const std::size_t query = resident_.switch_slot(query_name, "export_store");
  return resident_.guarded(
      [&] {
        kv::StoreExport out;
        out.query = std::string{query_name};
        out.records = resident_.records();
        out.time = now;
        // After finish() the pipeline is joined and flushed: the concurrent
        // store IS the result.
        out.entries = resident_.finished()
                          ? backings_[query]->export_entries()
                          : snapshot_merged_store(query, now)->export_entries();
        return out;
      },
      stopper());
}

std::unique_ptr<kv::ShardedBackingStore> ShardedEngine::snapshot_merged_store(
    std::size_t query, Nanos now) {
  // Rendezvous latency tap: steps 1-3 (marker broadcast → every worker at
  // the boundary → eviction drain barrier) are the cost of *reaching* the
  // coherent point; the overlay in step 4 is ordinary copying.
  const std::uint64_t t0 = resident_.begin_pull();
  // 1-2. Every worker reaches the record boundary and publishes its copy
  // of the query's live cache slice (rendezvous()).
  rendezvous(ShardMsg::Kind::kSnapshot, query, now, "the snapshot rendezvous");
  // 3. Drain barrier: every eviction produced before the boundary is now in
  // the MPSC queues (workers push before acking); wait until the merge
  // thread has absorbed them all, so the backing store is boundary-exact.
  drain_eviction_barrier("the snapshot eviction drain barrier");
  resident_.end_pull(t0);

  // 4. Overlay the cache copies (all for `query` — the marker carried it)
  // on a clone of the concurrent store with the ordinary exact-merge absorb.
  // Keys are disjoint across shards (each key folds on exactly one worker),
  // so shard order cannot matter.
  std::unique_ptr<kv::ShardedBackingStore> merged = backings_[query]->clone();
  for (auto& shard : shards_) {
    for (TaggedEviction& t : shard->snapshot_out) merged->absorb(t.ev);
  }
  return merged;
}

void ShardedEngine::drain_eviction_barrier(const char* what) {
  for (auto& shard : shards_) {
    const std::uint64_t target =
        shard->evictions_pushed.load(std::memory_order_acquire);
    SpinState spin;
    while (shard->evictions_absorbed.load(std::memory_order_acquire) <
           target) {
      if (resident_.fault().faulted()) resident_.fault().raise();
      spin_backoff(spin, what);
    }
  }
}

void ShardedEngine::rendezvous(ShardMsg::Kind kind, std::size_t query,
                               Nanos now, const char* what) {
  // Broadcast the marker through the caller's rings at the current record
  // boundary. Its seq (2·records) orders after every dispatched record; the
  // co-dispatcher watermarks of the last batch carry the same bound, so
  // every worker's merge can prove it safe without any new traffic.
  const std::uint64_t gen = ++snapshot_gen_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardMsg msg;
    msg.kind = kind;
    msg.query = static_cast<std::uint16_t>(query);
    msg.seq = 2 * resident_.records();
    msg.raw_hash = gen;
    msg.rec.tin = now;
    stage(0, s, std::move(msg));
    publish(0, s);
  }
  // Wait for every worker's ack (acquire pairs with the worker's release
  // store). Stop-aware: a worker that died before the boundary can never
  // ack, and the watchdog converts a wedged one into a recorded fault.
  for (auto& shard : shards_) {
    SpinState spin;
    while (shard->snapshot_ready.load(std::memory_order_acquire) != gen) {
      if (resident_.fault().faulted()) resident_.fault().raise();
      spin_backoff(spin, what);
    }
  }
}

void ShardedEngine::quiesce_pipeline(const char* what) {
  // The snapshot rendezvous without the cache copy, then the proof that the
  // backing stores caught up. On return nothing is in flight: every ring is
  // drained past the boundary, every eviction absorbed, and the workers are
  // between messages — safe to grow or free per-shard topology the next
  // messages will see (ring publish/pop is the release/acquire pair
  // ordering the caller's mutations for the workers).
  rendezvous(ShardMsg::Kind::kBarrier, 0, Nanos{0}, what);
  drain_eviction_barrier(what);
}

void ShardedEngine::attach_query(compiler::CompiledProgram program,
                                 const AttachOptions& options) {
  resident_.enter("engine: attach after finish", stopper());
  // Validation throws (ConfigError) before ANY state change.
  ResidentQueries::Tenant tenant = resident_.admit(std::move(program), options);
  if (tenant.kind == AttachKind::kStreamSelect) {
    resident_.attach_stream(std::move(tenant), options);
    return;
  }
  const std::size_t q = resident_.slots().size();  // the new slot's index
  if (q >= static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max())) {
    throw ConfigError{"attach: too many switch queries"};
  }
  const compiler::SwitchQueryPlan& plan = tenant.program->switch_plans.front();
  const kv::CacheGeometry slice = shard_slice(tenant.geometry, plan.name, "attach");
  // Build every new structure BEFORE touching shared state: an allocation
  // failure here leaves the engine exactly as it was.
  const std::size_t backing_shards =
      config_.backing_shards == 0 ? shards_.size() : config_.backing_shards;
  auto backing =
      std::make_unique<kv::ShardedBackingStore>(plan.kernel, backing_shards);
  std::vector<std::unique_ptr<kv::Cache>> caches;
  std::vector<std::unique_ptr<SwitchFoldCore>> cores;
  for (auto& shard : shards_) {
    caches.push_back(make_slice(*shard, q, plan, slice));
    cores.push_back(std::make_unique<SwitchFoldCore>(plan, *caches.back()));
  }
  // Quiesce so the per-shard vectors can grow with nothing in flight, then
  // install the slot. The workers see the new entries through the next ring
  // publish/pop pair; metrics readers through the topology lock.
  quiesce_pipeline("the attach quiesce barrier");
  throw_if_faulted();
  const auto lock = resident_.topology_lock();
  resident_.add_slot(std::move(tenant.program));
  routers_.push_back(compiler::KeyRouter::make(plan));
  backings_.push_back(std::move(backing));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->caches.push_back(std::move(caches[s]));
    shards_[s]->cores.push_back(std::move(cores[s]));
  }
}

ResultTable ShardedEngine::detach_query(std::string_view name, Nanos now) {
  resident_.enter("engine: detach after finish", stopper());
  const std::size_t query = resident_.detach_target(name);
  if (query == ResidentQueries::npos) {
    return resident_.detach_stream(name, stopper());
  }
  return resident_.guarded(
      [&] {
        // 1. Quiesce: nothing in flight, backing stores boundary-exact.
        quiesce_pipeline("the detach quiesce barrier");
        throw_if_faulted();
        // 2. End this query's window: flush its slices from the caller (the
        // workers are idle between messages; evictions route through the
        // per-shard sink closures into evict_buf exactly as a worker flush
        // would), hand them to the merge thread, and drain again.
        for (auto& shard : shards_) {
          shard->caches[query]->flush(now);
          push_evictions(*shard);
        }
        drain_eviction_barrier("the detach eviction drain");
        throw_if_faulted();
        // 3. The final table, from the now-complete backing store.
        ResultTable table = resident_.materialize(query, *backings_[query]);
        // 4. Free the slot in place (indices of resident queries never move;
        // no message for this query can exist anymore). Resident queries'
        // caches are untouched — their tables are byte-identical either way.
        const auto lock = resident_.topology_lock();
        for (auto& shard : shards_) {
          shard->caches[query].reset();
          shard->cores[query].reset();
        }
        backings_[query].reset();
        routers_[query].reset();
        resident_.release(query);
        return table;
      },
      stopper());
}

const kv::ShardedBackingStore& ShardedEngine::slot_stats(std::size_t q,
                                                         StoreStats& s) const {
  for (const auto& shard : shards_) {
    const kv::CacheStats& cs = shard->caches[q]->stats();
    s.cache.packets += cs.packets;
    s.cache.hits += cs.hits;
    s.cache.initializations += cs.initializations;
    s.cache.evictions += cs.evictions;
    s.cache.flushes += cs.flushes;
  }
  return *backings_[q];
}

std::vector<StoreStats> ShardedEngine::store_stats() const {
  // Mid-run reads are allowed: every summed counter is a single-writer
  // relaxed slot and the backing-store reads lock per sub-store, so this
  // never perturbs the pipeline. Mid-run coherence is per-counter
  // (engine_api.hpp).
  return resident_.store_stats(
      [this](std::size_t q, StoreStats& s) -> const kv::ShardedBackingStore& {
        return slot_stats(q, s);
      });
}

EngineMetrics ShardedEngine::metrics() const {
  EngineMetrics m = resident_.metrics(
      "sharded",
      [this](std::size_t q, StoreStats& s) -> const kv::ShardedBackingStore& {
        return slot_stats(q, s);
      });
  collect_pipeline(m);
  m.absorb_ns = absorb_ns_.snapshot();
  return m;
}

const kv::ShardedBackingStore& ShardedEngine::backing(
    std::string_view query_name) const {
  const std::size_t q = resident_.find_switch(query_name);
  if (q == ResidentQueries::npos) {
    throw QueryError{"result",
                     "no switch query named '" + std::string{query_name} + "'"};
  }
  return *backings_[q];
}

}  // namespace perfq::runtime

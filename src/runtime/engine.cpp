#include "runtime/engine.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"

namespace perfq::runtime {

QueryEngine::QueryEngine(compiler::CompiledProgram program, EngineConfig config)
    : Engine(std::move(program), std::move(config)) {
  // Key-value store per on-switch GROUPBY.
  const auto& slots = resident_.slots();
  for (std::size_t q = 0; q < slots.size(); ++q) {
    const compiler::SwitchQueryPlan& plan = *slots[q].plan;
    switches_.push_back(make_instance(q, plan, resident_.geometry_for(plan.name)));
  }
}

QueryEngine::SwitchInstance QueryEngine::make_instance(
    std::size_t slot, const compiler::SwitchQueryPlan& plan,
    const kv::CacheGeometry& geometry) const {
  const EngineConfig& config = resident_.config();
  auto store = std::make_unique<kv::KeyValueStore>(
      geometry, plan.kernel, config.hash_seed, config.eviction_policy);
  auto core = std::make_unique<SwitchFoldCore>(plan, store->cache());
  return SwitchInstance{slot, std::move(store), std::move(core)};
}

const QueryEngine::SwitchInstance& QueryEngine::instance(
    std::size_t slot) const {
  for (const SwitchInstance& sw : switches_) {
    if (sw.slot == slot) return sw;
  }
  throw InternalError{"QueryEngine: no store for a live slot"};
}

void QueryEngine::process_batch(std::span<const PacketRecord> records) {
  resident_.enter("engine: process after finish");
  const std::uint64_t t0 = resident_.begin_batch(records.size());
  // An exception escaping mid-batch (stream-sink callback, injected
  // failpoint, allocation) leaves some records folded and others not:
  // guarded() poisons the engine so the partial state can never be read.
  resident_.guarded([&] { process_batch_impl(records); });
  resident_.end_batch(t0);
}

template <typename Rec>
void QueryEngine::process_chunk(std::span<const Rec> chunk) {
  const std::size_t n = chunk.size();
  StreamStage& stream = resident_.stream();
  const bool streams = !stream.empty();
  const bool refreshing = resident_.refreshing();

  // Pass 1: evaluate prefilters and extract every key (computing its
  // cached hash once), prefetching the owning cache bucket so its tag row
  // and slots are resident by the time pass 2 folds the record.
  for (auto& sw : switches_) {
    for (std::size_t i = 0; i < n; ++i) sw.core->prepare(i, chunk[i]);
  }

  // Pass 2: fold records in time order (refresh boundaries included;
  // prefetches above have no side effects, so ordering is preserved).
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& rec = chunk[i];
    if (refreshing && resident_.due(rec.tin)) {
      // Periodic backing-store refresh (§3.2): exact for linear folds, and
      // non-linear folds record one more segment (accounted in accuracy).
      for (auto& sw : switches_) sw.store->flush(rec.tin);
    }
    for (auto& sw : switches_) sw.core->fold(i, rec);
    if (streams) stream.observe(rec);
  }
}

void QueryEngine::process_batch_impl(std::span<const PacketRecord> records) {
  resident_.add_records(records.size());
  for (std::size_t base = 0; base < records.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, records.size() - base);
    process_chunk(records.subspan(base, n));
  }
  // Stream rows buffered above leave the engine here: one delivery per
  // process_batch call (the sink batch-boundary contract).
  if (!resident_.stream().empty()) resident_.stream().deliver();
}

trace::IngestStats QueryEngine::process_wire_batch(
    std::span<const FrameObservation> frames) {
  resident_.enter("engine: process after finish");
  const std::uint64_t t0 = resident_.begin_batch(frames.size());
  trace::IngestStats stats;
  resident_.guarded([&] { process_wire_batch_impl(frames, stats); });
  record_ingest(stats);
  resident_.end_batch(t0);
  return stats;
}

void QueryEngine::process_wire_batch_impl(
    std::span<const FrameObservation> frames, trace::IngestStats& stats) {
  // Fused validate + dispatch: fill a chunk of lazy views (damaged frames
  // skip-and-count, preserving time order across the survivors), run the
  // same two-pass pipeline process_batch uses, repeat. Frame bytes are only
  // read twice per record: the header validation and the lazy field loads
  // the program actually performs.
  const bool verify = resident_.config().verify_checksums;
  std::array<WireRecordView, kBatchChunk> views;
  std::size_t n = 0;
  for (const FrameObservation& frame : frames) {
    wire::ParseError err{};
    if (wire::check_frame(frame.bytes, &err, verify) == 0) {
      trace::count_parse_error(stats, err);
      continue;
    }
    ++stats.parsed;
    views[n++] = wire_record_view(frame);
    if (n == kBatchChunk) {
      process_chunk(std::span<const WireRecordView>{views.data(), n});
      n = 0;
    }
  }
  if (n > 0) process_chunk(std::span<const WireRecordView>{views.data(), n});
  resident_.add_records(stats.parsed);
  if (!resident_.stream().empty()) resident_.stream().deliver();
}

void QueryEngine::finish(Nanos now) {
  resident_.begin_finish();
  resident_.guarded([&] {
    for (auto& sw : switches_) sw.store->flush(now);
    resident_.collect_results(
        [&](std::size_t q) -> const kv::BackingStore& {
          return instance(q).store->backing();
        });
  });
}

void QueryEngine::attach_query(compiler::CompiledProgram program,
                               const AttachOptions& options) {
  resident_.enter("engine: attach after finish");
  // Validation throws (ConfigError) before ANY state change: a rejected
  // attach leaves the engine exactly as it was.
  ResidentQueries::Tenant tenant = resident_.admit(std::move(program), options);
  if (tenant.kind == AttachKind::kStreamSelect) {
    resident_.attach_stream(std::move(tenant), options);
    return;
  }
  SwitchInstance sw =
      make_instance(resident_.slots().size(),
                    tenant.program->switch_plans.front(), tenant.geometry);
  const auto lock = resident_.topology_lock();
  resident_.add_slot(std::move(tenant.program));
  switches_.push_back(std::move(sw));
}

ResultTable QueryEngine::detach_query(std::string_view name, Nanos now) {
  resident_.enter("engine: detach after finish");
  const std::size_t q = resident_.detach_target(name);
  if (q == ResidentQueries::npos) return resident_.detach_stream(name);
  const auto it = std::find_if(switches_.begin(), switches_.end(),
                               [q](const SwitchInstance& sw) {
                                 return sw.slot == q;
                               });
  // End this one query's window: flush its cache slice, materialize the
  // final table, then free everything the attach allocated. Resident
  // queries' stores are untouched.
  ResultTable table = resident_.guarded([&] {
    it->store->flush(now);
    return resident_.materialize(q, it->store->backing());
  });
  const auto lock = resident_.topology_lock();
  switches_.erase(it);
  resident_.release(q);
  return table;
}

kv::BackingStore QueryEngine::merged_copy(const SwitchInstance& sw,
                                          Nanos now) const {
  // The application pull (§3.2): overlay the live cache on a copy of the
  // backing store through the ordinary exact-merge absorb — bit-for-bit what
  // finish(now) would materialize, without disturbing either structure.
  kv::BackingStore merged = sw.store->backing();
  sw.store->cache().snapshot_into(
      now, [&merged](kv::EvictedValue&& ev) { merged.absorb(ev); });
  return merged;
}

EngineSnapshot QueryEngine::snapshot(std::string_view query_name, Nanos now) {
  resident_.enter("engine: snapshot after finish");
  const std::size_t q = resident_.switch_slot(query_name, "snapshot");
  const std::uint64_t t0 = resident_.begin_pull();
  return resident_.guarded([&] {
    EngineSnapshot snap{resident_.materialize(q, merged_copy(instance(q), now)),
                        resident_.records(), now};
    resident_.end_pull(t0);
    return snap;
  });
}

kv::StoreExport QueryEngine::export_store(std::string_view query_name,
                                          Nanos now) {
  resident_.throw_if_faulted();
  const std::size_t q = resident_.switch_slot(query_name, "export_store");
  return resident_.guarded([&] {
    const SwitchInstance& sw = instance(q);
    kv::StoreExport out;
    out.query = std::string{query_name};
    out.records = resident_.records();
    out.time = now;
    // After finish() the caches are flushed and the backing store IS the
    // result; mid-run, the same record-boundary merge snapshot() performs.
    out.entries = resident_.finished()
                      ? sw.store->backing().export_entries()
                      : merged_copy(sw, now).export_entries();
    return out;
  });
}

const kv::BackingStore& QueryEngine::slot_stats(std::size_t slot,
                                                StoreStats& s) const {
  const kv::KeyValueStore& store = *instance(slot).store;
  s.cache = store.cache().stats();
  return store.backing();
}

std::vector<StoreStats> QueryEngine::store_stats() const {
  return resident_.store_stats(
      [this](std::size_t q, StoreStats& s) -> const kv::BackingStore& {
        return slot_stats(q, s);
      });
}

EngineMetrics QueryEngine::metrics() const {
  return resident_.metrics(
      "serial", [this](std::size_t q, StoreStats& s) -> const kv::BackingStore& {
        return slot_stats(q, s);
      });
}

const kv::KeyValueStore& QueryEngine::store(std::string_view query_name) const {
  const std::size_t q = resident_.find_switch(query_name);
  if (q == ResidentQueries::npos) {
    throw QueryError{"result",
                     "no switch query named '" + std::string{query_name} + "'"};
  }
  return *instance(q).store;
}

}  // namespace perfq::runtime

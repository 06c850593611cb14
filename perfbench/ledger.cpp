#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "compiler/program.hpp"
#include "kvstore/backing_store.hpp"
#include "kvstore/cache.hpp"
#include "packet/wire.hpp"
#include "runtime/collection.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/fold_core.hpp"

namespace perfbench {
namespace {

/// Eviction-sink timing, shared by every lane of one pass.
struct AbsorbClock {
  bool counting = true;  ///< false during flushes (finish/detach, not ingest)
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// One switch plan's store as the engine builds it: cache + backing store +
/// fold core, with the cache's evictions absorbed through a timed sink.
struct Lane {
  Lane(const perfq::compiler::SwitchQueryPlan& plan,
       const perfq::kv::CacheGeometry& geometry, AbsorbClock& clock)
      : cache(geometry, plan.kernel, perfq::runtime::EngineConfig{}.hash_seed),
        backing(plan.kernel),
        core(plan, cache) {
    cache.set_eviction_sink([this, &clock](perfq::kv::EvictedValue&& ev) {
      if (!clock.counting) {
        backing.absorb(ev);
        return;
      }
      const std::uint64_t t0 = now_ns();
      backing.absorb(ev);
      clock.ns += now_ns() - t0;
      ++clock.calls;
    });
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  perfq::kv::Cache cache;
  perfq::kv::BackingStore backing;
  perfq::runtime::SwitchFoldCore core;
};

}  // namespace

double clock_read_ns() {
  std::array<double, 9> trials{};
  for (double& t : trials) {
    constexpr int kReads = 20'000;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) (void)now_ns();
    const std::uint64_t t1 = now_ns();
    t = static_cast<double>(t1 - t0) / kReads;
  }
  std::sort(trials.begin(), trials.end());
  return trials[trials.size() / 2];
}

LedgerPass run_ledger(const WorkloadSpec& spec, const Schedule& schedule,
                      const Inputs& inputs) {
  using perfq::runtime::SwitchFoldCore;
  const perfq::compiler::CompiledProgram program =
      perfq::compiler::compile_source(base_program(spec), kParams);
  const perfq::compiler::CompiledProgram tenant =
      perfq::compiler::compile_source(kTenantSwitchSource, kParams);
  const double clock_ns = clock_read_ns();

  AbsorbClock absorb;
  std::vector<std::unique_ptr<Lane>> base;
  for (const auto& plan : program.switch_plans) {
    base.push_back(std::make_unique<Lane>(plan, spec.geometry, absorb));
  }
  std::unique_ptr<Lane> tenant_lane;
  std::vector<Lane*> active;
  const auto refresh_active = [&] {
    active.clear();
    for (auto& l : base) active.push_back(l.get());
    if (tenant_lane) active.push_back(tenant_lane.get());
  };
  refresh_active();

  const auto& frames = inputs.frames;
  std::uint64_t check_ns = 0, key_ns = 0, fold_ns = 0, intervals = 0;
  std::array<perfq::WireRecordView, SwitchFoldCore::kChunk> views;
  std::size_t next_window = 0;
  perfq::Nanos end{0};
  for (std::size_t k = 0; k < schedule.bursts; ++k) {
    // Tenant lifecycle at the same burst boundaries as the engine run; the
    // detach flush happens outside ingest, so its absorbs are not counted.
    if (tenant_lane && schedule.windows[next_window].detach_burst == k) {
      absorb.counting = false;
      tenant_lane->cache.flush(end);
      absorb.counting = true;
      tenant_lane.reset();
      ++next_window;
      refresh_active();
    }
    if (!tenant_lane && next_window < schedule.windows.size() &&
        schedule.windows[next_window].attach_burst == k) {
      tenant_lane = std::make_unique<Lane>(tenant.switch_plans.front(),
                                           spec.tenant_geometry, absorb);
      refresh_active();
    }
    const std::size_t lo = k * spec.burst;
    const std::size_t hi = std::min(frames.size(), lo + spec.burst);
    // The engine fills a chunk of validated views, then runs the two-pass
    // prepare/fold pipeline over it; chunks restart at every burst.
    for (std::size_t c = lo; c < hi; c += SwitchFoldCore::kChunk) {
      const std::size_t n = std::min(SwitchFoldCore::kChunk, hi - c);
      const std::uint64_t t0 = now_ns();
      std::size_t ok = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const FrameObservation& f = frames[c + i];
        perfq::wire::ParseError err{};
        if (perfq::wire::check_frame(f.bytes, &err, false) == 0) continue;
        views[ok++] = perfq::wire_record_view(f);
      }
      const std::uint64_t t1 = now_ns();
      for (Lane* l : active) {
        for (std::size_t i = 0; i < ok; ++i) l->core.prepare(i, views[i]);
      }
      const std::uint64_t t2 = now_ns();
      for (std::size_t i = 0; i < ok; ++i) {
        for (Lane* l : active) l->core.fold(i, views[i]);
      }
      const std::uint64_t t3 = now_ns();
      check_ns += t1 - t0;
      key_ns += t2 - t1;
      fold_ns += t3 - t2;
      ++intervals;
    }
    if (hi > lo) end = frames[hi - 1].tin;
  }
  if (tenant_lane) {
    absorb.counting = false;
    tenant_lane->cache.flush(end);
    tenant_lane.reset();
  }
  // finish(): flush every base cache at the last record's timestamp.
  absorb.counting = false;
  for (auto& l : base) l->cache.flush(end);

  LedgerPass pass;
  const double records = static_cast<double>(frames.size());
  const double interval_clock = clock_ns * static_cast<double>(intervals);
  // Each timed absorb costs one clock read inside its own interval and one
  // inside the enclosing fold interval.
  const double absorb_clock = clock_ns * static_cast<double>(absorb.calls);
  pass.check_ns = (static_cast<double>(check_ns) - interval_clock) / records;
  pass.key_ns = (static_cast<double>(key_ns) - interval_clock) / records;
  pass.absorb_ns = (static_cast<double>(absorb.ns) - absorb_clock) / records;
  pass.fold_ns = (static_cast<double>(fold_ns) - interval_clock -
                  static_cast<double>(absorb.ns) - absorb_clock) /
                 records;
  for (std::size_t i = 0; i < program.switch_plans.size(); ++i) {
    if (program.switch_plans[i].name == "R1") {
      pass.r1 = perfq::runtime::materialize_switch_table(
          program, program.switch_plans[i], base[i]->backing);
    }
  }
  return pass;
}

}  // namespace perfbench

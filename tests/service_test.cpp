// The dynamic attach/detach contract (engine_api.hpp, "Query lifecycle
// contract") and the multi-tenant service on top of it:
//
//   - THE ORACLE PROPERTY: a query attached at record boundary K produces
//     tables bit-identical to a fresh engine fed only the post-attach
//     suffix, on the serial engine and across sharded topologies (D x N),
//     whether it ends by detach mid-stream or by finish() — and the
//     pre-existing queries are not perturbed by either.
//   - Detach releases resources: a counting allocator proves the detached
//     tenant's backing store, plan and scratch go back to the heap.
//   - Admission control: the die-area budget admits exactly to the line,
//     rejects cleanly past it, and detach refunds the charge.
//   - The socket-facing line protocol and the loopback server round trip.
//
// This suite runs under TSan in CI: the concurrency tests (metrics polling
// and stream draining against live attach/detach) are the witnesses for the
// topology-mutex design.
#include <gtest/gtest.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_export.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime_test_util.hpp"
#include "service/line_protocol.hpp"
#include "service/query_service.hpp"
#include "service/server.hpp"

// ---- counting allocator ----------------------------------------------------
// Global live-byte accounting for the detach-releases-memory proof. Uses
// malloc_usable_size so new/delete pairs balance exactly regardless of how
// the allocator rounds. (The cache slot arena is page-allocated and thus
// invisible here either way; what this measures is the heap side of a
// tenant: backing-store nodes, plan storage, fold-core scratch.)
namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n) !=
      0) {
    throw std::bad_alloc{};
  }
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace perfq::runtime {
namespace {

const std::map<std::string, double> kParams = {{"alpha", 0.125}, {"K", 50}};

constexpr const char* kBaseSource = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

BASE = SELECT 5tuple, counter GROUPBY 5tuple
)";

constexpr const char* kEwmaSource = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)";

// Non-linear (max has no merge function): exercises the segment machinery.
constexpr const char* kNonMtSource = R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple
)";

constexpr const char* kStreamSource =
    "DROPS = SELECT srcip, dstport WHERE tout == infinity\n";

/// Small shared geometry: 8 buckets x 8 ways thrashes on the workload and
/// divides evenly into 1 and 4 shards.
const kv::CacheGeometry kGeom = kv::CacheGeometry::set_associative(64, 8);

struct Topology {
  std::size_t shards = 0;  ///< 0 = serial
  std::size_t dispatchers = 1;
  [[nodiscard]] std::string label() const {
    return shards == 0 ? "serial"
                       : "D" + std::to_string(dispatchers) + "xS" +
                             std::to_string(shards);
  }
};
const Topology kTopologies[] = {
    {0, 1}, {1, 1}, {4, 1}, {1, 2}, {4, 2},
};

std::unique_ptr<Engine> make_engine(const char* source, Topology topo,
                                    Nanos refresh) {
  EngineBuilder builder(compiler::compile_source(source, kParams));
  builder.geometry(kGeom).refresh(refresh);
  if (topo.shards > 0) {
    builder.sharded(topo.shards)
        .dispatchers(topo.dispatchers)
        .ring_capacity(512)
        .dispatch_batch(64);
  }
  return builder.build();
}

/// Feed with deliberately uneven batch sizes so attach boundaries never line
/// up with dispatch or ring granularity.
void feed_uneven(Engine& engine, std::span<const PacketRecord> records) {
  static constexpr std::size_t kSizes[] = {1, 7, 64, 3, 256, 31};
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < records.size()) {
    const std::size_t n =
        std::min(kSizes[k++ % std::size(kSizes)], records.size() - i);
    engine.process_batch(records.subspan(i, n));
    i += n;
  }
}

/// Oracle: a fresh serial engine fed only the suffix, finished at `end`.
ResultTable oracle_table(const char* source,
                         std::span<const PacketRecord> suffix, Nanos refresh,
                         Nanos end) {
  auto engine = make_engine(source, Topology{0, 1}, refresh);
  feed_uneven(*engine, suffix);
  engine->finish(end);
  return engine->result();
}

// ---- the oracle property ---------------------------------------------------

enum class EndMode { kDetachMidRun, kFinish };

void run_attach_oracle(const char* tenant_source, Topology topo,
                       std::size_t attach_at, Nanos refresh, EndMode mode,
                       const std::vector<PacketRecord>& records,
                       const ResultTable& base_control) {
  const Nanos end = 12_s;
  // Mid-run detach leaves a >1000-record tail that keeps folding through the
  // freed slot; kFinish keeps the tenant resident to the end of the window.
  const std::size_t detach_at =
      mode == EndMode::kDetachMidRun
          ? std::min(records.size() - 1001, attach_at + 4000)
          : records.size();
  ASSERT_LT(attach_at, detach_at);
  const std::string context =
      topo.label() + " attach@" + std::to_string(attach_at) + " detach@" +
      std::to_string(detach_at) + " refresh=" + std::to_string(refresh.count());

  const std::span<const PacketRecord> all{records};
  auto engine = make_engine(kBaseSource, topo, refresh);
  feed_uneven(*engine, all.subspan(0, attach_at));

  AttachOptions options;
  options.name = "tenant";
  options.geometry = kGeom;
  engine->attach_query(compiler::compile_source(tenant_source, kParams),
                       options);
  EXPECT_EQ(engine->records_processed(), attach_at) << context;

  ResultTable tenant_table{lang::Schema{}};
  if (mode == EndMode::kDetachMidRun) {
    feed_uneven(*engine, all.subspan(attach_at, detach_at - attach_at));
    // Neighbor-detach non-perturbation, observed live: the base query's
    // snapshot is bit-identical just before and just after the detach.
    const EngineSnapshot before = engine->snapshot("BASE", end);
    tenant_table = engine->detach_query("tenant", end);
    const EngineSnapshot after = engine->snapshot("BASE", end);
    expect_tables_bit_identical(before.table, after.table,
                                context + " base around detach");
    feed_uneven(*engine, all.subspan(detach_at));
    engine->finish(end);
  } else {
    feed_uneven(*engine, all.subspan(attach_at));
    engine->finish(end);
    tenant_table = engine->table("tenant");
  }

  const ResultTable want = oracle_table(
      tenant_source, all.subspan(attach_at, detach_at - attach_at), refresh,
      end);
  expect_tables_bit_identical(want, tenant_table, context + " tenant");
  expect_tables_bit_identical(base_control, engine->table("BASE"),
                              context + " base unperturbed");
}

TEST(AttachOracle, LinearTenantBitIdenticalToSuffixOracle) {
  const auto records = test_workload();
  ASSERT_GT(records.size(), 6000u);
  // Refresh off: the tenant's flush boundaries (its own evictions + the end
  // flush) depend only on the suffix, so even the non-FP-exact ewma merge is
  // bit-identical to the oracle. Control: the base program alone over the
  // whole window (one serial control serves every topology).
  auto control = make_engine(kBaseSource, Topology{0, 1}, 0_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology topo : kTopologies) {
    for (const std::size_t attach_at :
         {std::size_t{0}, std::size_t{937}, records.size() - 3}) {
      run_attach_oracle(kEwmaSource, topo, attach_at, 0_s, EndMode::kFinish,
                        records, base_control);
    }
    for (const std::size_t attach_at : {std::size_t{1}, std::size_t{937}}) {
      run_attach_oracle(kEwmaSource, topo, attach_at, 0_s,
                        EndMode::kDetachMidRun, records, base_control);
    }
  }
}

TEST(AttachOracle, RefreshOnTenantBitIdenticalForExactMerges) {
  const auto records = test_workload();
  // With periodic refresh ON the resident engine and the suffix oracle flush
  // at different absolute times (the refresh clock anchors at each engine's
  // first record — see the lifecycle contract), so bit-identity additionally
  // needs an FP-exact merge: an integer counter, not ewma.
  auto control = make_engine(kBaseSource, Topology{0, 1}, 1_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology topo : kTopologies) {
    run_attach_oracle(kBaseSource, topo, 937, 1_s, EndMode::kFinish, records,
                      base_control);
    run_attach_oracle(kBaseSource, topo, 937, 1_s, EndMode::kDetachMidRun,
                      records, base_control);
  }
}

TEST(AttachOracle, NonLinearTenantMatchesWithAlignedFlushTimes) {
  const auto records = test_workload();
  // Non-linear kernels have no merge function: equivalence needs matching
  // flush times, so refresh stays off and detach/finish share `end`.
  auto control = make_engine(kBaseSource, Topology{0, 1}, 0_s);
  control->process_batch(records);
  control->finish(12_s);
  const ResultTable base_control = control->result();

  for (const Topology topo : kTopologies) {
    run_attach_oracle(kNonMtSource, topo, 937, 0_s, EndMode::kFinish, records,
                      base_control);
    run_attach_oracle(kNonMtSource, topo, 937, 0_s, EndMode::kDetachMidRun,
                      records, base_control);
  }
}

TEST(AttachOracle, StreamTenantRowsMatchSuffixOracle) {
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  const std::size_t attach_at = 937;
  const ResultTable want =
      oracle_table(kStreamSource, all.subspan(attach_at), 0_s, 12_s);
  for (const Topology topo : {Topology{0, 1}, Topology{4, 2}}) {
    auto engine = make_engine(kBaseSource, topo, 0_s);
    feed_uneven(*engine, all.subspan(0, attach_at));
    AttachOptions options;
    options.name = "drops";
    engine->attach_query(compiler::compile_source(kStreamSource, kParams),
                         options);
    feed_uneven(*engine, all.subspan(attach_at));
    engine->finish(12_s);
    expect_tables_bit_identical(want, engine->table("drops"),
                                topo.label() + " stream tenant");
  }
}

// ---- validation: clean rejection, never degraded state ---------------------

TEST(AttachValidation, RejectsNonAttachableProgramsWithoutStateChange) {
  for (const Topology topo : {Topology{0, 1}, Topology{4, 1}}) {
    SCOPED_TRACE(topo.label());
    auto engine = make_engine(kBaseSource, topo, 0_s);
    const auto records = test_workload();
    engine->process_batch(std::span{records}.subspan(0, 2000));

    AttachOptions options;
    options.name = "t";
    // Multi-result program (two switch plans).
    EXPECT_THROW(engine->attach_query(
                     compiler::compile_source("R1 = SELECT COUNT GROUPBY 5tuple\n"
                                              "R2 = SELECT COUNT GROUPBY qid\n",
                                              kParams),
                     options),
                 ConfigError);
    // Collection layer downstream of the GROUPBY.
    EXPECT_THROW(
        engine->attach_query(
            compiler::compile_source(
                "R1 = SELECT COUNT GROUPBY 5tuple\n"
                "R2 = SELECT * FROM R1 WHERE COUNT > K\n",
                kParams),
            options),
        ConfigError);
    // Name collisions: base query, then a live tenant.
    options.name = "BASE";
    EXPECT_THROW(engine->attach_query(
                     compiler::compile_source(kEwmaSource, kParams), options),
                 ConfigError);
    options.name = "t";
    engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                         options);
    EXPECT_THROW(engine->attach_query(
                     compiler::compile_source(kEwmaSource, kParams), options),
                 ConfigError);
    // An empty name, and a name held by a live stream tenant.
    options.name = "";
    EXPECT_THROW(engine->attach_query(
                     compiler::compile_source(kEwmaSource, kParams), options),
                 ConfigError);
    options.name = "s";
    engine->attach_query(compiler::compile_source(kStreamSource, kParams),
                         options);
    EXPECT_THROW(engine->attach_query(
                     compiler::compile_source(kEwmaSource, kParams), options),
                 ConfigError);
    // Sharded slice constraint: buckets must divide into shards.
    if (topo.shards != 0) {
      options.name = "odd";
      options.geometry = kv::CacheGeometry::set_associative(66, 2);  // 33 buckets
      EXPECT_THROW(engine->attach_query(
                       compiler::compile_source(kEwmaSource, kParams), options),
                   ConfigError);
    }
    // Detach of base-program and unknown names.
    EXPECT_THROW((void)engine->detach_query("BASE", 1_s), ConfigError);
    EXPECT_THROW((void)engine->detach_query("nosuch", 1_s), QueryError);

    // None of the rejections perturbed the engine: it still folds and ends.
    engine->process_batch(std::span{records}.subspan(2000, 1000));
    engine->finish(12_s);
    EXPECT_EQ(engine->records_processed(), 3000u);
    EXPECT_GT(engine->table("t").row_count(), 0u);
  }
}

TEST(AttachValidation, AttachEpochRecordedInStatsAndMetrics) {
  auto engine = make_engine(kBaseSource, Topology{0, 1}, 0_s);
  const auto records = test_workload();
  engine->process_batch(std::span{records}.subspan(0, 1234));
  AttachOptions options;
  options.name = "late";
  options.geometry = kGeom;
  engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                       options);
  bool seen = false;
  for (const StoreStats& s : engine->store_stats()) {
    if (s.name != "late") continue;
    seen = true;
    EXPECT_TRUE(s.attached);
    EXPECT_EQ(s.attach_records, 1234u);
  }
  EXPECT_TRUE(seen);
  const std::string prom = obs::metrics_to_prometheus(engine->metrics());
  EXPECT_NE(prom.find("perfq_store_attached{query=\"late\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("perfq_store_attach_records{query=\"late\"} 1234"),
            std::string::npos);
  EXPECT_NE(prom.find("perfq_store_attached{query=\"BASE\"} 0"),
            std::string::npos);
  const std::string json = obs::metrics_to_json(engine->metrics());
  EXPECT_NE(json.find("store_attach_records"), std::string::npos);
}

// ---- detach releases resources ---------------------------------------------

TEST(DetachResources, HeapReturnsToBaselineAfterDetach) {
  // Base program is a pass-through stream (callback sink, nothing retained)
  // so repeated feeds don't grow base-side state; the only durable growth
  // between the measurement points is the attached tenant.
  auto sink = std::make_shared<CallbackStreamSink>([](const StreamBatch&) {});
  EngineBuilder builder(compiler::compile_source(kStreamSource, kParams));
  builder.geometry(kGeom).stream_sink("DROPS", std::move(sink));
  auto engine = builder.build();
  const auto records = test_workload();

  const auto cycle = [&] {
    AttachOptions options;
    options.name = "t1";
    options.geometry = kGeom;
    engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                         options);
    engine->process_batch(records);
    return engine->detach_query("t1", 20_s);
  };

  // Warmup: grows every retained capacity (engine scratch, vector slack)
  // to its steady state so the measured cycle is allocation-neutral.
  { const ResultTable t = cycle(); }
  const std::int64_t baseline = g_live_bytes.load(std::memory_order_relaxed);

  std::int64_t mid = 0;
  {
    AttachOptions options;
    options.name = "t1";
    options.geometry = kGeom;
    engine->attach_query(compiler::compile_source(kEwmaSource, kParams),
                         options);
    engine->process_batch(records);
    mid = g_live_bytes.load(std::memory_order_relaxed);
    const ResultTable t = engine->detach_query("t1", 20_s);
    EXPECT_GT(t.row_count(), 0u);
  }
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);

  // The live tenant holds real heap (backing-store nodes for ~400 keys,
  // plan + program storage); after detach it is all returned.
  EXPECT_GT(mid - baseline, 16 * 1024) << "tenant heap not measurable";
  EXPECT_LE(after - baseline, 4 * 1024)
      << "detach leaked ~" << (after - baseline) << " bytes";
}

// ---- the service: admission, protocol, server ------------------------------

service::QueryService make_service(std::size_t shards = 0) {
  EngineBuilder builder(compiler::compile_source(kBaseSource, kParams));
  builder.geometry(kGeom);
  if (shards > 0) builder.sharded(shards);
  service::ServiceConfig config;
  config.tenant_geometry = kGeom;
  return service::QueryService(builder.build(), config);
}

TEST(QueryService, AdmissionAdmitsToTheLineAndRefundsOnDetach) {
  EngineBuilder builder(compiler::compile_source(kBaseSource, kParams));
  builder.geometry(kGeom);
  service::ServiceConfig config;
  config.tenant_geometry = kGeom;
  // Budget exactly one tenant: ewma state is 1 dim over a 13-byte 5-tuple
  // key, so one 64-slot slice prices to slots x (104 + 64) bits.
  const double one = config.budget.price(
      kGeom.total_slots(),
      analysis::AdmissionBudget::bits_per_pair(13, 1));
  config.budget.max_die_fraction = one * 1.5;
  service::QueryService svc(builder.build(), config);

  const auto records = test_workload();
  svc.process_batch(std::span{records}.subspan(0, 500));

  const service::TenantInfo first = svc.attach("t1", kEwmaSource);
  EXPECT_DOUBLE_EQ(first.die_fraction, one);
  EXPECT_EQ(first.attach_records, 500u);
  EXPECT_THROW(svc.attach("t2", kEwmaSource), ConfigError);
  EXPECT_EQ(svc.tenants().size(), 1u);  // rejected attach left no tenant
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), one);

  // The engine was not perturbed by the rejection: ingest continues.
  svc.process_batch(std::span{records}.subspan(500, 500));

  { const ResultTable t = svc.detach("t1"); }
  EXPECT_DOUBLE_EQ(svc.used_die_fraction(), 0.0);
  const service::TenantInfo again = svc.attach("t2", kEwmaSource);
  EXPECT_EQ(again.attach_records, 1000u);
  svc.process_batch(std::span{records}.subspan(1000, 1000));
  svc.finish();
  EXPECT_GT(svc.table("t2").row_count(), 0u);
}

TEST(QueryService, StreamTenantDrainsConcurrentlyWithIngest) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};
  svc.process_batch(all.subspan(0, 100));
  const service::TenantInfo info =
      svc.attach("drops", "SELECT srcip, dstport WHERE tout == infinity\n");
  EXPECT_EQ(info.kind, AttachKind::kStreamSelect);
  EXPECT_DOUBLE_EQ(info.die_fraction, 0.0);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread drainer([&] {
    std::vector<std::vector<double>> rows;
    while (!done.load(std::memory_order_acquire)) {
      drained.fetch_add(svc.drain("drops", rows),
                        std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 100; i < records.size(); i += 512) {
    svc.process_batch(all.subspan(i, std::min<std::size_t>(512, records.size() - i)));
  }
  done.store(true, std::memory_order_release);
  drainer.join();

  // Post-quiescence accounting: delivered == drained + still-buffered +
  // ring-dropped.
  std::vector<std::vector<double>> rows;
  const std::uint64_t tail = svc.drain("drops", rows);
  const auto metrics = svc.metrics();
  ASSERT_EQ(metrics.streams.size(), 1u);
  EXPECT_TRUE(metrics.streams[0].attached);
  EXPECT_GT(metrics.streams[0].rows_delivered, 0u);
  EXPECT_EQ(metrics.streams[0].rows_delivered,
            drained.load() + tail + metrics.streams[0].rows_dropped);
  { const ResultTable t = svc.detach("drops"); }
  EXPECT_THROW(svc.drain("drops", rows), ConfigError);
}

TEST(QueryService, ConcurrentClientsAgainstShardedIngest) {
  service::QueryService svc = make_service(/*shards=*/4);
  const auto records = test_workload();
  const std::span<const PacketRecord> all{records};

  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    for (std::size_t i = 0; i < records.size(); i += 256) {
      svc.process_batch(
          all.subspan(i, std::min<std::size_t>(256, records.size() - i)));
    }
    ingest_done.store(true, std::memory_order_release);
  });
  std::thread client([&] {
    for (int i = 0; i < 10; ++i) {
      svc.attach("c", kEwmaSource);
      (void)svc.snapshot("c");
      (void)svc.snapshot("BASE");
      const ResultTable t = svc.detach("c");
    }
  });
  std::thread monitor([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      (void)obs::metrics_to_prometheus(svc.metrics());
    }
  });
  ingest.join();
  client.join();
  monitor.join();
  svc.finish();
  EXPECT_EQ(svc.records_processed(), records.size());
}

TEST(LineProtocol, CommandsRoundTrip) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);

  EXPECT_EQ(service::execute_line(svc, "PING").to_wire(), "OK 0\n");
  const auto attach = service::execute_line(
      svc, "ATTACH t1 SELECT 5tuple, COUNT GROUPBY 5tuple");
  ASSERT_TRUE(attach.ok) << attach.error;
  EXPECT_NE(attach.lines.at(0).find("kind=switch"), std::string::npos);
  // Escaped multi-line source (a def block) through the one-line transport.
  const std::string multi = service::escape_source(std::string(kEwmaSource));
  EXPECT_NE(multi.find("\\n"), std::string::npos);
  EXPECT_EQ(service::unescape_source(multi), kEwmaSource);
  const auto attach2 = service::execute_line(svc, "ATTACH t2 " + multi);
  ASSERT_TRUE(attach2.ok) << attach2.error;

  const auto list = service::execute_line(svc, "LIST");
  ASSERT_TRUE(list.ok);
  ASSERT_EQ(list.lines.size(), 3u);  // two tenants + the budget line
  const auto snap = service::execute_line(svc, "SNAPSHOT t1");
  ASSERT_TRUE(snap.ok);
  EXPECT_GT(snap.lines.size(), 3u);
  const auto prom = service::execute_line(svc, "PROM");
  ASSERT_TRUE(prom.ok);

  const auto bad = service::execute_line(svc, "DETACH nosuch");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.to_wire().find("ERR "), std::string::npos);
  const auto unknown = service::execute_line(svc, "FROBNICATE");
  EXPECT_FALSE(unknown.ok);

  EXPECT_TRUE(service::execute_line(svc, "DETACH t1").ok);
  EXPECT_TRUE(service::execute_line(svc, "DETACH t2").ok);
  EXPECT_TRUE(service::execute_line(svc, "SHUTDOWN").shutdown);
}

TEST(QueryServer, LoopbackSocketRoundTrip) {
  service::QueryService svc = make_service();
  const auto records = test_workload();
  svc.process_batch(records);
  service::QueryServer server(svc, /*port=*/0);
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request =
      "PING\nATTACH t1 SELECT 5tuple, COUNT GROUPBY 5tuple\nLIST\nQUIT\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("OK 0\n"), std::string::npos);           // PING
  EXPECT_NE(reply.find("attached 't1'"), std::string::npos);    // ATTACH
  EXPECT_NE(reply.find("tenant 't1'"), std::string::npos);      // LIST
  EXPECT_FALSE(server.shutdown_requested());
  server.stop();
  EXPECT_EQ(svc.tenants().size(), 1u);
}

}  // namespace
}  // namespace perfq::runtime

// Failure-domain tests: fault injection (failpoints), cross-thread error
// propagation, the poisoned-state contract, and the drain watchdogs.
//
// The hard guarantees under test (engine_api.hpp "Failure semantics"):
//   - the first exception on ANY engine thread poisons the engine: every
//     subsequent call throws a structured EngineFaultError (role, shard,
//     cause) — never a hang, never std::terminate, never silent corruption;
//   - sibling threads unwind cleanly (the destructor joins everything);
//   - a wedged pipeline trips the drain watchdog, which converts the hang
//     into an EngineFaultError carrying a pipeline diagnostic dump.
//
// Failpoint-driven tests skip themselves unless the build compiled the
// sites in (-DPERFQ_FAILPOINTS=ON; the fault-matrix CI job). The sink-throw
// and misuse tests run in every build — the poisoned-state machinery itself
// is always live.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "compiler/program.hpp"
#include "runtime/engine.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime/sharded/sharded_engine.hpp"
#include "runtime/stream_sink.hpp"
#include "runtime_test_util.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() { return test_workload(); }

/// Small cache so evictions flow; 8 buckets divide into 1 and 4 shards.
EngineConfig small_engine_config() {
  EngineConfig config;
  config.geometry = kv::CacheGeometry::set_associative(8, 2);
  return config;
}

ShardedEngineConfig fault_config(std::size_t shards, std::size_t dispatchers) {
  ShardedEngineConfig config;
  config.engine = small_engine_config();
  config.num_shards = shards;
  config.num_dispatchers = dispatchers;
  config.ring_capacity = 256;
  config.dispatch_batch = 32;
  config.eviction_batch = 8;
  return config;
}

/// The engine matrix every fault scenario runs over: serial plus the
/// sharded topologies (D, N) in {1,2} x {1,4}.
struct EngineCase {
  const char* name;
  bool sharded;
  std::size_t shards;
  std::size_t dispatchers;
};
const EngineCase kEngineMatrix[] = {
    {"serial", false, 0, 0},         {"sharded D1 N1", true, 1, 1},
    {"sharded D1 N4", true, 4, 1},   {"sharded D2 N1", true, 1, 2},
    {"sharded D2 N4", true, 4, 2},
};

std::unique_ptr<Engine> build_case(const EngineCase& c,
                                   const std::string& source =
                                       "SELECT COUNT GROUPBY srcip") {
  if (!c.sharded) {
    return std::make_unique<QueryEngine>(compiler::compile_source(source),
                                         small_engine_config());
  }
  return std::make_unique<ShardedEngine>(compiler::compile_source(source),
                                         fault_config(c.shards,
                                                      c.dispatchers));
}

/// Feed batches until the engine throws EngineFaultError (async faults can
/// surface a batch or two after injection). Returns the caught fault.
EngineFaultError drive_to_fault(Engine& engine,
                                std::span<const PacketRecord> records,
                                const std::string& context) {
  constexpr std::size_t kBatch = 64;
  for (int round = 0; round < 200; ++round) {
    for (std::size_t base = 0; base < records.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, records.size() - base);
      try {
        engine.process_batch(records.subspan(base, n));
      } catch (const EngineFaultError& fault) {
        return fault;
      }
    }
  }
  ADD_FAILURE() << context << ": no EngineFaultError after 200 rounds";
  return EngineFaultError{ThreadRole::kCaller, kNoShard, "unreached"};
}

/// Every post-fault call must throw the structured error — same root cause,
/// no hang, and repeatably (the poison never clears).
void expect_poisoned(Engine& engine, const std::string& context) {
  const auto records = workload();
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_THROW(engine.process_batch(std::span<const PacketRecord>(records)
                                          .first(10)),
                 EngineFaultError)
        << context;
    EXPECT_THROW(engine.finish(20_s), EngineFaultError) << context;
    EXPECT_THROW((void)engine.snapshot("R1", 20_s), EngineFaultError)
        << context;
    EXPECT_THROW((void)engine.result(), EngineFaultError) << context;
    EXPECT_THROW((void)engine.store_stats(), EngineFaultError) << context;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

// ---- the failpoint framework itself (runs in every build) ------------------

TEST_F(FaultTest, FailpointSpecSkipAndCountSemantics) {
  // evaluate() is compiled unconditionally (only the PERFQ_FAILPOINT macro
  // is gated), so the spec machinery is testable in every build.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kThrow;
  spec.skip = 2;
  spec.count = 1;
  failpoint::arm("test.site", spec);
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // hit 1 (skipped)
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // hit 2 (skipped)
  EXPECT_THROW(failpoint::evaluate("test.site"), FaultInjected);  // fires
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));  // count exhausted
  EXPECT_EQ(failpoint::hit_count("test.site"), 4u);
  EXPECT_EQ(failpoint::fire_count("test.site"), 1u);

  failpoint::disarm("test.site");
  EXPECT_NO_THROW(failpoint::evaluate("test.site"));
  // Unknown sites are free and silent.
  EXPECT_NO_THROW(failpoint::evaluate("test.never_armed"));
  EXPECT_EQ(failpoint::hit_count("test.never_armed"), 0u);
}

TEST_F(FaultTest, FailpointRearmResetsCounters) {
  failpoint::arm("test.rearm", {});
  EXPECT_THROW(failpoint::evaluate("test.rearm"), FaultInjected);
  EXPECT_EQ(failpoint::fire_count("test.rearm"), 1u);
  failpoint::Spec sleeper;
  sleeper.action = failpoint::Action::kSleep;
  sleeper.sleep_ms = 1;
  failpoint::arm("test.rearm", sleeper);
  EXPECT_EQ(failpoint::hit_count("test.rearm"), 0u);
  EXPECT_NO_THROW(failpoint::evaluate("test.rearm"));
  EXPECT_EQ(failpoint::fire_count("test.rearm"), 1u);
}

// ---- fault injection through the engine matrix (failpoint builds) ----------

TEST_F(FaultTest, ThrowInFoldPoisonsEveryEngine) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  for (const EngineCase& c : kEngineMatrix) {
    failpoint::Spec spec;
    spec.skip = 100;  // let some records fold first
    failpoint::arm("fold_core.fold", spec);
    auto engine = build_case(c, "R1 = SELECT COUNT GROUPBY srcip");
    const EngineFaultError fault = drive_to_fault(*engine, records, c.name);
    EXPECT_NE(fault.cause().find("fold_core.fold"), std::string::npos)
        << c.name << ": " << fault.what();
    if (c.sharded) {
      // The fold runs on a shard worker; the fault must carry that origin.
      EXPECT_EQ(fault.role(), ThreadRole::kWorker) << c.name;
      EXPECT_LT(fault.shard(), c.shards) << c.name;
    } else {
      EXPECT_EQ(fault.role(), ThreadRole::kCaller) << c.name;
      EXPECT_EQ(fault.shard(), kNoShard) << c.name;
    }
    failpoint::disarm_all();
    expect_poisoned(*engine, c.name);
    // Destructor must join every surviving thread cleanly (TSan/ASan and
    // the ctest timeout police this).
  }
}

TEST_F(FaultTest, WorkerDeathUnwindsSiblings) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  for (const EngineCase& c : kEngineMatrix) {
    if (!c.sharded) continue;
    failpoint::arm("sharded.ring_pop", {});  // every worker dies on entry
    ShardedEngine engine(
        compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"),
        fault_config(c.shards, c.dispatchers));
    const EngineFaultError fault = drive_to_fault(engine, records, c.name);
    EXPECT_EQ(fault.role(), ThreadRole::kWorker) << c.name;
    EXPECT_LT(fault.shard(), c.shards) << c.name;
    failpoint::disarm_all();
    expect_poisoned(engine, c.name);
  }
}

TEST_F(FaultTest, MergeThreadDeathSurfacesBeforeResults) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  for (const EngineCase& c : kEngineMatrix) {
    if (!c.sharded) continue;
    failpoint::arm("sharded.merge_absorb", {});
    ShardedEngine engine(
        compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"),
        fault_config(c.shards, c.dispatchers));
    // The tiny 8-bucket cache evicts early, so the merge thread dies on its
    // first drained batch. The fault surfaces at a batch boundary or — if
    // the whole trace dispatches first — at finish(), but NEVER as a
    // result() over a half-absorbed backing store.
    bool threw = false;
    try {
      for (std::size_t base = 0; base < records.size(); base += 64) {
        engine.process_batch(std::span<const PacketRecord>(records).subspan(
            base, std::min<std::size_t>(64, records.size() - base)));
      }
      engine.finish(20_s);
      (void)engine.result();
    } catch (const EngineFaultError& fault) {
      threw = true;
      EXPECT_EQ(fault.role(), ThreadRole::kMerge) << c.name;
      EXPECT_EQ(fault.shard(), kNoShard) << c.name;
      EXPECT_NE(fault.cause().find("sharded.merge_absorb"), std::string::npos)
          << c.name << ": " << fault.what();
    }
    EXPECT_TRUE(threw) << c.name;
    failpoint::disarm_all();
  }
}

TEST_F(FaultTest, SnapshotWorkerDeathFailsTheSnapshotCall) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  const auto records = workload();
  failpoint::arm("sharded.snapshot_worker", {});
  ShardedEngine engine(
      compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"),
      fault_config(4, 2));
  engine.process_batch(std::span<const PacketRecord>(records).first(500));
  try {
    (void)engine.snapshot("R1", 15_s);
    FAIL() << "snapshot over a dying worker must throw";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWorker);
    EXPECT_LT(fault.shard(), 4u);
  }
  failpoint::disarm_all();
  expect_poisoned(engine, "snapshot worker death");
}

/// A sharded engine with a switch tenant "t" attached after 200 records and
/// fed 300 more, ready for a detach.
std::unique_ptr<ShardedEngine> engine_with_tenant(
    const ShardedEngineConfig& config, std::span<const PacketRecord> records) {
  auto engine = std::make_unique<ShardedEngine>(
      compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"), config);
  engine->process_batch(records.first(200));
  AttachOptions options;
  options.name = "t";
  engine->attach_query(compiler::compile_source("SELECT COUNT GROUPBY dstip"),
                       options);
  engine->process_batch(records.subspan(200, 300));
  return engine;
}

TEST_F(FaultTest, SnapshotWorkerDeathFailsTheDetachCall) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // Sharded detach is an export, so it crosses the snapshot rendezvous: a
  // worker dying there must fail the detach, not hang it or free the slot.
  const auto records = workload();
  for (const EngineCase& c : kEngineMatrix) {
    if (!c.sharded) continue;
    auto engine =
        engine_with_tenant(fault_config(c.shards, c.dispatchers), records);
    failpoint::arm("sharded.snapshot_worker", {});
    try {
      (void)engine->detach_query("t", 15_s);
      ADD_FAILURE() << c.name << ": detach over a dying worker must throw";
    } catch (const EngineFaultError& fault) {
      EXPECT_EQ(fault.role(), ThreadRole::kWorker) << c.name;
      EXPECT_LT(fault.shard(), c.shards) << c.name;
      EXPECT_NE(fault.cause().find("sharded.snapshot_worker"),
                std::string::npos)
          << c.name << ": " << fault.what();
    }
    failpoint::disarm_all();
    expect_poisoned(*engine, std::string(c.name) + " detach worker death");
    EXPECT_THROW((void)engine->detach_query("t", 16_s), EngineFaultError)
        << c.name;
  }
}

// ---- drain watchdogs (failpoint builds) ------------------------------------

TEST_F(FaultTest, RingStallTripsTheWatchdogWithDiagnostic) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // Wedge (not kill) the worker: it stalls 200 ms per poll, the ring holds
  // only 2 messages, and the watchdog deadline is 50 ms — the caller's
  // full-ring push must convert the stall into a structured fault carrying
  // the pipeline dump, and the destructor must still join the worker once
  // its stalls run out.
  failpoint::Spec stall;
  stall.action = failpoint::Action::kSleep;
  stall.sleep_ms = 200;
  failpoint::arm("sharded.ring_pop", stall);
  ShardedEngineConfig config = fault_config(1, 1);
  config.ring_capacity = 2;
  config.dispatch_batch = 1;
  config.drain_timeout = std::chrono::milliseconds{50};
  ShardedEngine engine(
      compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"), config);
  const auto records = workload();
  try {
    engine.process_batch(std::span<const PacketRecord>(records).first(500));
    FAIL() << "wedged pipeline must trip the watchdog";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWatchdog);
    EXPECT_NE(fault.cause().find("drain deadline exceeded"), std::string::npos)
        << fault.what();
    // The diagnostic dump names the wait and reports pipeline state.
    EXPECT_NE(fault.diagnostic().find("pipeline state at watchdog expiry"),
              std::string::npos)
        << fault.what();
    EXPECT_NE(fault.diagnostic().find("ring occupancy"), std::string::npos)
        << fault.what();
  }
  failpoint::disarm_all();
  expect_poisoned(engine, "ring stall");
}

TEST_F(FaultTest, SnapshotStallTripsTheWatchdog) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // The worker stalls inside the snapshot rendezvous, past the deadline:
  // the caller's rendezvous wait must fault instead of spinning forever.
  failpoint::Spec stall;
  stall.action = failpoint::Action::kSleep;
  stall.sleep_ms = 300;
  stall.count = 1;
  failpoint::arm("sharded.snapshot_worker", stall);
  ShardedEngineConfig config = fault_config(2, 1);
  config.drain_timeout = std::chrono::milliseconds{50};
  ShardedEngine engine(
      compiler::compile_source("R1 = SELECT COUNT GROUPBY srcip"), config);
  const auto records = workload();
  engine.process_batch(std::span<const PacketRecord>(records).first(200));
  try {
    (void)engine.snapshot("R1", 15_s);
    FAIL() << "stalled snapshot rendezvous must trip the watchdog";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWatchdog);
    EXPECT_FALSE(fault.diagnostic().empty()) << fault.what();
  }
  failpoint::disarm_all();
  expect_poisoned(engine, "snapshot stall");
}

TEST_F(FaultTest, SnapshotStallDuringDetachTripsTheWatchdog) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "built without PERFQ_FAILPOINTS";
  }
  // The detach's export stalls in the snapshot rendezvous past the deadline:
  // the watchdog must fail the detach with its diagnostic dump.
  failpoint::Spec stall;
  stall.action = failpoint::Action::kSleep;
  stall.sleep_ms = 300;
  stall.count = 1;
  ShardedEngineConfig config = fault_config(2, 1);
  config.drain_timeout = std::chrono::milliseconds{50};
  const auto records = workload();
  auto engine = engine_with_tenant(config, records);
  failpoint::arm("sharded.snapshot_worker", stall);
  try {
    (void)engine->detach_query("t", 15_s);
    FAIL() << "stalled detach rendezvous must trip the watchdog";
  } catch (const EngineFaultError& fault) {
    EXPECT_EQ(fault.role(), ThreadRole::kWatchdog);
    EXPECT_NE(fault.diagnostic().find("pipeline state at watchdog expiry"),
              std::string::npos)
        << fault.what();
  }
  failpoint::disarm_all();
  expect_poisoned(*engine, "detach snapshot stall");
  EXPECT_THROW((void)engine->detach_query("t", 16_s), EngineFaultError);
}

// ---- always-on poisoned-state coverage (no failpoints needed) --------------

TEST_F(FaultTest, ThrowingStreamSinkPoisonsBothEngines) {
  // A user sink callback that throws is a caller-side fault in both
  // engines (sinks run on the caller thread): the batch call throws the
  // structured error and the engine stays poisoned — it must never serve
  // results computed from a half-delivered stream.
  const char* source = R"(
S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 0
R1 = SELECT COUNT GROUPBY srcip
)";
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    const std::string context = sharded ? "sharded" : "serial";
    auto sink = std::make_shared<CallbackStreamSink>(
        [](const StreamBatch&) { throw std::runtime_error{"sink exploded"}; });
    EngineBuilder builder(compiler::compile_source(source));
    builder.stream_sink("S", sink);
    if (sharded) builder.sharded(2).dispatchers(2);
    auto engine = builder.build();
    try {
      engine->process_batch(std::span<const PacketRecord>(records).first(50));
      FAIL() << context << ": throwing sink must fault the batch";
    } catch (const EngineFaultError& fault) {
      EXPECT_EQ(fault.role(), ThreadRole::kCaller) << context;
      EXPECT_NE(fault.cause().find("sink exploded"), std::string::npos)
          << context << ": " << fault.what();
    }
    expect_poisoned(*engine, context);
  }
}

TEST_F(FaultTest, EngineFaultErrorIsAlsoAPlainError) {
  // Callers that only know the common error hierarchy still catch faults.
  const EngineFaultError fault{ThreadRole::kWorker, 3, "cause text", "dump"};
  EXPECT_EQ(fault.role(), ThreadRole::kWorker);
  EXPECT_EQ(fault.shard(), 3u);
  EXPECT_EQ(fault.cause(), "cause text");
  EXPECT_EQ(fault.diagnostic(), "dump");
  const std::string what = fault.what();
  EXPECT_NE(what.find("worker"), std::string::npos);
  EXPECT_NE(what.find("shard 3"), std::string::npos);
  EXPECT_NE(what.find("cause text"), std::string::npos);
  EXPECT_NE(what.find("dump"), std::string::npos);
  EXPECT_THROW(throw fault, Error);
}

TEST_F(FaultTest, DrainTimeoutIsASharedOnlyBuilderKnob) {
  EngineBuilder builder(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"));
  builder.drain_timeout(std::chrono::milliseconds{100});
  EXPECT_THROW((void)builder.build(), ConfigError);

  EngineBuilder sharded_builder(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"));
  sharded_builder.sharded(2).drain_timeout(std::chrono::milliseconds{100});
  EXPECT_NO_THROW((void)sharded_builder.build());
}

TEST_F(FaultTest, ArmedNothingEnginesStayClean) {
  // Sanity for instrumented builds: with no failpoint armed the matrix
  // produces identical results to the serial engine — the sites are inert.
  const auto records = workload();
  QueryEngine reference(
      compiler::compile_source("SELECT COUNT GROUPBY srcip"),
      small_engine_config());
  reference.process_batch(records);
  reference.finish(20_s);
  for (const EngineCase& c : kEngineMatrix) {
    auto engine = build_case(c);
    engine->process_batch(records);
    engine->finish(20_s);
    expect_tables_bit_identical(reference.result(), engine->result(), c.name);
  }
}

}  // namespace
}  // namespace perfq::runtime

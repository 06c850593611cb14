// The engine-internal driver of stream SELECT sinks, shared by QueryEngine
// and ShardedEngine: finds the program's unconsumed stream SELECTs, wires
// each to its StreamSink (user-provided via EngineConfig::stream_sinks, or a
// default TableStreamSink), evaluates filters/projections per record on the
// caller thread (row appends are order-sensitive and must match the serial
// engine exactly), and delivers the buffered rows once per engine-level
// process_batch() call.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/program.hpp"
#include "runtime/engine_types.hpp"
#include "runtime/table.hpp"

namespace perfq::runtime {

class StreamStage {
 public:
  /// Compiles the program's stream sinks and validates
  /// `config.stream_sinks` (unknown or non-stream names throw ConfigError).
  /// `program` must outlive the stage.
  StreamStage(const compiler::CompiledProgram& program,
              const EngineConfig& config);

  /// No stream sinks in the program: observe() calls can be skipped.
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Evaluate every sink's filter/projections on one record (record order).
  /// Generic over the record representation; the wire ingest path evaluates
  /// straight off frame bytes. Instantiated in stream_stage.cpp.
  template <typename Rec>
  void observe(const Rec& rec);

  /// Flush the rows buffered since the last deliver() to the sinks — one
  /// on_batch() per sink per process_batch() call with matching rows.
  void deliver();

  /// deliver() any tail rows, signal on_finish(), and materialize the table
  /// of every sink that exposes one (default table sinks are moved,
  /// user-provided ones copied): base-program entries into `tables` by query
  /// index, dynamically attached ones into `attached_tables` by name (their
  /// query indices belong to their own programs and would collide).
  void finish(std::map<int, ResultTable>& tables,
              std::map<std::string, ResultTable, std::less<>>& attached_tables);

  /// Dynamically attach one stream-SELECT tenant. `program` must classify as
  /// AttachKind::kStreamSelect (the engine validates before calling) and is
  /// kept alive by the entry. `epoch` is the attach record boundary reported
  /// via StreamSinkMetrics::attach_records. Caller-thread only, serialized
  /// with observe()/deliver() by the engine's lifecycle contract.
  void attach(std::shared_ptr<const compiler::CompiledProgram> program,
              const std::string& name, std::shared_ptr<StreamSink> sink,
              const EngineConfig& config, std::uint64_t epoch);

  /// Detach a dynamically attached tenant: deliver its buffered rows, signal
  /// on_finish(), return its table (empty-by-schema if the sink exposes
  /// none), drop the entry. Throws QueryError if `name` is unknown or names
  /// a base-program stream.
  ResultTable detach(std::string_view name);

  /// Whether any live entry (base or attached) has this result name.
  [[nodiscard]] bool has(std::string_view name) const;

  /// Whether a DYNAMICALLY ATTACHED entry has this name (engines use this to
  /// reject base-program detaches cleanly, before any side effects).
  [[nodiscard]] bool has_attached(std::string_view name) const;

  /// Append one StreamSinkMetrics per stream query (delivery counts come
  /// from single-writer slots; drop counts from the sinks). Safe from a
  /// metrics thread while the caller thread delivers, PROVIDED the engine
  /// guards attach()/detach() against collect() (topology mutex).
  void collect(std::vector<StreamSinkMetrics>& out) const;

 private:
  struct Entry {
    compiler::CompiledStreamSelect compiled;
    std::string name;          ///< result name ("" if unnamed)
    lang::Schema schema;
    std::shared_ptr<StreamSink> sink;
    TableStreamSink* default_sink = nullptr;  ///< set iff engine-owned
    std::vector<std::vector<double>> batch;   ///< rows since last deliver()
    obs::RelaxedU64 delivered;  ///< rows offered via on_batch (caller thread)
    /// Attached tenants own their compiled program (base entries borrow the
    /// engine's); doubles as the is-attached flag.
    std::shared_ptr<const compiler::CompiledProgram> attached_program;
    std::uint64_t attach_records = 0;  ///< attach epoch
  };

  void deliver_entry(Entry& entry);

  std::vector<Entry> entries_;
};

}  // namespace perfq::runtime

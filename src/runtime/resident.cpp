#include "runtime/resident.hpp"

#include <utility>

namespace perfq::runtime {

AttachKind attachable_kind(const compiler::CompiledProgram& program) {
  const auto& queries = program.analysis.queries;
  if (queries.empty()) {
    throw ConfigError{"attach: program has no queries"};
  }
  // Unconsumed stream SELECTs, by the same rule StreamStage applies.
  std::vector<char> consumed(queries.size(), 0);
  const auto mark = [&](int i) {
    if (i >= 0 && static_cast<std::size_t>(i) < queries.size()) consumed[i] = 1;
  };
  for (const auto& q : queries) {
    mark(q.input);
    mark(q.left);
    mark(q.right);
  }
  std::size_t stream_selects = 0;
  int last_stream = -1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    if (q.def.kind == lang::QueryDef::Kind::kSelect &&
        q.output.stream_over_base && consumed[i] == 0) {
      ++stream_selects;
      last_stream = static_cast<int>(i);
    }
  }
  const int last = static_cast<int>(queries.size()) - 1;
  if (program.switch_plans.size() == 1) {
    if (program.switch_plans.front().query_index != last) {
      throw ConfigError{
          "attach: program runs a collection layer downstream of its GROUPBY; "
          "attachable programs end at the on-switch aggregate"};
    }
    if (stream_selects != 0) {
      throw ConfigError{
          "attach: program mixes an on-switch GROUPBY with a stream SELECT; "
          "attach them as separate queries"};
    }
    return AttachKind::kSwitchQuery;
  }
  if (program.switch_plans.empty() && stream_selects == 1 &&
      last_stream == last) {
    return AttachKind::kStreamSelect;
  }
  throw ConfigError{
      "attach: program must be exactly one on-switch GROUPBY chain or one "
      "stream SELECT"};
}

ResidentQueries::ResidentQueries(compiler::CompiledProgram program,
                                 EngineConfig config)
    : program_(std::move(program)),
      config_(std::move(config)),
      stream_(program_, config_) {
  for (const auto& plan : program_.switch_plans) {
    slots_.push_back(Slot{&plan, nullptr, 0});
  }
}

void ResidentQueries::record_ingest(const trace::IngestStats& stats) {
  ingest_parsed_ += stats.parsed;
  ingest_truncated_ += stats.truncated;
  ingest_unsupported_ += stats.unsupported;
  ingest_bad_length_ += stats.bad_length;
  ingest_bad_checksum_ += stats.bad_checksum;
}

void ResidentQueries::record_replay(std::uint64_t records, std::uint64_t nanos) {
  replay_records_ += records;
  replay_nanos_ += nanos;
}

kv::CacheGeometry ResidentQueries::geometry_for(std::string_view name) const {
  const auto it = config_.per_query_geometry.find(std::string{name});
  return it != config_.per_query_geometry.end() ? it->second : config_.geometry;
}

ResidentQueries::Tenant ResidentQueries::admit(
    compiler::CompiledProgram program, const AttachOptions& options) const {
  Tenant tenant;
  tenant.kind = attachable_kind(program);
  if (options.name.empty()) {
    throw ConfigError{"attach: query name must not be empty"};
  }
  if (find_switch(options.name) != npos || stream_.has(options.name) ||
      program_.analysis.query_index(options.name) >= 0) {
    throw ConfigError{"attach: query '" + options.name + "' already exists"};
  }
  // The tenant owns its program; rename its result to the resident name.
  tenant.program = std::make_shared<compiler::CompiledProgram>(std::move(program));
  tenant.program->analysis.queries.back().def.result_name = options.name;
  if (tenant.kind == AttachKind::kSwitchQuery) {
    tenant.program->switch_plans.front().name = options.name;
    tenant.geometry = options.geometry.value_or(geometry_for(options.name));
  }
  return tenant;
}

void ResidentQueries::attach_stream(Tenant tenant, const AttachOptions& options) {
  // Stream tenants live on the caller thread only: the topology lock against
  // metrics readers is all the attach needs.
  const auto lock = topology_lock();
  stream_.attach(std::move(tenant.program), options.name, options.sink,
                 config_, records_);
}

std::size_t ResidentQueries::add_slot(
    std::shared_ptr<const compiler::CompiledProgram> program) {
  const compiler::SwitchQueryPlan* plan = &program->switch_plans.front();
  slots_.push_back(Slot{plan, std::move(program), records_});
  return slots_.size() - 1;
}

void ResidentQueries::release(std::size_t q) { slots_[q] = Slot{}; }

std::size_t ResidentQueries::find_switch(std::string_view name) const {
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    if (slots_[q].plan != nullptr && slots_[q].plan->name == name) return q;
  }
  return npos;
}

std::size_t ResidentQueries::switch_slot(std::string_view name,
                                         const char* what) const {
  const std::size_t q = find_switch(name);
  if (q == npos) {
    throw QueryError{"result", std::string{what} +
                                   ": no on-switch GROUPBY named '" +
                                   std::string{name} + "'"};
  }
  return q;
}

std::size_t ResidentQueries::detach_target(std::string_view name) const {
  const std::size_t q = find_switch(name);
  if (q != npos && slots_[q].attached == nullptr) {
    throw ConfigError{"detach: '" + std::string{name} +
                      "' is a base-program query and cannot be detached"};
  }
  return q;
}

void ResidentQueries::check_stream_detach(std::string_view name) const {
  if (!stream_.has(name)) {
    throw QueryError{"result",
                     "detach: unknown query '" + std::string{name} + "'"};
  }
  if (!stream_.has_attached(name)) {
    throw ConfigError{"detach: '" + std::string{name} +
                      "' is a base-program query and cannot be detached"};
  }
}

void ResidentQueries::run_collection() {
  stream_.finish(tables_, attached_tables_);
  for (std::size_t i = 0; i < program_.analysis.queries.size(); ++i) {
    if (tables_.count(static_cast<int>(i)) > 0) continue;
    run_collection_query(program_, static_cast<int>(i), tables_);
  }
}

const ResultTable& ResidentQueries::result() const {
  throw_if_faulted();
  check(finished_, "engine: result before finish");
  const int last = static_cast<int>(program_.analysis.queries.size()) - 1;
  const ResultTable* t = find_collection_table(tables_, last);
  check(t != nullptr, "engine: program result not materialized");
  return *t;
}

const ResultTable& ResidentQueries::table(std::string_view name) const {
  throw_if_faulted();
  check(finished_, "engine: table before finish");
  if (const auto it = attached_tables_.find(name);
      it != attached_tables_.end()) {
    return it->second;
  }
  const int idx = program_.analysis.query_index(name);
  if (idx < 0) {
    throw QueryError{"result", "unknown table '" + std::string{name} + "'"};
  }
  const ResultTable* t = find_collection_table(tables_, idx);
  if (t == nullptr) {
    throw QueryError{"result", "table '" + std::string{name} +
                                   "' is a stream intermediate and was not "
                                   "materialized"};
  }
  return *t;
}

void ResidentQueries::fill_metrics(EngineMetrics& m) const {
  m.records = records_;
  m.batches = batches_;
  m.refreshes = refreshes_;
  m.snapshots = snapshots_;
  m.faulted = fault_.faulted();
  m.batch_ns = batch_ns_.snapshot();
  m.snapshot_ns = snapshot_ns_.snapshot();
  m.ingest.parsed = ingest_parsed_;
  m.ingest.truncated = ingest_truncated_;
  m.ingest.unsupported = ingest_unsupported_;
  m.ingest.bad_length = ingest_bad_length_;
  m.ingest.bad_checksum = ingest_bad_checksum_;
  m.replay_records = replay_records_;
  m.replay_nanos = replay_nanos_;
}

}  // namespace perfq::runtime

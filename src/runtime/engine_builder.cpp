#include "runtime/engine_builder.hpp"

#include <utility>

#include "common/error.hpp"
#include "runtime/engine.hpp"
#include "runtime/sharded/sharded_engine.hpp"

namespace perfq::runtime {

std::unique_ptr<Engine> EngineBuilder::build() {
  if (built_) {
    throw ConfigError{"EngineBuilder: build() called twice (the builder's "
                      "program was already consumed)"};
  }
  built_ = true;
  if (shards_ == 0) {
    const auto reject = [](bool set, const char* knob) {
      if (set) {
        throw ConfigError{std::string{"EngineBuilder: "} + knob +
                          " is a sharded-engine knob; call sharded(N) first"};
      }
    };
    reject(dispatchers_.has_value(), "dispatchers()");
    reject(ring_capacity_.has_value(), "ring_capacity()");
    reject(dispatch_batch_.has_value(), "dispatch_batch()");
    reject(backing_shards_.has_value(), "backing_shards()");
    reject(eviction_batch_.has_value(), "eviction_batch()");
    reject(drain_timeout_.has_value(), "drain_timeout()");
    return std::make_unique<QueryEngine>(std::move(program_),
                                         std::move(config_));
  }
  ShardedEngineConfig config;
  config.engine = std::move(config_);
  config.num_shards = shards_;
  if (dispatchers_) config.num_dispatchers = *dispatchers_;
  if (ring_capacity_) config.ring_capacity = *ring_capacity_;
  if (dispatch_batch_) config.dispatch_batch = *dispatch_batch_;
  if (backing_shards_) config.backing_shards = *backing_shards_;
  if (eviction_batch_) config.eviction_batch = *eviction_batch_;
  if (drain_timeout_) config.drain_timeout = *drain_timeout_;
  return std::make_unique<ShardedEngine>(std::move(program_),
                                         std::move(config));
}

}  // namespace perfq::runtime

#ifndef OIJ_CORE_ENGINE_FACTORY_H_
#define OIJ_CORE_ENGINE_FACTORY_H_

#include <memory>
#include <string_view>

#include "join/engine.h"

namespace oij {

/// The engines evaluated in the paper.
enum class EngineKind : uint8_t {
  kKeyOij = 0,     ///< Flink-style key-partitioned baseline (Section II-C)
  kScaleOij,       ///< the paper's contribution (Section V)
  kSplitJoin,      ///< SplitJoin adapted to OIJ (Section V-D)
  kSharedState,    ///< OpenMLDB-like shared-table baseline (Section V-E)
};

std::string_view EngineKindName(EngineKind kind);
Status EngineKindFromName(std::string_view name, EngineKind* out);

/// Builds an engine. `sink` must outlive the engine; pass a NullSink for
/// pure measurement runs.
std::unique_ptr<JoinEngine> CreateEngine(EngineKind kind,
                                         const QuerySpec& spec,
                                         const EngineOptions& options,
                                         ResultSink* sink);

}  // namespace oij

#endif  // OIJ_CORE_ENGINE_FACTORY_H_

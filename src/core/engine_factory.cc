#include "core/engine_factory.h"

#include "join/key_oij.h"
#include "join/scale_oij.h"
#include "join/shared_state.h"
#include "join/split_join.h"

namespace oij {

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kKeyOij:
      return "key-oij";
    case EngineKind::kScaleOij:
      return "scale-oij";
    case EngineKind::kSplitJoin:
      return "split-join";
    case EngineKind::kSharedState:
      return "openmldb-like";
  }
  return "?";
}

Status EngineKindFromName(std::string_view name, EngineKind* out) {
  if (name == "key-oij" || name == "key") {
    *out = EngineKind::kKeyOij;
  } else if (name == "scale-oij" || name == "scale") {
    *out = EngineKind::kScaleOij;
  } else if (name == "split-join" || name == "splitjoin") {
    *out = EngineKind::kSplitJoin;
  } else if (name == "openmldb-like" || name == "openmldb" ||
             name == "shared") {
    *out = EngineKind::kSharedState;
  } else {
    return Status::InvalidArgument("unknown engine: " + std::string(name));
  }
  return Status::OK();
}

std::unique_ptr<JoinEngine> CreateEngine(EngineKind kind,
                                         const QuerySpec& spec,
                                         const EngineOptions& options,
                                         ResultSink* sink) {
  switch (kind) {
    case EngineKind::kKeyOij:
      return std::make_unique<KeyOijEngine>(spec, options, sink);
    case EngineKind::kScaleOij:
      return std::make_unique<ScaleOijEngine>(spec, options, sink);
    case EngineKind::kSplitJoin:
      return std::make_unique<SplitJoinEngine>(spec, options, sink);
    case EngineKind::kSharedState:
      return std::make_unique<SharedStateEngine>(spec, options, sink);
  }
  return nullptr;
}

}  // namespace oij

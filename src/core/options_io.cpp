#include "core/options_io.hpp"

#include <stdexcept>

#include "dynamic/dynamic_sparsifier.hpp"
#include "scale/partitioned_sparsifier.hpp"

namespace ssp {

const char* to_string(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kAkpw:
      return "akpw";
    case BackboneKind::kMaxWeight:
      return "kruskal";
    case BackboneKind::kShortestPath:
      return "spt";
  }
  return "?";
}

const char* to_string(SimilarityPolicy policy) {
  switch (policy) {
    case SimilarityPolicy::kNone:
      return "none";
    case SimilarityPolicy::kNodeDisjoint:
      return "node-disjoint";
    case SimilarityPolicy::kBounded:
      return "bounded";
  }
  return "?";
}

const char* to_string(StageKind stage) {
  switch (stage) {
    case StageKind::kBackbone:
      return "backbone";
    case StageKind::kSolverSetup:
      return "solver-setup";
    case StageKind::kSpectralEstimate:
      return "spectral-estimate";
    case StageKind::kEmbedding:
      return "embedding";
    case StageKind::kFiltering:
      return "filtering";
    case StageKind::kFinalEstimate:
      return "final-estimate";
  }
  return "?";
}

const char* to_string(CutPolicy policy) {
  switch (policy) {
    case CutPolicy::kKeepAll:
      return "keep-all";
    case CutPolicy::kFilter:
      return "filter";
    case CutPolicy::kQuotient:
      return "quotient";
  }
  return "?";
}

const char* to_string(ScaleStage stage) {
  switch (stage) {
    case ScaleStage::kPartition:
      return "partition";
    case ScaleStage::kExtract:
      return "extract";
    case ScaleStage::kBlockSparsify:
      return "block-sparsify";
    case ScaleStage::kCutSparsify:
      return "cut-sparsify";
    case ScaleStage::kStitch:
      return "stitch";
    case ScaleStage::kQuality:
      return "quality";
  }
  return "?";
}

const char* to_string(UpdateRoute route) {
  switch (route) {
    case UpdateRoute::kResparsify:
      return "resparsify";
    case UpdateRoute::kTreeRepair:
      return "tree-repair";
    case UpdateRoute::kRebuild:
      return "rebuild";
  }
  return "?";
}

const char* to_string(DynamicStage stage) {
  switch (stage) {
    case DynamicStage::kValidate:
      return "validate";
    case DynamicStage::kApplyGraph:
      return "apply-graph";
    case DynamicStage::kTreeRepair:
      return "tree-repair";
    case DynamicStage::kRebind:
      return "rebind";
    case DynamicStage::kSparsify:
      return "sparsify";
  }
  return "?";
}

BackboneKind parse_backbone_kind(const std::string& name) {
  if (name == "akpw") return BackboneKind::kAkpw;
  if (name == "kruskal") return BackboneKind::kMaxWeight;
  if (name == "spt") return BackboneKind::kShortestPath;
  throw std::invalid_argument("unknown backbone '" + name +
                              "' (akpw|kruskal|spt)");
}

SimilarityPolicy parse_similarity_policy(const std::string& name) {
  if (name == "none") return SimilarityPolicy::kNone;
  if (name == "node-disjoint") return SimilarityPolicy::kNodeDisjoint;
  if (name == "bounded") return SimilarityPolicy::kBounded;
  throw std::invalid_argument("unknown similarity policy '" + name +
                              "' (none|node-disjoint|bounded)");
}

CutPolicy parse_cut_policy(const std::string& name) {
  if (name == "keep-all") return CutPolicy::kKeepAll;
  if (name == "filter") return CutPolicy::kFilter;
  if (name == "quotient") return CutPolicy::kQuotient;
  throw std::invalid_argument("unknown cut policy '" + name +
                              "' (keep-all|filter|quotient)");
}

}  // namespace ssp

#include "algebra/passes/pass_manager.h"

#include "support/string_util.h"

namespace pgivm {

namespace {

Status CheckNoExpand(const OpPtr& op) {
  if (op->kind == OpKind::kExpand || op->kind == OpKind::kPathJoin) {
    return Status::Internal(StrCat(OpKindName(op->kind),
                                   " survived the expand-to-join pass"));
  }
  for (const OpPtr& child : op->children) {
    PGIVM_RETURN_IF_ERROR(CheckNoExpand(child));
  }
  return Status::Ok();
}

}  // namespace

Result<OpPtr> LowerToFra(const OpPtr& gra, const PlanOptions& options) {
  // Step 2 (paper): GRA -> NRA. Expands become joins against get-edges,
  // transitive joins become joins against get-paths.
  OpPtr plan = RewriteExpandToJoin(gra);
  PGIVM_RETURN_IF_ERROR(CheckNoExpand(plan));
  PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));

  // Step 3 (paper): NRA -> FRA. Minimal schema inference pushes property
  // accesses into the leaves (or whole maps, in the ablation mode).
  PGIVM_RETURN_IF_ERROR(PushDownProperties(plan, options.naive_property_maps));

  plan = PushDownFilters(plan);
  PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));

  PruneUnusedExtracts(plan);
  PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));

  if (options.fine_grained_unnest) {
    NarrowUnnestOutputs(plan);
    PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));
  }

  // Label-only vertex scans fold into the edge and path leaves that bind
  // the same endpoints, and path leaves also take their endpoints'
  // extracts (no option: there is one plan shape).
  plan = FoldEndpointLabels(plan);
  PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));

  // Canonical normalization runs last, on the final FRA shape, so the
  // catalog's fingerprint registry sees one normal form per logical plan.
  if (options.canonicalize) {
    PGIVM_ASSIGN_OR_RETURN(plan, CanonicalizePlan(plan));
    PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));
  }

  return plan;
}

}  // namespace pgivm

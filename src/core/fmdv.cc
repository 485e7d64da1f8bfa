#include "core/fmdv.h"

namespace av {

namespace {

/// Deterministic preference order among feasible hypotheses.
bool Better(const FmdvSolution& a, const FmdvSolution& b,
            FmdvObjective objective) {
  if (objective == FmdvObjective::kMinFpr) {
    if (a.fpr != b.fpr) return a.fpr < b.fpr;
    // Ties: prefer the more restrictive pattern (smaller coverage catches
    // more drift), then higher specificity, then lexicographic.
    if (a.coverage != b.coverage) return a.coverage < b.coverage;
  } else {
    if (a.coverage != b.coverage) return a.coverage < b.coverage;
    if (a.fpr != b.fpr) return a.fpr < b.fpr;
  }
  const int sa = a.pattern.SpecificityScore();
  const int sb = b.pattern.SpecificityScore();
  if (sa != sb) return sa > sb;
  return a.pattern.ToString() < b.pattern.ToString();
}

}  // namespace

Result<FmdvSolution> SolveFmdvRange(const ShapeOptions& options, size_t begin,
                                    size_t end, const PatternIndex& index,
                                    const AutoValidateOptions& opts,
                                    FmdvObjective objective) {
  FmdvSolution best;
  bool found = false;
  size_t enumerated = 0;
  size_t feasible = 0;

  options.EnumerateHypothesesRange(
      begin, end, opts.gen.max_hypotheses, [&](Pattern&& h) {
        ++enumerated;
        // Integer hash probe on the interned key; the string form is never
        // materialized on this path.
        const uint64_t key = PatternKey(h);
        const auto stats = index.Lookup(key);
        if (!stats.has_value()) return;  // never seen in T: no evidence
        if (stats->fpr > opts.fpr_target) return;      // Equation (6)
        if (stats->coverage < opts.min_coverage) return;  // Equation (7)
        // Feasible candidates are rare enough to afford an exact check
        // that the entry is really this pattern's evidence and not a
        // 64-bit key collision with some other indexed pattern.
        const auto name = index.LookupName(key);
        if (!name || *name != h.ToString()) return;
        ++feasible;
        FmdvSolution cand;
        cand.pattern = std::move(h);
        cand.fpr = stats->fpr;
        cand.coverage = stats->coverage;
        if (!found || Better(cand, best, objective)) {
          best = std::move(cand);
          found = true;
        }
      });

  if (!found) {
    return Status::Infeasible(
        "no hypothesis meets the FPR/coverage constraints (" +
        std::to_string(enumerated) + " enumerated)");
  }
  best.hypotheses_enumerated = enumerated;
  best.hypotheses_feasible = feasible;
  return best;
}

Result<FmdvSolution> SolveFmdv(ColumnView values, const PatternIndex& index,
                               const AutoValidateOptions& opts,
                               FmdvObjective objective) {
  if (values.empty()) {
    return Status::InvalidArgument("empty query column");
  }
  const ColumnProfile profile = ColumnProfile::Build(values, opts.gen);
  if (profile.shapes().empty()) {
    return Status::Infeasible("no tokenizable values in query column");
  }
  if (profile.shapes().size() > 1) {
    return Status::Infeasible(
        "query column is not homogeneous (H(C) is empty); "
        "use a horizontal-cut variant");
  }
  const ShapeGroup& group = profile.shapes().front();
  if (group.weight != profile.total_weight()) {
    // Untokenizable (empty-string) values exist outside the single shape.
    return Status::Infeasible("query column contains empty values");
  }
  if (group.over_token_limit) {
    return Status::Infeasible(
        "query column exceeds the token limit tau; use vertical cuts");
  }
  ShapeOptions options(profile, group, opts.gen);
  return SolveFmdvRange(options, 0, options.num_positions(), index, opts,
                        objective);
}

}  // namespace av

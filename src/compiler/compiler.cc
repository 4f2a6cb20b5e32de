#include "src/compiler/compiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tetrisched {

namespace {

// Recursive generation state (Algorithm 1's globals). Rows and objective
// terms are built on shared stacks, so a compile allocates per model rather
// than per STRL node.
struct GenContext {
  const AvailabilityGrid& availability;
  CompiledStrl& out;
  // Supply usage as (partition * num_slices + slice, LHS term), in
  // generation order; Compile turns it into one row per used cell.
  std::vector<std::pair<int32_t, LinTerm>> usage;
  // Choice and demand rows under construction, innermost last: a node
  // appends its row's terms past its parent's, emits the row and truncates
  // back. (MIN and barrier rows, made of a child's objective terms, are
  // built the same way at the end of the objective list.)
  std::vector<LinTerm> rows;
  std::vector<std::pair<PartitionId, int>> usable;  // GenLeaf scratch
  std::vector<VarId> indicator_chain;  // enclosing MAX/SUM indicators
};

}  // namespace

// Implementation backdoor into CompiledStrl's private state; keeps the
// recursive generator out of the public header.
struct StrlCompileAccess {
  // gen(expr, I): emits variables/constraints for `expr` under indicator `I`
  // and appends the objective terms the subtree contributes to `objective`.
  static void Gen(GenContext& ctx, const StrlExpr& expr, VarId I,
                  std::vector<LinTerm>& objective);
  static void GenLeaf(GenContext& ctx, const StrlExpr& expr, VarId I,
                      std::vector<LinTerm>& objective);
  // Emits terms[first, end) as a row (right-hand side 0) and truncates
  // `terms` back to `first`.
  static ConstraintId EmitRow(GenContext& ctx, std::vector<LinTerm>& terms,
                              size_t first, ConstraintSense sense);
};

namespace {

// Tightest usable upper bound for a leaf's draw from one partition: the
// minimum availability across the leaf's active slices (and never above k).
int PartitionHeadroom(const GenContext& ctx, PartitionId partition,
                      SimTime start, SimDuration dur, int k) {
  auto [first, last] =
      ctx.availability.grid().ClippedSliceRange(start, dur);
  int headroom = k;
  for (int slice = first; slice < last; ++slice) {
    headroom =
        std::min(headroom, std::max(0, ctx.availability.avail(partition, slice)));
  }
  return headroom;
}

void TrackUsage(GenContext& ctx, PartitionId partition, SimTime start,
                SimDuration dur, VarId var, double coeff) {
  const TimeGrid& grid = ctx.availability.grid();
  auto [first, last] = grid.ClippedSliceRange(start, dur);
  const int32_t base = partition * grid.num_slices;
  for (int slice = first; slice < last; ++slice) {
    ctx.usage.push_back({base + slice, {var, coeff}});
  }
}

}  // namespace

ConstraintId StrlCompileAccess::EmitRow(GenContext& ctx,
                                        std::vector<LinTerm>& terms,
                                        size_t first, ConstraintSense sense) {
  const ConstraintId row = ctx.out.model_.AddConstraint(
      std::span<const LinTerm>(terms).subspan(first), sense, 0.0);
  terms.resize(first);
  return row;
}

void StrlCompileAccess::GenLeaf(GenContext& ctx, const StrlExpr& expr,
                                VarId I, std::vector<LinTerm>& objective) {
  CompiledStrl& out = ctx.out;
  MilpModel& model = out.model_;
  CompiledStrl::LeafInfo info;
  info.tag = expr.tag;
  info.start = expr.start;
  info.duration = expr.duration;
  info.k = expr.k;
  info.value = expr.value;
  info.linear = expr.kind == StrlKind::kLnCk;
  info.indicator = I;
  info.ancestor_begin = static_cast<int32_t>(out.leaf_ancestors_.size());
  out.leaf_ancestors_.insert(out.leaf_ancestors_.end(),
                             ctx.indicator_chain.begin(),
                             ctx.indicator_chain.end());
  info.ancestor_end = static_cast<int32_t>(out.leaf_ancestors_.size());
  info.partition_begin = static_cast<int32_t>(out.leaf_partitions_.size());
  auto add_leaf = [&] {
    info.partition_end = static_cast<int32_t>(out.leaf_partitions_.size());
    out.leaves_.push_back(info);
  };

  // Keep only partitions that can contribute at least one node.
  std::vector<std::pair<PartitionId, int>>& usable = ctx.usable;
  usable.clear();
  for (PartitionId partition : expr.partitions) {
    int headroom =
        PartitionHeadroom(ctx, partition, expr.start, expr.duration, expr.k);
    if (headroom > 0) {
      usable.emplace_back(partition, headroom);
    }
  }

  int total_headroom = 0;
  for (const auto& [partition, headroom] : usable) {
    total_headroom += headroom;
  }
  if (usable.empty() || total_headroom < (info.linear ? 1 : expr.k)) {
    // The option cannot be satisfied inside this window: pin I = 0 instead of
    // emitting an unusable subtree (the paper's expression culling).
    info.row =
        model.AddConstraint({{I, 1.0}}, ConstraintSense::kLessEqual, 0.0);
    add_leaf();
    return;
  }

  if (!info.linear && usable.size() == 1) {
    // Single-partition nCk: P == k * I, no partition variable needed.
    PartitionId partition = usable[0].first;
    out.leaf_partitions_.push_back(partition);
    out.leaf_partition_vars_.push_back(-1);
    TrackUsage(ctx, partition, expr.start, expr.duration, I,
               static_cast<double>(expr.k));
    objective.push_back({I, expr.value});
  } else {
    const size_t demand = ctx.rows.size();
    for (const auto& [partition, headroom] : usable) {
      VarId p = model.AddIntegerVar(0.0, headroom);
      out.leaf_partitions_.push_back(partition);
      out.leaf_partition_vars_.push_back(p);
      TrackUsage(ctx, partition, expr.start, expr.duration, p, 1.0);
      ctx.rows.push_back({p, 1.0});
    }
    if (info.linear) {
      // (Demand) sum P <= k * I; value flows per granted node.
      for (size_t i = demand; i < ctx.rows.size(); ++i) {
        objective.push_back({ctx.rows[i].var, expr.value / expr.k});
      }
      ctx.rows.push_back({I, -static_cast<double>(expr.k)});
      info.row = EmitRow(ctx, ctx.rows, demand, ConstraintSense::kLessEqual);
    } else {
      // (Demand) sum P == k * I.
      ctx.rows.push_back({I, -static_cast<double>(expr.k)});
      info.row = EmitRow(ctx, ctx.rows, demand, ConstraintSense::kEqual);
      objective.push_back({I, expr.value});
    }
  }
  add_leaf();
}

void StrlCompileAccess::Gen(GenContext& ctx, const StrlExpr& expr, VarId I,
                            std::vector<LinTerm>& objective) {
  MilpModel& model = ctx.out.model_;
  switch (expr.kind) {
    case StrlKind::kNCk:
    case StrlKind::kLnCk:
      GenLeaf(ctx, expr, I, objective);
      return;

    case StrlKind::kMax:
    case StrlKind::kSum: {
      // MAX: at most one child may be chosen (and none if I == 0). SUM: up
      // to n children, all gated off when I == 0.
      const size_t choice = ctx.rows.size();
      ctx.indicator_chain.push_back(I);
      for (const StrlExpr& child : expr.children) {
        VarId child_i = model.AddBinaryVar();
        Gen(ctx, child, child_i, objective);
        ctx.rows.push_back({child_i, 1.0});
      }
      ctx.indicator_chain.pop_back();
      ctx.rows.push_back(
          {I, expr.kind == StrlKind::kMax
                  ? -1.0
                  : -static_cast<double>(expr.children.size())});
      EmitRow(ctx, ctx.rows, choice, ConstraintSense::kLessEqual);
      return;
    }

    case StrlKind::kMin: {
      // V represents the minimum child value; maximization pushes V up to it.
      VarId v = model.AddContinuousVar(0.0, kInfinity);
      for (const StrlExpr& child : expr.children) {
        // child objective - V >= 0, built past the end of `objective`.
        const size_t bound = objective.size();
        Gen(ctx, child, I, objective);
        objective.push_back({v, -1.0});
        EmitRow(ctx, objective, bound, ConstraintSense::kGreaterEqual);
      }
      objective.push_back({v, 1.0});
      return;
    }

    case StrlKind::kScale: {
      const size_t first = objective.size();
      Gen(ctx, expr.children[0], I, objective);
      for (size_t i = first; i < objective.size(); ++i) {
        objective[i].coeff *= expr.scalar;
      }
      return;
    }

    case StrlKind::kBarrier: {
      // v * I <= f(child), built past the end of `objective`.
      const size_t barrier = objective.size();
      Gen(ctx, expr.children[0], I, objective);
      objective.push_back({I, -expr.scalar});
      EmitRow(ctx, objective, barrier, ConstraintSense::kGreaterEqual);
      objective.push_back({I, expr.scalar});
      return;
    }
  }
}

StrlCompiler::StrlCompiler(const AvailabilityGrid& availability)
    : availability_(availability) {}

CompiledStrl StrlCompiler::Compile(const StrlExpr& root) {
  CompiledStrl out;
  GenContext ctx{availability_, out, {}, {}, {}, {}};
  MilpModel& model = out.model_;

  // Free binary root indicator, exactly as in Algorithm 1's genAndSolve: the
  // optimizer turns the root on whenever positive value is reachable, and a
  // root that cannot be satisfied (e.g. a culled leaf) simply stays off.
  VarId root_i = model.AddBinaryVar();
  out.root_indicator_ = root_i;

  std::vector<LinTerm> objective;
  if (root.kind == StrlKind::kSum) {
    // A top-level SUM (the aggregate objective: one child per pending job) is
    // compiled without its gate row. The gate `sum I_child - n * I_root <= 0`
    // is vacuous at the root — the free root indicator can always be 1, SUM
    // admits any child subset, and the root carries no objective weight — but
    // it stitches every job subtree into one connected component. Dropping it
    // is exact and lets jobs that share no supply row split into independent
    // sub-MILPs (see solver/decompose.h).
    ctx.indicator_chain.push_back(root_i);
    for (const StrlExpr& child : root.children) {
      VarId child_i = model.AddBinaryVar();
      StrlCompileAccess::Gen(ctx, child, child_i, objective);
    }
    ctx.indicator_chain.pop_back();
  } else {
    StrlCompileAccess::Gen(ctx, root, root_i, objective);
  }
  for (const LinTerm& term : objective) {
    model.AddObjectiveTerm(term.var, term.coeff);
  }

  // Tag lookup: sorted by tag; a tag repeated across leaves keeps its last.
  for (int leaf = 0; leaf < out.num_leaves(); ++leaf) {
    if (out.leaves_[leaf].tag != kNoTag) {
      out.tag_to_leaf_.push_back({out.leaves_[leaf].tag, leaf});
    }
  }
  std::stable_sort(out.tag_to_leaf_.begin(), out.tag_to_leaf_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  auto last_of_tag = std::unique(
      out.tag_to_leaf_.rbegin(), out.tag_to_leaf_.rend(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  out.tag_to_leaf_.erase(out.tag_to_leaf_.begin(), last_of_tag.base());

  // (Supply) per partition per slice: usage <= available capacity, one row
  // per used (partition, slice), partition-major, its terms in generation
  // order (a counting sort of the usage list by cell). Row ids plus slice
  // geometry are retained so the scheduler can later ask which saturated
  // rows blocked a rejected job's alternatives.
  const TimeGrid& grid = availability_.grid();
  out.grid_ = grid;
  const int num_cells = availability_.num_partitions() * grid.num_slices;
  std::vector<int32_t> cell_start(num_cells + 1, 0);
  for (const auto& [cell, term] : ctx.usage) {
    ++cell_start[cell + 1];
  }
  for (int cell = 0; cell < num_cells; ++cell) {
    cell_start[cell + 1] += cell_start[cell];
  }
  std::vector<LinTerm> by_cell(ctx.usage.size());
  std::vector<int32_t> fill(cell_start.begin(), cell_start.end() - 1);
  for (const auto& [cell, term] : ctx.usage) {
    by_cell[fill[cell]++] = term;
  }
  for (int cell = 0; cell < num_cells; ++cell) {
    if (cell_start[cell + 1] == cell_start[cell]) {
      continue;
    }
    const PartitionId partition = cell / grid.num_slices;
    const int slice = cell % grid.num_slices;
    double avail = std::max(0, availability_.avail(partition, slice));
    ConstraintId row = model.AddConstraint(
        std::span<const LinTerm>(by_cell).subspan(
            cell_start[cell], cell_start[cell + 1] - cell_start[cell]),
        ConstraintSense::kLessEqual, avail);
    out.supply_rows_.push_back(
        {row, partition, slice, grid.SliceStart(slice), avail, 0.0});
  }
  return out;
}

std::span<const PartitionId> CompiledStrl::partitions(
    const LeafInfo& leaf) const {
  return std::span<const PartitionId>(leaf_partitions_)
      .subspan(leaf.partition_begin, leaf.partition_end - leaf.partition_begin);
}

std::span<const VarId> CompiledStrl::partition_vars(
    const LeafInfo& leaf) const {
  return std::span<const VarId>(leaf_partition_vars_)
      .subspan(leaf.partition_begin, leaf.partition_end - leaf.partition_begin);
}

std::span<const VarId> CompiledStrl::ancestors(const LeafInfo& leaf) const {
  return std::span<const VarId>(leaf_ancestors_)
      .subspan(leaf.ancestor_begin, leaf.ancestor_end - leaf.ancestor_begin);
}

int CompiledStrl::FindLeaf(LeafTag tag) const {
  auto it = std::lower_bound(
      tag_to_leaf_.begin(), tag_to_leaf_.end(), tag,
      [](const std::pair<LeafTag, int>& entry, LeafTag t) {
        return entry.first < t;
      });
  return it != tag_to_leaf_.end() && it->first == tag ? it->second : -1;
}

std::vector<SupplyRowRef> CompiledStrl::BindingSupplyRows(
    std::span<const double> values, double tol) const {
  std::vector<SupplyRowRef> binding;
  for (const SupplyRowRef& ref : supply_rows_) {
    double activity = 0.0;
    for (const LinTerm& term : model_.constraint_terms(ref.row)) {
      activity += term.coeff * values[term.var];
    }
    if (activity >= ref.rhs - tol) {
      SupplyRowRef hit = ref;
      hit.activity = activity;
      binding.push_back(hit);
    }
  }
  return binding;
}

std::vector<SupplyRowRef> CompiledStrl::RowsTouchingLeaf(
    LeafTag tag, const std::vector<SupplyRowRef>& rows) const {
  std::vector<SupplyRowRef> touching;
  const int index = FindLeaf(tag);
  if (index < 0) {
    return touching;
  }
  const LeafInfo& leaf = leaves_[index];
  const std::span<const PartitionId> leaf_partitions = partitions(leaf);
  auto [first, last] = grid_.ClippedSliceRange(leaf.start, leaf.duration);
  for (const SupplyRowRef& ref : rows) {
    if (ref.slice < first || ref.slice >= last) {
      continue;
    }
    if (std::find(leaf_partitions.begin(), leaf_partitions.end(),
                  ref.partition) != leaf_partitions.end()) {
      touching.push_back(ref);
    }
  }
  return touching;
}

std::string CompiledStrl::DebugString() const {
  MilpModel named = model_;
  for (const LeafInfo& leaf : leaves_) {
    const std::string tag = "_t" + std::to_string(leaf.tag);
    named.SetVarName(leaf.indicator, "I" + tag);
    const std::span<const PartitionId> leaf_partitions = partitions(leaf);
    const std::span<const VarId> vars = partition_vars(leaf);
    for (size_t i = 0; i < leaf_partitions.size(); ++i) {
      if (vars[i] >= 0) {
        named.SetVarName(
            vars[i], "P" + tag + "_p" + std::to_string(leaf_partitions[i]));
      }
    }
    if (leaf.row >= 0) {
      const char* kind = leaf_partitions.empty() ? "cull"
                         : leaf.linear           ? "ldemand"
                                                 : "demand";
      named.SetConstraintName(leaf.row, kind + tag);
    }
  }
  named.SetVarName(root_indicator_, "root");
  for (const SupplyRowRef& ref : supply_rows_) {
    named.SetConstraintName(ref.row, "supply_p" + std::to_string(ref.partition) +
                                         "_s" + std::to_string(ref.slice));
  }
  return named.DebugString();
}

bool CompiledStrl::LeafCulledAtCompile(LeafTag tag) const {
  const int index = FindLeaf(tag);
  return index >= 0 && partitions(leaves_[index]).empty();
}

std::vector<StrlAllocation> CompiledStrl::ExtractAllocations(
    std::span<const double> values) const {
  std::vector<StrlAllocation> allocations;
  for (const LeafInfo& leaf : leaves_) {
    if (values[leaf.indicator] < 0.5) {
      continue;
    }
    StrlAllocation alloc;
    alloc.tag = leaf.tag;
    alloc.start = leaf.start;
    alloc.duration = leaf.duration;
    alloc.value = leaf.value;
    const std::span<const PartitionId> leaf_partitions = partitions(leaf);
    const std::span<const VarId> vars = partition_vars(leaf);
    for (size_t i = 0; i < leaf_partitions.size(); ++i) {
      int count;
      if (vars[i] < 0) {
        count = leaf.k;  // collapsed single-partition leaf
      } else {
        count = static_cast<int>(std::lround(values[vars[i]]));
      }
      if (count > 0) {
        alloc.counts[leaf_partitions[i]] = count;
      }
    }
    if (alloc.counts.empty()) {
      continue;  // chosen LnCk with zero grant contributes nothing
    }
    allocations.push_back(std::move(alloc));
  }
  return allocations;
}

std::vector<VarId> CompiledStrl::LeafVars(int leaf) const {
  const LeafInfo& info = leaves_[leaf];
  std::vector<VarId> vars;
  vars.reserve(1 + info.partition_end - info.partition_begin);
  vars.push_back(info.indicator);
  for (VarId p : partition_vars(info)) {
    if (p >= 0) {  // -1: collapsed single-partition leaf, P == k * I
      vars.push_back(p);
    }
  }
  return vars;
}

std::vector<double> CompiledStrl::BuildWarmStart(
    const LeafGrants& grants) const {
  std::vector<double> values(model_.num_vars(), 0.0);
  values[root_indicator_] = 1.0;
  for (const auto& [tag, counts] : grants) {
    const int index = FindLeaf(tag);
    if (index < 0) {
      // The job set changed since the previous cycle (the granted leaf was
      // not recompiled), so the whole hint is unusable and the solver starts
      // cold. Keep warm-start efficacy visible: count every miss, log only
      // on power-of-two totals so a churn-heavy workload cannot flood the
      // log (BuildWarmStart bails on the first stale tag, so this fires at
      // most once per cycle anyway).
      static Counter* misses =
          GlobalMetrics().GetCounter("tetrisched_warmstart_miss_total");
      misses->Increment();
      const int64_t total = misses->value();
      if ((total & (total - 1)) == 0) {
        TETRI_LOG(kWarning) << "warm-start miss: previous-cycle leaf tag "
                            << tag << " absent from the compiled model ("
                            << total << " misses total)";
      }
      return {};
    }
    const LeafInfo& leaf = leaves_[index];
    values[leaf.indicator] = 1.0;
    for (VarId ancestor : ancestors(leaf)) {
      values[ancestor] = 1.0;
    }
    const std::span<const PartitionId> leaf_partitions = partitions(leaf);
    const std::span<const VarId> vars = partition_vars(leaf);
    for (size_t i = 0; i < leaf_partitions.size(); ++i) {
      auto count_it = counts.find(leaf_partitions[i]);
      if (count_it == counts.end()) {
        continue;
      }
      if (vars[i] >= 0) {
        values[vars[i]] = static_cast<double>(count_it->second);
      }
    }
  }
  return values;
}

}  // namespace tetrisched

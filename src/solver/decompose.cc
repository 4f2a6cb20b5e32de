#include "src/solver/decompose.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/budget.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/common/thread_pool.h"

namespace tetrisched {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Union-find with path halving + union by rank.
int32_t Find(std::vector<int32_t>& parent, int32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

void Union(std::vector<int32_t>& parent, std::vector<int32_t>& rank, int32_t a,
           int32_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a == b) {
    return;
  }
  if (rank[a] < rank[b]) {
    std::swap(a, b);
  }
  parent[b] = a;
  if (rank[a] == rank[b]) {
    ++rank[a];
  }
}

// One extracted component: the sub-model, its variable map back into the
// original space, its sliced warm start, its budget share, and what its
// search found.
struct Component {
  MilpModel model;
  std::vector<VarId> vars;  // component variable id -> original variable id
  std::vector<double> warm;
  MilpOptions options;
  SearchFacts facts;
  double search_ms = 0.0;
  double weight = 0.0;  // deadline-pool weight (variable count)
};

}  // namespace

Decomposition DetectComponents(const MilpModel& model) {
  const int n = model.num_vars();
  const int m = model.num_constraints();
  Decomposition decomp;
  decomp.var_component.assign(n, -1);
  decomp.row_component.assign(m, -1);

  std::vector<int32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int32_t> rank(n, 0);
  std::vector<bool> in_row(n, false);

  for (int c = 0; c < m; ++c) {
    std::span<const LinTerm> terms = model.constraint_terms(c);
    if (terms.empty()) {
      // A constant row constrains nothing the splitter can attribute to a
      // component; let the monolithic solver classify it.
      decomp.bypass = true;
      return decomp;
    }
    const VarId first = terms[0].var;
    in_row[first] = true;
    for (size_t i = 1; i < terms.size(); ++i) {
      in_row[terms[i].var] = true;
      Union(parent, rank, first, terms[i].var);
    }
  }

  // Component ids in ascending first-variable order, so extraction and
  // stitching are deterministic regardless of union order.
  std::vector<int32_t> comp_of_root(n, -1);
  for (int v = 0; v < n; ++v) {
    if (!in_row[v]) {
      continue;
    }
    const int32_t root = Find(parent, v);
    if (comp_of_root[root] < 0) {
      comp_of_root[root] = decomp.num_components++;
      decomp.component_vars.push_back(0);
      decomp.component_rows.push_back(0);
    }
    decomp.var_component[v] = comp_of_root[root];
    ++decomp.component_vars[comp_of_root[root]];
  }
  for (int c = 0; c < m; ++c) {
    const int32_t comp =
        decomp.var_component[model.constraint_terms(c)[0].var];
    decomp.row_component[c] = comp;
    ++decomp.component_rows[comp];
  }
  return decomp;
}

SearchFacts SearchComponents(const MilpModel& model,
                             const Decomposition& decomp,
                             const MilpOptions& options,
                             std::span<const double> warm_start,
                             const CancelToken& deadline, double detect_ms,
                             MilpResult& result) {
  const int n = model.num_vars();
  const int m = model.num_constraints();
  const int k = decomp.num_components;
  const int num_workers = WorkerCount(options);

  // ---- Extraction: one sub-model per component, original variable order
  // preserved, so local ids are a monotone remap of the original ids. ------
  const auto extract_start = Clock::now();
  std::vector<Component> components(k);
  std::vector<int32_t> local(n, -1);  // original var -> id in its component
  for (int v = 0; v < n; ++v) {
    const int32_t comp = decomp.var_component[v];
    if (comp < 0) {
      continue;  // free variable, stitched analytically below
    }
    MilpModel& sub = components[comp].model;
    VarId id = -1;
    switch (model.var_type(v)) {
      case VarType::kBinary:
        id = sub.AddBinaryVar(model.var_name(v));
        break;
      case VarType::kInteger:
        id = sub.AddIntegerVar(model.lower_bound(v), model.upper_bound(v),
                               model.var_name(v));
        break;
      case VarType::kContinuous:
        id = sub.AddContinuousVar(model.lower_bound(v), model.upper_bound(v),
                                  model.var_name(v));
        break;
    }
    if (model.objective_coeff(v) != 0.0) {
      sub.AddObjectiveTerm(id, model.objective_coeff(v));
    }
    components[comp].vars.push_back(v);
    local[v] = id;
  }
  std::vector<LinTerm> remapped;
  for (int c = 0; c < m; ++c) {
    std::span<const LinTerm> terms = model.constraint_terms(c);
    remapped.clear();
    for (const LinTerm& term : terms) {
      remapped.push_back({local[term.var], term.coeff});
    }
    components[decomp.row_component[c]].model.AddConstraint(
        remapped, model.constraint_sense(c), model.constraint_rhs(c),
        model.constraint_name(c));
  }

  // Warm-start slicing: the cycle's full-model hint projects onto each
  // component independently (each component search re-verifies feasibility
  // of its slice and silently drops an infeasible one).
  const bool have_warm = static_cast<int>(warm_start.size()) == n;

  // Budget apportionment by variable share. Node/gap/stall budgets are
  // fixed shares (they sum to 1, so total work never exceeds the monolithic
  // budget); wall-clock is handled by a DeadlinePool below, so a component
  // that finishes early donates its unused time to the ones still running
  // instead of stranding it. Floors keep a tiny component from being starved
  // below one root solve.
  int total_vars = 0;
  for (int comp = 0; comp < k; ++comp) {
    total_vars += decomp.component_vars[comp];
  }
  const int inner_threads = std::max(1, num_workers / k);
  for (int comp = 0; comp < k; ++comp) {
    Component& component = components[comp];
    const double share =
        static_cast<double>(decomp.component_vars[comp]) / total_vars;
    // The search reads only the gap, node, stall, thread, diving and LP
    // settings; wall-clock comes from the pool at component start, capped by
    // the solve's deadline.
    MilpOptions& inner = component.options;
    inner = options;
    inner.num_threads = inner_threads;
    inner.max_nodes =
        std::max(64, static_cast<int>(options.max_nodes * share));
    inner.abs_gap = std::max(1e-9, options.abs_gap * share);
    if (options.stall_node_limit > 0) {
      inner.stall_node_limit =
          std::max(32, static_cast<int>(options.stall_node_limit * share));
    }
    component.weight = decomp.component_vars[comp];
    if (have_warm) {
      component.warm.resize(component.vars.size());
      for (size_t i = 0; i < component.vars.size(); ++i) {
        component.warm[i] = warm_start[component.vars[i]];
      }
    }
  }
  const double extract_ms = MillisSince(extract_start);

  // ---- Concurrent component solves. Each task touches only its own slot,
  // and each component solve is single-threaded whenever the worker count
  // does not exceed the component count — in that case the whole decomposed
  // solve is deterministic regardless of pool interleaving. ----------------
  // Wall-clock pool over the solve budget: a component's slice is computed
  // when it *starts*, from the time then remaining and the weight still
  // outstanding, so early finishers' unused time flows to later components
  // (with one thread, the last component may inherit nearly the whole
  // remaining budget; with many, concurrent slices still sum to at most the
  // remaining wall-clock).
  DeadlinePool time_pool(options.time_limit_seconds, total_vars);
  const double floor_seconds = std::min(options.time_limit_seconds, 0.005);
  auto solve_component = [&time_pool, &deadline,
                          floor_seconds](Component& component) {
    TETRI_SPAN("solver.component");
    const auto search_start = Clock::now();
    CancelToken slice;
    slice.ArmAfterSeconds(
        time_pool.AcquireSeconds(component.weight, floor_seconds));
    if (deadline.deadline_nanos() < slice.deadline_nanos()) {
      slice.ArmAtNanos(deadline.deadline_nanos());
    }
    component.facts =
        SearchTree(component.model, component.options, component.warm, slice);
    component.search_ms = MillisSince(search_start);
    time_pool.Release(component.weight);
  };
  const int pool_threads = std::min(num_workers, k);
  if (pool_threads <= 1) {
    for (Component& component : components) {
      solve_component(component);
    }
  } else {
    ThreadPool pool(pool_threads);
    // Largest components first so the long poles start immediately and the
    // small ones pack around them.
    std::vector<int> order(k);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return decomp.component_vars[a] > decomp.component_vars[b];
    });
    for (int comp : order) {
      pool.Submit([&solve_component, &components, comp] {
        solve_component(components[comp]);
      });
    }
    pool.Wait();
  }

  // ---- Stitching: a sum of facts. ---------------------------------------
  result.components = k;
  result.decompose_ms = detect_ms + extract_ms;
  SearchFacts stitched;
  stitched.held = true;
  // Free variables (no constraints) sit at their objective-maximizing bound;
  // an infinite one is an improving ray.
  std::vector<double> values(n, 0.0);
  double free_objective = 0.0;
  bool free_ray = false;
  for (int v = 0; v < n; ++v) {
    if (decomp.var_component[v] >= 0) {
      continue;
    }
    const double coeff = model.objective_coeff(v);
    double value;
    if (coeff > 0.0) {
      value = model.upper_bound(v);
    } else if (coeff < 0.0) {
      value = model.lower_bound(v);
    } else {
      value = std::clamp(0.0, model.lower_bound(v), model.upper_bound(v));
    }
    if (std::isinf(value)) {
      free_ray = true;
      continue;
    }
    if (model.IsIntegerLike(v)) {
      value = coeff > 0.0 ? std::floor(value) : std::ceil(value);
    }
    values[v] = value;
    free_objective += coeff * value;
  }
  stitched.bound = free_ray ? kInfinity : free_objective;
  for (const Component& component : components) {
    const SearchFacts& facts = component.facts;
    stitched.bound += facts.bound;
    stitched.held = stitched.held && facts.held;
    stitched.found = stitched.found || facts.found;
    stitched.infeasible = stitched.infeasible || facts.infeasible;
    stitched.unbounded = stitched.unbounded || facts.unbounded;
    stitched.stalled = stitched.stalled || facts.stalled;
    stitched.nodes += facts.nodes;
    stitched.lp_iterations += facts.lp_iterations;
    result.max_component_ms =
        std::max(result.max_component_ms, component.search_ms);
  }
  if (!stitched.held || stitched.infeasible || stitched.unbounded) {
    // No full-model assignment: a component proved the model empty or
    // unbounded, or ran out of budget holding nothing.
    stitched.held = false;
    return stitched;
  }
  if (free_ray) {
    // Every component holds a feasible assignment, so the ray is real.
    stitched.held = false;
    stitched.unbounded = true;
    return stitched;
  }
  for (const Component& component : components) {
    for (size_t i = 0; i < component.vars.size(); ++i) {
      values[component.vars[i]] = component.facts.values[i];
    }
  }
  stitched.values = std::move(values);
  stitched.objective = model.ObjectiveValue(stitched.values);
  return stitched;
}

}  // namespace tetrisched

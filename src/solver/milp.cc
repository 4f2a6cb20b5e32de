#include "src/solver/milp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/common/thread_pool.h"
#include "src/solver/decompose.h"
#include "src/solver/presolve.h"
#include "src/solver/search.h"

namespace tetrisched {
namespace {

using Clock = std::chrono::steady_clock;

// Integrality tolerance for branching and diving.
constexpr double kIntTol = 1e-6;

double MillisSince(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Registry-backed solver instruments (DESIGN.md §10). The phase histograms
// attribute each solve's wall-clock to presolve / LP pricing / B&B search;
// the counters aggregate work done by all branch-and-bound workers. Only
// per-LP-call timing and queue-wait timing read a clock on the hot path, and
// both are gated by ObservabilityEnabled().
struct SolverInstruments {
  Histogram* presolve_ms;
  Histogram* lp_ms;                 // per-LP-call latency (root + nodes)
  Histogram* branch_and_bound_ms;   // worker-section wall-clock per solve
  Histogram* queue_wait_ms;         // per queue_cv wait episode (enabled only)
  Histogram* decompose_ms;          // detection (+ extraction) per solve
  Histogram* root_lp_ms;            // root relaxation per monolithic solve
  Histogram* root_dive_ms;          // root diving heuristic per solve
  Histogram* components;            // components per decomposition-checked solve
  Histogram* largest_component_vars;
  Counter* solves;
  Counter* nodes;
  Counter* lp_iterations;
  Counter* incumbent_improvements;
  Counter* queue_waits;
  Counter* presolve_fixed_vars;
  Counter* presolve_dropped_rows;
};

// Power-of-two buckets for count-valued histograms (component counts and
// component sizes, not latencies).
const std::vector<double>& CountBuckets() {
  static const std::vector<double> buckets{1,  2,   4,   8,   16,   32,
                                           64, 128, 256, 512, 1024, 4096};
  return buckets;
}

SolverInstruments& Instruments() {
  MetricsRegistry& registry = GlobalMetrics();
  static SolverInstruments instruments{
      registry.GetHistogram("tetrisched_phase_presolve_ms"),
      registry.GetHistogram("tetrisched_phase_lp_ms"),
      registry.GetHistogram("tetrisched_phase_branch_and_bound_ms"),
      registry.GetHistogram("tetrisched_solver_queue_wait_ms"),
      registry.GetHistogram("tetrisched_phase_decompose_ms"),
      registry.GetHistogram("tetrisched_phase_root_lp_ms"),
      registry.GetHistogram("tetrisched_phase_root_dive_ms"),
      registry.GetHistogram("tetrisched_solver_components", CountBuckets()),
      registry.GetHistogram("tetrisched_solver_largest_component_vars",
                            CountBuckets()),
      registry.GetCounter("tetrisched_solver_solves_total"),
      registry.GetCounter("tetrisched_solver_nodes_total"),
      registry.GetCounter("tetrisched_solver_lp_iterations_total"),
      registry.GetCounter("tetrisched_solver_incumbent_improvements_total"),
      registry.GetCounter("tetrisched_solver_queue_waits_total"),
      registry.GetCounter("tetrisched_solver_presolve_fixed_vars_total"),
      registry.GetCounter("tetrisched_solver_presolve_dropped_rows_total"),
  };
  return instruments;
}

struct BoundChange {
  VarId var;
  double lower;
  double upper;
};

// One branch-and-bound node. Bound tightenings are stored as a single delta
// plus a shared pointer to the (immutable) parent, so creating a node is O(1)
// and deep trees stop copying O(depth) change lists on every branch.
struct Node {
  double bound;  // parent LP bound (optimistic estimate for this node)
  int depth = 0;
  uint64_t seq = 0;  // tie-break for deterministic ordering
  std::shared_ptr<const Node> parent;
  BoundChange delta{-1, 0.0, 0.0};  // delta.var < 0 on the root node
};

struct NodeOrder {
  // Max-heap on bound; deeper nodes win ties (tends to find incumbents),
  // then insertion order for determinism.
  bool operator()(const std::shared_ptr<const Node>& a,
                  const std::shared_ptr<const Node>& b) const {
    if (a->bound != b->bound) {
      return a->bound < b->bound;
    }
    if (a->depth != b->depth) {
      return a->depth < b->depth;
    }
    return a->seq > b->seq;
  }
};

using NodeQueue =
    std::priority_queue<std::shared_ptr<const Node>,
                        std::vector<std::shared_ptr<const Node>>, NodeOrder>;

// A diving worker's reusable buffers: the dive's bounds and its last basis.
struct DiveScratch {
  std::vector<double> lower;
  std::vector<double> upper;
  LpBasis basis;
};

// Applies the ancestor chain's bound tightenings on top of the root bounds
// already present in lower/upper. Tightenings commute (max on lower, min on
// upper), so walking leaf-to-root is fine.
void ApplyNodeBounds(const Node& node, std::span<double> lower,
                     std::span<double> upper) {
  for (const Node* cur = &node; cur != nullptr; cur = cur->parent.get()) {
    if (cur->delta.var < 0) {
      continue;
    }
    lower[cur->delta.var] = std::max(lower[cur->delta.var], cur->delta.lower);
    upper[cur->delta.var] = std::min(upper[cur->delta.var], cur->delta.upper);
  }
}

// Picks the integer-like variable whose LP value is most fractional,
// preferring binaries (choice indicators) over general integers (partition
// counts) — indicator integrality usually drags the counts along.
int MostFractionalVar(const MilpModel& model, std::span<const double> values,
                      double int_tol) {
  int best_binary = -1;
  double best_binary_score = int_tol;
  int best_integer = -1;
  double best_integer_score = int_tol;
  for (int v = 0; v < model.num_vars(); ++v) {
    if (!model.IsIntegerLike(v)) {
      continue;
    }
    double x = values[v];
    double frac = x - std::floor(x);
    double score = std::min(frac, 1.0 - frac);
    if (model.var_type(v) == VarType::kBinary) {
      if (score > best_binary_score) {
        best_binary_score = score;
        best_binary = v;
      }
    } else if (score > best_integer_score) {
      best_integer_score = score;
      best_integer = v;
    }
  }
  return best_binary >= 0 ? best_binary : best_integer;
}

// Rounds integer-like entries to the nearest integer (for clean incumbents).
std::vector<double> RoundedCopy(const MilpModel& model,
                                std::span<const double> values) {
  std::vector<double> rounded(values.begin(), values.end());
  for (int v = 0; v < model.num_vars(); ++v) {
    if (model.IsIntegerLike(v)) {
      rounded[v] = std::round(rounded[v]);
    }
  }
  return rounded;
}

// Searches so far: the tick axis of WarnNodeIterationLimit.
std::atomic<int64_t> g_searches{0};

// A model that trips the LP iteration limit tends to trip it in node after
// node, so this WARN prints at most once per 16 searches process-wide and
// carries the count it swallowed. Any B&B worker may call it.
void WarnNodeIterationLimit(int64_t search) {
  static std::mutex mu;
  static LogRateLimiter limit(/*every_n_ticks=*/16);
  int64_t suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!limit.ShouldLog(0, search, &suppressed)) {
      return;
    }
  }
  TETRI_LOG(kWarning) << "LP iteration limit inside B&B node; dropping"
                      << LogRateLimiter::SuppressedSuffix(suppressed);
}

}  // namespace

int WorkerCount(const MilpOptions& options) {
  return std::max(1, options.num_threads > 0 ? options.num_threads
                                             : ThreadPool::HardwareThreads());
}

SearchFacts SearchTree(const MilpModel& model, const MilpOptions& options,
                       std::span<const double> warm_start,
                       const CancelToken& deadline) {
  const int64_t search_tick =
      g_searches.fetch_add(1, std::memory_order_relaxed);
  SolverInstruments& ins = Instruments();
  // Per-LP-call latency only reads the clock when observability is on; the
  // iteration counter flush happens at the call sites as before.
  auto timed_lp = [&](LpSolver& lp, std::span<const double> lo,
                      std::span<const double> hi,
                      const LpBasis* warm) -> LpResult {
    if (!ObservabilityEnabled()) {
      return lp.Solve(lo, hi, warm);
    }
    const auto lp_start = Clock::now();
    LpResult lp_result = lp.Solve(lo, hi, warm);
    ins.lp_ms->Observe(MillisSince(lp_start));
    return lp_result;
  };
  const int num_workers = WorkerCount(options);

  SearchFacts facts;
  const int n = model.num_vars();

  // Covers tableau construction and incumbent seeding (the work between
  // presolve and the root relaxation); closed just before the root LP so
  // solver child spans tile scheduler.solve with no untracked gap.
  std::optional<ScopedSpan> setup_span;
  setup_span.emplace("solver.setup");

  LpOptions lp_options = options.lp;
  lp_options.cancel = &deadline;
  LpSolver root_lp(model, lp_options);

  std::vector<double> root_lower(n), root_upper(n);
  for (int v = 0; v < n; ++v) {
    root_lower[v] = model.lower_bound(v);
    root_upper[v] = model.upper_bound(v);
  }

  // ---- State shared between workers -------------------------------------
  //
  // Two locks, never held together:
  //  * queue_mu guards the open-node queue, the bounds of in-flight nodes,
  //    the sequence counter, and the termination flags;
  //  * incumbent_mu guards the incumbent vector/objective. The incumbent
  //    objective is mirrored in an atomic so the hot bound-pruning test in
  //    every worker never takes a lock.
  // Counters (nodes, LP iterations, stall) are plain atomics.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  NodeQueue open;
  std::multiset<double> expanding_bounds;  // bounds of nodes being expanded
  uint64_t next_seq = 0;
  bool done = false;
  bool limits_hit = false;
  bool stall_hit = false;  // limits_hit specifically via stall_node_limit
  bool found_unbounded = false;
  double final_bound = 0.0;  // last global bound observed at a pop
  // Highest bound among nodes dropped unexplored because their LP hit the
  // iteration limit; the reported bound can never fall below it.
  double dropped_bound = -kInfinity;

  std::mutex incumbent_mu;
  bool have_incumbent = false;
  double incumbent_obj = -kInfinity;
  std::vector<double> incumbent;
  // Mirror of incumbent_obj; -kInfinity means "no incumbent yet".
  std::atomic<double> incumbent_atomic{-kInfinity};
  // True once a warm start or the search itself supplied the incumbent;
  // stays false while only the trivial all-zero fallback is held, which is
  // what distinguishes kTimeLimit/kStall from kNoIncumbent.
  std::atomic<bool> real_incumbent{false};

  std::atomic<int> nodes{0};
  std::atomic<long> lp_iterations{0};
  std::atomic<int> nodes_since_improvement{0};

  // Every exit of the search: hand over the incumbent with the counters,
  // and flush the counters into the process-wide registry (once per search,
  // so a decomposed solve counts each component).
  auto finish = [&]() {
    facts.nodes = nodes.load(std::memory_order_relaxed);
    facts.lp_iterations = lp_iterations.load(std::memory_order_relaxed);
    ins.solves->Increment();
    ins.nodes->Increment(facts.nodes);
    ins.lp_iterations->Increment(facts.lp_iterations);
    facts.held = have_incumbent;
    if (have_incumbent) {
      facts.values = std::move(incumbent);
      facts.objective = incumbent_obj;
      facts.found = real_incumbent.load(std::memory_order_relaxed);
    }
    return std::move(facts);
  };

  auto offer_incumbent = [&](std::span<const double> values,
                             bool from_search = true) {
    std::vector<double> rounded = RoundedCopy(model, values);
    if (!model.IsFeasible(rounded, 1e-5)) {
      return false;
    }
    double obj = model.ObjectiveValue(rounded);
    std::lock_guard<std::mutex> lock(incumbent_mu);
    if (!have_incumbent || obj > incumbent_obj) {
      // Any strict improvement resets the stall counter, including the very
      // first incumbent (the zero-clamped fallback or a warm start).
      ins.incumbent_improvements->Increment();
      nodes_since_improvement.store(0, std::memory_order_relaxed);
      incumbent = std::move(rounded);
      incumbent_obj = obj;
      have_incumbent = true;
      incumbent_atomic.store(obj, std::memory_order_release);
      if (from_search) {
        real_incumbent.store(true, std::memory_order_relaxed);
      }
    }
    return true;
  };

  // Caller-provided warm start (e.g. last cycle's plan), checked first.
  if (!warm_start.empty() && static_cast<int>(warm_start.size()) == n) {
    offer_incumbent(warm_start);
  }
  // Zero-clamped fallback: in scheduling models "assign nothing" is always
  // feasible, which guarantees the solver never returns empty-handed on a
  // time limit.
  {
    std::vector<double> zero(n);
    for (int v = 0; v < n; ++v) {
      zero[v] = std::clamp(0.0, root_lower[v], root_upper[v]);
    }
    offer_incumbent(zero, /*from_search=*/false);
  }

  auto gap_satisfied = [&](double bound) {
    double inc = incumbent_atomic.load(std::memory_order_acquire);
    if (inc == -kInfinity) {
      return false;
    }
    double gap = bound - inc;
    if (gap <= options.abs_gap) {
      return true;
    }
    return gap <= options.rel_gap * std::max(std::abs(inc), 1e-9);
  };

  // Diving heuristic: from a fractional LP point, repeatedly fix the most
  // fractional integer to a rounding (trying the nearer side first, the
  // other side on infeasibility) until integral. Cheap and effective on
  // packing structures; used at the root and periodically during the search.
  // `lp` and `scratch` are the calling worker's own.
  auto dive = [&](LpSolver& lp, DiveScratch& scratch,
                  const std::vector<double>& from_lower,
                  const std::vector<double>& from_upper, LpResult start_relax,
                  const LpBasis* start_basis) {
    std::vector<double>& dive_lower = scratch.lower;
    std::vector<double>& dive_upper = scratch.upper;
    dive_lower.assign(from_lower.begin(), from_lower.end());
    dive_upper.assign(from_upper.begin(), from_upper.end());
    LpResult relax = std::move(start_relax);
    LpBasis& basis = scratch.basis;
    const LpBasis* warm = start_basis;
    for (int step = 0; step < 2 * n + 16; ++step) {
      int v = MostFractionalVar(model, relax.values, kIntTol);
      if (v < 0) {
        offer_incumbent(relax.values);
        return;
      }
      double x = relax.values[v];
      double near = std::clamp(std::round(x), dive_lower[v], dive_upper[v]);
      double far = near > x ? std::floor(x) : std::ceil(x);
      far = std::clamp(far, dive_lower[v], dive_upper[v]);

      double saved_lower = dive_lower[v];
      double saved_upper = dive_upper[v];
      dive_lower[v] = near;
      dive_upper[v] = near;
      LpResult next = timed_lp(lp, dive_lower, dive_upper, warm);
      lp_iterations.fetch_add(next.iterations, std::memory_order_relaxed);
      if (next.status == LpStatus::kCancelled) {
        return;  // deadline expired mid-dive; keep whatever incumbent exists
      }
      if (next.status != LpStatus::kOptimal && far != near) {
        dive_lower[v] = far;
        dive_upper[v] = far;
        next = timed_lp(lp, dive_lower, dive_upper, warm);
        lp_iterations.fetch_add(next.iterations, std::memory_order_relaxed);
      }
      if (next.status != LpStatus::kOptimal) {
        // Both roundings failed: release the variable and stop diving.
        dive_lower[v] = saved_lower;
        dive_upper[v] = saved_upper;
        return;
      }
      relax = std::move(next);
      lp.BasisSnapshot(basis);
      warm = &basis;
      if (deadline.Expired()) {
        return;
      }
    }
  };

  setup_span.reset();

  // The whole root phase (relaxation, integrality check, dive); root_lp and
  // root_dive record as children. Closed before branch and bound; on the
  // early-return paths the destructor closes it at function exit.
  std::optional<ScopedSpan> root_span;
  root_span.emplace("solver.root");

  // Root relaxation (always on the calling thread).
  LpResult root = [&] {
    TETRI_SPAN("solver.root_lp");
    const auto root_lp_start = Clock::now();
    LpResult relax = timed_lp(root_lp, root_lower, root_upper, nullptr);
    ins.root_lp_ms->Observe(MillisSince(root_lp_start));
    return relax;
  }();
  lp_iterations.fetch_add(root.iterations, std::memory_order_relaxed);
  nodes.store(1, std::memory_order_relaxed);
  if (root.status == LpStatus::kInfeasible) {
    // With an incumbent in hand the relaxation contradicts it (a tolerance
    // disagreement), so it proves nothing and the bound stays infinite.
    facts.infeasible = !have_incumbent;
    return finish();
  }
  if (root.status == LpStatus::kUnbounded) {
    facts.unbounded = true;
    return finish();
  }
  if (root.status == LpStatus::kCancelled) {
    // Deadline expired inside the root relaxation: it never finished, so the
    // bound stays infinite.
    return finish();
  }
  // An unfinished relaxation's objective bounds nothing: the root then
  // enters the search with an infinite bound and can never prove optimality
  // on its own.
  const bool root_finished = root.status != LpStatus::kIterationLimit;
  if (!root_finished) {
    TETRI_LOG(kWarning) << "LP iteration limit at root; no bound from it";
  }
  const double root_bound = root_finished ? root.objective : kInfinity;

  final_bound = root_bound;
  LpBasis root_basis = root_lp.BasisSnapshot();

  // A root cut off in phase 1 has no values at all.
  int root_branch_var =
      root.values.empty()
          ? -1
          : MostFractionalVar(model, root.values, kIntTol);
  if (root_branch_var < 0 && root_finished) {
    offer_incumbent(root.values);
    facts.bound = root.objective;
    return finish();
  }
  if (root_branch_var < 0) {
    if (!root.values.empty()) {
      offer_incumbent(root.values);  // integral, but not proven optimal
    }
  } else if (options.enable_diving) {
    TETRI_SPAN("solver.root_dive");
    const auto dive_start = Clock::now();
    DiveScratch scratch;
    dive(root_lp, scratch, root_lower, root_upper, root, &root_basis);
    ins.root_dive_ms->Observe(MillisSince(dive_start));
  }

  {
    auto node = std::make_shared<Node>();
    node->bound = root_bound;
    node->seq = next_seq++;
    open.push(std::move(node));
  }

  constexpr int kDiveEvery = 64;

  // Best-bound branch and bound over the shared queue. Each worker owns its
  // LpSolver (and with it the warm-start basis of the last node it solved);
  // everything else it touches is the shared state above. The solver is
  // built at the worker's first expansion: a search that the root already
  // settles never pays for it.
  auto worker = [&](int /*worker_id*/) {
    std::optional<LpSolver> lp;
    LpBasis last_basis = root_basis;
    std::vector<double> lower(n), upper(n);
    DiveScratch scratch;

    std::unique_lock<std::mutex> lock(queue_mu);
    while (true) {
      auto runnable = [&] {
        return done || !open.empty() || expanding_bounds.empty();
      };
      if (!runnable()) {
        // Queue contention: this worker is about to block on peers. The
        // wait count is always maintained; the wait-duration histogram
        // reads the clock only when observability is on.
        ins.queue_waits->Increment();
        if (ObservabilityEnabled()) {
          const auto wait_start = Clock::now();
          queue_cv.wait(lock, runnable);
          ins.queue_wait_ms->Observe(MillisSince(wait_start));
        } else {
          queue_cv.wait(lock, runnable);
        }
      }
      if (done) {
        break;
      }
      if (open.empty()) {
        if (expanding_bounds.empty()) {
          // Queue drained and nobody is expanding: search exhausted.
          done = true;
          queue_cv.notify_all();
          break;
        }
        continue;  // spurious wakeup while peers still expand
      }
      if (nodes.load(std::memory_order_relaxed) >= options.max_nodes ||
          deadline.Expired()) {
        limits_hit = true;
        done = true;
        queue_cv.notify_all();
        break;
      }
      if (options.stall_node_limit > 0 &&
          incumbent_atomic.load(std::memory_order_acquire) != -kInfinity &&
          nodes_since_improvement.load(std::memory_order_relaxed) >=
              options.stall_node_limit) {
        limits_hit = true;
        stall_hit = true;
        done = true;
        queue_cv.notify_all();
        break;
      }

      std::shared_ptr<const Node> node = open.top();
      double global_bound = node->bound;
      if (!expanding_bounds.empty()) {
        global_bound = std::max(global_bound, *expanding_bounds.rbegin());
      }
      final_bound = global_bound;
      if (gap_satisfied(global_bound)) {
        done = true;
        queue_cv.notify_all();
        break;
      }
      open.pop();
      {
        double inc = incumbent_atomic.load(std::memory_order_acquire);
        if (inc != -kInfinity && node->bound <= inc + options.abs_gap) {
          continue;  // cannot improve on the incumbent
        }
      }
      auto active_it = expanding_bounds.insert(node->bound);
      lock.unlock();

      // ---- expansion, outside the queue lock ----
      std::copy(root_lower.begin(), root_lower.end(), lower.begin());
      std::copy(root_upper.begin(), root_upper.end(), upper.begin());
      ApplyNodeBounds(*node, lower, upper);

      if (!lp.has_value()) {
        lp.emplace(model, lp_options);
      }
      LpResult relax = timed_lp(*lp, lower, upper, &last_basis);
      int node_count = nodes.fetch_add(1, std::memory_order_relaxed) + 1;
      nodes_since_improvement.fetch_add(1, std::memory_order_relaxed);
      lp_iterations.fetch_add(relax.iterations, std::memory_order_relaxed);

      bool make_children = false;
      bool hit_unbounded = false;
      bool hit_cancel = false;
      bool hit_iteration_limit = false;
      double node_bound = node->bound;
      int branch_var = -1;
      double branch_x = 0.0;

      if (relax.status == LpStatus::kInfeasible) {
        // Subtree empty; drop the node.
      } else if (relax.status == LpStatus::kCancelled) {
        // Deadline expired mid-LP: stop the whole search. The node is NOT
        // pruned as infeasible — it simply goes unexplored, so the incumbent
        // stays whatever was proven before the cut.
        hit_cancel = true;
      } else if (relax.status == LpStatus::kIterationLimit) {
        WarnNodeIterationLimit(search_tick);
        hit_iteration_limit = true;
      } else if (relax.status == LpStatus::kUnbounded) {
        hit_unbounded = true;
      } else {
        lp->BasisSnapshot(last_basis);
        node_bound = std::min(node->bound, relax.objective);
        double inc = incumbent_atomic.load(std::memory_order_acquire);
        if (inc == -kInfinity || node_bound > inc + options.abs_gap) {
          branch_var = MostFractionalVar(model, relax.values, kIntTol);
          if (branch_var < 0) {
            offer_incumbent(relax.values);
          } else if (options.enable_diving &&
                     node_count % kDiveEvery == 0) {
            dive(*lp, scratch, lower, upper, relax, &last_basis);
            if (!gap_satisfied(node_bound)) {
              make_children = true;
              branch_x = relax.values[branch_var];
            }
          } else {
            make_children = true;
            branch_x = relax.values[branch_var];
          }
        }
      }

      lock.lock();
      expanding_bounds.erase(active_it);
      if (hit_cancel) {
        limits_hit = true;
        done = true;
      }
      if (hit_unbounded) {
        found_unbounded = true;
        done = true;
      }
      if (hit_iteration_limit) {
        // The subtree goes unexplored, not proven empty: its bound stays in
        // the final bound and the search counts as limited.
        dropped_bound = std::max(dropped_bound, node->bound);
        limits_hit = true;
      }
      // Children are pushed even if another worker just signalled done: they
      // keep the final best-bound honest and simply go unprocessed.
      if (make_children) {
        auto down = std::make_shared<Node>();
        down->bound = node_bound;
        down->depth = node->depth + 1;
        down->seq = next_seq++;
        down->parent = node;
        down->delta = {branch_var, -kInfinity, std::floor(branch_x)};
        open.push(std::move(down));

        auto up = std::make_shared<Node>();
        up->bound = node_bound;
        up->depth = node->depth + 1;
        up->seq = next_seq++;
        up->parent = node;
        up->delta = {branch_var, std::ceil(branch_x), kInfinity};
        open.push(std::move(up));
      }
      queue_cv.notify_all();
    }
  };

  root_span.reset();

  {
    TETRI_SPAN("solver.branch_and_bound");
    const auto bnb_start = Clock::now();
    if (num_workers == 1) {
      // Run on the calling thread: identical node ordering, counts, and
      // results to the historical sequential implementation.
      worker(0);
    } else {
      ThreadPool pool(num_workers);
      for (int w = 0; w < num_workers; ++w) {
        pool.Submit([&worker, w] { worker(w); });
      }
      pool.Wait();
    }
    ins.branch_and_bound_ms->Observe(MillisSince(bnb_start));
  }

  // Fact assembly (final bound, incumbent hand-over) until return.
  TETRI_SPAN("solver.finalize");

  // All workers have joined; shared state is safe to read without locks.
  if (found_unbounded) {
    facts.unbounded = true;
    return finish();
  }

  double global_bound = final_bound;
  if (!open.empty()) {
    global_bound = open.top()->bound;
  } else if (have_incumbent) {
    global_bound = incumbent_obj;  // search exhausted: incumbent is optimal
  }
  global_bound = std::max(global_bound, dropped_bound);
  if (have_incumbent) {
    // Pruning is lazy: every node left open may already sit below the
    // incumbent, which is then itself the best bound.
    global_bound = std::max(global_bound, incumbent_obj);
  }

  facts.bound = global_bound;
  // An exhausted search that found nothing proves the model empty.
  facts.infeasible = !have_incumbent && !limits_hit;
  facts.stalled = stall_hit;
  return finish();
}

namespace {

// The one place a solve's status is decided: from the final facts, in the
// caller's model space, after stitching and presolve restoration.
SolveStatus ClassifySolve(const SearchFacts& facts,
                          const MilpOptions& options) {
  if (facts.infeasible) {
    return SolveStatus::kInfeasible;
  }
  if (facts.unbounded) {
    return SolveStatus::kUnbounded;
  }
  if (!facts.held) {
    return SolveStatus::kNoIncumbent;
  }
  if (facts.bound <= facts.objective + options.abs_gap) {
    return SolveStatus::kOptimal;
  }
  const double gap = facts.bound - facts.objective;
  if (gap <= options.abs_gap ||
      gap <= options.rel_gap * std::max(std::abs(facts.objective), 1e-9)) {
    return SolveStatus::kGapMet;
  }
  // Unproven: only an incumbent the search found is worth committing.
  if (!facts.found) {
    return SolveStatus::kNoIncumbent;
  }
  return facts.stalled ? SolveStatus::kStall : SolveStatus::kTimeLimit;
}

// One pass over `model`: arm the deadline, presolve once, split the reduced
// model once, search each part (or the whole), stitch, restore. Returns the
// facts in `model`'s space; records the split's breakdown in `result`.
SearchFacts SearchModel(const MilpModel& model, const MilpOptions& options,
                        std::span<const double> warm_start,
                        MilpResult& result) {
  SolverInstruments& ins = Instruments();
  // Hard deadline for this solve: the internal wall-clock limit composed
  // with any external token (earliest wins). Threaded through every LP solve
  // below — root, workers, diving, decomposed components — so expiry is
  // honored inside a pivot loop, not just at node boundaries.
  CancelToken deadline;
  deadline.ArmAfterSeconds(options.time_limit_seconds);
  if (options.cancel != nullptr &&
      options.cancel->deadline_nanos() < deadline.deadline_nanos()) {
    deadline.ArmAtNanos(options.cancel->deadline_nanos());
  }

  // Presolve. The search runs on the reduced model only when presolve
  // reduced something; otherwise on `model` itself, with no copy.
  std::optional<Presolver> presolver;
  const MilpModel* search_model = &model;
  std::vector<double> projected_warm;
  if (options.enable_presolve) {
    TETRI_SPAN("solver.presolve");
    const auto presolve_start = Clock::now();
    presolver.emplace(model);
    ins.presolve_fixed_vars->Increment(presolver->num_fixed_vars());
    ins.presolve_dropped_rows->Increment(presolver->num_dropped_rows());
    if (presolver->infeasible()) {
      ins.presolve_ms->Observe(MillisSince(presolve_start));
      SearchFacts facts;
      facts.infeasible = true;
      return facts;
    }
    if (presolver->num_fixed_vars() > 0 ||
        presolver->num_dropped_rows() > 0) {
      search_model = &presolver->reduced();
      if (static_cast<int>(warm_start.size()) == model.num_vars()) {
        projected_warm = presolver->ProjectSolution(warm_start);
      }
      warm_start = projected_warm;
    } else {
      presolver.reset();  // nothing to restore
    }
    ins.presolve_ms->Observe(MillisSince(presolve_start));
  }

  // Component decomposition (decompose.h / DESIGN.md §12) of the reduced
  // model, whose severed couplings are exactly what detection exploits.
  // Single-component models go to the one search below with nothing but an
  // O(nonzeros) detection pass spent.
  std::optional<SearchFacts> split;
  if (options.enable_decomposition) {
    TETRI_SPAN("solver.decompose");
    const auto detect_start = Clock::now();
    Decomposition decomp = DetectComponents(*search_model);
    const double detect_ms = MillisSince(detect_start);
    ins.decompose_ms->Observe(detect_ms);
    ins.components->Observe(std::max(1, decomp.num_components));
    ins.largest_component_vars->Observe(decomp.largest_component_vars());
    if (decomp.Splits()) {
      split = SearchComponents(*search_model, decomp, options, warm_start,
                               deadline, detect_ms, result);
    }
  }
  SearchFacts facts =
      split.has_value() ? std::move(*split)
                        : SearchTree(*search_model, options, warm_start,
                                     deadline);

  if (presolver.has_value()) {
    TETRI_SPAN("solver.presolve");
    if (facts.held) {
      facts.values = presolver->RestoreSolution(facts.values);
      facts.objective = model.ObjectiveValue(facts.values);
    }
    facts.bound += presolver->objective_offset();
  }
  return facts;
}

}  // namespace

MilpSolver::MilpSolver(const MilpModel& model, MilpOptions options)
    : model_(model), options_(options) {}

MilpResult MilpSolver::Solve(std::span<const double> warm_start) {
  const auto start_time = Clock::now();
  MilpResult result;
  result.threads_used = WorkerCount(options_);
  // A non-positive budget means "no solve attempt": the empty facts classify
  // as kNoIncumbent, so callers exercise their degradation path instead of
  // misreading a trivially empty plan as a decision.
  SearchFacts facts;
  if (options_.time_limit_seconds > 0.0) {
    facts = SearchModel(model_, options_, warm_start, result);
  }
  result.status = ClassifySolve(facts, options_);
  result.values = std::move(facts.values);
  result.objective = facts.objective;
  result.best_bound = facts.bound;
  result.nodes = facts.nodes;
  result.lp_iterations = facts.lp_iterations;
  result.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start_time).count();
  return result;
}

}  // namespace tetrisched

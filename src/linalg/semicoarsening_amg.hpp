#pragma once
// Semicoarsening algebraic multigrid for extruded (layered) meshes — the
// stand-in for MALI's matrix-dependent semicoarsening AMG preconditioner
// (MDSC-AMG, Tuminaro et al. 2016).
//
// Ice-sheet meshes are extremely anisotropic: 16 km horizontally versus
// tens of meters vertically, so the strong matrix couplings run along mesh
// columns.  The hierarchy therefore first coarsens *only* in the vertical
// (pairwise aggregation of adjacent levels within each column) until each
// column has collapsed to a single node, then switches to 2x2 horizontal
// aggregation of columns — exactly the structure-exploiting strategy of the
// paper's preconditioner.  Galerkin coarse operators (A_c = P^T A P with
// piecewise-constant P), symmetric Gauss–Seidel or Chebyshev smoothing, and
// a band LU coarse solve complete the V-cycle.
//
// Setup cost: each Galerkin product is split into a symbolic plan (the
// coarse pattern and the coarse slot of every fine nonzero), built once per
// fine graph and cached, and a numeric pass over the fine nonzeros in
// storage order — the summation order of a fresh product, so the cached
// plan is bit-identical to rebuilding it.  The coarsest matrix is factored
// straight from CRS by DenseLu within its own bandwidth (see dense.hpp for
// why that matches a dense LU bit for bit).
//
// The preconditioner is consumable from either side of the Jacobian split:
//  * compute(const CrsMatrix&) — the classic assembled path;
//  * compute(const LinearOperator&) — unwraps A.matrix() when one exists;
//    otherwise the fine matrix is *probed* from operator applies via the
//    structure-aware coloring of linalg::StructuredProbing (a constant
//    27 * dofs_per_node applies), and the usual Galerkin hierarchy is built
//    on the probed matrix.  With the Chebyshev smoother the fine level then
//    stays fully matrix-free: level-0 smoothing and residuals run through
//    the operator, and the probed matrix is only streamed during setup.
// See DESIGN.md §10 for the operator-probing contract.

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/chebyshev.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/dense.hpp"
#include "linalg/preconditioner.hpp"

namespace mali::linalg {

enum class AmgSmoother {
  kSgs,        ///< symmetric Gauss–Seidel (needs the level matrix)
  kChebyshev,  ///< diagonal + operator applies only (matrix-free capable)
};

struct AmgConfig {
  int max_levels = 12;
  std::size_t coarse_max_dofs = 1200;  ///< switch to the direct coarse solve
  int pre_sweeps = 1;
  int post_sweeps = 1;
  int coarse_sgs_sweeps = 40;  ///< fallback if the coarsest level stays large
  AmgSmoother smoother = AmgSmoother::kSgs;
  ChebyshevConfig cheb{};  ///< Chebyshev smoother parameters
  /// Cache the aggregation maps from the first compute() and reuse them on
  /// every later compute() (the ensemble engine's hierarchy recycling).
  /// The aggregation is a pure function of the ExtrusionInfo — never of
  /// matrix values — so a recycled hierarchy is bit-identical to a rebuilt
  /// one; only the derivation work is skipped.  The Galerkin products are
  /// always recomputed from the new matrix.
  bool reuse_structure = false;
};

/// Mesh structure the semicoarsening (and the operator probing) needs:
/// which column and vertical level each node belongs to, plus column
/// coordinates for the horizontal phase.
///
/// Layout contract: node ids follow the extruded layout
///   node = column * levels + level
/// (levels fastest within a column — exactly mesh::ExtrudedMesh::node_id),
/// dofs are grouped per node as dof = node * dofs_per_node + component, and
/// column_x/column_y place each column on a dx-spaced lattice (holes from
/// the ice mask are fine; duplicate lattice sites are not).  Both the
/// hierarchy build and StructuredProbing rely on this contract.
struct ExtrusionInfo {
  std::size_t n_nodes = 0;
  std::size_t levels = 0;            ///< vertical levels per column
  int dofs_per_node = 2;
  std::vector<double> column_x;      ///< per column
  std::vector<double> column_y;
  double dx = 1.0;                   ///< horizontal spacing
};

class SemicoarseningAmg final : public Preconditioner {
 public:
  SemicoarseningAmg(ExtrusionInfo info, AmgConfig cfg = {});

  void compute(const CrsMatrix& A) override;
  /// Operator form: unwraps A.matrix() when assembled; probes the fine
  /// matrix from operator applies otherwise (see StructuredProbing).  When
  /// the Chebyshev smoother is configured the operator is also kept for
  /// matrix-free level-0 smoothing/residuals — it must then outlive every
  /// subsequent apply() until the next compute().
  void compute(const LinearOperator& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override {
    return "semicoarsening-amg";
  }

  [[nodiscard]] std::size_t n_levels() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] std::size_t level_dofs(std::size_t l) const {
    return levels_[l].A.n_rows();
  }
  [[nodiscard]] std::size_t level_nnz(std::size_t l) const {
    return levels_[l].A.nnz();
  }
  [[nodiscard]] const CrsMatrix& level_matrix(std::size_t l) const {
    return levels_.at(l).A;
  }

  /// Operator applies the last compute() spent probing the fine matrix
  /// (0 on the assembled path).
  [[nodiscard]] std::size_t probe_applies() const noexcept {
    return probe_applies_;
  }
  /// True when level-0 smoothing/residuals go through the live operator
  /// instead of the probed matrix.
  [[nodiscard]] bool fine_matrix_free() const noexcept {
    return fine_op_ != nullptr;
  }
  /// The fine-level matrix the hierarchy was built on (assembled copy or
  /// probed reconstruction).
  [[nodiscard]] const CrsMatrix& fine_matrix() const {
    MALI_CHECK_MSG(!levels_.empty(), "AMG: compute() not called");
    return levels_.front().A;
  }

  // ---- recycling instrumentation (ensemble engine / tests / bench) ----
  /// compute() calls that derived the aggregation maps from scratch.
  [[nodiscard]] std::size_t hierarchy_builds() const noexcept {
    return hierarchy_builds_;
  }
  /// compute() calls served from the cached structure (reuse_structure).
  [[nodiscard]] std::size_t structure_reuses() const noexcept {
    return structure_reuses_;
  }
  /// Symbolic Galerkin plans built so far (one per level per fine graph).
  [[nodiscard]] std::size_t galerkin_plan_builds() const noexcept {
    return galerkin_plan_builds_;
  }
  /// Doubles the coarse band LU stores — what each V-cycle's direct coarse
  /// solve streams (0 when the coarsest level falls back to SGS).
  [[nodiscard]] std::size_t coarse_factor_entries() const noexcept {
    return use_direct_coarse_ ? coarse_lu_.stored_entries() : 0;
  }

  /// Per-level raw Chebyshev lambda estimates from the last compute()
  /// (empty when the SGS smoother is configured) — feed these back via
  /// set_chebyshev_lambda_hints to skip the power iterations on a nearby
  /// parameter point.
  [[nodiscard]] std::vector<double> chebyshev_lambda_estimates() const;
  /// Per-level raw lambda hints for the *next* compute(); entries <= 0 or
  /// beyond the hierarchy depth fall back to the power iteration.  Pass an
  /// empty vector to clear.
  void set_chebyshev_lambda_hints(std::vector<double> hints) {
    cheb_hints_ = std::move(hints);
  }

 private:
  struct Level {
    CrsMatrix A;
    std::vector<std::size_t> agg;  ///< fine dof -> coarse dof (next level)
    std::size_t n_coarse = 0;
    std::unique_ptr<Preconditioner> smoother;
    // scratch for the V-cycle
    mutable std::vector<double> r, z, rc, zc, tmp;
  };

  /// Symbolic half of one Galerkin product A_c = P^T A P: the coarse
  /// pattern and, for every fine nonzero, the coarse slot it sums into.
  struct GalerkinPlan {
    std::vector<std::size_t> coarse_row_ptr, coarse_cols;
    std::vector<std::size_t> slot;  ///< fine nonzero -> coarse nonzero

    static GalerkinPlan build(const CrsMatrix& A,
                              const std::vector<std::size_t>& agg,
                              std::size_t n_coarse);
  };

  void build_hierarchy(CrsMatrix A_fine);
  /// A_{l+1} = P^T A_l P through plans_[l], building that plan first when
  /// the cache does not reach level l.
  CrsMatrix galerkin_coarse(std::size_t l);
  /// Band-LU factorization of the coarsest level (tail of the build).
  void factor_coarse();
  void setup_smoothers();
  /// y = A_l x, through the live operator on a matrix-free fine level.
  void level_apply(std::size_t l, const std::vector<double>& x,
                   std::vector<double>& y) const;
  void vcycle(std::size_t l, const std::vector<double>& r,
              std::vector<double>& z) const;

  ExtrusionInfo info_;
  AmgConfig cfg_;
  std::vector<Level> levels_;

  /// Live operator for matrix-free level-0 work (Chebyshev + probed path
  /// only); nullptr on the assembled path.  Not owned.
  const LinearOperator* fine_op_ = nullptr;
  std::size_t probe_applies_ = 0;

  // Cached aggregation structure (reuse_structure) + recycle counters.
  // The explicit flag (not cached_agg_.empty()) is the "have a cached
  // build" sentinel: a hierarchy small enough to stay single-level has no
  // aggregation maps at all, yet still recycles.
  bool have_cached_structure_ = false;
  std::size_t cached_fine_rows_ = 0;
  std::vector<std::vector<std::size_t>> cached_agg_;
  std::vector<std::size_t> cached_n_coarse_;
  std::size_t hierarchy_builds_ = 0;
  std::size_t structure_reuses_ = 0;
  std::vector<double> cheb_hints_;

  /// Galerkin plans of the current fine graph, level by level (cleared
  /// when compute() sees a different fine graph).
  std::vector<GalerkinPlan> plans_;
  std::size_t galerkin_plan_builds_ = 0;

  // Band LU coarse solve.
  DenseLu coarse_lu_;
  bool use_direct_coarse_ = false;
};

}  // namespace mali::linalg

#pragma once
// Tracing decorators of the public interfaces the Newton solver calls.
//
// Each decorator forwards every call unchanged to the object it wraps and
// records one span around the calls that do work.  Forwarding is exact —
// same arguments, same objects, same order — so a decorated solve takes
// the bit-identical trajectory of an undecorated one (the self-tests and
// every traced run check this).
//
//   TracedProblem        nonlinear::NonlinearProblem
//                        physics.residual / physics.linearize spans; wraps
//                        the operator jacobian_operator returns
//   TracedOperator       linalg::LinearOperator (the matrix-free Jacobian)
//                        physics.jacobian_apply spans
//   TracedPreconditioner linalg::Preconditioner
//                        linalg.precond_setup / linalg.precond_apply spans

#include <memory>
#include <utility>
#include <vector>

#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"
#include "nonlinear/newton.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kSpanResidual = "physics.residual";
inline constexpr const char* kSpanLinearize = "physics.linearize";
inline constexpr const char* kSpanJacobianApply = "physics.jacobian_apply";
inline constexpr const char* kSpanPrecondSetup = "linalg.precond_setup";
inline constexpr const char* kSpanPrecondApply = "linalg.precond_apply";

class TracedOperator final : public mali::linalg::LinearOperator {
 public:
  TracedOperator(std::unique_ptr<mali::linalg::LinearOperator> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    const ScopedSpan span(tracer_, kSpanJacobianApply);
    inner_->apply(x, y);
  }
  bool diagonal(std::vector<double>& d) const override {
    return inner_->diagonal(d);
  }
  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    return inner_->block_diagonal(bs, blocks);
  }
  [[nodiscard]] const mali::linalg::CrsMatrix* matrix() const override {
    return inner_->matrix();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mali::linalg::LinearOperator> inner_;
  Tracer* tracer_;
};

class TracedProblem final : public mali::nonlinear::NonlinearProblem {
 public:
  TracedProblem(mali::nonlinear::NonlinearProblem& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] std::size_t n_dofs() const override {
    return inner_->n_dofs();
  }
  void residual(const std::vector<double>& U,
                std::vector<double>& F) override {
    const ScopedSpan span(tracer_, kSpanResidual);
    inner_->residual(U, F);
  }
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             mali::linalg::CrsMatrix& J) override {
    const ScopedSpan span(tracer_, kSpanLinearize);
    inner_->residual_and_jacobian(U, F, J);
  }
  [[nodiscard]] mali::linalg::CrsMatrix create_matrix() const override {
    return inner_->create_matrix();
  }
  [[nodiscard]] std::unique_ptr<mali::linalg::LinearOperator>
  jacobian_operator(const std::vector<double>& U) override {
    const ScopedSpan span(tracer_, kSpanLinearize);
    auto op = inner_->jacobian_operator(U);
    if (op == nullptr) return op;
    return std::make_unique<TracedOperator>(std::move(op), *tracer_);
  }
  void set_newton_step(int step) override { inner_->set_newton_step(step); }

 private:
  mali::nonlinear::NonlinearProblem* inner_;
  Tracer* tracer_;
};

/// Owns or borrows the wrapped preconditioner: the forecast's make_precond
/// factory hands over ownership, a direct solve lends its own.
class TracedPreconditioner final : public mali::linalg::Preconditioner {
 public:
  TracedPreconditioner(mali::linalg::Preconditioner& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}
  TracedPreconditioner(std::unique_ptr<mali::linalg::Preconditioner> owned,
                       Tracer& tracer)
      : owned_(std::move(owned)), inner_(owned_.get()), tracer_(&tracer) {}

  void compute(const mali::linalg::CrsMatrix& A) override {
    const ScopedSpan span(tracer_, kSpanPrecondSetup);
    inner_->compute(A);
  }
  void compute(const mali::linalg::LinearOperator& A) override {
    const ScopedSpan span(tracer_, kSpanPrecondSetup);
    inner_->compute(A);
  }
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    const ScopedSpan span(tracer_, kSpanPrecondApply);
    inner_->apply(r, z);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mali::linalg::Preconditioner> owned_;
  mali::linalg::Preconditioner* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

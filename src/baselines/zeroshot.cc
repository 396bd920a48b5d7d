#include "baselines/zeroshot.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dace::baselines {

namespace {
using nn::Linear;
using nn::Matrix;
}  // namespace

ZeroShot::ZeroShot() : ZeroShot(Config()) {}

ZeroShot::ZeroShot(const Config& config)
    : config_(config), rng_(config.train.seed) {
  const size_t in_dim =
      kNodeFeatures + static_cast<size_t>(config_.message_dim);
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].Init(in_dim,
                                      static_cast<size_t>(config_.hidden),
                                      &rng_);
    fc2_[static_cast<size_t>(t)].Init(static_cast<size_t>(config_.hidden),
                                      static_cast<size_t>(config_.message_dim),
                                      &rng_);
  }
  head1_.Init(static_cast<size_t>(config_.message_dim),
              static_cast<size_t>(config_.message_dim), &rng_);
  head2_.Init(static_cast<size_t>(config_.message_dim), 1, &rng_);
}

Matrix ZeroShot::NodeInput(const plan::PlanNode& node,
                           const Matrix& child_mean) const {
  Matrix input(1, kNodeFeatures + static_cast<size_t>(config_.message_dim));
  input(0, 0) = scalers_.card.Transform(node.est_cardinality);
  input(0, 1) = scalers_.cost.Transform(node.est_cost);
  input(0, 2) = node.annotation.table_id >= 0
                    ? table_rows_scaler_.Transform(node.annotation.table_rows)
                    : 0.0;
  input(0, 3) = plan::IsScan(node.type) ? 1.0 : 0.0;
  if (!child_mean.empty()) {
    for (size_t j = 0; j < child_mean.cols(); ++j) {
      input(0, kNodeFeatures + j) = child_mean(0, j);
    }
  }
  return input;
}

const Matrix& ZeroShot::ForwardNode(const plan::QueryPlan& plan, int32_t id,
                                    std::vector<NodeState>* states) const {
  const plan::PlanNode& node = plan.node(id);
  const size_t md = static_cast<size_t>(config_.message_dim);

  Matrix child_mean;
  if (!node.children.empty()) {
    child_mean = Matrix(1, md);
    for (int32_t child : node.children) {
      child_mean.AddScaled(ForwardNode(plan, child, states),
                           1.0 / static_cast<double>(node.children.size()));
    }
  }

  NodeState& s = (*states)[static_cast<size_t>(id)];
  s.type = static_cast<int>(node.type);
  Matrix h1;
  fc1_[static_cast<size_t>(s.type)].ForwardReluCached(
      NodeInput(node, child_mean), &s.c1, &s.z1, &h1);
  fc2_[static_cast<size_t>(s.type)].ForwardReluCached(h1, &s.c2, &s.z2,
                                                      &s.msg);
  return s.msg;
}

double ZeroShot::Forward(const plan::QueryPlan& plan,
                         ForwardState* state) const {
  state->nodes.resize(plan.size());
  const Matrix& root_msg = ForwardNode(plan, plan.root(), &state->nodes);
  Matrix hh1, out;
  head1_.ForwardReluCached(root_msg, &state->hc1, &state->hz1, &hh1);
  head2_.ForwardCached(hh1, &state->hc2, &out);
  return out(0, 0);
}

std::vector<nn::Parameter*> ZeroShot::Parameters() {
  std::vector<nn::Parameter*> params;
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    fc1_[static_cast<size_t>(t)].CollectParameters(&params);
    fc2_[static_cast<size_t>(t)].CollectParameters(&params);
  }
  head1_.CollectParameters(&params);
  head2_.CollectParameters(&params);
  return params;
}

void ZeroShot::Train(const std::vector<plan::QueryPlan>& plans) {
  DACE_CHECK(!plans.empty());
  scalers_.Fit(plans);
  {
    std::vector<double> rows;
    for (const plan::QueryPlan& plan : plans) {
      for (const plan::PlanNode& node : plan.nodes()) {
        if (node.annotation.table_id >= 0) {
          rows.push_back(node.annotation.table_rows);
        }
      }
    }
    table_rows_scaler_.Fit(std::move(rows));
  }
  const size_t md = static_cast<size_t>(config_.message_dim);

  GradientSinks sinks;
  RunAdamTraining(config_.train, plans.size(), Parameters(), [&](size_t idx) {
    const plan::QueryPlan& plan = plans[idx];
    ForwardState state;
    const double label =
        scalers_.time.Transform(plan.node(plan.root()).actual_time_ms);
    const double residual = Forward(plan, &state) - label;

    // Head backward.
    Matrix dout(1, 1), dhh1, dhz1, droot;
    dout(0, 0) = HuberGrad(residual);
    sinks.Backward(&head2_, state.hc2, dout, &dhh1);
    nn::ReluBackward(state.hz1, dhh1, &dhz1);
    sinks.Backward(&head1_, state.hc1, dhz1, &droot);

    // Top-down through the message graph: preorder guarantees parents
    // finish before their children are visited.
    std::vector<Matrix> dmsg(plan.size());
    dmsg[static_cast<size_t>(plan.root())] = droot;
    for (int32_t id : plan.DfsOrder()) {
      const NodeState& s = state.nodes[static_cast<size_t>(id)];
      Matrix& grad = dmsg[static_cast<size_t>(id)];
      if (grad.empty()) grad = Matrix(1, md);
      // Through the trailing ReLU of the message.
      Matrix dz2, dh1, dz1, dinput;
      nn::ReluBackward(s.z2, grad, &dz2);
      sinks.Backward(&fc2_[static_cast<size_t>(s.type)], s.c2, dz2, &dh1);
      nn::ReluBackward(s.z1, dh1, &dz1);
      sinks.Backward(&fc1_[static_cast<size_t>(s.type)], s.c1, dz1, &dinput);
      const auto& children = plan.node(id).children;
      if (!children.empty()) {
        const double inv = 1.0 / static_cast<double>(children.size());
        for (int32_t child : children) {
          Matrix& dchild = dmsg[static_cast<size_t>(child)];
          if (dchild.empty()) dchild = Matrix(1, md);
          for (size_t j = 0; j < md; ++j) {
            dchild(0, j) += dinput(0, kNodeFeatures + j) * inv;
          }
        }
      }
    }
    return HuberLoss(residual);
  });
}

double ZeroShot::PredictMs(const plan::QueryPlan& plan) const {
  ForwardState state;
  const double pred = Forward(plan, &state);
  return ClampPredictionMs(scalers_.time.InverseTransform(pred));
}

size_t ZeroShot::ParameterCount() const {
  size_t total = head1_.ParameterCount() + head2_.ParameterCount();
  for (int t = 0; t < plan::kNumOperatorTypes; ++t) {
    total += fc1_[static_cast<size_t>(t)].ParameterCount();
    total += fc2_[static_cast<size_t>(t)].ParameterCount();
  }
  return total;
}

}  // namespace dace::baselines

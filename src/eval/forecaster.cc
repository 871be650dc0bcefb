#include "eval/forecaster.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "metrics/metrics.h"
#include "nn/graph_conv.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace pristi::eval {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using autograd::Variable;

namespace {

// Graph-WaveNet-lite: per-node temporal mixing, two graph convolutions with
// the bidirectional transition supports + adaptive adjacency, horizon head.
class GwnLite : public nn::Module {
 public:
  GwnLite(const graph::SensorGraph& graph, const ForecastOptions& options,
          Rng& rng)
      : input_proj_(options.input_len, options.hidden, rng),
        gc1_(options.hidden, options.hidden,
             graph::BidirectionalTransitions(graph.adjacency), rng, 2, 4,
             graph.num_nodes),
        gc2_(options.hidden, options.hidden,
             graph::BidirectionalTransitions(graph.adjacency), rng, 2, 4,
             graph.num_nodes),
        head_(options.hidden, options.horizon, rng) {
    AddChild("input_proj", &input_proj_);
    AddChild("gc1", &gc1_);
    AddChild("gc2", &gc2_);
    AddChild("head", &head_);
  }

  // x: (B, N, P) -> (B, N, F).
  Variable Forward(const Tensor& x) const {
    Variable h = ag::Relu(input_proj_.Forward(ag::Constant(x)));
    Variable g1 = ag::Relu(gc1_.Forward(h));
    Variable g2 = gc2_.Forward(g1);
    // Residual connection keeps per-node information flowing.
    return head_.Forward(ag::Relu(ag::Add(h, g2)));
  }

 private:
  nn::Linear input_proj_;
  nn::GraphConv gc1_;
  nn::GraphConv gc2_;
  nn::Linear head_;
};

}  // namespace

ForecastResult TrainAndEvaluateForecaster(const Tensor& series,
                                          const graph::SensorGraph& graph,
                                          const Tensor& eval_truth,
                                          const ForecastOptions& options,
                                          Rng& rng) {
  PRISTI_CHECK_EQ(series.ndim(), 2);
  PRISTI_CHECK(t::ShapesEqual(series.shape(), eval_truth.shape()));
  int64_t t_steps = series.dim(0), n = series.dim(1);
  int64_t window = options.input_len + options.horizon;
  PRISTI_CHECK_GT(t_steps, 3 * window);

  // Per-node standardization fitted on the training portion of the series.
  int64_t train_end = static_cast<int64_t>(t_steps * options.train_frac);
  int64_t test_begin = static_cast<int64_t>(
      t_steps * (options.train_frac + options.val_frac));
  std::vector<double> mean(static_cast<size_t>(n), 0.0),
      stddev(static_cast<size_t>(n), 1.0);
  for (int64_t node = 0; node < n; ++node) {
    double sum = 0;
    for (int64_t step = 0; step < train_end; ++step) {
      sum += series.at({step, node});
    }
    double mu = sum / train_end;
    double var = 0;
    for (int64_t step = 0; step < train_end; ++step) {
      double d = series.at({step, node}) - mu;
      var += d * d;
    }
    mean[static_cast<size_t>(node)] = mu;
    stddev[static_cast<size_t>(node)] =
        std::sqrt(std::max(var / train_end, 1e-8));
  }
  auto normalized_window = [&](int64_t start, int64_t len,
                               const Tensor& source) {
    Tensor out({n, len});
    for (int64_t node = 0; node < n; ++node) {
      for (int64_t step = 0; step < len; ++step) {
        out.at({node, step}) = static_cast<float>(
            (source.at({start + step, node}) -
             mean[static_cast<size_t>(node)]) /
            stddev[static_cast<size_t>(node)]);
      }
    }
    return out;
  };

  GwnLite model(graph, options, rng);
  nn::Adam optimizer(model.Parameters(), {.lr = options.lr});

  // Training pairs from the train portion, stride = horizon.
  std::vector<int64_t> starts;
  for (int64_t start = 0; start + window <= train_end;
       start += options.horizon) {
    starts.push_back(start);
  }
  PRISTI_CHECK(!starts.empty());
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<int64_t> order =
        rng.Permutation(static_cast<int64_t>(starts.size()));
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(options.batch_size)) {
      size_t end = std::min(order.size(),
                            begin + static_cast<size_t>(options.batch_size));
      int64_t b = static_cast<int64_t>(end - begin);
      Tensor x({b, n, options.input_len});
      Tensor y({b, n, options.horizon});
      for (int64_t i = 0; i < b; ++i) {
        int64_t start = starts[static_cast<size_t>(
            order[begin + static_cast<size_t>(i)])];
        Tensor xin = normalized_window(start, options.input_len, series);
        Tensor yout = normalized_window(start + options.input_len,
                                        options.horizon, series);
        std::copy(xin.data(), xin.data() + n * options.input_len,
                  x.data() + i * n * options.input_len);
        std::copy(yout.data(), yout.data() + n * options.horizon,
                  y.data() + i * n * options.horizon);
      }
      model.ZeroGrad();
      Variable pred = model.Forward(x);
      Variable loss = ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(y))));
      loss.Backward();
      optimizer.Step();
    }
  }

  // Evaluate on the test portion against the ground truth.
  metrics::ErrorAccumulator errors;
  for (int64_t start = test_begin; start + window <= t_steps;
       start += options.horizon) {
    Tensor x = normalized_window(start, options.input_len, series);
    Tensor pred =
        model.Forward(x.Reshaped({1, n, options.input_len})).value();
    // Denormalize and compare with ground truth (raw units).
    Tensor pred_raw({n, options.horizon});
    Tensor truth_raw({n, options.horizon});
    for (int64_t node = 0; node < n; ++node) {
      for (int64_t step = 0; step < options.horizon; ++step) {
        pred_raw.at({node, step}) = static_cast<float>(
            pred.at({0, node, step}) * stddev[static_cast<size_t>(node)] +
            mean[static_cast<size_t>(node)]);
        truth_raw.at({node, step}) =
            eval_truth.at({start + options.input_len + step, node});
      }
    }
    errors.Add(pred_raw, truth_raw, Tensor::Ones({n, options.horizon}));
  }
  return {errors.Mae(), errors.Rmse()};
}

}  // namespace pristi::eval

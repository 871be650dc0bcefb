// Direct per-layer probes: every number here comes from timing a call into a
// public function of the library, at the calling workload's shapes.

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "diffusion/sharded_train.h"
#include "graph/adjacency.h"
#include "nn/optimizer.h"
#include "workloads.h"

namespace pristi::perfbench {

namespace ag = autograd;
using tensor::Tensor;

namespace {

constexpr int kRepeats = 5;
// Buffers per parameter in the all-reduce probe: one per leaf of a batch-8
// optimizer step.
constexpr int64_t kReduceLeaves = 8;

}  // namespace

void AddDirectLayerMetrics(core::PristiModel* model,
                           const data::ImputationTask& task, int64_t batch,
                           double predict_noise_ms, Report* report) {
  const core::PristiConfig& config = model->config();
  const int64_t n = config.num_nodes, l = config.window_len,
                d = config.channels;
  Rng rng(0x5eed);
  std::vector<Tensor> supports =
      graph::BidirectionalTransitions(task.dataset.graph.adjacency);

  // Standalone module forwards, inference mode, at (batch, N, L, d).
  {
    ag::NoGradGuard no_grad;
    core::ConditionalFeatureModule cond(config, supports, rng);
    core::NoiseEstimationLayer layer(config, supports, rng);
    ag::Variable h = ag::Constant(Tensor::Randn({batch, n, l, d}, rng));
    ag::Variable h_pri = ag::Constant(Tensor::Randn({batch, n, l, d}, rng));
    ag::Variable emb =
        ag::Constant(Tensor::Randn({config.diffusion_emb_dim}, rng));
    cond.Forward(h);  // first call packs the weight panels
    layer.Forward(h, h_pri, emb);
    double cond_ms = MedianMillis(kRepeats, [&] { cond.Forward(h); });
    double layer_ms =
        MedianMillis(kRepeats, [&] { layer.Forward(h, h_pri, emb); });
    report->Add("pristi.cond_module_ms", cond_ms, "ms");
    report->Add("pristi.noise_layer_ms", layer_ms, "ms");
    report->Add("pristi.cond_share",
                predict_noise_ms > 0 ? cond_ms / predict_noise_ms : 0.0,
                "ratio");
  }

  // Serial ShardStep at (1, N, L): its span minus its PredictNoise span is
  // the backward (plus loss) time of one leaf.
  std::vector<data::Sample> samples = data::ExtractSamples(task, "train");
  diffusion::NoiseSchedule schedule = BenchSchedule();
  std::vector<ag::Variable> params = model->Parameters();
  TimingPredictor timed(model);
  std::vector<double> backward_ms;
  for (int i = 0; i <= kRepeats; ++i) {
    Rng leaf_rng(static_cast<uint64_t>(i) + 1);
    diffusion::LeafStep leaf = diffusion::BuildLeafStep(
        samples, i % static_cast<int64_t>(samples.size()),
        data::MaskStrategy::kHybrid, schedule, schedule.num_steps() / 2,
        leaf_rng);
    std::vector<Tensor> capture(params.size());
    int64_t start = NowNanos();
    diffusion::ShardStep(&timed, params, leaf.noisy, leaf.batch,
                         leaf.eps_target, schedule.num_steps() / 2,
                         std::max(1.0f, leaf.mask_sum), &capture);
    double step_ms = static_cast<double>(NowNanos() - start) / 1e6;
    double forward_ms = 0;
    for (const Span& span : timed.TakeSpans()) forward_ms += span.Millis();
    if (i > 0) backward_ms.push_back(step_ms - forward_ms);  // 0 is warm-up
  }
  report->Add("autograd.backward_ms_per_leaf", Median(backward_ms), "ms");

  // Tree all-reduce of kReduceLeaves parameter-shaped buffers per parameter.
  std::vector<Tensor> merged(params.size());
  std::vector<double> reduce_ms;
  for (int i = 0; i < kRepeats; ++i) {
    std::vector<std::vector<Tensor>> columns(params.size());
    for (size_t p = 0; p < params.size(); ++p) {
      for (int64_t leaf = 0; leaf < kReduceLeaves; ++leaf) {
        columns[p].push_back(Tensor::Randn(params[p].shape(), rng));
      }
    }
    int64_t start = NowNanos();
    for (size_t p = 0; p < params.size(); ++p) {
      merged[p] = diffusion::TreeReduceGrads(std::move(columns[p]));
    }
    reduce_ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  report->Add("diffusion.tree_reduce_grads_ms", Median(reduce_ms), "ms");

  // One Adam step over the model's parameters, fed the merged gradients.
  // The first step allocates the moment buffers and is not timed.
  model->ZeroGrad();
  for (size_t p = 0; p < params.size(); ++p) {
    params[p].node()->AccumulateGrad(merged[p]);
  }
  nn::Adam adam(params);
  adam.Step();
  report->Add("nn.adam_step_ms", MedianMillis(kRepeats, [&] { adam.Step(); }),
              "ms");
  model->ZeroGrad();
}

}  // namespace pristi::perfbench

#include "diffusion/ddpm.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>

#include "autograd/ops.h"
#include "common/check.h"
#include "diffusion/sharded_train.h"
#include "nn/ema.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "serialize/checkpoint.h"

namespace pristi::diffusion {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;

StepInvariantCache* UsableStepCache(const DiffusionBatch& batch,
                                    const void* owner) {
  StepInvariantCache* cache = batch.step_cache.get();
  if (cache == nullptr || ag::GradModeEnabled()) return nullptr;
  if (cache->owner == nullptr) cache->owner = owner;
  return cache->owner == owner ? cache : nullptr;
}

Tensor QSample(const Tensor& x0, const Tensor& eps,
               const NoiseSchedule& schedule, int64_t t) {
  PRISTI_CHECK(t::ShapesEqual(x0.shape(), eps.shape()));
  float ab = schedule.alpha_bar(t);
  Tensor out = t::MulScalar(x0, std::sqrt(ab));
  out.AddInPlace(t::MulScalar(eps, std::sqrt(1.0f - ab)));
  return out;
}

namespace {

// values * mask, except that a masked-out entry is a zero carrying the
// value's sign even when the value is NaN or Inf (where the product would
// be NaN). Bitwise t::Mul for finite values, so no output bit moves.
Tensor MaskValues(const Tensor& values, const Tensor& mask) {
  PRISTI_CHECK(t::ShapesEqual(values.shape(), mask.shape()));
  Tensor out(values.shape());
  const float* pv = values.data();
  const float* pm = mask.data();
  float* po = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = pm[i] != 0.0f ? pv[i] * pm[i] : std::copysign(0.0f, pv[i]);
  }
  return out;
}

}  // namespace

DiffusionBatch MakeSingleWindowBatch(const Tensor& values,
                                     const Tensor& cond_mask,
                                     const Tensor& target_mask) {
  PRISTI_CHECK_EQ(values.ndim(), 2);
  int64_t n = values.dim(0), l = values.dim(1);
  DiffusionBatch batch;
  batch.cond_mask = cond_mask.Reshaped({1, n, l});
  batch.cond_values = MaskValues(values, cond_mask).Reshaped({1, n, l});
  batch.interpolated =
      data::LinearInterpolate(values, cond_mask).Reshaped({1, n, l});
  batch.target_mask = target_mask.Reshaped({1, n, l});
  return batch;
}

namespace {

// The noise-schedule betas as stored in (and checked against) a training
// checkpoint: resuming under a different schedule would silently train a
// different model, so the exact float values are compared.
std::vector<double> ScheduleBetas(const NoiseSchedule& schedule) {
  std::vector<double> betas;
  betas.reserve(static_cast<size_t>(schedule.num_steps()));
  for (int64_t t = 1; t <= schedule.num_steps(); ++t) {
    betas.push_back(static_cast<double>(schedule.beta(t)));
  }
  return betas;
}

// Writes one "pristi-training" checkpoint file atomically. `epochs_done` is
// the number of completed epochs (== the index of the next epoch to run).
// The shard count is deliberately not stored: any K produces the same bits,
// so a resume may pick a different one.
Status SaveTrainingCheckpoint(
    const std::string& path, nn::Module& module, const nn::Adam& optimizer,
    const nn::EmaWeights* ema, const Rng& rng, const NoiseSchedule& schedule,
    int64_t epochs_done, const std::vector<double>& epoch_losses) {
  return serialize::WriteFileAtomic(path, [&](std::ostream& out) {
    serialize::CheckpointWriter writer(out);
    writer.AddString("meta.kind", "pristi-training");
    serialize::AppendModule(module, &writer);
    serialize::AppendAdam(optimizer, &writer);
    if (ema != nullptr) serialize::AppendEma(*ema, &writer);
    serialize::AppendRng(rng, &writer);
    writer.AddF64List("schedule.beta", ScheduleBetas(schedule));
    writer.AddI64("train.epoch", epochs_done);
    writer.AddF64List("train.losses", epoch_losses);
    if (!writer.Finish()) {
      return Status::Error(ErrorCode::kIoError, "checkpoint write failed");
    }
    return Status::Ok();
  });
}

// Restores model/optimizer/EMA/RNG state and returns the number of completed
// epochs via `epochs_done`. Every failure is a typed serialize error.
Status LoadTrainingCheckpoint(
    const std::string& path, nn::Module& module, nn::Adam* optimizer,
    nn::EmaWeights* ema, Rng* rng, const NoiseSchedule& schedule,
    int64_t* epochs_done,
    std::vector<double>* epoch_losses) {
  serialize::CheckpointView view;
  Status status = serialize::ParseCheckpointFile(path, &view);
  if (!status.ok()) return status;
  std::string kind;
  if (!(status = view.GetString("meta.kind", &kind)).ok()) return status;
  if (kind != "pristi-training") {
    return Status::Error(
        ErrorCode::kConfigMismatch,
        "'" + path + "' is a '" + kind +
            "' checkpoint, not a training checkpoint");
  }
  std::vector<double> stored_betas;
  if (!(status = view.GetF64List("schedule.beta", &stored_betas)).ok()) {
    return status;
  }
  if (stored_betas != ScheduleBetas(schedule)) {
    return Status::Error(
        ErrorCode::kConfigMismatch,
        "checkpoint noise schedule differs from the live schedule");
  }
  if (!(status = serialize::LoadModule(module, view)).ok()) return status;
  if (!(status = serialize::LoadAdam(optimizer, view)).ok()) return status;
  if (ema != nullptr) {
    if (!(status = serialize::LoadEma(ema, view)).ok()) return status;
  } else if (view.Find("ema.__count") != nullptr) {
    return Status::Error(
        ErrorCode::kConfigMismatch,
        "checkpoint carries EMA shadows but the run has ema_decay = 0");
  }
  if (!(status = serialize::LoadRng(rng, view)).ok()) return status;
  if (!(status = view.GetI64("train.epoch", epochs_done)).ok()) return status;
  if (!(status = view.GetF64List("train.losses", epoch_losses)).ok()) {
    return status;
  }
  if (*epochs_done < 0 ||
      *epochs_done != static_cast<int64_t>(epoch_losses->size())) {
    return Status::Error(
        ErrorCode::kBadRecord,
        "train.epoch disagrees with the stored loss history");
  }
  return Status::Ok();
}

}  // namespace

std::vector<double> TrainDiffusionModel(ConditionalNoisePredictor* model,
                                        const NoiseSchedule& schedule,
                                        const data::ImputationTask& task,
                                        const TrainOptions& options,
                                        Rng& rng) {
  PRISTI_CHECK(model != nullptr);
  ModelAccessGuard access_guard(model, "TrainDiffusionModel");
  std::vector<data::Sample> samples = data::ExtractSamples(task, "train");
  PRISTI_CHECK(!samples.empty()) << "no training windows";

  nn::Adam optimizer(model->Parameters(), {.lr = options.lr});
  std::vector<int64_t> milestones;
  for (double frac : options.lr_milestone_fracs) {
    milestones.push_back(static_cast<int64_t>(frac * options.epochs));
  }
  nn::MultiStepLr scheduler(&optimizer, milestones, options.lr_decay);

  std::optional<nn::EmaWeights> ema;
  if (options.ema_decay > 0.0f) {
    ema.emplace(model->Parameters(), options.ema_decay);
  }

  bool wants_checkpointing =
      !options.checkpoint_dir.empty() || !options.resume_from.empty();
  nn::Module* module = dynamic_cast<nn::Module*>(model);
  PRISTI_CHECK(!wants_checkpointing || module != nullptr)
      << "checkpointing requires the noise predictor to be an nn::Module";

  int64_t start_epoch = 0;
  std::vector<double> epoch_losses;
  if (!options.resume_from.empty()) {
    Status status = LoadTrainingCheckpoint(
        options.resume_from, *module, &optimizer,
        ema ? &*ema : nullptr, &rng, schedule, &start_epoch, &epoch_losses);
    PRISTI_CHECK(status.ok())
        << "cannot resume from '" << options.resume_from
        << "': " << status.ToString();
    PRISTI_CHECK_LE(start_epoch, options.epochs)
        << "checkpoint already trained past the requested epoch count";
  }
  if (!options.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    PRISTI_CHECK(!ec) << "cannot create checkpoint dir '"
                      << options.checkpoint_dir << "'";
  }

  for (int64_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    double mean_loss = RunShardedEpoch(model, schedule, samples, options,
                                       &optimizer, ema ? &*ema : nullptr, rng);
    epoch_losses.push_back(mean_loss);
    scheduler.Step(epoch + 1);
    if (options.on_epoch) options.on_epoch(epoch, mean_loss);

    int64_t done = epoch + 1;
    bool last_epoch = done == options.epochs;
    if (!options.checkpoint_dir.empty() &&
        (last_epoch || (options.checkpoint_every > 0 &&
                        done % options.checkpoint_every == 0))) {
      std::string path = serialize::CheckpointFileName(
          options.checkpoint_dir, options.checkpoint_prefix, done);
      Status status = SaveTrainingCheckpoint(
          path, *module, optimizer, ema ? &*ema : nullptr, rng, schedule,
          done, epoch_losses);
      PRISTI_CHECK(status.ok())
          << "cannot write checkpoint '" << path << "': " << status.ToString();
      status = serialize::PruneCheckpoints(options.checkpoint_dir,
                                           options.checkpoint_prefix,
                                           options.checkpoint_keep_last);
      PRISTI_CHECK(status.ok()) << status.ToString();
    }
  }
  return epoch_losses;
}

float ImputationResult::Quantile(int64_t node, int64_t step, double q) const {
  PRISTI_CHECK(!samples.empty());
  std::vector<float> values;
  values.reserve(samples.size());
  for (const Tensor& s : samples) values.push_back(s.at({node, step}));
  std::sort(values.begin(), values.end());
  double pos = q * (static_cast<double>(values.size()) - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<float>(values[lo] * (1.0 - frac) + values[hi] * frac);
}

std::vector<Rng> MakeChainStreams(Rng& rng, int64_t count) {
  PRISTI_CHECK_GE(count, 0);
  uint64_t root = rng.engine()();
  std::vector<Rng> chains;
  chains.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    // SplitMix64 finalizer over (root, counter): adjacent counters map to
    // statistically unrelated seeds.
    uint64_t z = root + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(i + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    chains.emplace_back(z);
  }
  return chains;
}

namespace {

// Runs the full reverse chain for `num_chains` samples stacked into one
// (num_chains, N, L) state tensor: one model call per kept step covers
// every chain (the PLMS warm-up makes a few calls per step).
// `target_masks` is stacked per chain ((num_chains, N, L)), which is what
// lets chains from DIFFERENT requests — different windows, different masks
// — share one model call on the coalesced path. The sequential fallback
// calls this with num_chains == 1 per chain; all paths execute identical
// per-entry arithmetic (and a FRESH stepper per call, so PLMS history is
// per-chain-set), so they agree when fed the same chain streams.
// Every call also attaches a FRESH step-invariant cache to the batch the
// model sees: the model computes its conditioning once on the first call
// and reuses it for the rest of the run. The callers hold the
// ModelAccessGuard and NoGradGuard, so the weights and the conditioning
// cannot change while the cache is alive.
Tensor RunReverseChains(ConditionalNoisePredictor* model,
                        const DiffusionBatch& conditioning,
                        const std::vector<ReverseStep>& plan,
                        SamplerKind sampler, Rng* chain_rngs,
                        int64_t num_chains, const Tensor& target_masks) {
  PRISTI_CHECK_EQ(target_masks.dim(0), num_chains);
  DiffusionBatch batch = conditioning;
  batch.step_cache = std::make_shared<StepInvariantCache>();
  int64_t n = target_masks.dim(1), l = target_masks.dim(2);
  int64_t per = n * l;
  Tensor x(t::Shape{num_chains, n, l});
  FillChainNoise(&x, chain_rngs, num_chains, target_masks);
  std::unique_ptr<SamplerStepper> stepper =
      MakeSamplerStepper(sampler, plan.size());
  for (size_t si = 0; si < plan.size(); ++si) {
    stepper->Step(model, batch, plan, si, &x, chain_rngs, num_chains,
                  target_masks);
    if (NanCheckEnabled()) {
      int64_t bad = FirstNonFinite(x.data(), x.numel());
      PRISTI_CHECK(bad < 0)
          << "PRISTI_DEBUG_NANCHECK: reverse diffusion step t="
          << plan[si].step << " (" << SamplerKindName(sampler)
          << ") produced non-finite value at flat index " << bad
          << " (chain " << bad / per << "), state shape "
          << t::ShapeToString(x.shape());
    }
  }
  return x;
}

// Repeats a (1, N, L) conditioning tensor across a leading batch of `s`
// chains.
Tensor TileChains(const Tensor& one, int64_t s) {
  PRISTI_CHECK_EQ(one.dim(0), 1);
  int64_t per = one.numel();
  Tensor out(t::Shape{s, one.dim(1), one.dim(2)});
  for (int64_t c = 0; c < s; ++c) {
    std::copy(one.data(), one.data() + per, out.data() + c * per);
  }
  return out;
}

// The inference-time target mask: everything not observed is imputed; the
// conditional information is every observed value (Algorithm 2).
Tensor InferenceTargetMask(const data::Sample& sample) {
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  Tensor target_mask(t::Shape{n, l});
  for (int64_t i = 0; i < target_mask.numel(); ++i) {
    target_mask[i] = sample.observed[i] > 0.5f ? 0.0f : 1.0f;
  }
  return target_mask;
}

// Appends one completed chain to `result`: generated values on the target
// entries, observations elsewhere. Shared by the solo and coalesced paths
// so their merge arithmetic cannot drift (the coalesced bit-identity
// contract compares their outputs bitwise).
void AppendMergedChain(const float* chain, const Tensor& observed_values,
                       const Tensor& target_mask, ImputationResult* result) {
  Tensor merged = observed_values;
  float* pm = merged.data();
  const float* pt = target_mask.data();
  for (int64_t i = 0; i < merged.numel(); ++i) pm[i] += chain[i] * pt[i];
  result->samples.push_back(std::move(merged));
}

// Fills result->median (the per-entry median across samples).
void FinalizeMedian(ImputationResult* result, int64_t n, int64_t l) {
  result->median = Tensor(t::Shape{n, l});
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      result->median.at({node, step}) = result->Quantile(node, step, 0.5);
    }
  }
}

}  // namespace

ImputationResult ImputeWindow(ConditionalNoisePredictor* model,
                              const NoiseSchedule& schedule,
                              const data::Sample& sample,
                              const ImputeOptions& options, Rng& rng) {
  PRISTI_CHECK(model != nullptr);
  PRISTI_CHECK_GT(options.num_samples, 0);
  ModelAccessGuard access_guard(model, "ImputeWindow");
  // Sampling never backprops: run every PredictNoise under inference mode
  // so no tape is recorded and each step's activations return to the
  // buffer pool before the next step allocates them again.
  ag::NoGradGuard no_grad;
  int64_t s = options.num_samples;
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  Tensor target_mask = InferenceTargetMask(sample);
  DiffusionBatch batch =
      MakeSingleWindowBatch(sample.values, sample.observed, target_mask);

  std::vector<Rng> chains = MakeChainStreams(rng, s);
  std::vector<ReverseStep> plan =
      PlanReverseSteps(schedule, options.num_inference_steps);

  ImputationResult result;
  result.samples.reserve(static_cast<size_t>(s));
  Tensor observed_values = MaskValues(sample.values, sample.observed);

  if (options.sequential_fallback) {
    // Oracle path: one chain per model call, batch size 1.
    for (int64_t c = 0; c < s; ++c) {
      Tensor xc = RunReverseChains(model, batch, plan, options.sampler,
                                   &chains[static_cast<size_t>(c)], 1,
                                   batch.target_mask);
      AppendMergedChain(xc.data(), observed_values, target_mask, &result);
    }
  } else {
    // Batched path: all chains advance together; each reverse step is a
    // single (S, N, L) model call.
    DiffusionBatch tiled;
    tiled.cond_values = TileChains(batch.cond_values, s);
    tiled.cond_mask = TileChains(batch.cond_mask, s);
    tiled.interpolated = TileChains(batch.interpolated, s);
    tiled.target_mask = TileChains(batch.target_mask, s);
    Tensor x = RunReverseChains(model, tiled, plan, options.sampler,
                                chains.data(), s, tiled.target_mask);
    for (int64_t c = 0; c < s; ++c) {
      AppendMergedChain(x.data() + c * n * l, observed_values, target_mask,
                        &result);
    }
  }

  FinalizeMedian(&result, n, l);
  return result;
}

std::vector<ImputationResult> ImputeWindowsCoalesced(
    ConditionalNoisePredictor* model, const NoiseSchedule& schedule,
    const std::vector<data::Sample>& windows,
    const std::vector<uint64_t>& seeds, const ImputeOptions& options) {
  PRISTI_CHECK(model != nullptr);
  PRISTI_CHECK_EQ(windows.size(), seeds.size());
  PRISTI_CHECK_GT(options.num_samples, 0);
  int64_t num_requests = static_cast<int64_t>(windows.size());
  if (num_requests == 0) return {};
  ModelAccessGuard access_guard(model, "ImputeWindowsCoalesced");
  ag::NoGradGuard no_grad;
  int64_t s = options.num_samples;
  int64_t n = windows[0].values.dim(0), l = windows[0].values.dim(1);
  int64_t per = n * l;

  // Per-request conditioning, target masks and chain streams. Request r's
  // chains are derived from a fresh Rng(seeds[r]) — NOT from one shared
  // stream — so the draws a request consumes depend only on its own seed,
  // never on which other requests happen to share the batch or in which
  // order they arrived.
  DiffusionBatch stacked;
  stacked.cond_values = Tensor(t::Shape{num_requests * s, n, l});
  stacked.cond_mask = Tensor(t::Shape{num_requests * s, n, l});
  stacked.interpolated = Tensor(t::Shape{num_requests * s, n, l});
  stacked.target_mask = Tensor(t::Shape{num_requests * s, n, l});
  std::vector<Tensor> target_masks;   // per request, (N, L)
  std::vector<Tensor> observed_vals;  // per request, (N, L)
  std::vector<Rng> chains;
  target_masks.reserve(static_cast<size_t>(num_requests));
  observed_vals.reserve(static_cast<size_t>(num_requests));
  chains.reserve(static_cast<size_t>(num_requests * s));
  for (int64_t r = 0; r < num_requests; ++r) {
    const data::Sample& sample = windows[static_cast<size_t>(r)];
    PRISTI_CHECK_EQ(sample.values.dim(0), n);
    PRISTI_CHECK_EQ(sample.values.dim(1), l);
    target_masks.push_back(InferenceTargetMask(sample));
    observed_vals.push_back(MaskValues(sample.values, sample.observed));
    DiffusionBatch batch = MakeSingleWindowBatch(sample.values,
                                                 sample.observed,
                                                 target_masks.back());
    for (int64_t c = 0; c < s; ++c) {
      int64_t chain_index = r * s + c;
      auto copy_into = [&](const Tensor& one, Tensor* dest) {
        std::copy(one.data(), one.data() + per,
                  dest->data() + chain_index * per);
      };
      copy_into(batch.cond_values, &stacked.cond_values);
      copy_into(batch.cond_mask, &stacked.cond_mask);
      copy_into(batch.interpolated, &stacked.interpolated);
      copy_into(batch.target_mask, &stacked.target_mask);
    }
    Rng request_rng(seeds[static_cast<size_t>(r)]);
    std::vector<Rng> request_chains = MakeChainStreams(request_rng, s);
    for (Rng& chain : request_chains) chains.push_back(chain);
  }

  std::vector<ReverseStep> plan =
      PlanReverseSteps(schedule, options.num_inference_steps);
  Tensor x = RunReverseChains(model, stacked, plan, options.sampler,
                              chains.data(), num_requests * s,
                              stacked.target_mask);

  std::vector<ImputationResult> results(static_cast<size_t>(num_requests));
  for (int64_t r = 0; r < num_requests; ++r) {
    ImputationResult& result = results[static_cast<size_t>(r)];
    result.samples.reserve(static_cast<size_t>(s));
    for (int64_t c = 0; c < s; ++c) {
      AppendMergedChain(x.data() + (r * s + c) * per,
                        observed_vals[static_cast<size_t>(r)],
                        target_masks[static_cast<size_t>(r)], &result);
    }
    FinalizeMedian(&result, n, l);
  }
  return results;
}

std::vector<ImputationResult> ImputeWindowsCoalesced(
    ConditionalNoisePredictor* model, const NoiseSchedule& schedule,
    const std::vector<data::Sample>& windows,
    const std::vector<uint64_t>& seeds,
    const std::vector<ImputeOptions>& options) {
  PRISTI_CHECK_EQ(windows.size(), options.size());
  PRISTI_CHECK_EQ(windows.size(), seeds.size());
  if (windows.empty()) return {};
  // Partition into coalescible groups. A reverse-step model call carries a
  // single diffusion step t for the whole batch, so only requests with the
  // same sampler, kept-step plan and chain count can share a chain run.
  // std::map gives a deterministic group order independent of arrival
  // order (each group's outputs are bit-identical to solo runs anyway, but
  // deterministic model-call order keeps traces reproducible too).
  using GroupKey = std::tuple<int, int64_t, int64_t>;
  std::map<GroupKey, std::vector<size_t>> groups;
  for (size_t r = 0; r < windows.size(); ++r) {
    const ImputeOptions& o = options[r];
    groups[GroupKey{static_cast<int>(o.sampler), o.num_inference_steps,
                    o.num_samples}]
        .push_back(r);
  }
  std::vector<ImputationResult> results(windows.size());
  for (auto& [key, members] : groups) {
    std::vector<data::Sample> group_windows;
    std::vector<uint64_t> group_seeds;
    group_windows.reserve(members.size());
    group_seeds.reserve(members.size());
    for (size_t r : members) {
      group_windows.push_back(windows[r]);
      group_seeds.push_back(seeds[r]);
    }
    ImputeOptions group_options = options[members.front()];
    group_options.sequential_fallback = false;
    std::vector<ImputationResult> group_results = ImputeWindowsCoalesced(
        model, schedule, group_windows, group_seeds, group_options);
    for (size_t i = 0; i < members.size(); ++i) {
      results[members[i]] = std::move(group_results[i]);
    }
  }
  return results;
}

#if PRISTI_DCHECK_IS_ON

namespace {

std::mutex& ModelAccessMutex() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<const void*, const char*>& ModelAccessSites() {
  static std::unordered_map<const void*, const char*> sites;
  return sites;
}

}  // namespace

ModelAccessGuard::ModelAccessGuard(const void* model, const char* site)
    : model_(model) {
  std::lock_guard<std::mutex> guard(ModelAccessMutex());
  auto [it, inserted] = ModelAccessSites().emplace(model, site);
  PRISTI_CHECK(inserted)
      << "concurrent use of one ConditionalNoisePredictor: " << site
      << " entered while " << it->second
      << " is still running on the same model. A model is single-caller; "
         "route concurrent imputation requests through serve::ServeSession, "
         "which serializes model access and coalesces requests into one "
         "batched call.";
}

ModelAccessGuard::~ModelAccessGuard() {
  std::lock_guard<std::mutex> guard(ModelAccessMutex());
  ModelAccessSites().erase(model_);
}

#else  // PRISTI_DCHECK_IS_ON

ModelAccessGuard::ModelAccessGuard(const void* model, const char* /*site*/)
    : model_(model) {}
ModelAccessGuard::~ModelAccessGuard() = default;

#endif  // PRISTI_DCHECK_IS_ON

}  // namespace pristi::diffusion

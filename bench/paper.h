#ifndef PRISTI_BENCH_PAPER_H_
#define PRISTI_BENCH_PAPER_H_

// The paper-evaluation driver (pristi_paper): one function per table and
// figure, all drawing on one in-process fit cache.
//
// Every experiment runs on the five paper settings below. A setting's task
// is MakeTask(preset, pattern, scale, seed); its roster is Table III's
// MakeAllMethods(task, scale, Rng(seed + 1000)). A roster method is fitted
// at most once, the first time an experiment asks for it, with
// Rng(seed + 2000). The Rng state after the fit is kept with the model and
// every experiment evaluates from a copy of it, so no experiment's output
// depends on which others ran before it. A model whose task or config
// differs from the roster's (an ablation variant, a swept hyperparameter, a
// blacked-out or MNAR task) is fitted fresh with the same seeds and not
// cached.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

namespace pristi::bench {

struct Setting {
  Preset preset;
  MissingPattern pattern;
  uint64_t seed;  // the task seed; the roster and fit seeds derive from it
};

inline constexpr Setting kAqiFailure{Preset::kAqi36,
                                     MissingPattern::kSimulatedFailure, 101};
inline constexpr Setting kMetrBlock{Preset::kMetrLa, MissingPattern::kBlock,
                                    102};
inline constexpr Setting kMetrPoint{Preset::kMetrLa, MissingPattern::kPoint,
                                    103};
inline constexpr Setting kPemsBlock{Preset::kPemsBay, MissingPattern::kBlock,
                                    104};
inline constexpr Setting kPemsPoint{Preset::kPemsBay, MissingPattern::kPoint,
                                    105};
inline constexpr Setting kSettings[] = {kAqiFailure, kMetrBlock, kMetrPoint,
                                        kPemsBlock, kPemsPoint};

// Seeds of the model built for a setting and of its fit.
inline uint64_t BuildSeed(const Setting& setting) {
  return setting.seed + 1000;
}
inline uint64_t FitSeed(const Setting& setting) { return setting.seed + 2000; }

// A fitted roster model. `rng` is a copy of the state its fit left behind:
// evaluating from it leaves the cached state unchanged.
struct Fitted {
  Imputer* model;
  Rng rng;
  double fit_seconds;
};

class Paper {
 public:
  explicit Paper(const Scale& scale) : scale_(scale) {}

  const Scale& scale() const { return scale_; }
  const char* scale_name() const { return scale_.full ? "full" : "quick"; }

  // The setting's task, built on first use.
  const data::ImputationTask& Task(const Setting& setting);
  // The names of the setting's roster, in Table III's row order.
  std::vector<std::string> MethodNames(const Setting& setting);
  // Roster method `method` of the setting, fitted on first use.
  Fitted Fit(const Setting& setting, const std::string& method);
  // Fits a model outside the cache with Rng(FitSeed(setting)) and returns
  // the Rng state after the fit.
  Rng FitFresh(Imputer* model, const data::ImputationTask& task,
               const Setting& setting);

  int64_t fits() const { return fits_; }
  int64_t diffusion_fits() const { return diffusion_fits_; }

 private:
  struct Entry {
    data::ImputationTask task;
    std::vector<std::unique_ptr<Imputer>> roster;
    std::map<std::string, Fitted> fitted;
  };
  Entry& EntryFor(const Setting& setting);
  void CountFit(const Imputer* model);

  Scale scale_;
  std::map<uint64_t, Entry> entries_;  // keyed by task seed
  int64_t fits_ = 0;
  int64_t diffusion_fits_ = 0;
};

// The experiments, in paper order (definitions in tables.cc and
// figures.cc). Each prints its progress and returns its table.
TablePrinter Table3(Paper& paper);
TablePrinter Table4(Paper& paper);
TablePrinter Table5(Paper& paper);
TablePrinter Table6(Paper& paper);
TablePrinter Fig5(Paper& paper);
TablePrinter Fig6(Paper& paper);
TablePrinter Fig7(Paper& paper);
TablePrinter Fig8(Paper& paper);
TablePrinter Fig9(Paper& paper);
TablePrinter ExtSampler(Paper& paper);
TablePrinter ExtMnar(Paper& paper);

}  // namespace pristi::bench

#endif  // PRISTI_BENCH_PAPER_H_

// pristi_paper — reproduces the paper's Tables III–VI, Figs. 5–9 and two
// extension studies from one set of fitted models per setting (paper.h).
//
//   pristi_paper [--scale=quick|full] [--out=DIR] [--only=table3,fig5,...]
//
// --scale picks the scale (bench_common.h; default quick), --out the
// directory the CSVs go to (default results/), and --only a comma-separated
// subset of the experiments, which always run in paper order (default:
// all). Each experiment prints its table and writes <DIR>/<csv>.csv; the
// run ends with the number of imputer fits it made.
//
// An unknown flag, scale or experiment, or an --out that cannot be written,
// is reported on stderr and exits 1 before anything is trained; a CSV that
// fails to write later also makes the run exit 1.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "paper.h"
#include "serialize/checkpoint.h"

namespace pristi::bench {

Paper::Entry& Paper::EntryFor(const Setting& setting) {
  auto it = entries_.find(setting.seed);
  if (it != entries_.end()) return it->second;
  Entry& entry = entries_[setting.seed];
  entry.task = MakeTask(setting.preset, setting.pattern, scale_,
                        setting.seed);
  Rng build_rng(BuildSeed(setting));
  entry.roster = MakeAllMethods(entry.task, scale_, build_rng);
  return entry;
}

const data::ImputationTask& Paper::Task(const Setting& setting) {
  return EntryFor(setting).task;
}

std::vector<std::string> Paper::MethodNames(const Setting& setting) {
  std::vector<std::string> names;
  for (const auto& method : EntryFor(setting).roster) {
    names.push_back(method->name());
  }
  return names;
}

Fitted Paper::Fit(const Setting& setting, const std::string& method) {
  Entry& entry = EntryFor(setting);
  auto it = entry.fitted.find(method);
  if (it != entry.fitted.end()) return it->second;
  auto model = std::find_if(
      entry.roster.begin(), entry.roster.end(),
      [&](const auto& candidate) { return candidate->name() == method; });
  PRISTI_CHECK(model != entry.roster.end())
      << "no method " << method << " in the roster";
  Stopwatch watch;
  Rng rng = FitFresh(model->get(), entry.task, setting);
  return entry.fitted
      .emplace(method, Fitted{model->get(), rng, watch.ElapsedSeconds()})
      .first->second;
}

Rng Paper::FitFresh(Imputer* model, const data::ImputationTask& task,
                    const Setting& setting) {
  Rng rng(FitSeed(setting));
  model->Fit(task, rng);
  ++fits_;
  if (dynamic_cast<const eval::DiffusionImputerAdapter*>(model) != nullptr) {
    ++diffusion_fits_;
  }
  return rng;
}

namespace {

struct Experiment {
  const char* name;  // its --only name
  const char* csv;   // its CSV file stem
  TablePrinter (*run)(Paper&);
};

constexpr Experiment kExperiments[] = {
    {"table3", "table3_overall_mae_mse", Table3},
    {"table4", "table4_crps", Table4},
    {"table5", "table5_downstream", Table5},
    {"table6", "table6_ablation", Table6},
    {"fig5", "fig5_missing_rate", Fig5},
    {"fig6", "fig6_case_study", Fig6},
    {"fig7", "fig7_sensor_failure", Fig7},
    {"fig8", "fig8_hyperparams", Fig8},
    {"fig9", "fig9_time_costs", Fig9},
    {"ext_sampler", "ext_sampler_ablation", ExtSampler},
    {"ext_mnar", "ext_mnar_robustness", ExtMnar},
};

int Fail(const Status& status) {
  std::fprintf(stderr, "pristi_paper: %s\n", status.ToString().c_str());
  return 1;
}

Status InvalidFlag(const std::string& message) {
  return Status::Error(ErrorCode::kInvalidRequest, message);
}

// Marks the experiments named in the comma-separated `only` (all when it
// is empty).
Status SelectExperiments(const std::string& only, std::vector<bool>* run) {
  constexpr size_t kCount = std::size(kExperiments);
  run->assign(kCount, only.empty());
  std::istringstream names(only);
  std::string name;
  while (std::getline(names, name, ',')) {
    size_t i = 0;
    while (i < kCount && name != kExperiments[i].name) ++i;
    if (i == kCount) {
      std::string known;
      for (const Experiment& experiment : kExperiments) {
        if (!known.empty()) known += '|';
        known += experiment.name;
      }
      return InvalidFlag("unknown --only experiment '" + name + "' (" +
                         known + ")");
    }
    (*run)[i] = true;
  }
  return Status::Ok();
}

std::string CsvPath(const std::string& dir, const Experiment& experiment) {
  return (std::filesystem::path(dir) / (std::string(experiment.csv) + ".csv"))
      .string();
}

int Main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  Scale scale;
  Status status = ScaleNamed(flags.GetString("scale", "quick"), &scale);
  if (!status.ok()) return Fail(status);
  std::vector<bool> selected;
  status = SelectExperiments(flags.GetString("only"), &selected);
  if (!status.ok()) return Fail(status);
  const std::string out = flags.GetString("out", "results");
  std::vector<std::string> unknown = flags.UnqueriedKeys();
  if (!unknown.empty()) {
    return Fail(InvalidFlag("unknown flag --" + unknown[0] +
                            " (--scale, --out, --only)"));
  }
  if (!flags.positional().empty()) {
    return Fail(InvalidFlag("unexpected argument '" + flags.positional()[0] +
                            "'"));
  }
  // Fail now, not after hours of fitting, if a CSV cannot be written.
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  for (size_t i = 0; i < selected.size(); ++i) {
    if (!selected[i]) continue;
    std::string path = CsvPath(out, kExperiments[i]);
    status = serialize::ProbeFileAtomic(path);
    if (!status.ok()) {
      return Fail(Status::Error(status.code(), "cannot write --out " + path +
                                                   ": " + status.message()));
    }
  }

  Paper paper(scale);
  Stopwatch suite;
  int exit_code = 0;
  for (size_t i = 0; i < selected.size(); ++i) {
    if (!selected[i]) continue;
    const Experiment& experiment = kExperiments[i];
    Stopwatch watch;
    TablePrinter table = experiment.run(paper);
    std::printf("%s\n", table.ToText().c_str());
    std::string path = CsvPath(out, experiment);
    if (table.WriteCsv(path)) {
      std::printf("[csv written to %s; %s took %.1fs]\n\n", path.c_str(),
                  experiment.name, watch.ElapsedSeconds());
    } else {
      exit_code = Fail(Status::Error(ErrorCode::kIoError,
                                     "cannot write --out " + path));
    }
    std::fflush(stdout);
  }
  std::printf("pristi_paper: %lld imputer fits (%lld diffusion) in %.1fs\n",
              static_cast<long long>(paper.fits()),
              static_cast<long long>(paper.diffusion_fits()),
              suite.ElapsedSeconds());
  return exit_code;
}

}  // namespace
}  // namespace pristi::bench

int main(int argc, char** argv) { return pristi::bench::Main(argc, argv); }

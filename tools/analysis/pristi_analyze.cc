// pristi_analyze — static-analysis driver over the shared RepoContext.
//
//   pristi_analyze [repo_root] [--rules=a,b,c] [--list]
//
// Loads every analyzed file once, runs the registered passes (all by
// default, or the comma-separated subset from --rules), prints one line
// per unsuppressed violation, and exits 0 (clean) / 1 (violations) /
// 2 (usage or not a repo root).

#include <cstring>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "analysis.h"

namespace {

const char* ProgramName(const char* argv0) {
  std::filesystem::path p(argv0 != nullptr ? argv0 : "pristi_analyze");
  static std::string name;
  name = p.filename().string();
  if (name.empty()) name = "pristi_analyze";
  return name.c_str();
}

int Usage(const char* prog) {
  std::cerr << "usage: " << prog << " [repo_root] [--rules=a,b,c] [--list]\n"
            << "  repo_root     directory containing src/ (default: .)\n"
            << "  --rules=...   run only the named passes\n"
            << "  --list        print the registered passes and exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* prog = ProgramName(argc > 0 ? argv[0] : nullptr);
  std::string root = ".";
  bool root_set = false;
  bool list = false;
  std::set<std::string> rules;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--rules=", 0) == 0) {
      std::istringstream in(arg.substr(std::strlen("--rules=")));
      std::string rule;
      while (std::getline(in, rule, ',')) {
        if (!rule.empty()) rules.insert(rule);
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(prog);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << prog << ": unknown flag " << arg << "\n";
      return Usage(prog);
    } else if (!root_set) {
      root = arg;
      root_set = true;
    } else {
      return Usage(prog);
    }
  }

  if (list) {
    for (const pristi::analysis::Pass& pass : pristi::analysis::Passes()) {
      std::cout << pass.name << "\t" << pass.description << "\n";
    }
    return 0;
  }

  for (const std::string& rule : rules) {
    bool known = false;
    for (const pristi::analysis::Pass& pass : pristi::analysis::Passes()) {
      if (pass.name == rule) known = true;
    }
    if (!known) {
      std::cerr << prog << ": unknown rule '" << rule
                << "' (see --list)\n";
      return 2;
    }
  }

  if (!std::filesystem::exists(std::filesystem::path(root) / "src")) {
    std::cerr << prog << ": '" << root
              << "' does not look like a repo root (no src/ directory)\n";
    return 2;
  }

  pristi::analysis::RepoContext ctx =
      pristi::analysis::BuildRepoContext(root);
  std::vector<pristi::analysis::Violation> violations =
      pristi::analysis::AnalyzeRepo(ctx, rules);
  for (const pristi::analysis::Violation& v : violations) {
    std::cout << pristi::analysis::FormatViolation(v) << "\n";
  }
  if (violations.empty()) {
    std::cout << prog << ": clean\n";
    return 0;
  }
  std::cout << prog << ": " << violations.size() << " violation(s)\n";
  return 1;
}

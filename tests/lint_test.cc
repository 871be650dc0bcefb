// Tests for the pristi_analyze engine: the tokenizer, the include graph,
// and every pass must fire on a planted violation in a synthetic
// repository tree and stay silent on conforming files; the uniform
// `pristi-lint: allow-<rule>` suppression must silence each rule.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis.h"
#include "include_graph.h"
#include "manifest.h"
#include "test_tmpdir.h"

namespace pristi::analysis {
namespace {

namespace fs = std::filesystem;

void WriteFileAt(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << "failed to write " << path;
}

bool HasViolation(const std::vector<Violation>& violations,
                  const std::string& rule, const std::string& needle) {
  for (const Violation& v : violations) {
    if (v.rule == rule && (v.file.find(needle) != std::string::npos ||
                           v.message.find(needle) != std::string::npos)) {
      return true;
    }
  }
  return false;
}

size_t CountRule(const std::vector<Violation>& violations,
                 const std::string& rule) {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

// A fresh synthetic repo root per test, isolated via TestTempDir so
// parallel ctest invocations cannot collide on a shared fixed path.
class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = tmp_.path() / "repo";
    fs::create_directories(root_);
  }

  RepoContext Ctx() { return BuildRepoContext(root_.string()); }

  // Runs one pass through the engine (so central suppression applies).
  std::vector<Violation> Analyze(const std::string& rule) {
    RepoContext ctx = Ctx();
    return AnalyzeRepo(ctx, {rule});
  }

  pristi::testing::TestTempDir tmp_;
  fs::path root_;
};

// ---- Tokenizer ------------------------------------------------------------

TEST(StripCommentsAndStringsTest, RemovesCommentsAndLiteralsKeepsLines) {
  std::string src =
      "int a; // rand()\n"
      "/* std::cout\n"
      "   spans lines */ int b;\n"
      "const char* s = \"new int\";\n"
      "char c = '\\n';\n";
  std::string stripped = StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("cout"), std::string::npos);
  EXPECT_EQ(stripped.find("new int"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  // Line structure is preserved so reported line numbers stay valid.
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
}

TEST(TokenizeTest, ProducesKindsLinesAndLongestMatchPunct) {
  TokenizedSource tok = Tokenize(
      "int a = 1'000;\n"
      "a += b;  // comment\n"
      "s = \"lit\";\n");
  ASSERT_GE(tok.tokens.size(), 10u);
  EXPECT_EQ(tok.tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tok.tokens[0].text, "int");
  EXPECT_EQ(tok.tokens[0].line, 1);
  // `1'000` is one number token; `+=` is one punct token (not `+` `=`).
  bool saw_number = false, saw_pluseq = false, saw_string = false;
  for (const Token& t : tok.tokens) {
    if (t.kind == TokenKind::kNumber && t.text == "1'000") saw_number = true;
    if (t.kind == TokenKind::kPunct && t.text == "+=" && t.line == 2) {
      saw_pluseq = true;
    }
    if (t.kind == TokenKind::kString && t.text == "lit" && t.line == 3) {
      saw_string = true;
    }
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_pluseq);
  EXPECT_TRUE(saw_string);
}

TEST(TokenizeTest, CollectsSuppressionsPerLine) {
  TokenizedSource tok = Tokenize(
      "int a;  // pristi-lint: allow-banned-pattern\n"
      "/* pristi-lint: allow-layering */\n"
      "int b;\n");
  ASSERT_EQ(tok.suppressions.count(1), 1u);
  EXPECT_EQ(tok.suppressions.at(1).count("banned-pattern"), 1u);
  ASSERT_EQ(tok.suppressions.count(2), 1u);
  EXPECT_EQ(tok.suppressions.at(2).count("layering"), 1u);
  EXPECT_EQ(tok.suppressions.count(3), 0u);
}

TEST(CanonicalHeaderGuardTest, MapsPathToGuard) {
  EXPECT_EQ(CanonicalHeaderGuard("common/check.h"), "PRISTI_COMMON_CHECK_H_");
  EXPECT_EQ(CanonicalHeaderGuard("tensor/tensor.h"),
            "PRISTI_TENSOR_TENSOR_H_");
}

TEST(DifferentiableOpsTest, ExtractsDeclaredOps) {
  std::string header =
      "Variable Foo(const Variable& a);\n"
      "Variable Bar(const Variable& a, float s);\n"
      "void NotAnOp(int x);\n"
      "  Variable Indented(const Variable& a);\n";  // not at line start
  std::vector<std::string> ops = DifferentiableOps(header);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], "Foo");
  EXPECT_EQ(ops[1], "Bar");
}

TEST(LayoutFingerprintTest, MatchesFnv1aReferenceVectors) {
  // Standard FNV-1a 32-bit reference values.
  EXPECT_EQ(LayoutFingerprint(""), 0x811C9DC5u);
  EXPECT_EQ(LayoutFingerprint("a"), 0xE40C292Cu);
  EXPECT_EQ(LayoutFingerprint("foobar"), 0xBF9CF968u);
}

// ---- Include graph --------------------------------------------------------

TEST_F(LintTest, IncludeGraphResolvesRelativeSrcAndRootIncludes) {
  WriteFileAt(root_ / "src/common/a.h", "#include \"sibling.h\"\n");
  WriteFileAt(root_ / "src/common/sibling.h", "\n");
  WriteFileAt(root_ / "src/tensor/b.h", "#include \"common/a.h\"\n");
  WriteFileAt(root_ / "tests/t.cc", "#include \"tests/helper.h\"\n");
  WriteFileAt(root_ / "tests/helper.h", "\n");
  RepoContext ctx = Ctx();
  IncludeGraph graph = BuildIncludeGraph(ctx);
  // Includer-relative resolution.
  ASSERT_EQ(graph.EdgesFrom("src/common/a.h").size(), 1u);
  EXPECT_EQ(graph.EdgesFrom("src/common/a.h")[0].to, "src/common/sibling.h");
  EXPECT_EQ(graph.EdgesFrom("src/common/a.h")[0].line, 1);
  // src/-relative resolution (the build's -I src).
  ASSERT_EQ(graph.EdgesFrom("src/tensor/b.h").size(), 1u);
  EXPECT_EQ(graph.EdgesFrom("src/tensor/b.h")[0].to, "src/common/a.h");
  // Repo-root-relative resolution.
  ASSERT_EQ(graph.EdgesFrom("tests/t.cc").size(), 1u);
  EXPECT_EQ(graph.EdgesFrom("tests/t.cc")[0].to, "tests/helper.h");
}

TEST_F(LintTest, IncludeGraphSkipsSystemAndCommentedAndUnresolved) {
  WriteFileAt(root_ / "src/common/a.cc",
              "#include <vector>\n"
              "// #include \"common/gone.h\"\n"
              "#include \"third_party/absent.h\"\n");
  RepoContext ctx = Ctx();
  IncludeGraph graph = BuildIncludeGraph(ctx);
  EXPECT_TRUE(graph.edges().empty());
  // The angled include is still parsed (as a directive), just never an edge.
  const SourceFile* file = ctx.Find("src/common/a.cc");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(file->includes.size(), 2u);  // <vector> + absent.h; comment dropped
  EXPECT_TRUE(file->includes[0].angled);
}

TEST_F(LintTest, IncludeGraphFindsCycles) {
  WriteFileAt(root_ / "src/common/a.h", "#include \"common/b.h\"\n");
  WriteFileAt(root_ / "src/common/b.h", "#include \"common/c.h\"\n");
  WriteFileAt(root_ / "src/common/c.h", "#include \"common/a.h\"\n");
  WriteFileAt(root_ / "src/common/acyclic.h", "#include \"common/a.h\"\n");
  RepoContext ctx = Ctx();
  IncludeGraph graph = BuildIncludeGraph(ctx);
  std::vector<std::vector<std::string>> cycles = graph.FindCycles("src/");
  ASSERT_EQ(cycles.size(), 1u);
  // Canonicalized: starts (and ends) at the smallest member.
  ASSERT_EQ(cycles[0].size(), 4u);
  EXPECT_EQ(cycles[0].front(), "src/common/a.h");
  EXPECT_EQ(cycles[0].back(), "src/common/a.h");
}

TEST(ModuleOfTest, MapsPathsToModules) {
  EXPECT_EQ(ModuleOf("src/tensor/kernels/sgemm.cc"), "tensor");
  EXPECT_EQ(ModuleOf("src/common/env.h"), "common");
  EXPECT_EQ(ModuleOf("tests/lint_test.cc"), "");
  EXPECT_EQ(ModuleOf("src/lone.cc"), "");
}

// ---- Manifest -------------------------------------------------------------

TEST(ManifestTest, ParsesLayersAndBlessedAndReportsErrors) {
  LayerManifest m = ParseLayerManifest(
      "# comment\n"
      "[layers]\n"
      "common =\n"
      "tensor = common  # trailing comment\n"
      "[fp-blessed]\n"
      "ReferenceGemmRows\n"
      "bogus line here\n");
  EXPECT_TRUE(m.loaded);
  ASSERT_EQ(m.layers.count("tensor"), 1u);
  EXPECT_EQ(m.layers.at("tensor").count("common"), 1u);
  EXPECT_TRUE(m.layers.at("common").empty());
  EXPECT_EQ(m.blessed_accumulators.count("ReferenceGemmRows"), 1u);
  ASSERT_EQ(m.parse_errors.size(), 1u);
  EXPECT_NE(m.parse_errors[0].find("line 7"), std::string::npos);
  EXPECT_TRUE(ManifestCycleMembers(m).empty());
}

TEST(ManifestTest, DetectsDeclaredCycle) {
  LayerManifest m = ParseLayerManifest(
      "[layers]\n"
      "a = b\n"
      "b = a\n"
      "c =\n");
  std::vector<std::string> cyclic = ManifestCycleMembers(m);
  ASSERT_EQ(cyclic.size(), 2u);
  EXPECT_EQ(cyclic[0], "a");
  EXPECT_EQ(cyclic[1], "b");
}

// ---- Legacy rules on the new substrate ------------------------------------

TEST_F(LintTest, HeaderGuardRuleFiresOnPlantedViolations) {
  WriteFileAt(root_ / "src/common/bad.h",
              "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n");
  WriteFileAt(root_ / "src/common/missing.h", "int x;\n");
  WriteFileAt(
      root_ / "src/common/good.h",
      "#ifndef PRISTI_COMMON_GOOD_H_\n#define PRISTI_COMMON_GOOD_H_\n"
      "#endif  // PRISTI_COMMON_GOOD_H_\n");
  std::vector<Violation> v = CheckHeaderGuards(Ctx());
  EXPECT_TRUE(HasViolation(v, "header-guard", "bad.h"));
  EXPECT_TRUE(HasViolation(v, "header-guard", "missing.h"));
  EXPECT_FALSE(HasViolation(v, "header-guard", "good.h"));
  EXPECT_EQ(v.size(), 2u);
}

TEST_F(LintTest, BannedPatternRuleFiresOnEachPattern) {
  WriteFileAt(root_ / "src/common/uses_rand.cc",
              "int f() { return rand() % 7; }\n");
  WriteFileAt(root_ / "src/common/uses_cout.cc",
              "#include <iostream>\nvoid g() { std::cout << 1; }\n");
  WriteFileAt(root_ / "src/common/uses_new.cc",
              "int* h() { return new int(3); }\n");
  std::vector<Violation> v = CheckBannedPatterns(Ctx());
  EXPECT_TRUE(HasViolation(v, "banned-pattern", "uses_rand.cc"));
  EXPECT_TRUE(HasViolation(v, "banned-pattern", "uses_cout.cc"));
  EXPECT_TRUE(HasViolation(v, "banned-pattern", "uses_new.cc"));
}

TEST_F(LintTest, BannedPatternsInCommentsAndStringsAreIgnored) {
  WriteFileAt(root_ / "src/common/clean.cc",
              "// rand() and std::cout and new are fine in comments\n"
              "const char* doc = \"call rand() or new std::cout\";\n"
              "int renewed = 1;  // 'new' inside an identifier is fine too\n");
  std::vector<Violation> v = CheckBannedPatterns(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LintTest, CmakeSourceListRuleFindsUnlistedSibling) {
  WriteFileAt(root_ / "src/common/listed.cc", "int a;\n");
  WriteFileAt(root_ / "src/common/orphan.cc", "int b;\n");
  WriteFileAt(root_ / "src/common/CMakeLists.txt",
              "add_library(pristi_common listed.cc)\n");
  std::vector<Violation> v = CheckCmakeSourceLists(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "cmake-sources");
  EXPECT_NE(v[0].message.find("orphan.cc"), std::string::npos);
}

TEST_F(LintTest, CmakeSourceListRuleAuditsTestsToolsAndBench) {
  // tests/ registers by stem (pristi_add_test(foo_test ...)) — accepted;
  // an orphan test file must still fire.
  WriteFileAt(root_ / "tests/listed_test.cc", "int a;\n");
  WriteFileAt(root_ / "tests/orphan_test.cc", "int b;\n");
  WriteFileAt(root_ / "tests/CMakeLists.txt",
              "pristi_add_test(listed_test pristi_common)\n");
  WriteFileAt(root_ / "tools/orphan_tool.cc", "int c;\n");
  WriteFileAt(root_ / "tools/CMakeLists.txt", "# nothing registered\n");
  WriteFileAt(root_ / "bench/orphan_bench.cc", "int d;\n");
  WriteFileAt(root_ / "bench/CMakeLists.txt", "# nothing registered\n");
  std::vector<Violation> v = CheckCmakeSourceLists(Ctx());
  EXPECT_FALSE(HasViolation(v, "cmake-sources", "listed_test.cc"));
  EXPECT_TRUE(HasViolation(v, "cmake-sources", "orphan_test.cc"));
  EXPECT_TRUE(HasViolation(v, "cmake-sources", "orphan_tool.cc"));
  EXPECT_TRUE(HasViolation(v, "cmake-sources", "orphan_bench.cc"));
}

TEST_F(LintTest, GradCoverageRuleFindsUntestedOp) {
  WriteFileAt(root_ / "src/autograd/ops.h",
              "Variable Foo(const Variable& a);\n"
              "Variable Bar(const Variable& a);\n");
  WriteFileAt(root_ / "tests/autograd_test.cc",
              "TEST(GradCheck, Foo) { SumAll(Foo(v[0])); }\n");
  std::vector<Violation> v = CheckGradCoverage(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "grad-coverage");
  EXPECT_NE(v[0].message.find("Bar"), std::string::npos);
}

// Builds a planted src/serialize/format.h whose fingerprint comment is
// `fingerprint` (hex text) over the given layout region.
std::string FormatHeaderWith(const std::string& region,
                             const std::string& fingerprint_line) {
  return "#ifndef PRISTI_SERIALIZE_FORMAT_H_\n"
         "#define PRISTI_SERIALIZE_FORMAT_H_\n"
         "// serialize-layout-begin\n" +
         region + "// serialize-layout-end\n" + fingerprint_line +
         "#endif\n";
}

std::string FingerprintComment(uint32_t fp) {
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "// serialize-layout-fingerprint: 0x%08X\n", fp);
  return buf;
}

TEST_F(LintTest, SerializeVersionGuardAcceptsMatchingFingerprint) {
  std::string region = "inline constexpr uint32_t kFormatVersion = 1;\n";
  WriteFileAt(root_ / "src/serialize/format.h",
              FormatHeaderWith(region,
                               FingerprintComment(LayoutFingerprint(region))));
  std::vector<Violation> v = CheckSerializeVersionGuard(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LintTest, SerializeVersionGuardFiresOnLayoutEditWithoutBump) {
  std::string region = "inline constexpr uint32_t kFormatVersion = 1;\n";
  std::string stale = FingerprintComment(LayoutFingerprint(region));
  // Edit the layout (new record tag) but keep the stale fingerprint.
  std::string edited = region + "enum class RecordTag : uint32_t { kNew };\n";
  WriteFileAt(root_ / "src/serialize/format.h",
              FormatHeaderWith(edited, stale));
  std::vector<Violation> v = CheckSerializeVersionGuard(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "serialize-version-guard");
  EXPECT_NE(v[0].message.find("kFormatVersion"), std::string::npos);
}

TEST_F(LintTest, SerializeVersionGuardFiresOnMissingMarkersOrComment) {
  WriteFileAt(root_ / "src/serialize/format.h", "int x;\n");
  std::vector<Violation> missing_markers = CheckSerializeVersionGuard(Ctx());
  ASSERT_EQ(missing_markers.size(), 1u);
  EXPECT_NE(missing_markers[0].message.find("markers"), std::string::npos);

  std::string region = "inline constexpr uint32_t kFormatVersion = 1;\n";
  WriteFileAt(root_ / "src/serialize/format.h",
              FormatHeaderWith(region, "// no fingerprint here\n"));
  std::vector<Violation> missing_comment = CheckSerializeVersionGuard(Ctx());
  ASSERT_EQ(missing_comment.size(), 1u);
  EXPECT_NE(missing_comment[0].message.find("missing fingerprint"),
            std::string::npos);
}

TEST_F(LintTest, TensorByValueRuleFiresOnByValueParams) {
  WriteFileAt(root_ / "src/nn/copies.cc",
              "void Plain(Tensor t) {}\n"
              "void Qualified(tensor::Tensor weights, int n) {}\n"
              "void Aliased(int steps,\n"
              "             ag::Variable loss) {}\n"
              "Variable Full(pristi::autograd::Variable v) { return v; }\n");
  std::vector<Violation> v = CheckTensorByValueParams(Ctx());
  ASSERT_EQ(v.size(), 4u);
  EXPECT_TRUE(HasViolation(v, "tensor-by-value", "copies.cc"));
  EXPECT_EQ(v[0].line, 1);
  EXPECT_EQ(v[1].line, 2);
  // Wrapped parameter lists report the parameter's line, not the `(`.
  EXPECT_EQ(v[2].line, 4);
  EXPECT_NE(v[0].message.find("const Tensor&"), std::string::npos);
  EXPECT_NE(v[2].message.find("const Variable&"), std::string::npos);
}

TEST_F(LintTest, TensorByValueRuleAcceptsReferencesContainersAndSuppression) {
  WriteFileAt(
      root_ / "src/nn/clean.cc",
      "void Ref(const Tensor& t, Variable* out) {}\n"
      "void Mut(tensor::Tensor& t) {}\n"
      "void Container(std::vector<Tensor> parts,\n"
      "               std::pair<std::string, Variable> named) {}\n"
      "void Loop(const std::vector<Tensor>& v) {\n"
      "  for (Tensor t : v) Ref(t, nullptr);\n"
      "}\n"
      "void Sink(Tensor t) {}  // pristi-lint: allow-tensor-by-value\n");
  std::vector<Violation> v = Analyze("tensor-by-value");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LintTest, NoMaterializedTransposeRuleFiresOnTransposeIntoMatMul) {
  WriteFileAt(
      root_ / "src/nn/hot.cc",
      "void Scores() {\n"
      "  auto s = ag::BatchedMatMul(qh, ag::TransposeLast2(kh));\n"
      "  auto adj = t::MatMul(e1, t::TransposeLast2(e2));\n"
      "  auto g = t::MatMulLastDim(x,\n"
      "                            t::Permute(w, {1, 0}));\n"
      "}\n");
  std::vector<Violation> v = CheckNoMaterializedTranspose(Ctx());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].line, 2);
  EXPECT_EQ(v[1].line, 3);
  // Wrapped argument lists still attribute to the MatMul call's line.
  EXPECT_EQ(v[2].line, 4);
  EXPECT_NE(v[0].message.find("TransposeLast2"), std::string::npos);
  EXPECT_NE(v[0].message.find("BatchedMatMul"), std::string::npos);
  EXPECT_NE(v[2].message.find("Permute"), std::string::npos);
}

TEST_F(LintTest, NoMaterializedTransposeRuleAcceptsNTVariantsAndSuppression) {
  WriteFileAt(
      root_ / "src/nn/clean_mm.cc",
      "void Clean() {\n"
      "  auto s = ag::BatchedMatMulNT(qh, kh);\n"
      "  auto adj = t::MatMulNT(e1, e2);\n"
      // Transpose of a product (not feeding a MatMul) is fine.
      "  auto tr = t::TransposeLast2(t::MatMul(a, b));\n"
      // Transpose mentioned in a comment only.
      "  auto c = t::MatMul(a, b);  // was TransposeLast2(b)\n"
      "  auto ok = t::MatMul(a, t::TransposeLast2(b));"
      "  // pristi-lint: allow-no-materialized-transpose\n"
      "}\n");
  std::vector<Violation> v = Analyze("no-materialized-transpose");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

// ---- layering -------------------------------------------------------------

// A minimal two-module tree with the manifest written to its checked-in
// location; `b` may depend on `a`, never the reverse.
class LayeringTest : public LintTest {
 protected:
  void WriteManifest(const std::string& text) {
    WriteFileAt(root_ / kManifestRelPath, text);
  }
  void WriteCleanModules() {
    WriteFileAt(root_ / "src/a/a.h",
                "#ifndef PRISTI_A_A_H_\n#define PRISTI_A_A_H_\n#endif\n");
    WriteFileAt(root_ / "src/b/b.h",
                "#ifndef PRISTI_B_B_H_\n#define PRISTI_B_B_H_\n"
                "#include \"a/a.h\"\n#endif\n");
  }
};

TEST_F(LayeringTest, CleanTreeMatchingManifestIsQuiet) {
  WriteManifest("[layers]\na =\nb = a\n");
  WriteCleanModules();
  std::vector<Violation> v = CheckLayering(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LayeringTest, SeededForbiddenIncludeIsRejected) {
  WriteManifest("[layers]\na =\nb = a\n");
  WriteCleanModules();
  // Seed the forbidden edge: the low module reaches up into the high one.
  WriteFileAt(root_ / "src/a/bad.cc", "#include \"b/b.h\"\n");
  std::vector<Violation> v = CheckLayering(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "layering");
  EXPECT_EQ(v[0].file, "src/a/bad.cc");
  EXPECT_EQ(v[0].line, 1);
  EXPECT_NE(v[0].message.find("forbidden include edge"), std::string::npos);
  EXPECT_NE(v[0].message.find("`a` may not depend on `b`"),
            std::string::npos);
}

TEST_F(LayeringTest, ForbiddenIncludeCanBeSuppressed) {
  WriteManifest("[layers]\na =\nb = a\n");
  WriteCleanModules();
  WriteFileAt(root_ / "src/a/bad.cc",
              "// pristi-lint: allow-layering\n"
              "#include \"b/b.h\"\n");
  std::vector<Violation> v = Analyze("layering");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LayeringTest, MissingManifestIsItselfAViolation) {
  WriteCleanModules();
  std::vector<Violation> v = CheckLayering(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("manifest is missing"), std::string::npos);
}

TEST_F(LayeringTest, UndeclaredAndAbsentModulesAreReported) {
  WriteManifest("[layers]\na =\nghost = a\n");
  WriteCleanModules();  // module b exists but is not declared
  std::vector<Violation> v = CheckLayering(Ctx());
  EXPECT_TRUE(HasViolation(v, "layering",
                           "`b` exists under src/ but is not declared"));
  EXPECT_TRUE(HasViolation(v, "layering", "`ghost` is declared"));
}

TEST_F(LayeringTest, ManifestCycleAndIncludeCycleAreReported) {
  WriteManifest("[layers]\na = b\nb = a\n");
  WriteFileAt(root_ / "src/a/a.h", "#include \"b/b.h\"\n");
  WriteFileAt(root_ / "src/b/b.h", "#include \"a/a.h\"\n");
  std::vector<Violation> v = CheckLayering(Ctx());
  EXPECT_TRUE(HasViolation(v, "layering", "not a DAG"));
  EXPECT_TRUE(HasViolation(v, "layering", "include cycle"));
}

// ---- env-registry ---------------------------------------------------------

class EnvRegistryTest : public LintTest {
 protected:
  // Registry declaring exactly `names`.
  void WriteEnvHeader(const std::vector<std::string>& names) {
    std::string body =
        "#ifndef PRISTI_COMMON_ENV_H_\n#define PRISTI_COMMON_ENV_H_\n"
        "// pristi-env-registry-begin\n";
    for (const std::string& name : names) {
      body += "//   " + name + "  doc\n";
    }
    body += "// pristi-env-registry-end\n#endif\n";
    WriteFileAt(root_ / "src/common/env.h", body);
  }
};

TEST_F(EnvRegistryTest, DeclaredAndReadKnobsAreQuiet) {
  WriteEnvHeader({"PRISTI_ALPHA", "PRISTI_BETA"});
  WriteFileAt(root_ / "src/common/reader.cc",
              "int a = GetEnvIntOr(\"PRISTI_ALPHA\", 1);\n");
  WriteFileAt(root_ / "tools/run.sh", "echo ${PRISTI_BETA:-0}\n");
  std::vector<Violation> v = CheckEnvRegistry(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(EnvRegistryTest, UndeclaredReadRawGetenvAndDeadKnobFire) {
  WriteEnvHeader({"PRISTI_DEAD"});
  WriteFileAt(root_ / "src/common/reader.cc",
              "const char* u = getenv(\"PRISTI_UNDECLARED\");\n");
  std::vector<Violation> v = CheckEnvRegistry(Ctx());
  // The one read site is both undeclared and a raw getenv; the declared
  // knob is never read.
  EXPECT_TRUE(HasViolation(v, "env-registry", "PRISTI_UNDECLARED"));
  EXPECT_TRUE(HasViolation(v, "env-registry", "raw std::getenv"));
  EXPECT_TRUE(HasViolation(v, "env-registry", "PRISTI_DEAD"));
  EXPECT_EQ(CountRule(v, "env-registry"), 3u);
}

TEST_F(EnvRegistryTest, ShellReadOfUndeclaredKnobFires) {
  WriteEnvHeader({});
  WriteFileAt(root_ / "tools/run.sh", "echo $PRISTI_SHELL_ONLY\n");
  std::vector<Violation> v = CheckEnvRegistry(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].file, "tools/run.sh");
  EXPECT_NE(v[0].message.find("PRISTI_SHELL_ONLY"), std::string::npos);
}

TEST_F(EnvRegistryTest, KnobNamesInStringsOfOtherCallsDoNotCount) {
  WriteEnvHeader({});
  // A PRISTI_* literal not consumed by getenv/GetEnvOr (e.g. a log
  // message or test fixture) is not a read.
  WriteFileAt(root_ / "src/common/doc.cc",
              "const char* hint = \"set PRISTI_FAKE=1 to ...\";\n"
              "int x = Lookup(\"PRISTI_FAKE\");\n");
  std::vector<Violation> v = CheckEnvRegistry(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(EnvRegistryTest, SuppressionSilencesTheRead) {
  WriteEnvHeader({});
  WriteFileAt(root_ / "src/common/reader.cc",
              "// pristi-lint: allow-env-registry\n"
              "std::string v = GetEnvOr(\"PRISTI_EPHEMERAL\", \"\");\n");
  std::vector<Violation> v = Analyze("env-registry");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(EnvRegistryTest, MissingRegistryWithReadsFires) {
  WriteFileAt(root_ / "src/tensor/reader.cc",
              "int n = GetEnvIntOr(\"PRISTI_N\", 4);\n");
  std::vector<Violation> v = CheckEnvRegistry(Ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("does not exist"), std::string::npos);
}

// ---- dcheck-purity --------------------------------------------------------

TEST_F(LintTest, DcheckPurityFiresOnSideEffects) {
  WriteFileAt(root_ / "src/common/checks.cc",
              "void F(int i, int n, Tensor& t) {\n"
              "  PRISTI_DCHECK(i++ < n);\n"
              "  PRISTI_DCHECK_EQ(n = 3, 3);\n"
              "  PRISTI_DCHECK(Mutate(t));\n"
              "  PRISTI_DCHECK_LT(i, t.numel());\n"  // allowlisted: quiet
              "}\n");
  std::vector<Violation> v = CheckDcheckPurity(Ctx());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].line, 2);
  EXPECT_NE(v[0].message.find("++"), std::string::npos);
  EXPECT_EQ(v[1].line, 3);
  EXPECT_NE(v[1].message.find("assignment"), std::string::npos);
  EXPECT_EQ(v[2].line, 4);
  EXPECT_NE(v[2].message.find("Mutate"), std::string::npos);
}

TEST_F(LintTest, DcheckPurityQuietOnPureChecksAndSuppression) {
  WriteFileAt(root_ / "src/common/checks.cc",
              "void F(int i, int n, const Tensor& t) {\n"
              "  PRISTI_DCHECK(i < n);\n"
              "  PRISTI_DCHECK_EQ(t.numel(), static_cast<int64_t>(n));\n"
              "  PRISTI_DCHECK(i == n && t.shape().size() > 0);\n"
              "  // pristi-lint: allow-dcheck-purity\n"
              "  PRISTI_DCHECK(ProvablyPureButUnknown(t));\n"
              "}\n");
  std::vector<Violation> v = Analyze("dcheck-purity");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

// ---- parallel-region ------------------------------------------------------

TEST_F(LintTest, ParallelRegionFiresOnLockIoAndTensorConstruction) {
  WriteFileAt(root_ / "src/tensor/hot.cc",
              "void F(int64_t n) {\n"
              "  ParallelFor(0, n, [&](int64_t b, int64_t e) {\n"
              "    std::lock_guard<std::mutex> g(mu);\n"
              "    printf(\"%ld\\n\", b);\n"
              "    Tensor scratch({e - b});\n"
              "  });\n"
              "}\n");
  std::vector<Violation> v = CheckParallelRegion(Ctx());
  // lock_guard + mutex (both mutex idents), printf, Tensor construction.
  EXPECT_EQ(CountRule(v, "parallel-region"), 4u);
  EXPECT_TRUE(HasViolation(v, "parallel-region", "lock_guard"));
  EXPECT_TRUE(HasViolation(v, "parallel-region", "printf"));
  EXPECT_TRUE(HasViolation(v, "parallel-region", "Tensor construction"));
}

TEST_F(LintTest, ParallelRegionQuietOnCleanLambdaAndOutsideCode) {
  WriteFileAt(root_ / "src/tensor/clean.cc",
              "void F(int64_t n, float* out, const Tensor& in) {\n"
              "  std::lock_guard<std::mutex> g(mu);  // outside: fine\n"
              "  Tensor staged({n});                 // outside: fine\n"
              "  const float* src = in.data();\n"
              "  ParallelFor(0, n, [&](int64_t b, int64_t e) {\n"
              "    for (int64_t i = b; i < e; ++i) out[i] = src[i] * 2.0f;\n"
              "  });\n"
              "}\n");
  std::vector<Violation> v = CheckParallelRegion(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(LintTest, ParallelRegionSuppressionSilencesSite) {
  WriteFileAt(root_ / "src/tensor/noisy.cc",
              "void F(int64_t n) {\n"
              "  ParallelFor(0, n, [&](int64_t b, int64_t e) {\n"
              "    // pristi-lint: allow-parallel-region\n"
              "    PRISTI_LOG_INFO(\"chunk\");\n"
              "  });\n"
              "}\n");
  std::vector<Violation> v = Analyze("parallel-region");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

// ---- fp-contraction -------------------------------------------------------

class FpContractionTest : public LintTest {
 protected:
  void WriteManifestWithBlessed(const std::string& name) {
    WriteFileAt(root_ / kManifestRelPath,
                "[layers]\ntensor =\n[fp-blessed]\n" + name + "\n");
  }
};

TEST_F(FpContractionTest, FiresOnFmaPragmaAndUnblessedAccumulation) {
  WriteManifestWithBlessed("BlessedKernel");
  WriteFileAt(root_ / "src/tensor/kernels/bad.cc",
              "#pragma STDC FP_CONTRACT ON\n"
              "float F(const float* a, const float* b, int n) {\n"
              "  float acc = 0.0f;\n"
              "  for (int i = 0; i < n; ++i) acc += a[i] * b[i];\n"
              "  return std::fma(acc, 2.0f, 1.0f);\n"
              "}\n");
  std::vector<Violation> v = CheckFpContraction(Ctx());
  EXPECT_TRUE(HasViolation(v, "fp-contraction", "FP_CONTRACT pragma"));
  EXPECT_TRUE(HasViolation(v, "fp-contraction", "`fma`"));
  EXPECT_TRUE(HasViolation(v, "fp-contraction", "multiply-accumulate"));
  EXPECT_TRUE(HasViolation(v, "fp-contraction", "F()"));
  EXPECT_EQ(CountRule(v, "fp-contraction"), 3u);
}

TEST_F(FpContractionTest, FiresOnAvx512FmaEvenInsideTheBlessedKernel) {
  // Blessing covers the twice-rounded `acc += a * b` chain, never a fused
  // multiply-add: a zmm traits MulAdd spelled with the AVX-512 FMA is
  // flagged although the kernel template it serves is blessed.
  WriteManifestWithBlessed("MicroKernelSimd");
  WriteFileAt(root_ / "src/tensor/kernels/zmm.cc",
              "struct ZmmTraits {\n"
              "  static void MulAdd(__m512* acc, const __m512* a,\n"
              "                     const __m512* b) {\n"
              "    *acc = _mm512_fmadd_ps(*a, *b, *acc);\n"
              "  }\n"
              "};\n"
              "template <class Traits>\n"
              "void MicroKernelSimd(float* c, const float* a, int n) {\n"
              "  for (int i = 0; i < n; ++i) c[i] += a[i] * a[i];\n"
              "}\n");
  std::vector<Violation> v = CheckFpContraction(Ctx());
  EXPECT_TRUE(HasViolation(v, "fp-contraction", "`_mm512_fmadd_ps`"));
  EXPECT_EQ(CountRule(v, "fp-contraction"), 1u);
}

TEST_F(FpContractionTest, BlessedHelperAndNonKernelCodeAreQuiet) {
  WriteManifestWithBlessed("BlessedKernel");
  WriteFileAt(root_ / "src/tensor/kernels/good.cc",
              "float BlessedKernel(const float* a, const float* b, int n) {\n"
              "  float acc = 0.0f;\n"
              "  for (int i = 0; i < n; ++i) acc += a[i] * b[i];\n"
              "  return acc;\n"
              "}\n");
  // Accumulation outside src/tensor/kernels/ is not this rule's business.
  WriteFileAt(root_ / "src/metrics/mae.cc",
              "float Mae(const float* e, const float* w, int n) {\n"
              "  float acc = 0.0f;\n"
              "  for (int i = 0; i < n; ++i) acc += e[i] * w[i];\n"
              "  return acc;\n"
              "}\n");
  std::vector<Violation> v = CheckFpContraction(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(FpContractionTest, LambdaInsideBlessedHelperInheritsBlessing) {
  WriteManifestWithBlessed("BlessedKernel");
  WriteFileAt(root_ / "src/tensor/kernels/lambda.cc",
              "void BlessedKernel(float* c, const float* a, int n) {\n"
              "  auto body = [&](int64_t b, int64_t e) {\n"
              "    for (int64_t i = b; i < e; ++i) c[i] += a[i] * a[i];\n"
              "  };\n"
              "  body(0, n);\n"
              "}\n");
  std::vector<Violation> v = CheckFpContraction(Ctx());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

TEST_F(FpContractionTest, SuppressionSilencesSite) {
  WriteManifestWithBlessed("BlessedKernel");
  WriteFileAt(root_ / "src/tensor/kernels/special.cc",
              "int Histogram(int* h, const int* idx, int n, int stride) {\n"
              "  // integer strides, not float accumulation\n"
              "  // pristi-lint: allow-fp-contraction\n"
              "  int off = 0; for (int i = 0; i < n; ++i) off += idx[i] * "
              "stride;\n"
              "  return off;\n"
              "}\n");
  std::vector<Violation> v = Analyze("fp-contraction");
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

// ---- engine ---------------------------------------------------------------

TEST_F(LintTest, AnalyzeRepoAggregatesSelectsAndFormats) {
  WriteFileAt(root_ / "src/common/bad.h",
              "#ifndef NOPE_H_\n#define NOPE_H_\nint* p = new int;\n"
              "#endif\n");
  RepoContext ctx = Ctx();
  std::vector<Violation> all = AnalyzeRepo(ctx);
  EXPECT_TRUE(HasViolation(all, "header-guard", "bad.h"));
  EXPECT_TRUE(HasViolation(all, "banned-pattern", "bad.h"));
  // No manifest in this synthetic tree: layering must fire rather than
  // silently disable.
  EXPECT_TRUE(HasViolation(all, "layering", "manifest is missing"));
  for (const Violation& violation : all) {
    std::string line = FormatViolation(violation);
    EXPECT_NE(line.find(violation.rule), std::string::npos);
    EXPECT_NE(line.find(violation.file), std::string::npos);
  }
  // Rule selection runs only the named pass.
  std::vector<Violation> only = AnalyzeRepo(ctx, {"banned-pattern"});
  EXPECT_EQ(CountRule(only, "banned-pattern"), only.size());
  EXPECT_FALSE(only.empty());
}

TEST_F(LintTest, PassRegistryCoversEveryRule) {
  std::set<std::string> names;
  for (const Pass& pass : Passes()) names.insert(pass.name);
  for (const char* expected :
       {"header-guard", "banned-pattern", "cmake-sources", "grad-coverage",
        "serialize-version-guard", "no-materialized-transpose",
        "tensor-by-value", "layering", "env-registry", "dcheck-purity",
        "parallel-region", "fp-contraction"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  EXPECT_EQ(names.size(), 12u);
}

TEST_F(LintTest, CleanTreeProducesNoViolations) {
  WriteFileAt(
      root_ / "src/common/good.h",
      "#ifndef PRISTI_COMMON_GOOD_H_\n#define PRISTI_COMMON_GOOD_H_\n"
      "#endif\n");
  WriteFileAt(root_ / "src/common/good.cc", "#include \"common/good.h\"\n");
  WriteFileAt(root_ / "src/common/CMakeLists.txt",
              "add_library(pristi_common good.cc)\n");
  WriteFileAt(root_ / kManifestRelPath, "[layers]\ncommon =\n");
  std::vector<Violation> v = LintRepo(root_.string());
  EXPECT_TRUE(v.empty()) << FormatViolation(v.front());
}

}  // namespace
}  // namespace pristi::analysis

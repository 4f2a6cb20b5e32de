// Tests for the textual STRL parser, including round-trips with ToString and
// compile-through to the MILP solver.

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string>

#include "src/cluster/availability.h"
#include "src/compiler/compiler.h"
#include "src/solver/milp.h"
#include "src/strl/parser.h"

namespace tetrisched {
namespace {

StrlExpr MustParse(std::string_view text) {
  StrlParseResult result = ParseStrl(text);
  EXPECT_TRUE(result.expr.has_value()) << result.error;
  return std::move(*result.expr);
}

TEST(ParserTest, ParsesLeaf) {
  StrlExpr expr = MustParse("nCk({p0,p1}, k=2, s=10, dur=20, v=4.5)");
  EXPECT_EQ(expr.kind, StrlKind::kNCk);
  EXPECT_EQ(expr.partitions, (PartitionSet{0, 1}));
  EXPECT_EQ(expr.k, 2);
  EXPECT_EQ(expr.start, 10);
  EXPECT_EQ(expr.duration, 20);
  EXPECT_DOUBLE_EQ(expr.value, 4.5);
  EXPECT_EQ(expr.tag, 1);  // fresh sequential tags
}

TEST(ParserTest, ParsesLinearLeaf) {
  StrlExpr expr = MustParse("LnCk({p3}, k=5, s=0, dur=8, v=10)");
  EXPECT_EQ(expr.kind, StrlKind::kLnCk);
  EXPECT_EQ(expr.k, 5);
}

TEST(ParserTest, ParsesOperators) {
  StrlExpr expr = MustParse(
      "sum(max(nCk({p0}, k=1, s=0, dur=1, v=1), nCk({p1}, k=1, s=0, dur=1, "
      "v=2)), min(nCk({p0}, k=1, s=0, dur=1, v=3), nCk({p1}, k=1, s=0, "
      "dur=1, v=3)))");
  EXPECT_EQ(expr.kind, StrlKind::kSum);
  ASSERT_EQ(expr.children.size(), 2u);
  EXPECT_EQ(expr.children[0].kind, StrlKind::kMax);
  EXPECT_EQ(expr.children[1].kind, StrlKind::kMin);
  EXPECT_EQ(CountLeaves(expr), 4);
}

TEST(ParserTest, ParsesScaleAndBarrier) {
  StrlExpr expr =
      MustParse("barrier(3, scale(2.5, nCk({p0}, k=1, s=0, dur=1, v=2)))");
  EXPECT_EQ(expr.kind, StrlKind::kBarrier);
  EXPECT_DOUBLE_EQ(expr.scalar, 3.0);
  EXPECT_EQ(expr.children[0].kind, StrlKind::kScale);
  EXPECT_DOUBLE_EQ(expr.children[0].scalar, 2.5);
}

TEST(ParserTest, WhitespaceInsensitive) {
  StrlExpr a = MustParse("max(nCk({p0},k=1,s=0,dur=1,v=1))");
  StrlExpr b = MustParse("  max ( nCk ( { p0 } , k=1 , s=0, dur=1, v=1 ) ) ");
  EXPECT_EQ(ToString(a), ToString(b));
}

TEST(ParserTest, RoundTripsWithToString) {
  StrlExpr original = Sum(
      {Max({NCk({0, 1}, 2, 0, 10, 4.0, 1), NCk({2}, 2, 8, 15, 3.0, 2)}),
       Min({NCk({0}, 1, 0, 10, 2.0, 3), NCk({1}, 1, 0, 10, 2.0, 4)}),
       Barrier(Scale(LnCk({0, 1, 2}, 4, 16, 10, 8.0, 5), 1.5), 6.0)});
  StrlExpr reparsed = MustParse(ToString(original));
  // Tags differ (parser assigns fresh ones); structure must match exactly.
  EXPECT_EQ(ToString(reparsed), ToString(original));
  EXPECT_EQ(CountNodes(reparsed), CountNodes(original));
}

TEST(ParserTest, ParsedExprCompilesAndSolves) {
  Cluster cluster = MakeUniformCluster(2, 2, 1);
  StrlExpr expr = MustParse(
      "max(nCk({p0}, k=2, s=0, dur=2, v=4), nCk({p0,p1}, k=2, s=0, dur=3, "
      "v=3))");
  TimeGrid grid{.start = 0, .quantum = 1, .num_slices = 4};
  AvailabilityGrid avail(cluster, grid);
  CompiledStrl compiled = StrlCompiler(avail).Compile(expr);
  MilpOptions options;
  options.rel_gap = 0.0;
  MilpResult result = MilpSolver(compiled.model(), options).Solve();
  ASSERT_TRUE(result.HasSolution());
  EXPECT_NEAR(result.objective, 4.0, 1e-6);
}

TEST(ParserTest, NegativeStartAllowed) {
  StrlExpr expr = MustParse("nCk({p0}, k=1, s=-5, dur=10, v=1)");
  EXPECT_EQ(expr.start, -5);
}

// --- Error reporting ---------------------------------------------------------

struct BadInput {
  const char* text;
  const char* expected_error_fragment;
};

// Names each case by its expected error. Without this gtest prints the two
// raw pointers, and ctest's discovered test names then change with every
// build and every address-space layout.
void PrintTo(const BadInput& input, std::ostream* os) {
  *os << "expects " << input.expected_error_fragment;
}

class ParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrorTest, ReportsError) {
  StrlParseResult result = ParseStrl(GetParam().text);
  EXPECT_FALSE(result.expr.has_value());
  EXPECT_NE(result.error.find(GetParam().expected_error_fragment),
            std::string::npos)
      << "got: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, ParserErrorTest,
    ::testing::Values(
        BadInput{"", "expected expression"},
        BadInput{"foo(1)", "unknown operator"},
        BadInput{"nCk({p0} k=1, s=0, dur=1, v=1)", "expected ','"},
        BadInput{"nCk({x0}, k=1, s=0, dur=1, v=1)", "expected partition"},
        BadInput{"nCk({p0}, k=0, s=0, dur=1, v=1)", "k must be positive"},
        BadInput{"nCk({p0}, k=1, s=0, dur=0, v=1)", "dur must be positive"},
        BadInput{"max(nCk({p0}, k=1, s=0, dur=1, v=1)", "expected ')'"},
        BadInput{"nCk({p0}, k=1, s=0, dur=1, v=1) junk", "trailing input"},
        BadInput{"scale(x, nCk({p0}, k=1, s=0, dur=1, v=1))",
                 "expected number"}));

// --- Hardening: depth limit, truncation, fuzz --------------------------------

std::string Nested(const std::string& op_prefix, int levels,
                   const std::string& leaf) {
  std::string text;
  for (int i = 0; i < levels; ++i) {
    text += op_prefix;
  }
  text += leaf;
  text.append(levels, ')');
  return text;
}

TEST(ParserHardeningTest, DeeplyNestedInputFailsGracefully) {
  // Recursive descent without a ceiling would blow the stack here.
  std::string text =
      Nested("scale(1.0, ", 5000, "nCk({p0}, k=1, s=0, dur=1, v=1)");
  StrlParseResult result = ParseStrl(text);
  EXPECT_FALSE(result.expr.has_value());
  EXPECT_NE(result.error.find("nested deeper"), std::string::npos)
      << "got: " << result.error;
}

TEST(ParserHardeningTest, NestingUnderTheLimitStillParses) {
  std::string text =
      Nested("scale(1.0, ", 50, "nCk({p0}, k=1, s=0, dur=1, v=1)");
  StrlParseResult result = ParseStrl(text);
  EXPECT_TRUE(result.expr.has_value()) << result.error;
}

TEST(ParserHardeningTest, UnbalancedOperatorRunHitsDepthLimitNotStack) {
  // No closing parens at all: the parser must diagnose, not recurse forever.
  std::string text;
  for (int i = 0; i < 100000; ++i) {
    text += "max(";
  }
  StrlParseResult result = ParseStrl(text);
  EXPECT_FALSE(result.expr.has_value());
  EXPECT_FALSE(result.error.empty());
}

const char* const kCorpus[] = {
    "nCk({p0,p1}, k=2, s=10, dur=20, v=4.5)",
    "LnCk({p3}, k=5, s=0, dur=8, v=10)",
    "sum(max(nCk({p0}, k=1, s=0, dur=1, v=1), nCk({p1}, k=1, s=0, dur=1, "
    "v=2)), min(nCk({p0}, k=1, s=0, dur=1, v=3), nCk({p1}, k=1, s=0, "
    "dur=1, v=3)))",
    "barrier(3, scale(2.5, nCk({p0}, k=1, s=0, dur=1, v=2)))",
    "max(nCk({p0}, k=1, s=-5, dur=10, v=1), LnCk({p1,p2}, k=3, s=4, dur=6, "
    "v=0.25))",
};

TEST(ParserHardeningTest, EveryPrefixOfValidInputFailsGracefully) {
  for (const char* text : kCorpus) {
    std::string full(text);
    for (size_t cut = 0; cut < full.size(); ++cut) {
      StrlParseResult result = ParseStrl(full.substr(0, cut));
      if (!result.expr.has_value()) {
        EXPECT_FALSE(result.error.empty())
            << "silent failure on prefix of length " << cut;
      }
    }
  }
}

TEST(ParserHardeningTest, SeededFuzzOverMutatedCorpusNeverCrashes) {
  // Deterministic fuzz: random byte flips, insertions, deletions, and chunk
  // duplications over valid corpus expressions. The parser must always
  // either parse or return a diagnostic — never crash, hang, or throw.
  std::mt19937 rng(0xC0FFEE);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = kCorpus[rng() % std::size(kCorpus)];
    int mutations = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = rng() % text.size();
      switch (rng() % 4) {
        case 0:  // flip a byte (printable-ish range keeps tokens plausible)
          text[pos] = static_cast<char>(' ' + rng() % 95);
          break;
        case 1:  // delete a byte
          text.erase(pos, 1);
          break;
        case 2:  // insert a structural byte
          text.insert(pos, 1, "(){},=.-0123456789maxsuminck"[rng() % 28]);
          break;
        case 3: {  // duplicate a random chunk
          size_t len = 1 + rng() % 16;
          text.insert(pos, text.substr(pos, len));
          break;
        }
      }
    }
    StrlParseResult result = ParseStrl(text);
    if (result.expr.has_value()) {
      ++parsed;
    } else {
      ++rejected;
      EXPECT_FALSE(result.error.empty()) << "silent failure on: " << text;
    }
  }
  // Sanity: the mutator must exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace tetrisched

// Tests for the corpus inverted index, PMI/NPMI (Equations 1-2, Example 4),
// and column coherence (Example 5's Table 7 scenario).
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "oracles/inverted_index_oracle.h"
#include "stats/coherence.h"
#include "stats/inverted_index.h"
#include "stats/npmi.h"
#include "table/corpus.h"

namespace ms {
namespace {

/// A corpus where {usa, canada, mexico} co-occur in many columns, {red,
/// blue} co-occur in others, and "orphan" appears alone.
class StatsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      corpus_.AddFromStrings(
          "geo" + std::to_string(i), TableSource::kWeb, {"country"},
          {{"usa", "canada", "mexico"}});
    }
    for (int i = 0; i < 6; ++i) {
      corpus_.AddFromStrings("col" + std::to_string(i), TableSource::kWeb,
                             {"color"}, {{"red", "blue"}});
    }
    corpus_.AddFromStrings("misc", TableSource::kWeb, {"x"}, {{"orphan"}});
    // One column mixing both concepts.
    corpus_.AddFromStrings("mixed", TableSource::kWeb, {"m"},
                           {{"usa", "red"}});
    index_.Build(corpus_);
  }

  ValueId Id(const std::string& s) { return corpus_.pool().Find(s); }

  TableCorpus corpus_;
  ColumnInvertedIndex index_;
};

TEST_F(StatsFixture, ColumnCountMatchesCorpus) {
  EXPECT_EQ(index_.num_columns(), corpus_.TotalColumns());
  EXPECT_EQ(index_.num_columns(), 18u);
}

TEST_F(StatsFixture, ColumnFrequency) {
  EXPECT_EQ(index_.ColumnFrequency(Id("usa")), 11u);     // 10 geo + mixed
  EXPECT_EQ(index_.ColumnFrequency(Id("canada")), 10u);
  EXPECT_EQ(index_.ColumnFrequency(Id("red")), 7u);      // 6 color + mixed
  EXPECT_EQ(index_.ColumnFrequency(Id("orphan")), 1u);
  EXPECT_EQ(index_.ColumnFrequency(999999), 0u);  // unseen id
}

TEST_F(StatsFixture, CoOccurrence) {
  EXPECT_EQ(index_.CoOccurrence(Id("usa"), Id("canada")), 10u);
  EXPECT_EQ(index_.CoOccurrence(Id("usa"), Id("red")), 1u);  // mixed column
  EXPECT_EQ(index_.CoOccurrence(Id("canada"), Id("red")), 0u);
  EXPECT_EQ(index_.CoOccurrence(Id("orphan"), Id("usa")), 0u);
}

TEST_F(StatsFixture, DuplicateValueInColumnCountsOnce) {
  TableCorpus c;
  c.AddFromStrings("d", TableSource::kWeb, {"x"}, {{"a", "a", "a"}});
  ColumnInvertedIndex idx;
  idx.Build(c);
  EXPECT_EQ(idx.ColumnFrequency(c.pool().Find("a")), 1u);
}

TEST_F(StatsFixture, ColumnCoords) {
  auto [table, col] = index_.ColumnCoords(0);
  EXPECT_EQ(table, 0u);
  EXPECT_EQ(col, 0u);
}

TEST_F(StatsFixture, PmiPositiveForCoOccurring) {
  EXPECT_GT(Pmi(index_, Id("usa"), Id("canada")), 0.0);
}

TEST_F(StatsFixture, PmiVeryNegativeForNonCoOccurring) {
  EXPECT_LT(Pmi(index_, Id("canada"), Id("red")), -1e8);
}

TEST_F(StatsFixture, PmiZeroForUnseenValues) {
  EXPECT_DOUBLE_EQ(Pmi(index_, 999999, Id("usa")), 0.0);
}

TEST_F(StatsFixture, NpmiRange) {
  for (const char* a : {"usa", "canada", "red", "blue", "orphan"}) {
    for (const char* b : {"usa", "canada", "red", "blue", "orphan"}) {
      double v = Npmi(index_, Id(a), Id(b));
      EXPECT_GE(v, -1.0) << a << "," << b;
      EXPECT_LE(v, 1.0) << a << "," << b;
    }
  }
}

TEST_F(StatsFixture, NpmiSelfIsOneWhenExclusive) {
  // canada only ever occurs with itself-containing columns: NPMI(u,u)=1.
  EXPECT_DOUBLE_EQ(Npmi(index_, Id("canada"), Id("canada")), 1.0);
}

TEST_F(StatsFixture, NpmiMinusOneForDisjoint) {
  EXPECT_DOUBLE_EQ(Npmi(index_, Id("canada"), Id("red")), -1.0);
}

TEST_F(StatsFixture, NpmiOrdersRelatednessSensibly) {
  const double strong = Npmi(index_, Id("usa"), Id("canada"));
  const double weak = Npmi(index_, Id("usa"), Id("red"));
  EXPECT_GT(strong, weak);
}

TEST(PmiExampleTest, PaperExample4) {
  // N=100M columns, |C(u)|=1000, |C(v)|=500, |C(u)∩C(v)|=300
  // => PMI = log(300e-8 / (1e-5 * 5e-6)) = log(6e4) ≈ 11.0 (natural log).
  // The paper quotes 4.78 with log10; we use natural log, so check the
  // ratio rather than the constant.
  const double n = 1e8, cu = 1000, cv = 500, cuv = 300;
  const double pmi = std::log((cuv / n) / ((cu / n) * (cv / n)));
  EXPECT_NEAR(pmi / std::log(10.0), 4.778, 0.01);  // matches the paper in log10
}

// ------------------------------------------------- CSR-vs-reference oracle

TEST(CsrEquivalenceTest, MatchesReferenceOnRandomCorpora) {
  // The CSR build (serial and parallel) must agree with the seed
  // vector<vector> build on every observable: column counts, frequencies,
  // posting lists, and co-occurrence counts.
  for (uint64_t seed : {3u, 17u, 91u}) {
    Rng rng(seed);
    TableCorpus corpus;
    const size_t n_tables = 20 + rng.Uniform(30);
    for (size_t t = 0; t < n_tables; ++t) {
      const size_t n_cols = 1 + rng.Uniform(4);
      std::vector<std::string> names;
      std::vector<std::vector<std::string>> cols;
      for (size_t c = 0; c < n_cols; ++c) {
        names.push_back("c" + std::to_string(c));
        std::vector<std::string> cells;
        const size_t n_rows = 1 + rng.Uniform(15);
        for (size_t r = 0; r < n_rows; ++r) {
          // Zipf skew => a few very hot values with long posting lists.
          cells.push_back("w" + std::to_string(rng.Zipf(80)));
        }
        cols.push_back(std::move(cells));
      }
      corpus.AddFromStrings("d" + std::to_string(t), TableSource::kWeb, names,
                            cols);
    }

    ReferenceInvertedIndex ref;
    ref.Build(corpus);
    ColumnInvertedIndex csr;
    csr.Build(corpus);
    ThreadPool pool(4);
    ColumnInvertedIndex csr_par;
    csr_par.Build(corpus, &pool);

    ASSERT_EQ(csr.num_columns(), ref.num_columns());
    ASSERT_EQ(csr_par.num_columns(), ref.num_columns());
    const size_t n_values = corpus.pool().size();
    for (ValueId u = 0; u < n_values; ++u) {
      ASSERT_EQ(csr.ColumnFrequency(u), ref.ColumnFrequency(u)) << "u=" << u;
      ASSERT_EQ(csr_par.ColumnFrequency(u), ref.ColumnFrequency(u));
      PostingsView pv = csr.Postings(u);
      const auto& rv = ref.Postings(u);
      ASSERT_EQ(pv.size, rv.size());
      for (size_t i = 0; i < pv.size; ++i) {
        ASSERT_EQ(pv[i], rv[i]) << "u=" << u << " i=" << i;
      }
      PostingsView pp = csr_par.Postings(u);
      ASSERT_EQ(pp.size, rv.size());
      for (size_t i = 0; i < pp.size; ++i) ASSERT_EQ(pp[i], rv[i]);
    }
    for (int rep = 0; rep < 400; ++rep) {
      ValueId u = static_cast<ValueId>(rng.Uniform(n_values));
      ValueId v = static_cast<ValueId>(rng.Uniform(n_values));
      ASSERT_EQ(csr.CoOccurrence(u, v), ref.CoOccurrence(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(CsrEquivalenceTest, GallopingHandlesSkewedLists) {
  // One value present in every column, one in few: forces the galloping
  // path (|long| / |short| >= 8) in both argument orders.
  TableCorpus corpus;
  for (int t = 0; t < 120; ++t) {
    std::vector<std::string> cells = {"hot"};
    if (t % 30 == 0) cells.push_back("rare");
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }
  ReferenceInvertedIndex ref;
  ref.Build(corpus);
  ColumnInvertedIndex csr;
  csr.Build(corpus);
  ValueId hot = corpus.pool().Find("hot");
  ValueId rare = corpus.pool().Find("rare");
  EXPECT_EQ(csr.ColumnFrequency(hot), 120u);
  EXPECT_EQ(csr.ColumnFrequency(rare), 4u);
  EXPECT_EQ(csr.CoOccurrence(hot, rare), ref.CoOccurrence(hot, rare));
  EXPECT_EQ(csr.CoOccurrence(rare, hot), 4u);
  EXPECT_EQ(csr.CoOccurrence(hot, hot), 120u);
}

TEST(CsrEquivalenceTest, UnseenAndInvalidIdsAreSafe) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {{"a", "b"}});
  ColumnInvertedIndex csr;
  csr.Build(corpus);
  EXPECT_EQ(csr.ColumnFrequency(999999), 0u);
  EXPECT_EQ(csr.ColumnFrequency(kInvalidValueId), 0u);
  EXPECT_EQ(csr.CoOccurrence(kInvalidValueId, 0), 0u);
  EXPECT_TRUE(csr.Postings(kInvalidValueId).empty());
  ColumnInvertedIndex empty;
  TableCorpus none;
  empty.Build(none);
  EXPECT_EQ(empty.num_columns(), 0u);
  EXPECT_EQ(empty.ColumnFrequency(0), 0u);
}

// ---------------------------------------------------------------- Coherence

TEST_F(StatsFixture, CoherentColumnScoresHigh) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada"), Id("mexico")};
  EXPECT_GT(ColumnCoherence(index_, cells), 0.5);
}

TEST_F(StatsFixture, MixedColumnScoresLow) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada"), Id("red"),
                                Id("blue"), Id("orphan")};
  const double mixed = ColumnCoherence(index_, cells);
  std::vector<ValueId> pure = {Id("usa"), Id("canada"), Id("mexico")};
  EXPECT_LT(mixed, ColumnCoherence(index_, pure));
}

TEST_F(StatsFixture, SingleValueColumnIsTriviallyCoherent) {
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {Id("usa")}), 1.0);
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {Id("usa"), Id("usa")}), 1.0);
}

TEST_F(StatsFixture, EmptyColumnScoresZero) {
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {}), 0.0);
}

TEST_F(StatsFixture, SamplingIsDeterministic) {
  std::vector<ValueId> cells;
  for (int rep = 0; rep < 3; ++rep) {
    cells.push_back(Id("usa"));
    cells.push_back(Id("canada"));
    cells.push_back(Id("mexico"));
    cells.push_back(Id("red"));
    cells.push_back(Id("blue"));
  }
  CoherenceOptions opts;
  opts.max_sampled_values = 3;
  const double a = ColumnCoherence(index_, cells, opts);
  const double b = ColumnCoherence(index_, cells, opts);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(StatsFixture, SamplingCapChangesNothingWhenSmall) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada")};
  CoherenceOptions big, small;
  small.max_sampled_values = 2;
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, cells, big),
                   ColumnCoherence(index_, cells, small));
}

// ------------------------------------------------ Coherence margin cache

TEST_F(StatsFixture, MonotoneVerdictsAreStableOutright) {
  CoherenceProfile prof;
  const double score = ColumnCoherence(
      index_, {Id("usa"), Id("canada"), Id("mexico")}, {}, &prof);
  ASSERT_GT(prof.pairs, 0u);
  ASSERT_EQ(prof.n_eval, index_.num_columns());
  // Same N, same counts: nothing moved.
  EXPECT_TRUE(CoherenceVerdictStable(prof, 0.5, prof.n_eval));
  // At fixed counts S(C) only rises with N, so a kept verdict survives any
  // growth and a rejected one survives any shrink — no bound math needed.
  EXPECT_TRUE(CoherenceVerdictStable(prof, score - 0.01, prof.n_eval + 100));
  EXPECT_TRUE(CoherenceVerdictStable(prof, score + 0.01, prof.n_eval - 3));
}

TEST_F(StatsFixture, DistantThresholdsAreStableInTheHardDirections) {
  CoherenceProfile prof;
  ColumnCoherence(index_, {Id("usa"), Id("canada"), Id("mexico")}, {}, &prof);
  // S(C) lives in [-1, 1] at every N, so verdicts against thresholds
  // outside that range are provable even in the directions that need the
  // one-sided rho bound: rejected-vs-2.0 under growth, kept-vs-(-2.0)
  // under shrink (which additionally requires b_max < n_now).
  EXPECT_TRUE(CoherenceVerdictStable(prof, 2.0, prof.n_eval * 10));
  ASSERT_LT(prof.b_max, prof.n_eval - 3);
  EXPECT_TRUE(CoherenceVerdictStable(prof, -2.0, prof.n_eval - 3));
}

TEST_F(StatsFixture, StableVerdictsAgreeWithReEvaluationOnDisjointGrowth) {
  const std::vector<std::vector<ValueId>> cols = {
      {Id("usa"), Id("canada"), Id("mexico")},
      {Id("usa"), Id("canada"), Id("red"), Id("blue"), Id("orphan")},
      {Id("red"), Id("blue")},
  };
  std::vector<CoherenceProfile> profs(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    ColumnCoherence(index_, cols[i], {}, &profs[i]);
  }

  // Grow the corpus with columns over fresh values: every profiled
  // column's counts are unchanged and only N moves — exactly the regime
  // the margin cache is allowed to rule on.
  for (int i = 0; i < 40; ++i) {
    corpus_.AddFromStrings("pad" + std::to_string(i), TableSource::kWeb,
                           {"p"}, {{"pad value " + std::to_string(i)}});
  }
  ColumnInvertedIndex grown;
  grown.Build(corpus_);
  ASSERT_GT(grown.num_columns(), index_.num_columns());

  for (const double thr : {0.05, 0.2, 0.5, 0.8}) {
    for (size_t i = 0; i < cols.size(); ++i) {
      // Growth direction: a claim of stability is a proof, so the fresh
      // verdict at the grown N must agree with the cached one.
      if (CoherenceVerdictStable(profs[i], thr, grown.num_columns())) {
        EXPECT_EQ(ColumnCoherence(grown, cols[i]) >= thr,
                  profs[i].score >= thr)
            << "col " << i << " thr " << thr;
      }
      // Shrink direction: profile at the grown index, verdict at the
      // original N.
      CoherenceProfile big;
      const double score = ColumnCoherence(grown, cols[i], {}, &big);
      if (CoherenceVerdictStable(big, thr, index_.num_columns())) {
        EXPECT_EQ(ColumnCoherence(index_, cols[i]) >= thr, score >= thr)
            << "col " << i << " thr " << thr;
      }
    }
  }
}

}  // namespace
}  // namespace ms

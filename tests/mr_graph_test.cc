// Tests for the mini MapReduce engine, union-find, the compatibility graph
// container, and connected components (BFS vs Hash-to-Min equivalence).
#include <map>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "graph/weighted_graph.h"
#include "mr/mapreduce.h"

namespace ms {
namespace {

// -------------------------------------------------------------- MapReduce

TEST(MapReduceTest, WordCount) {
  std::vector<std::string> docs = {"a b a", "b c", "a"};
  std::function<void(const std::string&, Emitter<std::string, int>&)> map_fn =
      [](const std::string& doc, Emitter<std::string, int>& em) {
        size_t pos = 0;
        while (pos < doc.size()) {
          size_t next = doc.find(' ', pos);
          if (next == std::string::npos) next = doc.size();
          em.Emit(doc.substr(pos, next - pos), 1);
          pos = next + 1;
        }
      };
  std::function<void(const std::string&, std::vector<int>&,
                     std::vector<std::pair<std::string, int>>*)>
      reduce_fn = [](const std::string& word, std::vector<int>& counts,
                     std::vector<std::pair<std::string, int>>* out) {
        out->push_back({word, std::accumulate(counts.begin(), counts.end(), 0)});
      };
  auto result =
      RunMapReduce<std::string, std::string, int,
                   std::pair<std::string, int>>(docs, map_fn, reduce_fn,
                                                nullptr);
  std::map<std::string, int> counts(result.begin(), result.end());
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
}

TEST(MapReduceTest, ParallelMatchesSerial) {
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  std::function<void(const int&, Emitter<int, int>&)> map_fn =
      [](const int& x, Emitter<int, int>& em) { em.Emit(x % 7, x); };
  std::function<void(const int&, std::vector<int>&,
                     std::vector<std::pair<int, long>>*)>
      reduce_fn = [](const int& key, std::vector<int>& vals,
                     std::vector<std::pair<int, long>>* out) {
        long sum = 0;
        for (int v : vals) sum += v;
        out->push_back({key, sum});
      };
  ThreadPool pool(4);
  auto serial = RunMapReduce<int, int, int, std::pair<int, long>>(
      inputs, map_fn, reduce_fn, nullptr);
  auto parallel = RunMapReduce<int, int, int, std::pair<int, long>>(
      inputs, map_fn, reduce_fn, &pool);
  std::map<int, long> ms_(serial.begin(), serial.end());
  std::map<int, long> mp(parallel.begin(), parallel.end());
  EXPECT_EQ(ms_, mp);
}

TEST(MapReduceTest, EmptyInput) {
  std::function<void(const int&, Emitter<int, int>&)> map_fn =
      [](const int&, Emitter<int, int>&) {};
  std::function<void(const int&, std::vector<int>&, std::vector<int>*)>
      reduce_fn = [](const int&, std::vector<int>&, std::vector<int>*) {};
  auto out = RunMapReduce<int, int, int, int>({}, map_fn, reduce_fn, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(MapShuffleTest, KeysArePartitionConsistentAndComplete) {
  // RunMapShuffle must deliver every emitted pair, with all pairs for one
  // key inside one partition, deterministically across thread counts.
  std::vector<int> inputs(300);
  std::iota(inputs.begin(), inputs.end(), 0);
  std::function<void(const int&, Emitter<int, int>&)> map_fn =
      [](const int& x, Emitter<int, int>& em) { em.Emit(x % 13, x); };
  auto check = [&](ThreadPool* pool) {
    auto parts = RunMapShuffle<int, int, int>(inputs, map_fn, pool);
    std::map<int, size_t> key_partition;
    size_t total = 0;
    long sum = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const auto& [k, v] : parts[p]) {
        auto [it, inserted] = key_partition.emplace(k, p);
        EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
        ++total;
        sum += v;
      }
    }
    EXPECT_EQ(total, inputs.size());
    EXPECT_EQ(sum, 300L * 299 / 2);
  };
  check(nullptr);
  ThreadPool pool(4);
  check(&pool);
}

TEST(MapReduceTest, DefaultPartitionCount) {
  EXPECT_EQ(DefaultPartitionCount(0, 8), 1u);
  EXPECT_EQ(DefaultPartitionCount(2, 8), 2u);
  EXPECT_EQ(DefaultPartitionCount(1000, 8), 32u);
}

// -------------------------------------------------------------- UnionFind

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, UnionMergesAndCounts) {
  UnionFind uf(4);
  uf.Union(0, 1);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.NumSets(), 3u);
  uf.Union(2, 3);
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_EQ(uf.NumSets(), 1u);
  EXPECT_EQ(uf.SetSize(0), 4u);
}

TEST(UnionFindTest, UnionIsIdempotent) {
  UnionFind uf(3);
  uf.Union(0, 1);
  uf.Union(0, 1);
  uf.Union(1, 0);
  EXPECT_EQ(uf.NumSets(), 2u);
  EXPECT_EQ(uf.SetSize(1), 2u);
}

TEST(UnionFindTest, UnionIntoKeepsParentRoot) {
  UnionFind uf(6);
  // Make {0,1,2} with root discovered via Find, then force-merge into 5.
  uf.Union(0, 1);
  uf.Union(1, 2);
  uint32_t r = uf.UnionInto(0, 5);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(uf.Find(0), 5u);
  EXPECT_EQ(uf.Find(2), 5u);
  EXPECT_EQ(uf.SetSize(5), 4u);
}

TEST(UnionFindTest, ComponentsGroupsAll) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  auto comps = uf.Components();
  EXPECT_EQ(comps.size(), 4u);
  size_t total = 0;
  for (const auto& c : comps) total += c.size();
  EXPECT_EQ(total, 6u);
}

TEST(UnionFindTest, RandomizedAgainstNaive) {
  Rng rng(77);
  const uint32_t n = 64;
  UnionFind uf(n);
  std::vector<uint32_t> naive(n);  // component label per vertex
  std::iota(naive.begin(), naive.end(), 0u);
  for (int op = 0; op < 300; ++op) {
    uint32_t a = static_cast<uint32_t>(rng.Uniform(n));
    uint32_t b = static_cast<uint32_t>(rng.Uniform(n));
    uf.Union(a, b);
    uint32_t la = naive[a], lb = naive[b];
    if (la != lb) {
      for (auto& l : naive) {
        if (l == lb) l = la;
      }
    }
    // Spot-check connectivity agreement.
    uint32_t x = static_cast<uint32_t>(rng.Uniform(n));
    uint32_t y = static_cast<uint32_t>(rng.Uniform(n));
    EXPECT_EQ(uf.Connected(x, y), naive[x] == naive[y]);
  }
}

// ----------------------------------------------------- CompatibilityGraph

TEST(CompatibilityGraphTest, EdgeStorageAndAdjacency) {
  CompatibilityGraph g(4);
  g.AddEdge(0, 1, 0.8, 0.0);
  g.AddEdge(2, 1, 0.5, -0.3);
  g.Finalize();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.IncidentEdges(1).size(), 2u);
  EXPECT_EQ(g.IncidentEdges(3).size(), 0u);
  // Edges normalize endpoints to u < v.
  EXPECT_EQ(g.edges()[1].u, 1u);
  EXPECT_EQ(g.edges()[1].v, 2u);
  EXPECT_EQ(g.Other(g.edges()[1], 1), 2u);
}

/// Property: the CSR adjacency lists, for every vertex, exactly the edges
/// a naive per-vertex adjacency built from edges() lists, in the same
/// (ascending edge id) order — whether the graph was built edge by edge,
/// grown again after a Finalize(), or adopted from a ready edge list.
TEST(CompatibilityGraphTest, CsrAdjacencyMatchesNaiveOnRandomGraphs) {
  for (uint64_t seed : {3u, 17u, 29u, 41u, 53u}) {
    Rng rng(seed);
    const size_t n = 1 + rng.Uniform(80);
    const size_t m = rng.Uniform(4 * n);
    CompatibilityGraph built(n);
    for (size_t e = 0; e < m; ++e) {
      const VertexId u = static_cast<VertexId>(rng.Uniform(n));
      const VertexId v = static_cast<VertexId>(rng.Uniform(n));
      if (u == v) continue;
      built.AddEdge(u, v, rng.UniformDouble(), -rng.UniformDouble());
      // Finalize midway too: adding edges afterwards must rebuild.
      if (e == m / 2) built.Finalize();
    }
    built.Finalize();
    CompatibilityGraph adopted(n, built.edges());

    std::vector<std::vector<uint32_t>> naive(n);
    for (uint32_t e = 0; e < built.edges().size(); ++e) {
      naive[built.edges()[e].u].push_back(e);
      naive[built.edges()[e].v].push_back(e);
    }
    for (const CompatibilityGraph* g : {&built, &adopted}) {
      ASSERT_EQ(g->num_edges(), built.num_edges());
      for (VertexId v = 0; v < n; ++v) {
        const auto got = g->IncidentEdges(v);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), naive[v])
            << "seed=" << seed << " v=" << v;
      }
    }
  }
}

// ----------------------------------------------------------- Components

CompatibilityGraph ChainGraph(size_t n, double w) {
  CompatibilityGraph g(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1), w, 0.0);
  }
  g.Finalize();
  return g;
}

TEST(ConnectedComponentsTest, ChainIsOneComponent) {
  auto g = ChainGraph(10, 0.9);
  auto comp = ConnectedComponentsBfs(g);
  for (uint32_t c : comp) EXPECT_EQ(c, comp[0]);
}

TEST(ConnectedComponentsTest, ThresholdSplitsChain) {
  CompatibilityGraph g(4);
  g.AddEdge(0, 1, 0.9, 0.0);
  g.AddEdge(1, 2, 0.1, 0.0);  // below threshold
  g.AddEdge(2, 3, 0.9, 0.0);
  g.Finalize();
  auto comp = ConnectedComponentsBfs(g, 0.5);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(ConnectedComponentsTest, IsolatedVerticesAreSingletons) {
  CompatibilityGraph g(3);
  g.Finalize();
  auto comp = ConnectedComponentsBfs(g);
  EXPECT_EQ(GroupByComponent(comp).size(), 3u);
}

TEST(ConnectedComponentsTest, HashToMinMatchesBfsOnChain) {
  auto g = ChainGraph(32, 0.7);
  auto bfs = GroupByComponent(ConnectedComponentsBfs(g));
  auto htm = GroupByComponent(ConnectedComponentsHashToMin(g));
  EXPECT_EQ(bfs.size(), htm.size());
}

/// Property: BFS and Hash-to-Min produce identical partitions on random
/// graphs (compared as canonical component signatures).
class CcEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CcEquivalenceTest, BfsEqualsHashToMin) {
  Rng rng(GetParam());
  const size_t n = 60;
  CompatibilityGraph g(n);
  const size_t edges = 80;
  for (size_t e = 0; e < edges; ++e) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    g.AddEdge(u, v, rng.UniformDouble(), 0.0);
  }
  g.Finalize();
  ThreadPool pool(2);
  for (double threshold : {0.0, 0.3, 0.7}) {
    auto a = ConnectedComponentsBfs(g, threshold);
    auto b = ConnectedComponentsHashToMin(g, threshold, &pool);
    // Same partition iff component ids are consistent pairwise.
    ASSERT_EQ(a.size(), b.size());
    std::map<uint32_t, uint32_t> a2b;
    for (size_t v = 0; v < n; ++v) {
      auto [it, inserted] = a2b.emplace(a[v], b[v]);
      EXPECT_EQ(it->second, b[v]) << "seed=" << GetParam()
                                  << " threshold=" << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CcEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(GroupByComponentTest, EmptyInput) {
  EXPECT_TRUE(GroupByComponent({}).empty());
}

}  // namespace
}  // namespace ms

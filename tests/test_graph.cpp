// Unit tests for the graph substrate: digraph invariants, cyclomatic
// complexity, Brandes betweenness centrality on known graphs, and the
// Hungarian assignment solver.
#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "graph/matching.h"
#include "util/rng.h"

namespace patchecko {
namespace {

Digraph path_graph(std::size_t n) {
  Digraph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(Digraph, NodeAndEdgeCounting) {
  Digraph g;
  EXPECT_EQ(g.node_count(), 0u);
  const std::size_t a = g.add_node();
  const std::size_t b = g.add_node();
  g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
}

TEST(Digraph, DuplicateEdgesCollapse) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, SelfLoopAllowed) {
  Digraph g(1);
  g.add_edge(0, 0);
  EXPECT_TRUE(g.has_edge(0, 0));
}

TEST(Digraph, AddEdgeOutOfRangeThrows) {
  Digraph g(1);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
}

TEST(Digraph, InDegrees) {
  Digraph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const auto degrees = g.in_degrees();
  EXPECT_EQ(degrees[0], 0u);
  EXPECT_EQ(degrees[2], 2u);
}

TEST(Digraph, ReachabilityFollowsEdges) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto reach = g.reachable_from(0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(Digraph, CyclomaticComplexityStraightLine) {
  // E - N + 2 = (n-1) - n + 2 = 1 for a path.
  EXPECT_EQ(path_graph(5).cyclomatic_complexity(), 1);
}

TEST(Digraph, CyclomaticComplexityDiamond) {
  Digraph g(4);  // if/else diamond: 4 edges, 4 nodes -> 2
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(g.cyclomatic_complexity(), 2);
}

TEST(Digraph, CyclomaticComplexityEmpty) {
  EXPECT_EQ(Digraph().cyclomatic_complexity(), 0);
}

TEST(Betweenness, PathGraphMiddleDominates) {
  // Directed path 0->1->2: node 1 lies on the only 0->2 shortest path.
  const auto c = betweenness_centrality(path_graph(3));
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(c[2], 0.0);
}

TEST(Betweenness, LongerPathAccumulates) {
  // 0->1->2->3: c(1) = paths 0->2,0->3 = 2; c(2) = 0->3,1->3 = 2.
  const auto c = betweenness_centrality(path_graph(4));
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[2], 2.0);
}

TEST(Betweenness, StarCenterZeroOnDirectedOut) {
  // Directed star 0->{1,2,3}: no node between any pair.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto c = betweenness_centrality(g);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Betweenness, SplitShortestPathsShareCredit) {
  // 0->{1,2}->3: two equal shortest paths 0->3; each middle gets 0.5.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto c = betweenness_centrality(g);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 0.5);
}

TEST(Betweenness, EmptyGraph) {
  EXPECT_TRUE(betweenness_centrality(Digraph()).empty());
}

TEST(Betweenness, ReusedScratchMatchesFresh) {
  // A dense graph, then a smaller one on the same scratch (stale slots and
  // predecessor slices left behind), then the dense one again.
  Digraph dense(7);
  for (std::size_t v = 0; v < 7; ++v)
    for (std::size_t w = 0; w < 7; ++w)
      if ((v * 3 + w) % 4 != 0) dense.add_edge(v, w);
  const Digraph small = path_graph(3);
  BrandesScratch scratch;
  for (const Digraph* graph :
       std::vector<const Digraph*>{&dense, &small, &dense, &small}) {
    const std::span<const double> reused =
        betweenness_centrality(*graph, scratch);
    const std::vector<double> fresh = betweenness_centrality(*graph);
    EXPECT_EQ(std::vector<double>(reused.begin(), reused.end()), fresh);
  }
}

TEST(Hungarian, IdentityMatrix) {
  // Zero diagonal is the optimal assignment.
  const std::vector<std::vector<double>> cost{
      {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(result.assignment[r], r);
}

TEST(Hungarian, KnownOptimal) {
  const std::vector<std::vector<double>> cost{
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const AssignmentResult result = solve_assignment(cost);
  // Optimal: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
  EXPECT_DOUBLE_EQ(result.total_cost, 5.0);
}

TEST(Hungarian, RectangularMoreColumns) {
  const std::vector<std::vector<double>> cost{{5, 1, 9}};
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_EQ(result.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(result.total_cost, 1.0);
}

TEST(Hungarian, EmptyInput) {
  const AssignmentResult result = solve_assignment({});
  EXPECT_TRUE(result.assignment.empty());
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST(Hungarian, OptimalityAgainstBruteForce) {
  // Property check: on random 4x4 matrices the solver matches exhaustive
  // search.
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<double>> cost(4, std::vector<double>(4));
    for (auto& row : cost)
      for (double& v : row) v = rng.uniform_real(0, 10);
    const AssignmentResult result = solve_assignment(cost);

    std::vector<std::size_t> perm{0, 1, 2, 3};
    double best = 1e18;
    do {
      double total = 0;
      for (std::size_t r = 0; r < 4; ++r) total += cost[r][perm[r]];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(result.total_cost, best, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace patchecko

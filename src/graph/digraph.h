// Directed graph used for control-flow graphs and their analyses.
//
// Nodes are dense indices 0..node_count()-1; parallel edges are collapsed.
// The feature extractor (Table I) consumes edge counts, cyclomatic
// complexity, and betweenness centrality computed over this structure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace patchecko {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count)
      : successors_(node_count), node_count_(node_count) {}

  /// Empties the graph to `node_count` edgeless nodes. Storage is kept:
  /// the node table never shrinks and each node keeps its successor
  /// capacity, so rebuilding a graph that fits in that capacity (the same
  /// graph, for one) allocates nothing.
  void reset(std::size_t node_count);

  std::size_t add_node();

  /// Adds edge from -> to; duplicate edges are ignored. Both endpoints must
  /// already exist.
  void add_edge(std::size_t from, std::size_t to);

  std::size_t node_count() const { return node_count_; }
  std::size_t edge_count() const { return edge_count_; }

  const std::vector<std::size_t>& successors(std::size_t node) const {
    return successors_[node];
  }

  bool has_edge(std::size_t from, std::size_t to) const;

  /// In-degrees of every node in one pass.
  std::vector<std::size_t> in_degrees() const;

  /// Nodes reachable from `start` (including `start`).
  std::vector<bool> reachable_from(std::size_t start) const;

  /// Cyclomatic complexity E - N + 2 (paper's Table I definition). Zero-node
  /// graphs yield 0.
  long cyclomatic_complexity() const;

 private:
  /// One entry per node ever allocated; only the first node_count_ are
  /// live, the rest keep their capacity for the next reset().
  std::vector<std::vector<std::size_t>> successors_;
  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;
};

/// Working storage of betweenness_centrality. Every array keeps its
/// capacity between calls, so once it has seen a graph with at least as
/// many nodes and edges the computation makes no heap allocation.
struct BrandesScratch {
  std::vector<double> centrality;  ///< the result, one score per node
  std::vector<double> sigma;
  std::vector<double> delta;
  std::vector<long> dist;
  std::vector<std::size_t> order;  ///< BFS queue; popped in push order
  /// Predecessors of node w live in preds[pred_begin[w] ..
  /// pred_begin[w] + pred_count[w]), a slice as long as w's in-degree.
  std::vector<std::size_t> pred_begin;
  std::vector<std::size_t> pred_count;
  std::vector<std::size_t> preds;
};

/// Brandes' algorithm for betweenness centrality on an unweighted digraph,
/// on reused storage. Returns one score per node (a view of
/// scratch.centrality, valid until the next call on `scratch`).
std::span<const double> betweenness_centrality(const Digraph& graph,
                                               BrandesScratch& scratch);

/// Brandes' algorithm on fresh storage. Returns one score per node.
std::vector<double> betweenness_centrality(const Digraph& graph);

}  // namespace patchecko

#include "graph/digraph.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace patchecko {

void Digraph::reset(std::size_t node_count) {
  if (successors_.size() < node_count) successors_.resize(node_count);
  for (std::size_t node = 0; node < node_count; ++node)
    successors_[node].clear();
  node_count_ = node_count;
  edge_count_ = 0;
}

std::size_t Digraph::add_node() {
  if (node_count_ == successors_.size())
    successors_.emplace_back();
  else
    successors_[node_count_].clear();
  return node_count_++;
}

void Digraph::add_edge(std::size_t from, std::size_t to) {
  if (from >= node_count() || to >= node_count())
    throw std::out_of_range("Digraph::add_edge: node out of range");
  auto& succ = successors_[from];
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
  succ.push_back(to);
  ++edge_count_;
}

bool Digraph::has_edge(std::size_t from, std::size_t to) const {
  if (from >= node_count()) return false;
  const auto& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::vector<std::size_t> Digraph::in_degrees() const {
  std::vector<std::size_t> degrees(node_count(), 0);
  for (std::size_t node = 0; node < node_count(); ++node)
    for (std::size_t to : successors_[node]) ++degrees[to];
  return degrees;
}

std::vector<bool> Digraph::reachable_from(std::size_t start) const {
  std::vector<bool> seen(node_count(), false);
  if (start >= node_count()) return seen;
  std::deque<std::size_t> frontier{start};
  seen[start] = true;
  while (!frontier.empty()) {
    const std::size_t node = frontier.front();
    frontier.pop_front();
    for (std::size_t next : successors_[node]) {
      if (!seen[next]) {
        seen[next] = true;
        frontier.push_back(next);
      }
    }
  }
  return seen;
}

long Digraph::cyclomatic_complexity() const {
  if (node_count() == 0) return 0;
  return static_cast<long>(edge_count_) - static_cast<long>(node_count()) + 2;
}

std::span<const double> betweenness_centrality(const Digraph& graph,
                                               BrandesScratch& scratch) {
  const std::size_t n = graph.node_count();
  std::vector<double>& centrality = scratch.centrality;
  std::vector<double>& sigma = scratch.sigma;
  std::vector<double>& delta = scratch.delta;
  std::vector<long>& dist = scratch.dist;
  std::vector<std::size_t>& order = scratch.order;
  std::vector<std::size_t>& pred_begin = scratch.pred_begin;
  std::vector<std::size_t>& pred_count = scratch.pred_count;
  std::vector<std::size_t>& preds = scratch.preds;
  centrality.assign(n, 0.0);
  sigma.assign(n, 0.0);
  delta.assign(n, 0.0);
  dist.assign(n, -1L);
  order.resize(n);
  pred_count.assign(n, 0);

  // A node gains at most one predecessor per incoming edge per source, so
  // slicing one flat array by in-degree holds every predecessor list.
  pred_begin.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t w : graph.successors(v)) ++pred_begin[w];
  std::size_t slots = 0;
  for (std::size_t& begin : pred_begin) {
    const std::size_t in_degree = begin;
    begin = slots;
    slots += in_degree;
  }
  preds.resize(slots);

  for (std::size_t source = 0; source < n; ++source) {
    sigma[source] = 1.0;
    dist[source] = 0;

    // order[] is the BFS queue: nodes pop in push order, so once head
    // catches up it holds the visit order the accumulation walks back.
    std::size_t head = 0;
    std::size_t tail = 0;
    order[tail++] = source;
    while (head < tail) {
      const std::size_t v = order[head++];
      for (std::size_t w : graph.successors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          order[tail++] = w;
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[pred_begin[w] + pred_count[w]++] = v;
        }
      }
    }

    for (std::size_t k = tail; k-- > 0;) {
      const std::size_t w = order[k];
      const std::size_t* first = preds.data() + pred_begin[w];
      for (const std::size_t* p = first; p != first + pred_count[w]; ++p)
        delta[*p] += sigma[*p] / sigma[w] * (1.0 + delta[w]);
      if (w != source) centrality[w] += delta[w];
    }

    // Only visited nodes were written; restore them for the next source.
    for (std::size_t k = 0; k < tail; ++k) {
      const std::size_t w = order[k];
      sigma[w] = 0.0;
      delta[w] = 0.0;
      dist[w] = -1;
      pred_count[w] = 0;
    }
  }
  return centrality;
}

std::vector<double> betweenness_centrality(const Digraph& graph) {
  BrandesScratch scratch;
  betweenness_centrality(graph, scratch);
  return std::move(scratch.centrality);
}

}  // namespace patchecko

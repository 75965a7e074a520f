#include "graph/weighted_graph.h"

#include <algorithm>
#include <cassert>

namespace ms {

CompatibilityGraph::CompatibilityGraph(size_t num_vertices,
                                       std::vector<CompatEdge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
#ifndef NDEBUG
  for (const CompatEdge& e : edges_) {
    assert(e.u < e.v && e.v < num_vertices_);
  }
#endif
  Finalize();
}

void CompatibilityGraph::AddEdge(VertexId u, VertexId v, double w_pos,
                                 double w_neg) {
  assert(u != v);
  assert(u < num_vertices_ && v < num_vertices_);
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v, w_pos, w_neg});
  finalized_ = false;
}

void CompatibilityGraph::Finalize() {
  if (finalized_) return;
  // Counting sort of edge endpoints: degrees, prefix sums, then a fill in
  // edge order, so each vertex lists its edges ascending.
  offsets_.assign(num_vertices_ + 1, 0);
  for (const CompatEdge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (size_t v = 0; v < num_vertices_; ++v) offsets_[v + 1] += offsets_[v];
  incident_.assign(2 * edges_.size(), 0);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint32_t e = 0; e < edges_.size(); ++e) {
    incident_[cursor[edges_[e].u]++] = e;
    incident_[cursor[edges_[e].v]++] = e;
  }
  finalized_ = true;
}

std::span<const uint32_t> CompatibilityGraph::IncidentEdges(VertexId v) const {
  assert(finalized_);
  assert(v < num_vertices_);
  return {incident_.data() + offsets_[v], incident_.data() + offsets_[v + 1]};
}

}  // namespace ms

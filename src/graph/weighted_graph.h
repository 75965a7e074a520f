// The compatibility graph G = (B, E) of Section 4.2: vertices are candidate
// binary tables; each edge carries a positive compatibility weight w+ and a
// negative incompatibility weight w-. Edges with both weights zero are
// never materialized (the blocking step guarantees sparsity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ms {

using VertexId = uint32_t;

/// One undirected edge with both signals.
struct CompatEdge {
  VertexId u = 0;
  VertexId v = 0;
  double w_pos = 0.0;  ///< w+(u, v) in [0, 1]
  double w_neg = 0.0;  ///< w-(u, v) in [-1, 0]
};

/// Sparse undirected graph stored as an edge list plus CSR adjacency
/// (per-vertex offsets into one array of incident edge ids). Build either
/// edge by edge via AddEdge()+Finalize(), or in one step by adopting a
/// ready edge list; adjacency queries after Finalize().
class CompatibilityGraph {
 public:
  explicit CompatibilityGraph(size_t num_vertices = 0)
      : num_vertices_(num_vertices) {}

  /// Adopts `edges` verbatim (no copy) and finalizes. Every edge must
  /// satisfy u < v < num_vertices — the form AddEdge() normalizes to.
  CompatibilityGraph(size_t num_vertices, std::vector<CompatEdge> edges);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Reserves room for `n` edges ahead of AddEdge() calls.
  void ReserveEdges(size_t n) { edges_.reserve(n); }

  /// Adds an undirected edge (u != v). Call before Finalize().
  void AddEdge(VertexId u, VertexId v, double w_pos, double w_neg);

  /// Builds adjacency. Idempotent.
  void Finalize();

  const std::vector<CompatEdge>& edges() const { return edges_; }

  /// Indices into edges() incident to vertex v, ascending (valid after
  /// Finalize()).
  std::span<const uint32_t> IncidentEdges(VertexId v) const;

  /// The other endpoint of edge e relative to v.
  VertexId Other(const CompatEdge& e, VertexId v) const {
    return e.u == v ? e.v : e.u;
  }

 private:
  size_t num_vertices_;
  std::vector<CompatEdge> edges_;
  /// CSR adjacency: vertex v's incident edge ids are
  /// incident_[offsets_[v], offsets_[v + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> incident_;
  bool finalized_ = false;
};

}  // namespace ms

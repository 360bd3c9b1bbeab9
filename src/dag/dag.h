// DAG-shaped workflows: named function nodes joined by directed edges.
//
// The paper's middleware selects the cheapest transfer mode per hop but only
// ever executes linear chains; real serverless workflows fan out (one
// function's output replicated to parallel branches) and fan in (a join
// function consuming every branch's output). DagBuilder captures that shape
// and validates it — acyclicity, known endpoints, optionally a single
// source/sink — producing an immutable Dag the executor can walk.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace rr::dag {

// One function node: its name plus predecessor/successor indices. Edge
// *declaration order* is preserved in `preds` — fan-in concatenates
// predecessor payloads in exactly that order.
struct DagNode {
  std::string name;
  std::vector<size_t> preds;
  std::vector<size_t> succs;
};

// An immutable, validated DAG. Only DagBuilder::Build creates one.
class Dag {
 public:
  size_t size() const { return nodes_.size(); }
  size_t edge_count() const { return edge_count_; }

  const DagNode& node(size_t index) const { return nodes_[index]; }
  const std::vector<DagNode>& nodes() const { return nodes_; }

  Result<size_t> IndexOf(const std::string& name) const;

  // Node indices in a valid topological order (Kahn order, ties broken by
  // insertion order — deterministic across runs).
  const std::vector<size_t>& topo_order() const { return topo_order_; }

  // Nodes with no predecessors / no successors, in insertion order.
  const std::vector<size_t>& sources() const { return sources_; }
  const std::vector<size_t>& sinks() const { return sinks_; }

 private:
  friend class DagBuilder;
  Dag() = default;

  std::vector<DagNode> nodes_;
  std::map<std::string, size_t> index_;
  std::vector<size_t> topo_order_;
  std::vector<size_t> sources_;
  std::vector<size_t> sinks_;
  size_t edge_count_ = 0;
};

// Accumulates nodes and edges, then validates the whole shape at Build time.
// Structural errors (duplicate node, unknown edge endpoint, self-edge,
// duplicate edge) are recorded as they are added and surfaced by Build, so
// call sites can chain fluently without checking every step.
class DagBuilder {
 public:
  explicit DagBuilder(std::string name = "dag") : name_(std::move(name)) {}

  DagBuilder& AddNode(const std::string& name);
  DagBuilder& AddEdge(const std::string& from, const std::string& to);

  // Conveniences for the common shapes.
  DagBuilder& Chain(const std::vector<std::string>& names);
  DagBuilder& FanOut(const std::string& from, const std::vector<std::string>& to);
  DagBuilder& FanIn(const std::vector<std::string>& from, const std::string& to);

  struct Options {
    bool require_single_source = false;
    bool require_single_sink = false;
  };

  // Validates (first recorded structural error, emptiness, acyclicity via
  // Kahn's algorithm, source/sink cardinality) and produces the Dag.
  Result<Dag> Build(Options options) const;
  Result<Dag> Build() const { return Build(Options{}); }

  const std::string& name() const { return name_; }

 private:
  size_t NodeIndex(const std::string& name);  // SIZE_MAX if unknown

  std::string name_;
  std::vector<DagNode> nodes_;
  std::map<std::string, size_t> index_;
  std::vector<std::pair<size_t, size_t>> edges_;
  Status first_error_;  // OK until a structural error is recorded
};

}  // namespace rr::dag

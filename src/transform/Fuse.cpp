//===- transform/Fuse.cpp -------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Fuse.h"

#include "analysis/Dataflow.h"
#include "analysis/Legality.h"
#include "ir/Rewrite.h"

using namespace daisy;

std::shared_ptr<Loop> daisy::fuseLoops(const std::shared_ptr<Loop> &First,
                                       const std::shared_ptr<Loop> &Second) {
  std::vector<NodePtr> Body = cloneBody(First->body());
  for (const NodePtr &Child : Second->body())
    Body.push_back(
        renameIterator(Child, Second->iterator(), First->iterator()));
  return std::make_shared<Loop>(First->iterator(), First->lower(),
                                First->upper(), std::move(Body),
                                First->step());
}

std::vector<NodePtr>
daisy::fuseProducerConsumers(const std::vector<NodePtr> &Nodes,
                             const Program &Prog,
                             int MaxBodyComputations) {
  std::vector<NodePtr> Current = cloneBody(Nodes);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    DataflowGraph G = buildDataflowGraph(Current, Prog);
    for (const DataflowEdge &Edge : G.Edges) {
      if (!Edge.OneToOne || Edge.Consumer != Edge.Producer + 1)
        continue;
      auto First = std::dynamic_pointer_cast<Loop>(Current[Edge.Producer]);
      auto Second = std::dynamic_pointer_cast<Loop>(Current[Edge.Consumer]);
      if (!First || !Second || First->isOpaque() || Second->isOpaque())
        continue;
      if (static_cast<int>(First->body().size() + Second->body().size()) >
          MaxBodyComputations)
        continue;
      if (!canFuseLoops(First, Second, Prog.params()))
        continue;
      std::shared_ptr<Loop> Fused = fuseLoops(First, Second);
      Current[Edge.Producer] = Fused;
      Current.erase(Current.begin() +
                    static_cast<std::ptrdiff_t>(Edge.Consumer));
      Changed = true;
      break; // dataflow indices are stale; rebuild the graph
    }
  }
  return Current;
}

//===- machine/Simulator.cpp ----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "machine/Simulator.h"

#include "blas/Kernels.h"
#include "support/Hashing.h"

#include <cassert>
#include <map>

using namespace daisy;

double daisy::machinePeakMflops(const CpuConfig &Cpu, int Threads) {
  return Cpu.FrequencyGHz * 1e9 * Cpu.PeakFlopsPerCycle *
         static_cast<double>(Threads) / 1e6;
}

uint64_t daisy::simOptionsDigest(const SimOptions &Options) {
  HashCombiner D(0x6D616368696E65ull); // "machine"
  const CpuConfig &Cpu = Options.Cpu;
  D.combineDouble(Cpu.FrequencyGHz);
  D.combine(static_cast<uint64_t>(Cpu.SimdWidth));
  D.combineDouble(Cpu.ScalarFlopsPerCycle);
  D.combineDouble(Cpu.PeakFlopsPerCycle);
  D.combine(static_cast<uint64_t>(Cpu.HitLatency.size()));
  for (double Latency : Cpu.HitLatency)
    D.combineDouble(Latency);
  D.combineDouble(Cpu.MemoryLatency);
  D.combineDouble(Cpu.AtomicCost);
  D.combineDouble(Cpu.SyncOverheadCycles);
  D.combineDouble(Cpu.ParallelEfficiencyLoss);
  D.combine(static_cast<uint64_t>(Cpu.RegisterPressureThreshold));
  D.combine(static_cast<uint64_t>(Cpu.SpillAccessesPerComputation));
  D.combine(static_cast<uint64_t>(Options.Caches.size()));
  for (const CacheConfig &Cache : Options.Caches) {
    D.combine(static_cast<uint64_t>(Cache.SizeBytes));
    D.combine(static_cast<uint64_t>(Cache.Associativity));
    D.combine(static_cast<uint64_t>(Cache.LineSize));
  }
  D.combine(static_cast<uint64_t>(Options.Threads));
  return D.value();
}

namespace {

/// An affine form resolved to iterator slots: Const + sum Coeff * Slot.
struct CompiledAffine {
  int64_t Const = 0;
  std::vector<std::pair<int, int64_t>> Terms;

  int64_t eval(const std::vector<int64_t> &Slots) const {
    int64_t Value = Const;
    for (const auto &[Slot, Coeff] : Terms)
      Value += Coeff * Slots[static_cast<size_t>(Slot)];
    return Value;
  }
};

/// One compiled memory access: byte address as an affine form.
struct CompiledAccess {
  CompiledAffine Address;
};

struct CompiledComp {
  std::vector<CompiledAccess> Accesses;
  int64_t Flops = 0;
  /// Compute cycles per execution, indexed [in vector loop][in atomic
  /// loop].
  double Cycles[2][2] = {};
};

struct CompiledLoop;

struct CompiledNode {
  enum class Kind { Loop, Comp, Call } NodeKind = Kind::Comp;
  size_t Index = 0; // into the respective pool
};

struct CompiledLoop {
  int Slot = -1;
  CompiledAffine Lower, Upper;
  int64_t Step = 1;
  bool Parallel = false;
  bool Vectorized = false;
  bool Atomic = false;
  /// Spill accesses charged per iteration of this (innermost) loop when
  /// its body exceeds the register-pressure threshold.
  int SpillAccesses = 0;
  std::vector<CompiledNode> Body;
  /// An innermost loop whose body holds only computations: every address
  /// it touches moves by a constant stride per iteration.
  bool Strided = false;
  /// Per-iteration address stride of each access of the body, in the
  /// order the body performs them (Strided loops only).
  std::vector<int64_t> Strides;
};

struct CompiledCall {
  int64_t Flops = 0;
  double Efficiency = 1.0;
};

/// Compiles a program into slot-resolved form and executes it against the
/// cache hierarchy and cost model.
class Simulation {
public:
  Simulation(const Program &Prog, const SimOptions &Options)
      : Prog(Prog), Options(Options), Hierarchy(Options.Caches) {
    // Cycles of an access served by each level (the last entry is main
    // memory). Vector loads amortize L1 hits across SIMD lanes.
    const CpuConfig &Cpu = Options.Cpu;
    for (size_t Level = 0; Level <= Hierarchy.levels(); ++Level) {
      double Cost = Level < Cpu.HitLatency.size() ? Cpu.HitLatency[Level]
                                                  : Cpu.MemoryLatency;
      ScalarCost.push_back(Cost);
      VectorCost.push_back(Level == 0 ? Cost / Cpu.SimdWidth : Cost);
    }
    assignArrayBases();
    for (const NodePtr &Node : Prog.topLevel())
      TopLevel.push_back(compileNode(Node));
  }

  /// Simulates the program once on the freshly constructed hierarchy.
  SimReport run() {
    Slots.assign(SlotCount, 0);
    Report = SimReport{};
    for (const CompiledNode &Node : TopLevel)
      execNode(Node);
    Report.Seconds = Report.Cycles / (Options.Cpu.FrequencyGHz * 1e9);
    Report.Cache.clear();
    for (size_t I = 0; I < Hierarchy.levels(); ++I) {
      const CacheCounters &C = Hierarchy.level(I).counters();
      Report.Cache.push_back(LevelReport{C.Loads, C.Hits, C.Misses,
                                         C.Evictions});
    }
    return Report;
  }

private:
  //===--------------------------------------------------------------------===
  // Compilation
  //===--------------------------------------------------------------------===

  void assignArrayBases() {
    int64_t Next = 0;
    for (const ArrayDecl &Decl : Prog.arrays()) {
      ArrayBase[Decl.Name] = Next;
      int64_t Bytes = Decl.elementCount() * 8;
      // Line-align each array.
      Next += (Bytes + 63) / 64 * 64 + 64;
    }
    SpillBase = Next + 4096;
  }

  CompiledAffine compileAffine(const AffineExpr &Expr,
                               int64_t ScaleBytes = 1) {
    CompiledAffine Result;
    Result.Const = Expr.constantTerm() * ScaleBytes;
    for (const auto &[Name, Coeff] : Expr.terms()) {
      auto ParamIt = Prog.params().find(Name);
      if (ParamIt != Prog.params().end()) {
        Result.Const += Coeff * ParamIt->second * ScaleBytes;
        continue;
      }
      auto SlotIt = SlotOf.find(Name);
      assert(SlotIt != SlotOf.end() && "unbound variable in simulation");
      Result.Terms.push_back({SlotIt->second, Coeff * ScaleBytes});
    }
    return Result;
  }

  CompiledAccess compileAccess(const ArrayAccess &Access) {
    const ArrayDecl &Decl = Prog.array(Access.Array);
    CompiledAffine Address;
    Address.Const = ArrayBase.at(Access.Array);
    for (size_t Dim = 0; Dim < Access.Indices.size(); ++Dim) {
      CompiledAffine Part =
          compileAffine(Access.Indices[Dim], Decl.dimStride(Dim) * 8);
      Address.Const += Part.Const;
      for (const auto &Term : Part.Terms)
        Address.Terms.push_back(Term);
    }
    return CompiledAccess{std::move(Address)};
  }

  CompiledNode compileNode(const NodePtr &Node) {
    if (const auto *C = dynCast<Computation>(Node)) {
      CompiledComp Comp;
      Comp.Flops = C->flops();
      for (const ArrayAccess &R : C->reads())
        Comp.Accesses.push_back(compileAccess(R));
      Comp.Accesses.push_back(compileAccess(C->write()));
      for (int Vector : {0, 1}) {
        double FlopRate = Options.Cpu.ScalarFlopsPerCycle *
                          (Vector ? Options.Cpu.SimdWidth : 1);
        double Cycles = static_cast<double>(Comp.Flops) / FlopRate;
        Comp.Cycles[Vector][0] = Cycles;
        Comp.Cycles[Vector][1] = Cycles + Options.Cpu.AtomicCost;
      }
      Comps.push_back(std::move(Comp));
      return {CompiledNode::Kind::Comp, Comps.size() - 1};
    }
    if (const auto *Call = dynCast<CallNode>(Node)) {
      CompiledCall CC;
      CC.Flops = Call->flops();
      CC.Efficiency = blasEfficiency(Call->callee(), Call->dims());
      Calls.push_back(CC);
      return {CompiledNode::Kind::Call, Calls.size() - 1};
    }
    const auto *L = dynCast<Loop>(Node);
    assert(L && "unknown node kind");
    CompiledLoop Loop;
    bool Fresh = SlotOf.find(L->iterator()) == SlotOf.end();
    assert(Fresh && "iterator shadowing is not supported");
    (void)Fresh;
    Loop.Slot = SlotCount++;
    SlotOf[L->iterator()] = Loop.Slot;
    Loop.Lower = compileAffine(L->lower());
    Loop.Upper = compileAffine(L->upper());
    Loop.Step = L->step();
    assert(Loop.Step > 0 && "loops step forward");
    Loop.Parallel = L->isParallel();
    Loop.Vectorized = L->isVectorized();
    Loop.Atomic = L->usesAtomicReduction();
    for (const NodePtr &Child : L->body())
      Loop.Body.push_back(compileNode(Child));
    // Register-pressure spills for oversized innermost bodies.
    bool Innermost = true;
    int BodyComps = 0;
    for (const NodePtr &Child : L->body()) {
      if (Child->kind() == NodeKind::Loop)
        Innermost = false;
      if (Child->kind() == NodeKind::Computation)
        ++BodyComps;
    }
    if (Innermost && BodyComps > Options.Cpu.RegisterPressureThreshold)
      Loop.SpillAccesses =
          (BodyComps - Options.Cpu.RegisterPressureThreshold) *
          Options.Cpu.SpillAccessesPerComputation;
    Loop.Strided = BodyComps == static_cast<int>(Loop.Body.size());
    if (Loop.Strided)
      for (const CompiledNode &Child : Loop.Body)
        for (const CompiledAccess &Access : Comps[Child.Index].Accesses) {
          int64_t Coeff = 0;
          for (const auto &[Slot, C] : Access.Address.Terms)
            if (Slot == Loop.Slot)
              Coeff += C;
          Loop.Strides.push_back(Coeff * Loop.Step);
        }
    SlotOf.erase(L->iterator());
    Loops.push_back(std::move(Loop));
    return {CompiledNode::Kind::Loop, Loops.size() - 1};
  }

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  const double *accessCost() const {
    return InVectorLoop ? VectorCost.data() : ScalarCost.data();
  }

  void execComp(const CompiledComp &Comp) {
    const double *Cost = accessCost();
    double MemCycles = 0.0;
    for (const CompiledAccess &Access : Comp.Accesses)
      MemCycles += Cost[Hierarchy.access(Access.Address.eval(Slots))];
    Report.Cycles += MemCycles + Comp.Cycles[InVectorLoop][InAtomicLoop];
    Report.Flops += Comp.Flops;
  }

  /// Spill traffic of one iteration of \p Loop: rotating slots in a
  /// dedicated stack frame region, never vector-amortized.
  void execSpills(const CompiledLoop &Loop, double &Cycles) {
    for (int S = 0; S < Loop.SpillAccesses; ++S)
      Cycles += ScalarCost[static_cast<size_t>(
          Hierarchy.access(SpillBase + (S * 64) % 4096))];
  }

  /// The \p Trip iterations of a Strided loop from \p Lo: each address
  /// is evaluated once and then advanced by its stride. Accesses reach
  /// the hierarchy and cycles accumulate in the same order as through
  /// execComp and execSpills, so the report is the same to the bit.
  void execStrided(const CompiledLoop &Loop, int64_t Lo, int64_t Trip) {
    Slots[static_cast<size_t>(Loop.Slot)] = Lo;
    Addresses.clear();
    for (const CompiledNode &Child : Loop.Body)
      for (const CompiledAccess &Access : Comps[Child.Index].Accesses)
        Addresses.push_back(Access.Address.eval(Slots));
    const double *Cost = accessCost();
    const int64_t *Strides = Loop.Strides.data();
    int64_t *Address = Addresses.data();
    double Cycles = Report.Cycles;
    int64_t BodyFlops = 0;
    for (const CompiledNode &Child : Loop.Body)
      BodyFlops += Comps[Child.Index].Flops;
    for (int64_t Iter = 0; Iter < Trip; ++Iter) {
      size_t A = 0;
      for (const CompiledNode &Child : Loop.Body) {
        const CompiledComp &Comp = Comps[Child.Index];
        double MemCycles = 0.0;
        for (size_t End = A + Comp.Accesses.size(); A < End; ++A) {
          MemCycles += Cost[Hierarchy.access(Address[A])];
          Address[A] += Strides[A];
        }
        Cycles += MemCycles + Comp.Cycles[InVectorLoop][InAtomicLoop];
      }
      execSpills(Loop, Cycles);
    }
    Report.Cycles = Cycles;
    Report.Flops += BodyFlops * Trip;
  }

  void execCall(const CompiledCall &Call) {
    // Library kernels run near machine peak and scale over the region's
    // threads (multithreaded BLAS).
    double Threads = InParallelRegion ? 1.0
                                      : static_cast<double>(Options.Threads);
    double Rate = Options.Cpu.PeakFlopsPerCycle * Call.Efficiency * Threads;
    Report.Cycles += static_cast<double>(Call.Flops) / Rate;
    Report.Flops += Call.Flops;
  }

  void execLoop(const CompiledLoop &Loop) {
    int64_t Lo = Loop.Lower.eval(Slots);
    int64_t Hi = Loop.Upper.eval(Slots);
    if (Hi <= Lo)
      return;
    int64_t Trip = (Hi - Lo + Loop.Step - 1) / Loop.Step;

    bool StartsParallel =
        Loop.Parallel && !InParallelRegion && Options.Threads > 1;
    bool StartsVector = Loop.Vectorized && !InVectorLoop;
    bool StartsAtomic = Loop.Atomic && !InAtomicLoop;
    double CyclesBefore = Report.Cycles;
    if (StartsParallel)
      InParallelRegion = true;
    if (StartsVector)
      InVectorLoop = true;
    if (StartsAtomic)
      InAtomicLoop = true;

    if (Loop.Strided)
      execStrided(Loop, Lo, Trip);
    else
      for (int64_t I = Lo; I < Hi; I += Loop.Step) {
        Slots[static_cast<size_t>(Loop.Slot)] = I;
        for (const CompiledNode &Child : Loop.Body)
          execNode(Child);
        execSpills(Loop, Report.Cycles);
      }

    if (StartsVector)
      InVectorLoop = false;
    if (StartsAtomic)
      InAtomicLoop = false;
    if (StartsParallel) {
      InParallelRegion = false;
      double Delta = Report.Cycles - CyclesBefore;
      double Workers =
          static_cast<double>(std::min<int64_t>(Options.Threads, Trip));
      double Efficiency =
          1.0 - Options.Cpu.ParallelEfficiencyLoss * (Workers - 1.0);
      if (Efficiency < 0.2)
        Efficiency = 0.2;
      double Speedup = Workers * Efficiency;
      if (Speedup < 1.0)
        Speedup = 1.0;
      Report.Cycles =
          CyclesBefore + Delta / Speedup + Options.Cpu.SyncOverheadCycles;
    }
  }

  void execNode(const CompiledNode &Node) {
    switch (Node.NodeKind) {
    case CompiledNode::Kind::Comp:
      execComp(Comps[Node.Index]);
      break;
    case CompiledNode::Kind::Call:
      execCall(Calls[Node.Index]);
      break;
    case CompiledNode::Kind::Loop:
      execLoop(Loops[Node.Index]);
      break;
    }
  }

  const Program &Prog;
  const SimOptions &Options;
  MemoryHierarchy Hierarchy;
  /// Cycles per access served by level L (index levels() = memory),
  /// outside and inside vector loops.
  std::vector<double> ScalarCost, VectorCost;

  std::map<std::string, int64_t> ArrayBase;
  int64_t SpillBase = 0;
  std::map<std::string, int> SlotOf;
  int SlotCount = 0;
  std::vector<CompiledComp> Comps;
  std::vector<CompiledCall> Calls;
  std::vector<CompiledLoop> Loops;
  std::vector<CompiledNode> TopLevel;

  std::vector<int64_t> Slots;
  /// Current address of each access of the Strided loop being walked.
  std::vector<int64_t> Addresses;
  bool InParallelRegion = false;
  bool InVectorLoop = false;
  bool InAtomicLoop = false;
  SimReport Report;
};

} // namespace

SimReport daisy::simulateProgram(const Program &Prog,
                                 const SimOptions &Options) {
  return Simulation(Prog, Options).run();
}

double daisy::simulatedSeconds(const Program &Prog, int Threads) {
  SimOptions Options;
  Options.Threads = Threads;
  return simulateProgram(Prog, Options).Seconds;
}

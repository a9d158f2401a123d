//===- tests/PersistTest.cpp - durability / crash-recovery tests ----------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The durable-state contracts (support/Persist + the engine's
// tuning-database persistence):
//
// - checkpoint files are self-validating: magic, format version, payload
//   size, and CRC32 are all checked on read; truncation and bit flips are
//   detected, never silently decoded;
// - writes are atomic with last-good rotation: a corrupted current file
//   recovers from `<path>.prev`, so a crash mid-write costs at most one
//   checkpoint interval of entries, and the first write after such a
//   recovery replaces the corrupt file instead of rotating it over the
//   last good generation;
// - the database payload format round-trips every field of every entry
//   (including all RecipeStep kinds) and rejects garbage without reading
//   out of bounds;
// - kill-and-restart: a fresh Engine at the same DatabasePath recovers
//   the checkpointed entries (counted in Engine.RecoveredEntries, corrupt
//   files in Engine.CorruptCheckpoints) and reproduces the pre-restart
//   schedule() plan choice with no re-search;
// - a serve::Server persists its engine's database through exactly one
//   lineage at EngineOptions::DatabasePath, checkpointed by drain().
//
// The PersistStagedTest at the bottom holds the stages of the
// crash-recovery drill (tests/crash_recovery_drill.sh, run by ctest): it
// skips unless DAISY_CKPT_STAGE/DAISY_CKPT_PATH are set, letting the
// drill seed a checkpoint in one process, corrupt it from the shell, and
// assert recovery in a second process — a real kill-and-restart.
//
//===----------------------------------------------------------------------===//

#include "support/Persist.h"

#include "api/Engine.h"
#include "ir/Builder.h"
#include "ir/StructuralHash.h"
#include "sched/Database.h"
#include "serve/Server.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace daisy;

namespace {

/// Fixed header layout of a checkpoint file: magic (8) + version (4) +
/// generation (8) + payload size (8) + CRC32 (4). Corruption tests flip
/// bytes past this offset to land inside the payload.
constexpr size_t CheckpointHeaderSize = 8 + 4 + 8 + 8 + 4;

/// A unique checkpoint path under the test temp dir, with the current,
/// rotation, and temp slots removed on destruction.
struct TempCkpt {
  std::string Path;

  explicit TempCkpt(const std::string &Name)
      : Path(::testing::TempDir() + "daisy_persist_" +
             std::to_string(::getpid()) + "_" + Name + ".ckpt") {
    cleanup();
  }
  ~TempCkpt() { cleanup(); }

  void cleanup() {
    std::remove(Path.c_str());
    std::remove(checkpointPrevPath(Path).c_str());
    std::remove((Path + ".tmp").c_str());
  }
};

void flipByteAt(const std::string &Path, size_t Offset) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.good()) << Path;
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = 0;
  F.get(C);
  ASSERT_TRUE(F.good()) << "file shorter than flip offset " << Offset;
  F.seekp(static_cast<std::streamoff>(Offset));
  F.put(static_cast<char>(C ^ 0x40));
}

void truncateFileTo(const std::string &Path, size_t Bytes) {
  ASSERT_EQ(::truncate(Path.c_str(), static_cast<off_t>(Bytes)), 0) << Path;
}

/// Every file in \p Path's directory whose path starts with \p Path,
/// sorted.
std::vector<std::string> filesStartingWith(const std::string &Path) {
  std::filesystem::path Dir = std::filesystem::path(Path).parent_path();
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().string().rfind(Path, 0) == 0)
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

size_t fileSize(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary | std::ios::ate);
  return F.good() ? static_cast<size_t>(F.tellg()) : 0;
}

/// GEMM with a chosen loop order (the canonical many-variants program).
Program makeGemm(const std::string &O1, const std::string &O2,
                 const std::string &O3, int N) {
  Program Prog("gemm_" + O1 + O2 + O3);
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      O1, 0, N,
      {forLoop(O2, 0, N,
               {forLoop(O3, 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

/// The cheap search budget every persistence test seeds with: enough to
/// produce entries, fast enough to run many engines per test.
TuneOptions tinyTune() {
  TuneOptions Tune;
  Tune.Budget.MctsRollouts = 4;
  Tune.Budget.PopulationSize = 2;
  Tune.Budget.IterationsPerEpoch = 1;
  Tune.Budget.Epochs = 1;
  return Tune;
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC + byte primitives
//===----------------------------------------------------------------------===//

TEST(PersistTest, Crc32MatchesKnownVectors) {
  // The standard check value of CRC-32/IEEE ("123456789" -> 0xCBF43926).
  const char *Check = "123456789";
  EXPECT_EQ(crc32(Check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(Check, 0), 0u);
  // Any flipped bit changes the checksum.
  char Flipped[] = "123456788";
  EXPECT_NE(crc32(Flipped, 9), 0xCBF43926u);
}

TEST(PersistTest, ByteWriterReaderRoundTrip) {
  ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.i64(-42);
  W.f64(-0.5);
  W.f64(3.141592653589793);
  W.str("daisy");
  W.str(""); // empty strings are representable

  std::vector<uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_EQ(R.f64(), -0.5);
  EXPECT_EQ(R.f64(), 3.141592653589793);
  EXPECT_EQ(R.str(), "daisy");
  EXPECT_EQ(R.str(), "");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(PersistTest, ByteReaderLatchesOnTruncationAndGarbageLengths) {
  ByteWriter W;
  W.u64(7);
  W.str("hello");
  std::vector<uint8_t> Bytes = W.take();

  // Truncated mid-string: the read fails and the failure latches.
  std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + 10);
  ByteReader R(Cut);
  EXPECT_EQ(R.u64(), 7u);
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u64(), 0u); // every later read stays failed
  EXPECT_FALSE(R.ok());

  // A string whose length prefix claims more than the payload holds must
  // fail cleanly instead of reading out of bounds.
  ByteWriter W2;
  W2.u64(~0ull);
  ByteReader R2(W2.bytes());
  EXPECT_EQ(R2.str(), "");
  EXPECT_FALSE(R2.ok());
}

//===----------------------------------------------------------------------===//
// Checkpoint files
//===----------------------------------------------------------------------===//

TEST(PersistTest, CheckpointWriteReadRoundTrip) {
  TempCkpt P("roundtrip");
  std::vector<uint8_t> Payload(300);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 7);

  ASSERT_TRUE(writeCheckpoint(P.Path, Payload.data(), Payload.size(),
                              /*Generation=*/7, /*Version=*/3));
  CheckpointFile F = readCheckpointFile(P.Path, /*Version=*/3);
  EXPECT_TRUE(F.Exists);
  ASSERT_TRUE(F.Valid);
  EXPECT_EQ(F.Generation, 7u);
  EXPECT_EQ(F.Version, 3u);
  EXPECT_EQ(F.Payload, Payload);

  // A version mismatch is present-but-invalid, not a crash or a decode.
  CheckpointFile Wrong = readCheckpointFile(P.Path, /*Version=*/4);
  EXPECT_TRUE(Wrong.Exists);
  EXPECT_FALSE(Wrong.Valid);

  // A missing file is not corruption.
  CheckpointFile Missing = readCheckpointFile(P.Path + ".nope", 3);
  EXPECT_FALSE(Missing.Exists);
  EXPECT_FALSE(Missing.Valid);
}

TEST(PersistTest, CorruptCurrentRecoversLastGoodGeneration) {
  TempCkpt P("rotate");
  std::vector<uint8_t> Old(200, 0x11), New(240, 0x22);
  ASSERT_TRUE(writeCheckpoint(P.Path, Old.data(), Old.size(), 1, 1));
  ASSERT_TRUE(writeCheckpoint(P.Path, New.data(), New.size(), 2, 1));

  // Healthy: the current generation wins, the rotation holds the old one.
  CheckpointLoad Healthy = loadCheckpoint(P.Path, 1);
  ASSERT_TRUE(Healthy.File.Valid);
  EXPECT_EQ(Healthy.File.Generation, 2u);
  EXPECT_EQ(Healthy.File.Payload, New);
  EXPECT_EQ(Healthy.CorruptFiles, 0);
  CheckpointFile Prev = readCheckpointFile(checkpointPrevPath(P.Path), 1);
  ASSERT_TRUE(Prev.Valid);
  EXPECT_EQ(Prev.Generation, 1u);

  // Truncated mid-payload (a torn write): last good generation loads.
  truncateFileTo(P.Path, CheckpointHeaderSize + New.size() / 2);
  CheckpointLoad Torn = loadCheckpoint(P.Path, 1);
  ASSERT_TRUE(Torn.File.Valid);
  EXPECT_EQ(Torn.File.Generation, 1u);
  EXPECT_EQ(Torn.File.Payload, Old);
  EXPECT_EQ(Torn.CorruptFiles, 1);

  // Re-establish a healthy pair (gen 3 replaces the torn file and leaves
  // gen 1 in .prev, gen 4 rotates good gen 3 into .prev), then flip a
  // payload bit in the current file: same last-good recovery.
  ASSERT_TRUE(writeCheckpoint(P.Path, Old.data(), Old.size(), 3, 1));
  ASSERT_TRUE(writeCheckpoint(P.Path, New.data(), New.size(), 4, 1));
  flipByteAt(P.Path, CheckpointHeaderSize + 5);
  CheckpointLoad Flipped = loadCheckpoint(P.Path, 1);
  ASSERT_TRUE(Flipped.File.Valid);
  EXPECT_EQ(Flipped.File.Generation, 3u);
  EXPECT_EQ(Flipped.File.Payload, Old);
  EXPECT_EQ(Flipped.CorruptFiles, 1);

  // Both slots corrupted: recovery reports it instead of inventing data.
  flipByteAt(checkpointPrevPath(P.Path), CheckpointHeaderSize + 5);
  CheckpointLoad Lost = loadCheckpoint(P.Path, 1);
  EXPECT_FALSE(Lost.File.Valid);
  EXPECT_EQ(Lost.CorruptFiles, 2);
}

TEST(PersistTest, WriteAfterRecoveryKeepsLastGoodGeneration) {
  TempCkpt P("after_recovery");
  std::vector<uint8_t> Old(200, 0x11), New(240, 0x22), Newer(180, 0x33);
  ASSERT_TRUE(writeCheckpoint(P.Path, Old.data(), Old.size(), 1, 1));
  ASSERT_TRUE(writeCheckpoint(P.Path, New.data(), New.size(), 2, 1));
  flipByteAt(P.Path, CheckpointHeaderSize + 5);
  CheckpointLoad Recovered = loadCheckpoint(P.Path, 1);
  ASSERT_TRUE(Recovered.File.Valid);
  ASSERT_EQ(Recovered.File.Generation, 1u);

  // The writer continues from the recovered generation. The corrupt
  // current file is replaced, not rotated: .prev still holds gen 1.
  ASSERT_TRUE(writeCheckpoint(P.Path, Newer.data(), Newer.size(), 2, 1));
  CheckpointFile Current = readCheckpointFile(P.Path, 1);
  ASSERT_TRUE(Current.Valid);
  EXPECT_EQ(Current.Payload, Newer);
  CheckpointFile Prev = readCheckpointFile(checkpointPrevPath(P.Path), 1);
  ASSERT_TRUE(Prev.Valid);
  EXPECT_EQ(Prev.Generation, 1u);
  EXPECT_EQ(Prev.Payload, Old);

  // A crash between the two renames of the next write leaves no current
  // file: recovery still finds gen 1.
  ASSERT_EQ(std::remove(P.Path.c_str()), 0);
  CheckpointLoad AfterCrash = loadCheckpoint(P.Path, 1);
  ASSERT_TRUE(AfterCrash.File.Valid);
  EXPECT_EQ(AfterCrash.File.Generation, 1u);
  EXPECT_EQ(AfterCrash.File.Payload, Old);
}

//===----------------------------------------------------------------------===//
// Database payload format
//===----------------------------------------------------------------------===//

TEST(PersistTest, DatabaseEntriesSerializeRoundTrip) {
  std::vector<DatabaseEntry> Entries(2);
  Entries[0].Name = "gemm_ijk";
  Entries[0].CanonicalHash = 0xFEEDFACE12345678ull;
  for (size_t I = 0; I < Entries[0].Embedding.Features.size(); ++I)
    Entries[0].Embedding.Features[I] = -1.5 + static_cast<double>(I) * 0.25;
  // One step of every kind, with every field populated.
  Recipe &R0 = Entries[0].Optimization;
  R0.Steps.push_back({RecipeStep::Kind::Permute, {2, 0, 1}, {}, 0, 4});
  R0.Steps.push_back({RecipeStep::Kind::Tile, {}, {32, 8, 64}, 0, 4});
  R0.Steps.push_back({RecipeStep::Kind::ParallelizeOutermost, {}, {}, 0, 4});
  R0.Steps.push_back({RecipeStep::Kind::VectorizeInnermost, {}, {}, 2, 8});
  R0.Steps.push_back({RecipeStep::Kind::StripMineVectorize, {}, {16}, 1, 4});
  R0.Steps.push_back({RecipeStep::Kind::BlasReplace, {}, {}, 0, 4});
  Entries[1].Name = ""; // empty names and recipes are representable
  Entries[1].CanonicalHash = 0;

  std::vector<uint8_t> Payload = serializeDatabaseEntries(Entries);
  std::vector<DatabaseEntry> Back;
  ASSERT_TRUE(deserializeDatabaseEntries(Payload, Back));
  ASSERT_EQ(Back.size(), Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I) {
    EXPECT_EQ(Back[I].Name, Entries[I].Name);
    EXPECT_EQ(Back[I].CanonicalHash, Entries[I].CanonicalHash);
    EXPECT_EQ(Back[I].Embedding.Features, Entries[I].Embedding.Features);
    ASSERT_EQ(Back[I].Optimization.Steps.size(),
              Entries[I].Optimization.Steps.size());
  }
  // Full fidelity, including step fields: re-serializing reproduces the
  // exact bytes.
  EXPECT_EQ(serializeDatabaseEntries(Back), Payload);

  // The empty database round-trips too (count 0, nothing else).
  std::vector<DatabaseEntry> None;
  std::vector<uint8_t> Empty = serializeDatabaseEntries(None);
  ASSERT_TRUE(deserializeDatabaseEntries(Empty, Back));
  EXPECT_TRUE(Back.empty());
}

TEST(PersistTest, DatabaseDeserializeRejectsGarbage) {
  std::vector<DatabaseEntry> Out;

  // Truncated payload.
  std::vector<DatabaseEntry> One(1);
  One[0].Name = "x";
  std::vector<uint8_t> Good = serializeDatabaseEntries(One);
  std::vector<uint8_t> Cut(Good.begin(), Good.end() - 4);
  EXPECT_FALSE(deserializeDatabaseEntries(Cut, Out));
  EXPECT_TRUE(Out.empty());

  // Trailing junk after a well-formed payload.
  std::vector<uint8_t> Padded = Good;
  Padded.push_back(0);
  EXPECT_FALSE(deserializeDatabaseEntries(Padded, Out));

  // An absurd entry count cannot allocate unboundedly.
  ByteWriter Absurd;
  Absurd.u64(~0ull);
  EXPECT_FALSE(deserializeDatabaseEntries(Absurd.bytes(), Out));

  // An unknown RecipeStep kind is rejected, not misdecoded.
  ByteWriter BadKind;
  BadKind.u64(1);   // one entry
  BadKind.str("e"); // name
  BadKind.u64(0);   // canonical hash
  for (int I = 0; I < 16; ++I)
    BadKind.f64(0.0); // embedding
  BadKind.u64(1);     // one step
  BadKind.u8(200);    // kind out of range
  EXPECT_FALSE(deserializeDatabaseEntries(BadKind.bytes(), Out));
  EXPECT_TRUE(Out.empty());

  // Random bytes.
  std::vector<uint8_t> Noise(64);
  for (size_t I = 0; I < Noise.size(); ++I)
    Noise[I] = static_cast<uint8_t>(I * 37 + 11);
  EXPECT_FALSE(deserializeDatabaseEntries(Noise, Out));
}

//===----------------------------------------------------------------------===//
// Engine persistence: kill-and-restart
//===----------------------------------------------------------------------===//

TEST(EnginePersistTest, KillAndRestartRecoversLastGoodGeneration) {
  TempCkpt P("engine_crash");
  TuneOptions Tune = tinyTune();
  Program A = makeGemm("i", "j", "k", 8);
  Program B = makeGemm("k", "j", "i", 8);

  resetStatsCounters();
  size_t Gen1Entries = 0;
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    E.seedDatabase(A, Tune);
    Gen1Entries = E.database().size();
    ASSERT_GT(Gen1Entries, 0u);
    ASSERT_TRUE(E.checkpointNow());
    EXPECT_EQ(E.checkpointGeneration(), 1u);
    // Unchanged entries skip the write (no redundant I/O, no gen bump).
    EXPECT_FALSE(E.checkpointNow());
    E.seedDatabase(B, Tune);
    ASSERT_TRUE(E.checkpointNow());
    EXPECT_EQ(E.checkpointGeneration(), 2u);
    EXPECT_GE(statsCounter("Engine.Checkpoints"), 2);
    EXPECT_GT(statsCounter("Engine.CheckpointBytes"), 0);
  } // "crash" after the gen-2 write (destructor checkpoint is a no-op)

  // The crash tore the current file mid-payload.
  ASSERT_GT(fileSize(P.Path), CheckpointHeaderSize + 8);
  flipByteAt(P.Path, CheckpointHeaderSize + 7);

  resetStatsCounters();
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    // The last good generation (1) is recovered, none of its entries
    // lost, and the corrupt current file is counted for operators.
    EXPECT_EQ(E.checkpointGeneration(), 1u);
    EXPECT_EQ(E.database().size(), Gen1Entries);
    EXPECT_EQ(statsCounter("Engine.RecoveredEntries"),
              static_cast<int64_t>(Gen1Entries));
    EXPECT_EQ(statsCounter("Engine.CorruptCheckpoints"), 1);
  }
}

TEST(EnginePersistTest, CheckpointAfterRecoveryKeepsLastGoodGeneration) {
  TempCkpt P("engine_after_recovery");
  TuneOptions Tune = tinyTune();

  size_t Gen1Entries = 0;
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    E.seedDatabase(makeGemm("i", "j", "k", 8), Tune);
    Gen1Entries = E.database().size();
    ASSERT_TRUE(E.checkpointNow());
    E.seedDatabase(makeGemm("k", "j", "i", 8), Tune);
    ASSERT_TRUE(E.checkpointNow());
  }
  flipByteAt(P.Path, CheckpointHeaderSize + 7);

  resetStatsCounters();
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    ASSERT_EQ(E.checkpointGeneration(), 1u);
    ASSERT_EQ(statsCounter("Engine.CorruptCheckpoints"), 1);
    E.seedDatabase(makeGemm("j", "i", "k", 8), Tune);
    ASSERT_TRUE(E.checkpointNow());
    EXPECT_EQ(E.checkpointGeneration(), 2u);
  }
  // The recovered generation is still the rotation slot's.
  CheckpointFile Prev =
      readCheckpointFile(checkpointPrevPath(P.Path), DatabaseFormatVersion);
  ASSERT_TRUE(Prev.Valid);
  EXPECT_EQ(Prev.Generation, 1u);

  // Lose the new current file, as a crash between the next write's two
  // renames would: a fresh engine recovers all of gen 1.
  ASSERT_EQ(std::remove(P.Path.c_str()), 0);
  resetStatsCounters();
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    EXPECT_EQ(E.checkpointGeneration(), 1u);
    EXPECT_EQ(E.database().size(), Gen1Entries);
    EXPECT_EQ(statsCounter("Engine.RecoveredEntries"),
              static_cast<int64_t>(Gen1Entries));
  }
}

TEST(EnginePersistTest, RestartReproducesPlanChoiceWithoutReSearch) {
  TempCkpt P("engine_plan");
  TuneOptions Tune = tinyTune();
  Program A = makeGemm("i", "j", "k", 8);
  Program B = makeGemm("k", "j", "i", 8);

  uint64_t PlanBefore = 0;
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    E.seedDatabase(A, Tune);
    PlanBefore = structuralHashWithMarks(E.schedule(B, Tune));
    ASSERT_TRUE(E.checkpointNow());
  }

  resetStatsCounters();
  {
    // A fresh engine at the same path: recovery only, no seeding, no
    // search — scheduling B transfers from the recovered entries and
    // lands on the same plan.
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    EXPECT_GT(statsCounter("Engine.RecoveredEntries"), 0);
    EXPECT_EQ(structuralHashWithMarks(E.schedule(B, Tune)), PlanBefore);
  }
}

TEST(EnginePersistTest, DestructorWritesFinalCheckpoint) {
  TempCkpt P("engine_dtor");
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    Engine E(O);
    E.seedDatabase(makeGemm("i", "j", "k", 8), tinyTune());
    // No explicit checkpointNow: destruction is the durability point.
  }
  CheckpointLoad Load = loadCheckpoint(P.Path, DatabaseFormatVersion);
  ASSERT_TRUE(Load.File.Valid);
  std::vector<DatabaseEntry> Entries;
  ASSERT_TRUE(deserializeDatabaseEntries(Load.File.Payload, Entries));
  EXPECT_GT(Entries.size(), 0u);
}

TEST(EnginePersistTest, BackgroundLaneCheckpointsAtInterval) {
  TempCkpt P("engine_lane");
  resetStatsCounters();
  {
    EngineOptions O;
    O.DatabasePath = P.Path;
    O.CheckpointInterval = std::chrono::milliseconds(5);
    Engine E(O);
    E.seedDatabase(makeGemm("i", "j", "k", 8), tinyTune());
    // The lane picks the change up on its own; no explicit call.
    for (int I = 0; I < 400 && statsCounter("Engine.Checkpoints") == 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(statsCounter("Engine.Checkpoints"), 1);
  }
  EXPECT_TRUE(loadCheckpoint(P.Path, DatabaseFormatVersion).File.Valid);
}

//===----------------------------------------------------------------------===//
// Server persistence: one engine, one lineage
//===----------------------------------------------------------------------===//

TEST(ServerPersistTest, DrainCheckpointsOneLineage) {
  TempCkpt P("server");
  TuneOptions Tune = tinyTune();
  Program A = makeGemm("i", "j", "k", 8);
  Program B = makeGemm("k", "j", "i", 8);

  uint64_t PlanBefore = 0;
  {
    serve::ServerOptions O;
    O.Workers = 1;
    O.Engine.DatabasePath = P.Path;
    serve::Server S(O);
    S.engine().seedDatabase(A, Tune);
    PlanBefore = structuralHashWithMarks(S.optimize(B, Tune).program());

    Kernel K = S.compile(A);
    std::vector<double> AData(64, 1.0), BData(64, 2.0), CData(64, 0.0);
    RunStatus Status =
        S.submit(K, ArgBinding()
                        .bind("A", AData)
                        .bind("B", BData)
                        .bind("C", CData))
            .get();
    ASSERT_TRUE(Status.ok()) << Status.Error;
    S.drain();

    // drain() wrote generation 1 at exactly DatabasePath, and that file
    // is the lineage's only one (no rotation yet, no per-engine paths).
    EXPECT_TRUE(readCheckpointFile(P.Path, DatabaseFormatVersion).Valid);
    EXPECT_EQ(filesStartingWith(P.Path),
              std::vector<std::string>{P.Path});
    EXPECT_EQ(S.health().CheckpointGeneration, 1u);
  }

  resetStatsCounters();
  {
    serve::ServerOptions O;
    O.Workers = 1;
    O.Engine.DatabasePath = P.Path;
    serve::Server S(O);
    EXPECT_GT(statsCounter("Engine.RecoveredEntries"), 0);
    EXPECT_EQ(structuralHashWithMarks(S.optimize(B, Tune).program()),
              PlanBefore);
  }
}

//===----------------------------------------------------------------------===//
// Crash-recovery drill stages (multi-process kill-and-restart)
//===----------------------------------------------------------------------===//

// Two stages driven by environment variables, skipped otherwise:
//
//   DAISY_CKPT_STAGE=seed    seeds two generations at DAISY_CKPT_PATH
//                            (current = gen 2, rotation = gen 1);
//   DAISY_CKPT_STAGE=recover asserts a fresh engine recovers entries
//                            (and, with DAISY_CKPT_EXPECT_CORRUPT=n, that
//                            at least n corrupt files were detected).
//
// tests/crash_recovery_drill.sh runs seed, corrupts the current file
// from the shell (truncate or bit-flip), then runs recover in a new
// process — the checkpoint must recover the last good generation across
// a real process boundary.
TEST(PersistStagedTest, CrashRecoveryStage) {
  const char *Stage = std::getenv("DAISY_CKPT_STAGE");
  const char *Path = std::getenv("DAISY_CKPT_PATH");
  if (!Stage || !Path || !*Path)
    GTEST_SKIP() << "set DAISY_CKPT_STAGE=seed|recover and DAISY_CKPT_PATH";

  TuneOptions Tune = tinyTune();
  EngineOptions O;
  O.DatabasePath = Path;
  if (std::string(Stage) == "seed") {
    Engine E(O);
    E.seedDatabase(makeGemm("i", "j", "k", 8), Tune);
    ASSERT_TRUE(E.checkpointNow());
    E.seedDatabase(makeGemm("k", "j", "i", 8), Tune);
    ASSERT_TRUE(E.checkpointNow());
    EXPECT_EQ(E.checkpointGeneration(), 2u);
    EXPECT_GT(E.database().size(), 0u);
  } else {
    resetStatsCounters();
    Engine E(O);
    EXPECT_GE(statsCounter("Engine.RecoveredEntries"), 1);
    EXPECT_GE(E.checkpointGeneration(), 1u);
    EXPECT_GT(E.database().size(), 0u);
    if (const char *Corrupt = std::getenv("DAISY_CKPT_EXPECT_CORRUPT")) {
      EXPECT_GE(statsCounter("Engine.CorruptCheckpoints"),
                std::atoll(Corrupt));
    }
  }
}

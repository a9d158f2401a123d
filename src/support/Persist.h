//===- support/Persist.h - Crash-safe checkpoint files -----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Atomic, self-validating checkpoint files — the durability primitive
/// behind the engine's tuning-database persistence (api/Engine.h,
/// EngineOptions::DatabasePath).
///
/// A checkpoint is a fixed header (magic, format version, generation,
/// payload size, CRC32 of the payload) followed by an opaque payload.
/// Writes are atomic against crashes at any instant: the bytes go to
/// `<path>.tmp`, are fsync'd, the previous checkpoint is rotated to
/// `<path>.prev` if it reads back valid, and the temp file renames over
/// `<path>` — a reader never observes a half-written current file, and a
/// corrupt current file never displaces the last good generation. Reads
/// validate everything (magic, version, size, checksum); a torn,
/// truncated, or bit-flipped current file is detected and the last good
/// generation loads from `<path>.prev` instead, so one corrupted write
/// never costs more than one checkpoint interval of entries.
///
/// The payload is the caller's business; ByteWriter/ByteReader below are
/// the little-endian primitives the database serializer is built from
/// (sched/Database.h).
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SUPPORT_PERSIST_H
#define DAISY_SUPPORT_PERSIST_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace daisy {

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of \p Len bytes.
uint32_t crc32(const void *Data, size_t Len);

/// One checkpoint file, as read back from disk.
struct CheckpointFile {
  /// True when the file existed, parsed, and passed every check; the
  /// other fields are meaningful only then (except Exists).
  bool Valid = false;
  /// True when the file existed at all — a missing file is not
  /// corruption, a present-but-invalid one is.
  bool Exists = false;
  /// Writer-side monotonic generation number.
  uint64_t Generation = 0;
  /// Format version the payload was written under.
  uint32_t Version = 0;
  std::vector<uint8_t> Payload;
};

/// Durably writes \p Payload as the current checkpoint at \p Path
/// (write `<path>.tmp`, fsync, rotate `<path>` to `<path>.prev` when it
/// is a valid checkpoint, rename the temp file into place). An invalid
/// current file is replaced, never rotated, so `<path>.prev` keeps the
/// last good generation. Returns false on any I/O failure, in which
/// case the previous current file is still intact or recoverable as
/// `<path>.prev`.
bool writeCheckpoint(const std::string &Path, const void *Payload,
                     size_t PayloadSize, uint64_t Generation,
                     uint32_t Version);

/// Reads and fully validates the single checkpoint file at \p Path
/// (magic, version match, size, CRC). Never throws; corruption comes
/// back as Valid == false with Exists == true.
CheckpointFile readCheckpointFile(const std::string &Path, uint32_t Version);

/// The rotation slot of the last good generation.
inline std::string checkpointPrevPath(const std::string &Path) {
  return Path + ".prev";
}

/// Result of last-good-generation recovery over `<path>` / `<path>.prev`.
struct CheckpointLoad {
  /// The newest valid generation found (current preferred, else prev);
  /// Valid == false when neither slot held a loadable checkpoint.
  CheckpointFile File;
  /// Files that existed but failed validation — the operator-facing
  /// corruption signal ("Engine.CorruptCheckpoints").
  int CorruptFiles = 0;
};

/// Loads the newest valid checkpoint at \p Path, falling back to
/// `<path>.prev` when the current file is missing or corrupted.
CheckpointLoad loadCheckpoint(const std::string &Path, uint32_t Version);

/// Little-endian append-only byte sink: the payload-building half of a
/// versioned serialization format.
class ByteWriter {
public:
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked little-endian reader over a serialized payload. Every
/// read reports success; after the first failure the reader stays failed
/// (ok() latches), so a deserializer can decode optimistically and check
/// once at the end — truncated or garbage payloads can never read out of
/// bounds.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return Pos == Size; }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return Data[Pos - 1];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos - 4 + I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos - 8 + I]) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t Len = u64();
    // The explicit range check latches Failed even where the u64 length
    // would overflow take()'s size_t parameter on 32-bit targets.
    if (Len > Size - Pos || !take(static_cast<size_t>(Len))) {
      Failed = true;
      return {};
    }
    return std::string(reinterpret_cast<const char *>(Data + Pos -
                                                      static_cast<size_t>(Len)),
                       static_cast<size_t>(Len));
  }

private:
  bool take(size_t N) {
    if (Failed || N > Size - Pos) {
      Failed = true;
      return false;
    }
    Pos += N;
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace daisy

#endif // DAISY_SUPPORT_PERSIST_H

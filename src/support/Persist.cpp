//===- support/Persist.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Persist.h"

#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace daisy;

namespace {

/// Checkpoint header, fixed-width little-endian on disk:
///   8 bytes magic "DAISYCKP"
///   u32 format version (the caller's payload version)
///   u64 generation
///   u64 payload size
///   u32 CRC-32 of the payload
constexpr char Magic[8] = {'D', 'A', 'I', 'S', 'Y', 'C', 'K', 'P'};
constexpr size_t HeaderSize = 8 + 4 + 8 + 8 + 4;

void putLe32(uint8_t *Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

void putLe64(uint8_t *Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

uint32_t getLe32(const uint8_t *In) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(In[I]) << (8 * I);
  return V;
}

uint64_t getLe64(const uint8_t *In) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(In[I]) << (8 * I);
  return V;
}

/// Writes all of \p Size bytes, restarting on short writes and EINTR.
bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
  while (Size > 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// Best-effort fsync of the directory containing \p Path, so the rename
/// itself is durable. Failure is ignored — the data file is already
/// synced, and not every filesystem supports directory fsync.
void syncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY);
  if (Fd < 0)
    return;
  (void)::fsync(Fd);
  ::close(Fd);
}

} // namespace

uint32_t daisy::crc32(const void *Data, size_t Len) {
  // Table-driven CRC-32 (reflected 0xEDB88320), built once.
  static const auto Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  uint32_t Crc = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    Crc = Table[(Crc ^ Bytes[I]) & 0xFF] ^ (Crc >> 8);
  return Crc ^ 0xFFFFFFFFu;
}

bool daisy::writeCheckpoint(const std::string &Path, const void *Payload,
                            size_t PayloadSize, uint64_t Generation,
                            uint32_t Version) {
  uint8_t Header[HeaderSize];
  std::memcpy(Header, Magic, 8);
  putLe32(Header + 8, Version);
  putLe64(Header + 12, Generation);
  putLe64(Header + 20, static_cast<uint64_t>(PayloadSize));
  putLe32(Header + 28, crc32(Payload, PayloadSize));

  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool Written = writeAll(Fd, Header, HeaderSize) &&
                 writeAll(Fd, static_cast<const uint8_t *>(Payload),
                          PayloadSize) &&
                 ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Written) {
    ::unlink(Tmp.c_str());
    return false;
  }
  // Rotate the current checkpoint into the last-good slot, but only a
  // current file that reads back valid: after a recovery from `.prev`
  // the current file is the torn or corrupt one, and rotating it would
  // overwrite the one good generation left. Otherwise the final rename
  // replaces it and `.prev` stays as it is. A missing current file (the
  // first checkpoint ever) is not rotated either. A failed rotation
  // leaves the current file untouched and keeps recovery possible, so
  // only the final rename is load-bearing.
  if (readCheckpointFile(Path, Version).Valid)
    (void)::rename(Path.c_str(), checkpointPrevPath(Path).c_str());
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  syncParentDir(Path);
  return true;
}

CheckpointFile daisy::readCheckpointFile(const std::string &Path,
                                         uint32_t Version) {
  CheckpointFile Result;
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Result;
  Result.Exists = true;

  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0 ||
      static_cast<uint64_t>(St.st_size) < HeaderSize) {
    ::close(Fd);
    return Result;
  }
  std::vector<uint8_t> Bytes(static_cast<size_t>(St.st_size));
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::read(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  ::close(Fd);
  if (Off != Bytes.size())
    return Result;

  if (std::memcmp(Bytes.data(), Magic, 8) != 0)
    return Result;
  Result.Version = getLe32(Bytes.data() + 8);
  Result.Generation = getLe64(Bytes.data() + 12);
  uint64_t PayloadSize = getLe64(Bytes.data() + 20);
  uint32_t Crc = getLe32(Bytes.data() + 28);
  if (Result.Version != Version ||
      PayloadSize != Bytes.size() - HeaderSize ||
      crc32(Bytes.data() + HeaderSize, static_cast<size_t>(PayloadSize)) !=
          Crc)
    return Result;
  Result.Payload.assign(Bytes.begin() + HeaderSize, Bytes.end());
  Result.Valid = true;
  return Result;
}

CheckpointLoad daisy::loadCheckpoint(const std::string &Path,
                                     uint32_t Version) {
  CheckpointLoad Load;
  CheckpointFile Current = readCheckpointFile(Path, Version);
  if (Current.Valid) {
    Load.File = std::move(Current);
    return Load;
  }
  if (Current.Exists)
    ++Load.CorruptFiles;
  CheckpointFile Prev = readCheckpointFile(checkpointPrevPath(Path), Version);
  if (Prev.Valid) {
    Load.File = std::move(Prev);
    return Load;
  }
  if (Prev.Exists)
    ++Load.CorruptFiles;
  return Load;
}

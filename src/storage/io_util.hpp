// Byte-level helpers shared by every on-disk format in src/storage
// (WAL frames, checkpoints, MANIFEST): little-endian integer
// put/get, full-write loops, and the fsync/rename choreography that makes
// file installation atomic.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace qcnt::storage {

inline void PutU32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

inline void PutU64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

inline std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline void WriteAll(int fd, const unsigned char* p, std::size_t n,
                     const char* what) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    QCNT_CHECK_MSG(w > 0, std::string(what) + ": write failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Best-effort directory fsync (required for rename durability on POSIX;
/// some filesystems refuse the open, which is fine for tests on tmpfs).
inline void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

inline std::string ParentDir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// Write `bytes` to `path + ".tmp"`, fsync, rename over `path`, fsync the
/// parent directory — a crash at any point leaves either the old file or
/// the new one, never a mix.
inline void AtomicWriteFile(const std::string& path,
                            const std::vector<unsigned char>& bytes,
                            const char* what) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  QCNT_CHECK_MSG(fd >= 0, std::string(what) + ": cannot open " + tmp);
  WriteAll(fd, bytes.data(), bytes.size(), what);
  QCNT_CHECK(::fsync(fd) == 0);
  ::close(fd);
  QCNT_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 std::string(what) + ": rename failed");
  FsyncDir(ParentDir(path));
}

}  // namespace qcnt::storage

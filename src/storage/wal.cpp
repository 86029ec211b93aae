#include "storage/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "common/check.hpp"
#include "storage/crc32.hpp"

namespace qcnt::storage {

namespace {

constexpr std::uint32_t kMaxPayload = 1u << 24;  // 16 MiB sanity bound
constexpr std::size_t kFixedPayload = 1 + 8 + 8 + 8 + 4 + 4;

void PutU32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

void PutU64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFFu);
}

std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::vector<unsigned char> EncodePayload(const WalRecord& r) {
  std::vector<unsigned char> out;
  out.reserve(kFixedPayload + r.key.size());
  out.push_back(static_cast<unsigned char>(r.type));
  PutU64(out, r.version);
  PutU64(out, static_cast<std::uint64_t>(r.value));
  PutU64(out, r.generation);
  PutU32(out, r.config_id);
  PutU32(out, static_cast<std::uint32_t>(r.key.size()));
  out.insert(out.end(), r.key.begin(), r.key.end());
  return out;
}

/// Parse one payload; false when it is malformed (wrong size / bad type).
bool DecodePayload(const unsigned char* p, std::size_t size, WalRecord& out) {
  if (size < kFixedPayload) return false;
  const auto type = static_cast<WalRecord::Type>(p[0]);
  if (type != WalRecord::Type::kWrite && type != WalRecord::Type::kConfig) {
    return false;
  }
  out.type = type;
  out.version = GetU64(p + 1);
  out.value = static_cast<std::int64_t>(GetU64(p + 9));
  out.generation = GetU64(p + 17);
  out.config_id = GetU32(p + 25);
  const std::uint32_t keylen = GetU32(p + 29);
  if (kFixedPayload + keylen != size) return false;
  out.key.assign(reinterpret_cast<const char*>(p + kFixedPayload), keylen);
  return true;
}

void WriteAll(int fd, const unsigned char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    QCNT_CHECK_MSG(w > 0, "WAL write failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

Wal::Wal(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  QCNT_CHECK_MSG(fd_ >= 0, "cannot open WAL: " + path_);
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  QCNT_CHECK(end >= 0);
  size_ = static_cast<std::uint64_t>(end);
}

Wal::~Wal() { Close(); }

void Wal::Append(const WalRecord& record) { AppendBatch({record}); }

void Wal::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return;
  QCNT_CHECK_MSG(fd_ >= 0, "append on closed WAL");
  std::vector<unsigned char> buffer;
  for (const WalRecord& record : records) {
    const std::vector<unsigned char> payload = EncodePayload(record);
    PutU32(buffer, static_cast<std::uint32_t>(payload.size()));
    PutU32(buffer, Crc32(payload.data(), payload.size()));
    buffer.insert(buffer.end(), payload.begin(), payload.end());
  }
  WriteAll(fd_, buffer.data(), buffer.size());
  size_ += buffer.size();
  bytes_appended_ += buffer.size();
  records_ += records.size();
  sync_pending_.store(true, std::memory_order_release);
  if (options_.sync_every_append) DoSync();
}

void Wal::SyncLocked() {
  if (!sync_pending_.load(std::memory_order_acquire) || fd_ < 0) return;
  // Clear the flag *before* fsync: an append racing past the fsync sets
  // it again, so its bytes are covered by the next pass (conservative —
  // never the other way around).
  sync_pending_.store(false, std::memory_order_release);
  QCNT_CHECK(::fsync(fd_) == 0);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
}

void Wal::DoSync() {
  std::lock_guard<std::mutex> lock(sync_mu_);
  SyncLocked();
}

void Wal::Sync() { DoSync(); }

bool Wal::SyncIfDirty() {
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (!sync_pending_.load(std::memory_order_acquire) || fd_ < 0) {
    return false;
  }
  SyncLocked();
  return true;
}

void Wal::TruncateTo(std::uint64_t offset) {
  QCNT_CHECK(fd_ >= 0 && offset <= size_);
  std::lock_guard<std::mutex> lock(sync_mu_);
  QCNT_CHECK(::ftruncate(fd_, static_cast<off_t>(offset)) == 0);
  size_ = offset;
  sync_pending_.store(true, std::memory_order_release);
  SyncLocked();
}

void Wal::Close() {
  if (fd_ < 0) return;
  std::lock_guard<std::mutex> lock(sync_mu_);
  SyncLocked();
  ::close(fd_);
  fd_ = -1;
}

Wal::ReplayResult Wal::Replay(
    const std::string& path,
    const std::function<void(const WalRecord&)>& apply) {
  ReplayResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // absent log == empty log
  std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) break;  // torn header
    const std::uint32_t len = GetU32(bytes.data() + pos);
    const std::uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (len > kMaxPayload || bytes.size() - pos - 8 < len) break;
    const unsigned char* payload = bytes.data() + pos + 8;
    if (Crc32(payload, len) != crc) break;
    WalRecord record;
    if (!DecodePayload(payload, len, record)) break;
    apply(record);
    ++result.records;
    pos += 8 + len;
  }
  result.valid_bytes = pos;
  result.torn_tail = pos < bytes.size();
  return result;
}

}  // namespace qcnt::storage

#include "storage/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "storage/crc32.hpp"
#include "storage/io_util.hpp"

namespace qcnt::storage {
namespace {

constexpr char kHeaderMagic[4] = {'Q', 'C', 'K', '2'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderSize = 8;  // magic + format

// generation(8) + config_id(4) + entry_count(8) + four section fields
// (4*8) + crc(4) + footer magic(4).
constexpr std::size_t kFooterSize = 60;
constexpr char kFooterMagic[4] = {'Q', 'C', 'K', 'F'};

// A decoded block payload must stay small; anything larger than this is
// corruption, not data.
constexpr std::uint32_t kMaxBlockPayload = 64u << 20;
constexpr std::uint64_t kMaxSectionLen = 1ull << 32;

bool PreadExact(int fd, unsigned char* buf, std::size_t n, std::uint64_t off) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, buf, n, static_cast<off_t>(off));
    if (r <= 0) return false;
    buf += r;
    off += static_cast<std::uint64_t>(r);
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointWriter

CheckpointWriter::CheckpointWriter(std::string path,
                                   std::uint64_t expected_entries,
                                   std::size_t block_bytes)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      block_bytes_(block_bytes == 0 ? kCheckpointBlockBytes : block_bytes),
      bloom_(static_cast<std::size_t>(expected_entries)) {
  fd_ = ::open(tmp_path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  QCNT_CHECK_MSG(fd_ >= 0, "checkpoint: cannot open " + tmp_path_);
  std::vector<unsigned char> header;
  header.insert(header.end(), kHeaderMagic, kHeaderMagic + 4);
  PutU32(header, kFormatVersion);
  WriteAll(fd_, header.data(), header.size(), "checkpoint header");
  file_offset_ = header.size();
}

CheckpointWriter::~CheckpointWriter() {
  if (fd_ >= 0) ::close(fd_);
  // Abandoned writer (crash path in tests): leave the .tmp for recovery
  // cleanup to sweep, exactly as a real crash would.
}

void CheckpointWriter::Add(const std::string& key, const Versioned& value) {
  QCNT_CHECK_MSG(!finished_, "checkpoint: Add after Finish");
  QCNT_CHECK_MSG(entries_ == 0 || key > last_key_,
                 "checkpoint: keys must be strictly ascending");
  if (block_.empty()) block_first_key_ = key;
  PutU32(block_, static_cast<std::uint32_t>(key.size()));
  block_.insert(block_.end(), key.begin(), key.end());
  PutU64(block_, value.version);
  PutU64(block_, static_cast<std::uint64_t>(value.value));
  bloom_.Add(key);
  last_key_ = key;
  ++entries_;
  if (block_.size() >= block_bytes_) FlushBlock();
}

void CheckpointWriter::FlushBlock() {
  if (block_.empty()) return;
  std::vector<unsigned char> frame;
  frame.reserve(block_.size() + 8);
  PutU32(frame, static_cast<std::uint32_t>(block_.size()));
  PutU32(frame, Crc32(block_.data(), block_.size()));
  frame.insert(frame.end(), block_.begin(), block_.end());
  WriteAll(fd_, frame.data(), frame.size(), "checkpoint block");
  index_.push_back({file_offset_, static_cast<std::uint32_t>(block_.size()),
                    block_first_key_});
  file_offset_ += frame.size();
  block_.clear();
}

void CheckpointWriter::Finish(std::uint64_t generation,
                              std::uint32_t config_id) {
  QCNT_CHECK_MSG(!finished_, "checkpoint: double Finish");
  finished_ = true;
  FlushBlock();

  // Index section: count, then (offset, length, first_key) per block,
  // with a trailing CRC over the whole section.
  std::vector<unsigned char> index_bytes;
  PutU32(index_bytes, static_cast<std::uint32_t>(index_.size()));
  for (const IndexEntry& e : index_) {
    PutU64(index_bytes, e.offset);
    PutU32(index_bytes, e.length);
    PutU32(index_bytes, static_cast<std::uint32_t>(e.first_key.size()));
    index_bytes.insert(index_bytes.end(), e.first_key.begin(),
                       e.first_key.end());
  }
  PutU32(index_bytes, Crc32(index_bytes.data(), index_bytes.size()));
  const std::uint64_t index_off = file_offset_;
  WriteAll(fd_, index_bytes.data(), index_bytes.size(), "checkpoint index");
  file_offset_ += index_bytes.size();

  // Bloom section: raw filter bits + CRC.
  std::vector<unsigned char> bloom_bytes(bloom_.Bits().begin(),
                                         bloom_.Bits().end());
  PutU32(bloom_bytes, Crc32(bloom_bytes.data(), bloom_bytes.size()));
  const std::uint64_t bloom_off = file_offset_;
  WriteAll(fd_, bloom_bytes.data(), bloom_bytes.size(), "checkpoint bloom");
  file_offset_ += bloom_bytes.size();

  // Fixed-size footer, CRC'd, magic last so a truncated file can never
  // present a valid footer.
  std::vector<unsigned char> footer;
  PutU64(footer, generation);
  PutU32(footer, config_id);
  PutU64(footer, entries_);
  PutU64(footer, index_off);
  PutU64(footer, static_cast<std::uint64_t>(index_bytes.size()));
  PutU64(footer, bloom_off);
  PutU64(footer, static_cast<std::uint64_t>(bloom_bytes.size()));
  PutU32(footer, Crc32(footer.data(), footer.size()));
  footer.insert(footer.end(), kFooterMagic, kFooterMagic + 4);
  QCNT_CHECK(footer.size() == kFooterSize);
  WriteAll(fd_, footer.data(), footer.size(), "checkpoint footer");

  QCNT_CHECK(::fsync(fd_) == 0);
  ::close(fd_);
  fd_ = -1;
  QCNT_CHECK_MSG(std::rename(tmp_path_.c_str(), path_.c_str()) == 0,
                 "checkpoint: rename failed for " + path_);
  FsyncDir(ParentDir(path_));
}

// ---------------------------------------------------------------------------
// CheckpointReader

std::unique_ptr<CheckpointReader> CheckpointReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < kHeaderSize + kFooterSize) {
    ::close(fd);
    return nullptr;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  unsigned char header[kHeaderSize];
  unsigned char footer[kFooterSize];
  if (!PreadExact(fd, header, kHeaderSize, 0) ||
      !PreadExact(fd, footer, kFooterSize, size - kFooterSize) ||
      std::memcmp(header, kHeaderMagic, 4) != 0 ||
      GetU32(header + 4) != kFormatVersion ||
      std::memcmp(footer + kFooterSize - 4, kFooterMagic, 4) != 0 ||
      GetU32(footer + kFooterSize - 8) != Crc32(footer, kFooterSize - 8)) {
    ::close(fd);
    return nullptr;
  }

  auto r = std::unique_ptr<CheckpointReader>(new CheckpointReader());
  r->path_ = path;
  r->fd_ = fd;
  r->generation_ = GetU64(footer);
  r->config_id_ = GetU32(footer + 8);
  r->entry_count_ = GetU64(footer + 12);
  r->index_off_ = GetU64(footer + 20);
  r->index_len_ = GetU64(footer + 28);
  r->bloom_off_ = GetU64(footer + 36);
  r->bloom_len_ = GetU64(footer + 44);
  if (r->index_len_ > kMaxSectionLen || r->bloom_len_ > kMaxSectionLen ||
      r->index_off_ + r->index_len_ > size ||
      r->bloom_off_ + r->bloom_len_ > size) {
    return nullptr;  // dtor closes fd
  }
  return r;
}

CheckpointReader::~CheckpointReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool CheckpointReader::EnsureLoaded() {
  if (loaded_) return true;
  if (load_failed_) return false;
  load_failed_ = true;  // until proven otherwise

  std::vector<unsigned char> index_bytes(index_len_);
  if (index_len_ < 8 ||
      !PreadExact(fd_, index_bytes.data(), index_bytes.size(), index_off_)) {
    return false;
  }
  if (GetU32(index_bytes.data() + index_len_ - 4) !=
      Crc32(index_bytes.data(), index_len_ - 4)) {
    return false;
  }
  const std::uint32_t count = GetU32(index_bytes.data());
  std::size_t pos = 4;
  std::vector<IndexEntry> parsed;
  parsed.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 16 > index_len_ - 4) return false;
    IndexEntry e;
    e.offset = GetU64(index_bytes.data() + pos);
    e.length = GetU32(index_bytes.data() + pos + 8);
    const std::uint32_t keylen = GetU32(index_bytes.data() + pos + 12);
    pos += 16;
    if (pos + keylen > index_len_ - 4 || e.length > kMaxBlockPayload) {
      return false;
    }
    e.first_key.assign(reinterpret_cast<const char*>(index_bytes.data() + pos),
                       keylen);
    pos += keylen;
    parsed.push_back(std::move(e));
  }

  std::vector<std::uint8_t> bloom_bytes(bloom_len_);
  if (bloom_len_ < 4 ||
      !PreadExact(fd_, bloom_bytes.data(), bloom_bytes.size(), bloom_off_)) {
    return false;
  }
  if (GetU32(bloom_bytes.data() + bloom_len_ - 4) !=
      Crc32(bloom_bytes.data(), bloom_len_ - 4)) {
    return false;
  }
  bloom_bytes.resize(bloom_len_ - 4);

  index_ = std::move(parsed);
  bloom_ = std::make_unique<BloomFilter>(std::move(bloom_bytes));
  loaded_ = true;
  load_failed_ = false;
  return true;
}

bool CheckpointReader::DecodeBlock(
    std::size_t block, std::vector<std::pair<std::string, Versioned>>* out) {
  const IndexEntry& e = index_[block];
  std::vector<unsigned char> frame(8 + e.length);
  if (!PreadExact(fd_, frame.data(), frame.size(), e.offset)) return false;
  if (GetU32(frame.data()) != e.length ||
      GetU32(frame.data() + 4) != Crc32(frame.data() + 8, e.length)) {
    return false;
  }
  out->clear();
  std::size_t pos = 8;
  const std::size_t end = frame.size();
  while (pos < end) {
    if (pos + 4 > end) return false;
    const std::uint32_t keylen = GetU32(frame.data() + pos);
    pos += 4;
    if (pos + keylen + 16 > end) return false;
    std::string key(reinterpret_cast<const char*>(frame.data() + pos), keylen);
    pos += keylen;
    Versioned v;
    v.version = GetU64(frame.data() + pos);
    v.value = static_cast<std::int64_t>(GetU64(frame.data() + pos + 8));
    pos += 16;
    out->emplace_back(std::move(key), v);
  }
  return true;
}

std::size_t CheckpointReader::FindBlock(const std::string& key) {
  // Last block whose first_key <= key.
  std::size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (index_[mid].first_key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? static_cast<std::size_t>(-1) : lo - 1;
}

CheckpointReader::Probe CheckpointReader::Get(const std::string& key,
                                              Versioned* out) {
  if (!EnsureLoaded()) return Probe::kNotFound;
  if (!bloom_->MayContain(key)) return Probe::kBloomMiss;
  const std::size_t block = FindBlock(key);
  if (block == static_cast<std::size_t>(-1)) return Probe::kNotFound;
  if (cached_block_ != block) {
    if (!DecodeBlock(block, &cached_entries_)) {
      cached_block_ = static_cast<std::size_t>(-1);
      return Probe::kNotFound;
    }
    cached_block_ = block;
  }
  const auto it = std::lower_bound(
      cached_entries_.begin(), cached_entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == cached_entries_.end() || it->first != key) return Probe::kNotFound;
  if (out != nullptr) *out = it->second;
  return Probe::kFound;
}

void CheckpointReader::Iterator::LoadBlock() {
  valid_ = false;
  while (reader_ != nullptr && block_ < reader_->index_.size()) {
    if (reader_->DecodeBlock(block_, &entries_) && !entries_.empty()) {
      valid_ = true;
      return;
    }
    ++block_;  // skip unreadable blocks rather than wedging the cursor
    pos_ = 0;
  }
}

void CheckpointReader::Iterator::Next() {
  if (!valid_) return;
  if (++pos_ >= entries_.size()) {
    ++block_;
    pos_ = 0;
    LoadBlock();
  }
}

CheckpointReader::Iterator CheckpointReader::Begin() {
  Iterator it;
  if (!EnsureLoaded()) return it;
  it.reader_ = this;
  it.block_ = 0;
  it.pos_ = 0;
  it.LoadBlock();
  return it;
}

CheckpointReader::Iterator CheckpointReader::SeekAbove(
    const std::string& cursor) {
  Iterator it;
  if (!EnsureLoaded()) return it;
  it.reader_ = this;
  const std::size_t block = FindBlock(cursor);
  it.block_ = block == static_cast<std::size_t>(-1) ? 0 : block;
  it.pos_ = 0;
  it.LoadBlock();
  // Skip entries <= cursor; they can only live in this first block.
  while (it.Valid() && it.key() <= cursor) it.Next();
  return it;
}

void CheckpointReader::Scan(
    const std::function<void(const std::string&, const Versioned&)>& fn) {
  for (Iterator it = Begin(); it.Valid(); it.Next()) fn(it.key(), it.value());
}

// ---------------------------------------------------------------------------
// MergeCursor

MergeCursor::MergeCursor(std::vector<CheckpointReader::Iterator> inputs)
    : its_(std::move(inputs)) {
  Next();
}

void MergeCursor::Next() {
  // The chain is short (bounded by max_checkpoints), so a linear min-scan
  // beats heap bookkeeping.
  const std::string* min_key = nullptr;
  for (const auto& it : its_) {
    if (it.Valid() && (min_key == nullptr || it.key() < *min_key)) {
      min_key = &it.key();
    }
  }
  valid_ = min_key != nullptr;
  if (!valid_) return;
  key_ = *min_key;  // copy: iterators advance below
  bool have = false;
  for (auto& it : its_) {
    while (it.Valid() && it.key() == key_) {
      const Versioned& v = it.value();
      // Same ordering as Image::ApplyWrite: higher version wins; equal
      // versions resolve by value so replicas converge byte-for-byte.
      if (!have || v.version > value_.version ||
          (v.version == value_.version && v.value >= value_.value)) {
        value_ = v;
        have = true;
      }
      it.Next();
    }
  }
}

void MergeCheckpoints(
    const std::vector<CheckpointReader*>& readers,
    const std::function<void(const std::string&, const Versioned&)>& emit) {
  std::vector<CheckpointReader::Iterator> its;
  its.reserve(readers.size());
  for (CheckpointReader* r : readers) its.push_back(r->Begin());
  for (MergeCursor cur(std::move(its)); cur.Valid(); cur.Next()) {
    emit(cur.key(), cur.value());
  }
}

}  // namespace qcnt::storage

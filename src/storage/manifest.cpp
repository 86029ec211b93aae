#include "storage/manifest.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/check.hpp"
#include "storage/crc32.hpp"
#include "storage/io_util.hpp"

namespace qcnt::storage {
namespace {

constexpr char kMagic[4] = {'Q', 'M', 'A', 'N'};
constexpr std::uint32_t kV2 = 2;
constexpr std::uint32_t kMaxFilesPerShard = 1u << 20;

std::string ManifestFile(const std::string& dir) { return dir + "/MANIFEST"; }

std::optional<std::vector<unsigned char>> ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<unsigned char>{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
}

}  // namespace

Manifest::Manifest(std::string dir, std::size_t shard_count)
    : dir_(std::move(dir)) {
  QCNT_CHECK(shard_count >= 1);
  shards_.resize(shard_count);

  const std::optional<std::vector<unsigned char>> bytes =
      ReadWhole(ManifestFile(dir_));
  if (!bytes) return;  // absent: fresh directory (version stays 0)

  auto corrupt = [&](const std::string& why) {
    info_.ok = false;
    info_.error = "corrupt manifest " + ManifestFile(dir_) + ": " + why;
  };

  if (bytes->size() < 4 + 8 + 4 || std::memcmp(bytes->data(), kMagic, 4) != 0) {
    corrupt("bad magic or short file");
    return;
  }
  const unsigned char* payload = bytes->data() + 4;
  const std::size_t payload_len = bytes->size() - 8;
  if (Crc32(payload, payload_len) != GetU32(bytes->data() + bytes->size() - 4)) {
    corrupt("CRC mismatch");
    return;
  }

  info_.version = GetU32(payload);
  if (info_.version != kV2) {
    info_.ok = false;
    info_.error = "unsupported manifest " + ManifestFile(dir_) +
                  ": format version " + std::to_string(info_.version) +
                  " (only version 2 is readable)";
    return;
  }

  std::size_t pos = 4;
  auto need = [&](std::size_t n) { return pos + n <= payload_len; };
  if (!need(4)) {
    corrupt("truncated v2 header");
    return;
  }
  info_.disk_shard_count = GetU32(payload + pos);
  pos += 4;
  if (info_.disk_shard_count < 1) {
    corrupt("zero shard count");
    return;
  }

  std::vector<ShardFiles> parsed(info_.disk_shard_count);
  for (ShardFiles& sf : parsed) {
    if (!need(1)) {
      corrupt("truncated shard entry");
      return;
    }
    sf.present = payload[pos++] != 0;
    if (!sf.present) continue;
    if (!need(8 + 4)) {
      corrupt("truncated shard entry");
      return;
    }
    sf.next_file_id = GetU64(payload + pos);
    pos += 8;
    for (std::vector<std::uint64_t>* list : {&sf.segments, &sf.checkpoints}) {
      if (!need(4)) {
        corrupt("truncated file list");
        return;
      }
      const std::uint32_t n = GetU32(payload + pos);
      pos += 4;
      if (n > kMaxFilesPerShard || !need(std::size_t{n} * 8)) {
        corrupt("oversized file list");
        return;
      }
      list->reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        list->push_back(GetU64(payload + pos));
        pos += 8;
      }
    }
  }
  if (pos != payload_len) {
    corrupt("trailing bytes");
    return;
  }

  if (info_.disk_shard_count == shard_count) {
    shards_ = std::move(parsed);
  }
  // On a count mismatch the caller's layout validation rejects the
  // directory before any backend touches it; keep the empty table so a
  // mis-wired Manifest cannot silently operate on the wrong stripes.
}

ShardFiles Manifest::Shard(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  QCNT_CHECK(shard < shards_.size());
  return shards_[shard];
}

void Manifest::Update(std::size_t shard, const ShardFiles& files) {
  std::lock_guard<std::mutex> lock(mu_);
  QCNT_CHECK(shard < shards_.size());
  shards_[shard] = files;
  SaveLocked();
}

void Manifest::SaveLocked() {
  std::vector<unsigned char> payload;
  PutU32(payload, kV2);
  PutU32(payload, static_cast<std::uint32_t>(shards_.size()));
  for (const ShardFiles& sf : shards_) {
    payload.push_back(sf.present ? 1 : 0);
    if (!sf.present) continue;
    PutU64(payload, sf.next_file_id);
    for (const std::vector<std::uint64_t>* list :
         {&sf.segments, &sf.checkpoints}) {
      PutU32(payload, static_cast<std::uint32_t>(list->size()));
      for (const std::uint64_t id : *list) PutU64(payload, id);
    }
  }

  std::vector<unsigned char> file;
  file.insert(file.end(), kMagic, kMagic + 4);
  file.insert(file.end(), payload.begin(), payload.end());
  PutU32(file, Crc32(payload.data(), payload.size()));
  AtomicWriteFile(ManifestFile(dir_), file, "manifest");
}

std::string Manifest::ShardDirPath(const std::string& dir, std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard);
}

std::string Manifest::SegmentPath(const std::string& dir, std::size_t shard,
                                  std::uint64_t id) {
  return ShardDirPath(dir, shard) + "/seg_" + std::to_string(id) + ".log";
}

std::string Manifest::CheckpointPath(const std::string& dir, std::size_t shard,
                                     std::uint64_t id) {
  return ShardDirPath(dir, shard) + "/ckpt_" + std::to_string(id) + ".blk";
}

std::optional<std::size_t> Manifest::ReadShardCount(const std::string& dir) {
  const std::optional<std::vector<unsigned char>> bytes =
      ReadWhole(ManifestFile(dir));
  if (!bytes || bytes->size() < 4 + 8 + 4 ||
      std::memcmp(bytes->data(), kMagic, 4) != 0) {
    return std::nullopt;
  }
  const unsigned char* payload = bytes->data() + 4;
  const std::size_t payload_len = bytes->size() - 8;
  if (Crc32(payload, payload_len) != GetU32(bytes->data() + bytes->size() - 4)) {
    return std::nullopt;
  }
  if (GetU32(payload) != kV2) return std::nullopt;
  const std::uint32_t count = GetU32(payload + 4);
  if (count < 1) return std::nullopt;
  return static_cast<std::size_t>(count);
}

}  // namespace qcnt::storage

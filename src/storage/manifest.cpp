#include "storage/manifest.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>

#include "storage/crc32.hpp"
#include "storage/io_util.hpp"

namespace qcnt::storage {
namespace {

constexpr char kMagic[4] = {'Q', 'M', 'A', 'N'};
constexpr std::uint32_t kV2 = 2;
constexpr std::uint32_t kMaxFiles = 1u << 20;

std::string ManifestFile(const std::string& dir) { return dir + "/MANIFEST"; }

std::optional<std::vector<unsigned char>> ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<unsigned char>{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
}

}  // namespace

Manifest::Manifest(std::string dir) : dir_(std::move(dir)) {
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
  const std::uint32_t chains = GetU32(payload + pos);
  pos += 4;
  if (chains < 1) {
    corrupt("zero chain count");
    return;
  }
  if (chains != 1) {
    // A replica striped over several chains: opening one of them would
    // silently orphan the others' acked writes.
    info_.ok = false;
    info_.error = "unsupported layout in " + ManifestFile(dir_) +
                  ": manifest has " + std::to_string(chains) +
                  " shards, this engine keeps 1";
    return;
  }

  ChainFiles parsed;
  if (!need(1)) {
    corrupt("truncated chain entry");
    return;
  }
  parsed.present = payload[pos++] != 0;
  if (parsed.present) {
    if (!need(8 + 4)) {
      corrupt("truncated chain entry");
      return;
    }
    parsed.next_file_id = GetU64(payload + pos);
    pos += 8;
    for (std::vector<std::uint64_t>* list :
         {&parsed.segments, &parsed.checkpoints}) {
      if (!need(4)) {
        corrupt("truncated file list");
        return;
      }
      const std::uint32_t n = GetU32(payload + pos);
      pos += 4;
      if (n > kMaxFiles || !need(std::size_t{n} * 8)) {
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
  files_ = std::move(parsed);
}

void Manifest::Update(const ChainFiles& files) {
  files_ = files;
  std::vector<unsigned char> payload;
  PutU32(payload, kV2);
  PutU32(payload, 1);  // one chain per replica
  payload.push_back(files_.present ? 1 : 0);
  if (files_.present) {
    PutU64(payload, files_.next_file_id);
    for (const std::vector<std::uint64_t>* list :
         {&files_.segments, &files_.checkpoints}) {
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

std::string Manifest::ChainDirPath(const std::string& dir) {
  return dir + "/shard_0";
}

std::string Manifest::SegmentPath(const std::string& dir, std::uint64_t id) {
  return ChainDirPath(dir) + "/seg_" + std::to_string(id) + ".log";
}

std::string Manifest::CheckpointPath(const std::string& dir,
                                     std::uint64_t id) {
  return ChainDirPath(dir) + "/ckpt_" + std::to_string(id) + ".blk";
}

}  // namespace qcnt::storage

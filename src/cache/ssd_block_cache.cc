#include "cache/ssd_block_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/coding.h"
#include "common/hash.h"

namespace logstore::cache {

namespace fs = std::filesystem;

namespace {

// Per-block on-disk layout: magic, key length, key bytes, then the block
// data. A run file is simply several of these back to back. The embedded
// key is what makes hash-collisions on the file name safe.
constexpr char kFileMagic[4] = {'S', 'B', 'C', '1'};
constexpr size_t kHeaderFixedSize = sizeof(kFileMagic) + sizeof(uint32_t);

void AppendBlockRecord(std::string* out, const std::string& key,
                       const std::string& data) {
  out->append(kFileMagic, sizeof(kFileMagic));
  PutFixed32(out, static_cast<uint32_t>(key.size()));
  out->append(key);
  out->append(data);
}

}  // namespace

Result<std::unique_ptr<SsdBlockCache>> SsdBlockCache::Open(
    const std::string& dir, uint64_t capacity_bytes, CacheStats* stats,
    int hash_bits, metrics::MetricRegistry* registry) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create cache dir " + dir + ": " +
                           ec.message());
  }
  return std::unique_ptr<SsdBlockCache>(
      new SsdBlockCache(dir, capacity_bytes, stats, hash_bits, registry));
}

SsdBlockCache::~SsdBlockCache() {
  // Cache files are scratch data; remove them on shutdown.
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

uint64_t SsdBlockCache::FileHash(const std::string& key) const {
  const uint64_t h = Hash64(key);
  if (hash_bits_ >= 64) return h;
  return h & ((uint64_t{1} << hash_bits_) - 1);
}

uint64_t SsdBlockCache::RunFileHash(
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const std::string>>>& blocks)
    const {
  std::string keys;
  for (const auto& block : blocks) PutLengthPrefixedSlice(&keys, block.first);
  return FileHash(keys);
}

std::string SsdBlockCache::PathForHash(uint64_t file_hash) const {
  char name[32];
  snprintf(name, sizeof(name), "%016llx.blk",
           static_cast<unsigned long long>(file_hash));
  return dir_ + "/" + name;
}

void SsdBlockCache::Insert(const std::string& key, const std::string& data) {
  InsertBatch({{key, std::make_shared<const std::string>(data)}});
}

void SsdBlockCache::InsertBatch(
    const std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>&
        blocks) {
  uint64_t total = 0;
  for (const auto& [key, data] : blocks) {
    total += kHeaderFixedSize + key.size() + data->size();
  }
  if (blocks.size() > 1 && total > capacity_) {
    // A run this large would immediately evict itself; store the pieces
    // individually so each is subject to its own capacity check.
    for (const auto& block : blocks) InsertBatch({block});
    return;
  }
  if (blocks.empty() || blocks[0].second->size() > capacity_) return;

  // Blocks laid out back to back, each with its own verifiable header. A
  // lone block's file is named by its key's hash, a run file by a hash of
  // all its keys, so re-spilling some of them never replaces a file that
  // still holds the others.
  std::string payload;
  payload.reserve(total);
  std::vector<uint64_t> offsets;
  offsets.reserve(blocks.size());
  for (const auto& [key, data] : blocks) {
    offsets.push_back(payload.size());
    AppendBlockRecord(&payload, key, *data);
  }
  const uint64_t file_hash = blocks.size() == 1 ? FileHash(blocks[0].first)
                                                : RunFileHash(blocks);
  // Written under a name of its own outside the mutex, and renamed into
  // place under it together with the index update.
  char name[32];
  snprintf(name, sizeof(name), "%016llx.tmp",
           static_cast<unsigned long long>(next_tmp_.fetch_add(1)));
  const std::string tmp = dir_ + "/" + name;
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out) {
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      written = static_cast<bool>(out);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!written || ::rename(tmp.c_str(), PathForHash(file_hash).c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return;
  }
  // Every key whose bytes lived in the replaced file no longer has them.
  DetachFileOwnersLocked(file_hash);
  if (blocks.size() > 1) run_spills_++;
  for (size_t i = 0; i < blocks.size(); ++i) {
    // A duplicate key inside one batch would leave a dangling offset; keep
    // the first occurrence (later ones are unreachable bytes in the file).
    if (index_.count(blocks[i].first) != 0 &&
        index_[blocks[i].first].file_hash == file_hash) {
      continue;
    }
    if (stats_ != nullptr) stats_->inserts++;
    RecordInsertLocked(blocks[i].first, file_hash, offsets[i],
                       blocks[i].second->size());
  }
  EvictLocked();
}

std::vector<std::shared_ptr<const std::string>> SsdBlockCache::GetBatch(
    const std::vector<std::string>& keys, std::vector<uint64_t>* versions) {
  std::vector<std::shared_ptr<const std::string>> out(keys.size());
  if (versions != nullptr) versions->assign(keys.size(), 0);
  std::vector<Located> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = index_.find(keys[i]);
      if (it == index_.end()) {
        if (stats_ != nullptr) stats_->misses++;
        continue;
      }
      lru_.erase(it->second.lru_pos);
      lru_.push_front(keys[i]);
      it->second.lru_pos = lru_.begin();
      found.push_back({i, keys[i], it->second.file_hash,
                       it->second.header_offset, it->second.size,
                       it->second.version});
    }
  }
  if (found.empty()) return out;

  // Group by file and read each file's blocks with one coalesced pread
  // spanning from the first to the last requested extent.
  std::stable_sort(found.begin(), found.end(),
                   [](const Located& a, const Located& b) {
                     return a.file_hash != b.file_hash
                                ? a.file_hash < b.file_hash
                                : a.header_offset < b.header_offset;
                   });
  std::vector<const Located*> stale;
  for (size_t g = 0; g < found.size();) {
    size_t g_end = g + 1;
    while (g_end < found.size() &&
           found[g_end].file_hash == found[g].file_hash) {
      ++g_end;
    }
    const int fd = ::open(PathForHash(found[g].file_hash).c_str(), O_RDONLY);
    if (fd < 0) {
      for (size_t i = g; i < g_end; ++i) stale.push_back(&found[i]);
      g = g_end;
      continue;
    }
    const uint64_t span_begin = found[g].header_offset;
    const Located& last = found[g_end - 1];
    const uint64_t span_end = last.header_offset + kHeaderFixedSize +
                              last.key.size() + last.size;
    std::string span(static_cast<size_t>(span_end - span_begin), '\0');
    ranged_reads_++;
    const bool span_ok =
        ::pread(fd, span.data(), span.size(),
                static_cast<off_t>(span_begin)) ==
        static_cast<ssize_t>(span.size());
    ::close(fd);
    for (size_t i = g; i < g_end; ++i) {
      const Located& loc = found[i];
      const uint64_t header_size = kHeaderFixedSize + loc.key.size();
      const uint64_t rel = loc.header_offset - span_begin;
      bool verified = false;
      if (span_ok && rel + header_size + loc.size <= span.size()) {
        verified =
            span.compare(rel, sizeof(kFileMagic), kFileMagic,
                         sizeof(kFileMagic)) == 0 &&
            DecodeFixed32(span.data() + rel + sizeof(kFileMagic)) ==
                loc.key.size() &&
            span.compare(rel + kHeaderFixedSize, loc.key.size(), loc.key) == 0;
      }
      if (verified) {
        out[loc.slot] = std::make_shared<const std::string>(
            span.substr(static_cast<size_t>(rel + header_size),
                        static_cast<size_t>(loc.size)));
        if (stats_ != nullptr) stats_->hits++;
        if (versions != nullptr) (*versions)[loc.slot] = loc.version;
      } else {
        stale.push_back(&loc);
      }
    }
    g = g_end;
  }

  if (!stale.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Located* loc : stale) {
      DetachEntryLocked(loc->key, loc->version, /*unlink_empty=*/false);
      if (stats_ != nullptr) stats_->misses++;
    }
  }
  return out;
}

void SsdBlockCache::Erase(const std::string& key, uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  DetachEntryLocked(key, version, /*unlink_empty=*/true);
}

bool SsdBlockCache::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) > 0;
}

uint64_t SsdBlockCache::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

size_t SsdBlockCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

void SsdBlockCache::RecordInsertLocked(const std::string& key,
                                       uint64_t file_hash,
                                       uint64_t header_offset, uint64_t size) {
  DetachEntryLocked(key, kAnyVersion, /*unlink_empty=*/true);
  lru_.push_front(key);
  index_[key] =
      Entry{size, file_hash, header_offset, ++last_version_, lru_.begin()};
  file_owner_[file_hash].push_back(key);
  used_ += size;
}

void SsdBlockCache::DetachEntryLocked(const std::string& key, uint64_t version,
                                      bool unlink_empty) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  if (version != kAnyVersion && it->second.version != version) return;
  const uint64_t file_hash = it->second.file_hash;
  used_ -= it->second.size;
  lru_.erase(it->second.lru_pos);
  index_.erase(it);
  auto owner = file_owner_.find(file_hash);
  if (owner == file_owner_.end()) return;
  auto& keys = owner->second;
  keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
  if (keys.empty()) {
    file_owner_.erase(owner);
    if (unlink_empty) {
      std::error_code ec;
      fs::remove(PathForHash(file_hash), ec);
    }
  }
}

void SsdBlockCache::DetachFileOwnersLocked(uint64_t file_hash) {
  auto owner = file_owner_.find(file_hash);
  if (owner == file_owner_.end()) return;
  const std::vector<std::string> keys = owner->second;
  for (const std::string& key : keys) {
    DetachEntryLocked(key, kAnyVersion, /*unlink_empty=*/false);
  }
  file_owner_.erase(file_hash);
}

void SsdBlockCache::EvictLocked() {
  while (used_ > capacity_ && !lru_.empty()) {
    const std::string victim = lru_.back();
    DetachEntryLocked(victim, kAnyVersion, /*unlink_empty=*/true);
    if (stats_ != nullptr) stats_->evictions++;
  }
}

}  // namespace logstore::cache

#include "cache/block_manager.h"

namespace logstore::cache {

BlockManager::BlockManager(const BlockManagerOptions& options)
    : memory_(std::make_unique<ShardedLruCache<const std::string>>(
          options.memory_capacity_bytes, options.memory_shards,
          &memory_stats_)) {
  metrics::MetricRegistry* registry = metrics::OrDefault(options.registry);
  memory_stats_.BindTo(registry, "memory");
  ssd_stats_.BindTo(registry, "ssd");
}

Result<std::unique_ptr<BlockManager>> BlockManager::Open(
    const BlockManagerOptions& options) {
  std::unique_ptr<BlockManager> manager(new BlockManager(options));
  if (!options.ssd_dir.empty()) {
    auto ssd = SsdBlockCache::Open(options.ssd_dir, options.ssd_capacity_bytes,
                                   &manager->ssd_stats_, /*hash_bits=*/64,
                                   options.registry);
    if (!ssd.ok()) return ssd.status();
    manager->ssd_ = std::move(ssd).value();
    // Spill memory evictions to the SSD level; victims of one insert spill
    // as a batch, so adjacent blocks aging out together land in one run
    // file and can be read back with one ranged read.
    SsdBlockCache* ssd_ptr = manager->ssd_.get();
    manager->memory_->set_batch_eviction_callback(
        [ssd_ptr](
            std::vector<LruCache<const std::string>::Evicted>&& victims) {
          std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
              batch;
          batch.reserve(victims.size());
          for (auto& v : victims) {
            batch.emplace_back(std::move(v.key), std::move(v.value));
          }
          ssd_ptr->InsertBatch(batch);
        });
  }
  return manager;
}

std::shared_ptr<const std::string> BlockManager::Get(const std::string& key) {
  if (auto block = memory_->Get(key)) return block;
  if (ssd_ == nullptr) return nullptr;
  return PromoteFromSsd({key}).front();
}

std::vector<std::shared_ptr<const std::string>> BlockManager::GetBatch(
    const std::vector<std::string>& keys) {
  std::vector<std::shared_ptr<const std::string>> out(keys.size());
  std::vector<std::string> ssd_keys;
  std::vector<size_t> ssd_slots;
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = memory_->Get(keys[i]);
    if (out[i] == nullptr && ssd_ != nullptr) {
      ssd_keys.push_back(keys[i]);
      ssd_slots.push_back(i);
    }
  }
  if (ssd_keys.empty()) return out;
  auto promoted = PromoteFromSsd(ssd_keys);
  for (size_t j = 0; j < ssd_keys.size(); ++j) {
    out[ssd_slots[j]] = std::move(promoted[j]);
  }
  return out;
}

std::vector<std::shared_ptr<const std::string>> BlockManager::PromoteFromSsd(
    const std::vector<std::string>& keys) {
  std::vector<uint64_t> versions;
  auto blocks = ssd_->GetBatch(keys, &versions);
  for (size_t j = 0; j < keys.size(); ++j) {
    if (blocks[j] != nullptr) {
      // Promote to the memory level for subsequent hits. The levels are
      // exclusive: the SSD copy is released so the bytes are charged once,
      // and a later memory eviction spills the block back down. Insert into
      // memory BEFORE erasing from SSD: a concurrent lookup of the same key
      // that misses SSD mid-promotion then finds the block on its memory
      // re-check instead of reporting a spurious miss. The erase drops only
      // the entry read: if memory already evicted the promoted copy again,
      // its fresh spill stays.
      memory_->Insert(keys[j], blocks[j], blocks[j]->size());
      ssd_->Erase(keys[j], versions[j]);
    } else if (memory_->Contains(keys[j])) {
      // A racing promotion moved the block from SSD to memory after this
      // lookup's memory probe. Contains first, so a plain miss counts one
      // memory miss, not two.
      blocks[j] = memory_->Get(keys[j]);
    }
  }
  return blocks;
}

void BlockManager::Insert(const std::string& key,
                          std::shared_ptr<const std::string> block) {
  const uint64_t charge = block->size();
  memory_->Insert(key, std::move(block), charge);
}

bool BlockManager::Contains(const std::string& key) const {
  return memory_->Contains(key) || (ssd_ != nullptr && ssd_->Contains(key));
}

void BlockManager::Clear() { memory_->Clear(); }

}  // namespace logstore::cache

#ifndef LOGSTORE_PREFETCH_CACHED_SOURCE_H_
#define LOGSTORE_PREFETCH_CACHED_SOURCE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "logblock/logblock_reader.h"
#include "objectstore/object_store.h"
#include "prefetch/prefetch_service.h"

namespace logstore::prefetch {

// LogBlockSource that reads an object directly from the object store with
// one ranged request per read — the unoptimized baseline of Figure 16
// ("OSS & W/o Parallel Prefetch").
class DirectObjectSource : public logblock::LogBlockSource {
 public:
  DirectObjectSource(objectstore::ObjectStore* store, std::string key)
      : store_(store), key_(std::move(key)) {}

  Result<std::string> ReadRange(uint64_t offset, uint64_t size) override {
    return store_->GetRange(key_, offset, size);
  }

 private:
  objectstore::ObjectStore* store_;
  std::string key_;
};

// LogBlockSource that routes reads through the multi-level block cache and
// the parallel prefetch service — the optimized path of Figure 16.
// `object_size` (0 = unknown) clamps every fetch to the object's end; see
// PrefetchService.
class CachedObjectSource : public logblock::LogBlockSource {
 public:
  CachedObjectSource(PrefetchService* service, std::string key,
                     uint64_t object_size = 0)
      : service_(service), key_(std::move(key)), object_size_(object_size) {}

  Result<std::string> ReadRange(uint64_t offset, uint64_t size) override {
    return service_->Read(key_, offset, size, object_size_);
  }

  Status Prefetch(const std::vector<ByteRange>& ranges,
                  uint64_t owner = 0) override {
    service_->Prefetch(owner, key_, ranges, object_size_);
    return Status::OK();
  }

 private:
  PrefetchService* service_;
  std::string key_;
  uint64_t object_size_;
};

}  // namespace logstore::prefetch

#endif  // LOGSTORE_PREFETCH_CACHED_SOURCE_H_

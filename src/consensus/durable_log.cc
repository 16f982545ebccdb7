#include "consensus/durable_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/slice.h"
#include "consensus/raft.h"

namespace logstore::consensus {

namespace fs = std::filesystem;

namespace {

// Record types. The framing is fixed32 masked crc | fixed32 len | type |
// body, with the CRC over everything after itself (len included), so a
// corrupted length field fails the CRC instead of causing an over-read.
constexpr uint8_t kHardStateRecord = 1;
constexpr uint8_t kEntryRecord = 2;
constexpr uint8_t kTruncateRecord = 3;
constexpr uint8_t kWatermarkRecord = 4;

constexpr uint64_t kRecordHeaderSize = 8;  // crc + len
// A record larger than this is treated as torn even if the bytes for its
// claimed length happen to exist (allocation-bomb guard).
constexpr uint64_t kMaxRecordLen = 64ull << 20;

// Frames `body` followed by `payload` as one record, in one buffer of the
// frame's exact size, with the CRC written in place last.
std::string FrameRecord(uint8_t type, const Slice& body,
                        const Slice& payload = Slice()) {
  const size_t len = 1 + body.size() + payload.size();
  std::string framed;
  framed.reserve(kRecordHeaderSize + len);
  framed.resize(4);
  PutFixed32(&framed, static_cast<uint32_t>(len));
  framed.push_back(static_cast<char>(type));
  framed.append(body.data(), body.size());
  framed.append(payload.data(), payload.size());
  EncodeFixed32(framed.data(), crc32c::Mask(crc32c::Value(
                                   framed.data() + 4, framed.size() - 4)));
  return framed;
}

}  // namespace

DurableLog::DurableLog(std::string dir, DurableLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  metrics::MetricRegistry* registry = metrics::OrDefault(options_.registry);
  fsyncs_issued_.Bind(registry->Counter("wal.fsyncs_issued"));
  sync_batches_.Bind(registry->Counter("wal.sync_batches"));
  records_appended_.Bind(registry->Counter("wal.records_appended"));
}

DurableLog::~DurableLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::string DurableLog::SegmentPath(uint64_t seq) const {
  char name[32];
  snprintf(name, sizeof(name), "wal-%06llu.seg",
           static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Result<std::unique_ptr<DurableLog>> DurableLog::Open(const std::string& dir,
                                                     DurableLogOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal dir " + dir + ": " + ec.message());
  }
  std::unique_ptr<DurableLog> log(new DurableLog(dir, options));
  LOGSTORE_RETURN_IF_ERROR(log->Recover());
  return log;
}

Status DurableLog::Recover() {
  // Collect segments in name (= creation) order.
  std::vector<std::pair<uint64_t, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (sscanf(name.c_str(), "wal-%llu.seg",
               reinterpret_cast<unsigned long long*>(&seq)) == 1) {
      files.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());

  // Replay every record across segments, last-writer-wins. Entries go into
  // a map so a watermark record can retroactively cover a prefix that was
  // GC'd out of earlier (deleted) segments.
  std::map<uint64_t, LogEntry> entries;
  bool torn = false;
  size_t torn_segment = 0;  // index into `files` where scanning stopped
  uint64_t torn_valid_end = 0;

  for (size_t f = 0; f < files.size() && !torn; ++f) {
    std::string data;
    {
      std::ifstream in(files[f].second, std::ios::binary | std::ios::ate);
      if (!in) return Status::IOError("cannot read " + files[f].second);
      const auto size = static_cast<uint64_t>(in.tellg());
      data.resize(static_cast<size_t>(size));
      in.seekg(0);
      in.read(data.data(), static_cast<std::streamsize>(size));
      if (!in && size > 0) {
        return Status::IOError("failed reading " + files[f].second);
      }
    }

    Segment segment;
    segment.seq = files[f].first;
    uint64_t offset = 0;
    while (offset < data.size()) {
      // A record that does not fully parse and verify is a torn tail: the
      // log ends at the last valid boundary.
      if (data.size() - offset < kRecordHeaderSize) break;
      const uint32_t masked_crc = DecodeFixed32(data.data() + offset);
      const uint32_t len = DecodeFixed32(data.data() + offset + 4);
      if (len == 0 || len > kMaxRecordLen ||
          data.size() - offset - kRecordHeaderSize < len) {
        break;
      }
      if (crc32c::Unmask(masked_crc) !=
          crc32c::Value(data.data() + offset + 4, 4 + len)) {
        break;
      }
      const uint8_t type = static_cast<uint8_t>(data[offset + kRecordHeaderSize]);
      Slice body(data.data() + offset + kRecordHeaderSize + 1, len - 1);
      switch (type) {
        case kHardStateRecord: {
          uint64_t term;
          int64_t voted_for;
          if (!GetVarint64(&body, &term) || !GetVarsint64(&body, &voted_for)) {
            return Status::Corruption("wal: bad hard-state record");
          }
          term_ = term;
          voted_for_ = static_cast<int>(voted_for);
          break;
        }
        case kEntryRecord: {
          uint64_t index, term;
          if (!GetVarint64(&body, &index) || !GetVarint64(&body, &term)) {
            return Status::Corruption("wal: bad entry record");
          }
          LogEntry entry;
          entry.term = term;
          entry.payload.assign(body.data(), body.size());
          entries[index] = std::move(entry);
          segment.max_entry_index = std::max(segment.max_entry_index, index);
          break;
        }
        case kTruncateRecord: {
          uint64_t from;
          if (!GetVarint64(&body, &from)) {
            return Status::Corruption("wal: bad truncate record");
          }
          entries.erase(entries.lower_bound(from), entries.end());
          break;
        }
        case kWatermarkRecord: {
          uint64_t index, term, aux;
          if (!GetVarint64(&body, &index) || !GetVarint64(&body, &term) ||
              !GetVarint64(&body, &aux)) {
            return Status::Corruption("wal: bad watermark record");
          }
          if (index >= watermark_index_) {
            watermark_index_ = index;
            watermark_term_ = term;
            watermark_aux_ = aux;
          }
          break;
        }
        default:
          return Status::Corruption("wal: unknown record type " +
                                    std::to_string(type));
      }
      offset += kRecordHeaderSize + len;
    }

    segment.size = offset;
    if (offset < data.size()) {
      // Torn tail: repair by truncating at the last valid boundary and
      // dropping any later segments (they would leave a hole in the log).
      torn = true;
      torn_segment = f;
      torn_valid_end = offset;
      recovered_.repaired_tail_bytes = data.size() - offset;
    }
    if (f + 1 < files.size() && !torn) {
      sealed_.push_back(segment);
    } else {
      active_ = segment;
    }
  }

  if (torn) {
    std::error_code ec;
    if (torn_valid_end == 0) {
      // No valid record at all: delete the segment instead of keeping a
      // zero-length file, so the newest surviving segment still opens with
      // its header records (the self-describing-suffix invariant).
      fs::remove(files[torn_segment].second, ec);
      if (!sealed_.empty()) {
        active_ = sealed_.back();
        sealed_.pop_back();
      } else {
        active_ = Segment{};
      }
    } else {
      fs::resize_file(files[torn_segment].second, torn_valid_end, ec);
    }
    if (ec) {
      return Status::IOError("wal: cannot repair torn tail of " +
                             files[torn_segment].second + ": " + ec.message());
    }
    for (size_t f = torn_segment + 1; f < files.size(); ++f) {
      fs::remove(files[f].second, ec);
    }
  }

  // Entries at or below the watermark are archived; the rest must be a
  // contiguous run starting right above it.
  entries.erase(entries.begin(), entries.upper_bound(watermark_index_));
  recovered_.term = term_;
  recovered_.voted_for = voted_for_;
  recovered_.base_index = watermark_index_;
  recovered_.base_term = watermark_term_;
  recovered_.watermark_aux = watermark_aux_;
  uint64_t expected = watermark_index_ + 1;
  for (auto& [index, entry] : entries) {
    if (index != expected) {
      return Status::Corruption("wal: log gap at index " +
                                std::to_string(expected));
    }
    recovered_.entries.push_back(std::move(entry));
    ++expected;
  }
  next_entry_index_ = expected;

  // Resume appending into the newest surviving segment.
  if (active_.seq != 0) {
    const std::string path = SegmentPath(active_.seq);
    fd_ = ::open(path.c_str(), O_WRONLY);
    if (fd_ < 0) {
      return Status::IOError("wal: cannot reopen " + path);
    }
    if (::lseek(fd_, static_cast<off_t>(active_.size), SEEK_SET) < 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::IOError("wal: cannot seek " + path);
    }
    written_bytes_ = synced_bytes_ = active_.size;
    last_record_offset_ = active_.size;
  }
  // Finish any GC a crash interrupted between the watermark fsync and the
  // segment deletes (the deletes are idempotent; the watermark is durable).
  return DeleteSegmentsBelowWatermark();
}

Status DurableLog::OpenActiveSegment() {
  const uint64_t seq =
      std::max(active_.seq, sealed_.empty() ? 0 : sealed_.back().seq) + 1;
  const std::string path = SegmentPath(seq);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) return Status::IOError("wal: cannot create " + path);
  active_ = Segment{seq, 0, 0};
  written_bytes_ = synced_bytes_ = 0;
  last_record_offset_ = 0;

  // Header: the state as of this segment's creation. This is what makes a
  // suffix of segments (after prefix GC) self-describing.
  std::string hard_state;
  PutVarint64(&hard_state, term_);
  PutVarsint64(&hard_state, voted_for_);
  std::string watermark;
  PutVarint64(&watermark, watermark_index_);
  PutVarint64(&watermark, watermark_term_);
  PutVarint64(&watermark, watermark_aux_);
  for (const auto& [type, body] :
       {std::pair<uint8_t, std::string>{kHardStateRecord, hard_state},
        {kWatermarkRecord, watermark}}) {
    const std::string framed = FrameRecord(type, body);
    if (::write(fd_, framed.data(), framed.size()) !=
        static_cast<ssize_t>(framed.size())) {
      return Status::IOError("wal: header write failed");
    }
    last_record_offset_ = written_bytes_;
    written_bytes_ += framed.size();
    active_.size = written_bytes_;
  }
  return Status::OK();
}

Status DurableLog::FsyncActive() {
  if (!failed_.ok()) return failed_;
  if (fd_ < 0 || synced_bytes_ == written_bytes_) return Status::OK();
  ++fsyncs_issued_;
  if (inject_sync_errors_ > 0) {
    --inject_sync_errors_;
    // Fail-stop, like a real post-fsync-failure: the kernel may already
    // have discarded the dirty pages, so no later fsync can be trusted to
    // cover the records written since the last good one.
    failed_ = Status::IOError("wal: fsync failed (injected EIO); log wedged");
    return failed_;
  }
  if (::fsync(fd_) != 0) {
    failed_ = Status::IOError("wal: fsync failed; log wedged");
    return failed_;
  }
  synced_bytes_ = written_bytes_;
  return Status::OK();
}

Status DurableLog::RotateLocked() {
  // Seal the active segment durably before starting its successor, so a
  // crash mid-rotation can only affect the (still unacknowledged) new one.
  if (options_.sync_policy != SyncPolicy::kNever) {
    LOGSTORE_RETURN_IF_ERROR(FsyncActive());
  }
  ::close(fd_);
  fd_ = -1;
  sealed_.push_back(active_);
  LOGSTORE_RETURN_IF_ERROR(OpenActiveSegment());
  // Eager GC: the segment just sealed may hold nothing above the watermark
  // (the watermark record itself lands mid-segment, so the segment that
  // carried it seals "fully archived"). Its replacement's header repeats
  // all of its state — make that header durable first, then drop it.
  if (!sealed_.empty() &&
      sealed_.front().max_entry_index <= watermark_index_) {
    if (options_.sync_policy != SyncPolicy::kNever) {
      LOGSTORE_RETURN_IF_ERROR(FsyncActive());
    }
    return DeleteSegmentsBelowWatermark();
  }
  return Status::OK();
}

Status DurableLog::AppendRecord(const std::string& framed, bool force_sync) {
  if (dead_) return Status::IOError("wal: simulated crash; reopen required");
  if (!failed_.ok()) return failed_;
  if (fd_ < 0) LOGSTORE_RETURN_IF_ERROR(OpenActiveSegment());
  if (active_.size >= options_.segment_target_bytes) {
    LOGSTORE_RETURN_IF_ERROR(RotateLocked());
  }
  bool failed_write = false;
  if (inject_append_errors_ > 0) {
    --inject_append_errors_;
    if (inject_append_partial_) {
      // ENOSPC mid-record: half the frame lands before the write gives up.
      (void)!::write(fd_, framed.data(), framed.size() / 2);
    }
    failed_write = true;
  } else if (::write(fd_, framed.data(), framed.size()) !=
             static_cast<ssize_t>(framed.size())) {
    failed_write = true;
  }
  if (failed_write) {
    // Roll the file back to the last record boundary. Leaving the partial
    // bytes in place would interleave them with the next record, tearing
    // the segment at a point recovery cannot repair; if even the rollback
    // fails the log wedges rather than risk that.
    if (::ftruncate(fd_, static_cast<off_t>(written_bytes_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(written_bytes_), SEEK_SET) < 0) {
      failed_ = Status::IOError(
          "wal: rollback after failed append failed; log wedged");
      return failed_;
    }
    return Status::IOError("wal: write failed");
  }
  last_record_offset_ = written_bytes_;
  written_bytes_ += framed.size();
  active_.size = written_bytes_;
  ++records_appended_;
  if (force_sync || options_.sync_policy == SyncPolicy::kPerRecord) {
    if (options_.sync_policy != SyncPolicy::kNever) {
      LOGSTORE_RETURN_IF_ERROR(FsyncActive());
    }
  }
  return Status::OK();
}

Status DurableLog::PersistHardState(uint64_t term, int voted_for) {
  std::lock_guard<std::mutex> lock(mu_);
  if (term == term_ && voted_for == voted_for_) return Status::OK();
  term_ = term;
  voted_for_ = voted_for;
  std::string body;
  PutVarint64(&body, term);
  PutVarsint64(&body, voted_for);
  // Votes must be durable before the response leaves the node, whatever
  // the batching policy: a vote granted then forgotten can elect two
  // leaders for one term. Elections are rare, so this costs little.
  return AppendRecord(FrameRecord(kHardStateRecord, body),
                      /*force_sync=*/true);
}

Status DurableLog::AppendEntry(uint64_t index, const LogEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index != next_entry_index_) {
    return Status::InvalidArgument(
        "wal: non-contiguous append at " + std::to_string(index) +
        ", expected " + std::to_string(next_entry_index_));
  }
  char head[20];
  char* end = EncodeVarint64(head, index);
  end = EncodeVarint64(end, entry.term);
  LOGSTORE_RETURN_IF_ERROR(AppendRecord(
      FrameRecord(kEntryRecord, Slice(head, end - head), entry.payload),
      false));
  active_.max_entry_index = std::max(active_.max_entry_index, index);
  next_entry_index_ = index + 1;
  return Status::OK();
}

Status DurableLog::TruncateSuffix(uint64_t from_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (from_index >= next_entry_index_) return Status::OK();
  std::string body;
  PutVarint64(&body, from_index);
  LOGSTORE_RETURN_IF_ERROR(
      AppendRecord(FrameRecord(kTruncateRecord, body), false));
  next_entry_index_ = from_index;
  return Status::OK();
}

Status DurableLog::PersistWatermark(uint64_t index, uint64_t term,
                                    uint64_t aux) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < watermark_index_) return Status::OK();
  std::string body;
  PutVarint64(&body, index);
  PutVarint64(&body, term);
  PutVarint64(&body, aux);
  // Durable before GC: deleting segments on the strength of an un-fsynced
  // watermark could lose the only copy of un-archived entries.
  LOGSTORE_RETURN_IF_ERROR(AppendRecord(FrameRecord(kWatermarkRecord, body),
                                        /*force_sync=*/true));
  watermark_index_ = index;
  watermark_term_ = term;
  watermark_aux_ = aux;
  if (index >= next_entry_index_) {
    // Snapshot install: the log's contents jumped forward wholesale (the
    // prefix now lives in shared storage), so the next append continues
    // right above the snapshot instead of where the old log ended.
    next_entry_index_ = index + 1;
  }
  return DeleteSegmentsBelowWatermark();
}

Status DurableLog::DeleteSegmentsBelowWatermark() {
  // A sealed segment whose every entry is at or below the watermark is
  // redundant with the object store (and header-only segments carry no
  // state a later segment's header does not repeat). Only a PREFIX of the
  // sealed list is eligible: after a suffix truncation, a later segment's
  // max_entry_index can be lower than an earlier segment's, and deleting
  // the later one (which holds the truncate record) while the earlier
  // survives would resurrect truncated entries at recovery. The active
  // segment is never deleted.
  while (!sealed_.empty() &&
         sealed_.front().max_entry_index <= watermark_index_) {
    std::error_code ec;
    fs::remove(SegmentPath(sealed_.front().seq), ec);
    if (ec) {
      return Status::IOError("wal: cannot delete segment " +
                             SegmentPath(sealed_.front().seq) + ": " +
                             ec.message());
    }
    sealed_.erase(sealed_.begin());
  }
  return Status::OK();
}

Status DurableLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  ++sync_batches_;
  if (dead_) return Status::IOError("wal: simulated crash; reopen required");
  if (options_.sync_policy == SyncPolicy::kNever) return Status::OK();
  // Group commit: FsyncActive early-returns when a concurrent Sync that
  // held the mutex first already flushed everything written so far.
  return FsyncActive();
}

void DurableLog::InjectAppendErrors(int count, bool partial_write) {
  std::lock_guard<std::mutex> lock(mu_);
  inject_append_errors_ = count;
  inject_append_partial_ = partial_write;
}

void DurableLog::InjectSyncErrors(int count) {
  std::lock_guard<std::mutex> lock(mu_);
  inject_sync_errors_ = count;
}

std::vector<DurableLog::SegmentInfo> DurableLog::segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  for (const Segment& s : sealed_) {
    out.push_back({SegmentPath(s.seq), s.seq, s.max_entry_index, false});
  }
  if (active_.seq != 0) {
    out.push_back({SegmentPath(active_.seq), active_.seq,
                   active_.max_entry_index, true});
  }
  return out;
}

Status DurableLog::SimulateCrash(CrashMode mode, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  dead_ = true;
  if (written_bytes_ == 0) return Status::OK();

  Random rng(seed);
  const std::string path = SegmentPath(active_.seq);
  std::error_code ec;
  switch (mode) {
    case CrashMode::kDropUnsynced:
      fs::resize_file(path, synced_bytes_, ec);
      break;
    case CrashMode::kTornWrite: {
      // The file ends somewhere inside the un-fsynced suffix — possibly in
      // the middle of a record's bytes.
      const uint64_t cut =
          synced_bytes_ + rng.Uniform(written_bytes_ - synced_bytes_ + 1);
      fs::resize_file(path, cut, ec);
      break;
    }
    case CrashMode::kHalveTailRecord: {
      const uint64_t cut =
          last_record_offset_ + (written_bytes_ - last_record_offset_) / 2;
      fs::resize_file(path, cut, ec);
      break;
    }
    case CrashMode::kBitFlipTail: {
      if (written_bytes_ <= last_record_offset_) break;
      const uint64_t victim =
          last_record_offset_ +
          rng.Uniform(written_bytes_ - last_record_offset_);
      std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
      if (!file) return Status::IOError("wal: cannot corrupt " + path);
      file.seekg(static_cast<std::streamoff>(victim));
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << rng.Uniform(8)));
      file.seekp(static_cast<std::streamoff>(victim));
      file.write(&byte, 1);
      break;
    }
  }
  if (ec) return Status::IOError("wal: crash simulation failed: " + ec.message());
  return Status::OK();
}

}  // namespace logstore::consensus

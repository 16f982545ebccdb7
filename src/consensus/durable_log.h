#ifndef LOGSTORE_CONSENSUS_DURABLE_LOG_H_
#define LOGSTORE_CONSENSUS_DURABLE_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "consensus/raft_persistence.h"

namespace logstore::consensus {

// When appended records reach the disk.
enum class SyncPolicy {
  // fsync inside every AppendEntry/PersistHardState: an acknowledged write
  // survives a crash of every replica. Highest latency.
  kPerRecord,
  // fsync only on Sync() — the group-commit point the embedder chooses
  // (RaftNode: end of tick; Worker: before acking a client write). Records
  // appended since the last Sync() may be lost or torn by a crash.
  kOnSync,
  // Never fsync; the OS flushes eventually. A process crash keeps the data,
  // a machine crash can lose or tear any suffix.
  kNever,
};

struct DurableLogOptions {
  SyncPolicy sync_policy = SyncPolicy::kPerRecord;
  // Active segment is sealed and a new one started past this size.
  uint64_t segment_target_bytes = 4ull << 20;
  // Registry receiving the `wal.*` aggregates; nullptr means the
  // process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

// How SimulateCrash mangles the un-fsynced suffix of the active segment.
enum class CrashMode {
  // Everything not covered by the last fsync disappears.
  kDropUnsynced,
  // The file ends at a random byte inside the un-fsynced suffix: the final
  // record is partial (a torn write).
  kTornWrite,
  // One random bit inside the final record flips (media/controller
  // corruption); length is preserved so only the CRC catches it.
  kBitFlipTail,
  // The final record keeps only its first half.
  kHalveTailRecord,
};

// A file-backed, segmented, CRC-framed write-ahead log implementing
// RaftPersistence. One directory per raft replica:
//
//   wal-000001.seg  wal-000002.seg  ...   (recovered in name order)
//
// Record framing: fixed32 masked crc | fixed32 len | type byte | body,
// with the CRC covering len+type+body so a corrupt length can never cause
// an over-read. Record types: hard state (term/vote), log entry
// (index/term/payload), suffix truncation marker, and archived-through
// watermark. Every segment begins with a hard-state and a watermark record
// reflecting the state at rotation, which is what makes any suffix of
// segments self-describing — and therefore makes prefix GC safe.
//
// Recovery scans all segments in order, last-writer-wins. A partial or
// CRC-failing record truncates the log at the last valid record boundary
// (torn-tail repair) instead of failing open; segments after the torn one
// are dropped.
//
// Thread-safe. Sync() group-commits: one fsync covers every record written
// before it, so a caller whose bytes an earlier concurrent Sync already
// flushed returns without issuing its own fsync (fsyncs_issued() counts
// real flushes, letting tests assert the batching).
//
// Failure model: a failed append is rolled back to the previous record
// boundary (the segment stays parseable and the next append is clean); a
// failed fsync wedges the log permanently — after fsync fails, the kernel
// may already have discarded the dirty pages, so no later "successful"
// fsync can be trusted to cover them. Reopen the directory to resume.
class DurableLog : public RaftPersistence {
 public:
  // Opens (creating the directory if needed) and recovers. Repairs a torn
  // tail in place: after Open returns, the on-disk log equals recovered().
  static Result<std::unique_ptr<DurableLog>> Open(const std::string& dir,
                                                  DurableLogOptions options = {});

  ~DurableLog() override;

  const RecoveredState& recovered() const { return recovered_; }
  const std::string& dir() const { return dir_; }

  // RaftPersistence:
  Status PersistHardState(uint64_t term, int voted_for) override;
  Status AppendEntry(uint64_t index, const LogEntry& entry) override;
  Status TruncateSuffix(uint64_t from_index) override;
  Status PersistWatermark(uint64_t index, uint64_t term, uint64_t aux) override;
  Status Sync() override;

  // --- Introspection (tests, GC assertions) ---
  struct SegmentInfo {
    std::string path;
    uint64_t seq = 0;            // from the file name
    uint64_t max_entry_index = 0;  // 0 = no entries in this segment
    bool active = false;
  };
  std::vector<SegmentInfo> segments() const;
  uint64_t unsynced_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_bytes_ - synced_bytes_;
  }
  // Real flushes (atomic: read by tests and monitors without the lock).
  uint64_t fsyncs_issued() const { return fsyncs_issued_.load(); }
  // Sync() group-commit points; sync_batches() - fsyncs_issued() of them
  // found their bytes already covered by a concurrent flush.
  uint64_t sync_batches() const { return sync_batches_.load(); }

  // --- Deterministic IO-error injection (tests) ---
  // The next `count` appends fail like ENOSPC. With `partial_write` the
  // first half of the record reaches the file before the failure, so the
  // rollback path (ftruncate to the last record boundary) is exercised;
  // without it the write fails before any byte lands. Either way the
  // append reports an error (never acked) and the segment stays parseable.
  void InjectAppendErrors(int count, bool partial_write);
  // The next `count` fsyncs fail like EIO; each wedges the log (fail-stop).
  void InjectSyncErrors(int count);

  // --- Deterministic crash injection (tests) ---
  // Mangles the on-disk state the way a crash at this instant could have:
  // data past the last fsync may be missing, partial, or corrupt. The
  // object is dead afterwards (every later call fails); destroy it and
  // re-Open the directory to model the process restart. With kBitFlipTail /
  // kHalveTailRecord the damage targets the newest record even if it was
  // already synced, modeling torn sector writes and media corruption.
  Status SimulateCrash(CrashMode mode, uint64_t seed);

 private:
  DurableLog(std::string dir, DurableLogOptions options);

  Status Recover();
  // Appends one record, framed by FrameRecord, to the active segment,
  // creating/rotating segments as needed. `force_sync` overrides kOnSync (hard state).
  // Callers hold mu_ (all private mutators assume mu_ held).
  Status AppendRecord(const std::string& framed, bool force_sync);
  Status OpenActiveSegment();  // creates the next segment with header records
  Status RotateLocked();
  Status FsyncActive();
  Status DeleteSegmentsBelowWatermark();
  std::string SegmentPath(uint64_t seq) const;

  const std::string dir_;
  const DurableLogOptions options_;

  // Guards every mutable field below. fsync happens with mu_ held: a
  // concurrent Sync that queues on the mutex finds synced_bytes_ already
  // covering its records and returns without a second flush — that queuing
  // IS the group commit.
  mutable std::mutex mu_;

  RecoveredState recovered_;

  // Cached last-persisted values, re-written as the header of each new
  // segment so any retained suffix of segments recovers them.
  uint64_t term_ = 0;
  int voted_for_ = -1;
  uint64_t watermark_index_ = 0;
  uint64_t watermark_term_ = 0;
  uint64_t watermark_aux_ = 0;

  struct Segment {
    uint64_t seq = 0;
    uint64_t max_entry_index = 0;
    uint64_t size = 0;
  };
  std::vector<Segment> sealed_;  // ascending seq, excludes active
  Segment active_;
  int fd_ = -1;
  uint64_t next_entry_index_ = 1;  // index the next AppendEntry must carry

  // Crash-simulation bookkeeping for the active segment.
  uint64_t written_bytes_ = 0;      // logical size of the active segment
  uint64_t synced_bytes_ = 0;       // covered by the last fsync
  uint64_t last_record_offset_ = 0;  // start of the newest record
  bool dead_ = false;               // SimulateCrash was called

  metrics::Counter fsyncs_issued_{0};
  metrics::Counter sync_batches_{0};
  metrics::Counter records_appended_{0};
  Status failed_ = Status::OK();  // latched by a failed fsync (fail-stop)
  int inject_append_errors_ = 0;
  bool inject_append_partial_ = false;
  int inject_sync_errors_ = 0;
};

}  // namespace logstore::consensus

#endif  // LOGSTORE_CONSENSUS_DURABLE_LOG_H_

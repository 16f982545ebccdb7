#ifndef LOGSTORE_COMMON_METRICS_H_
#define LOGSTORE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <mutex>

namespace logstore::metrics {

// ---------------------------------------------------------------------------
// Unified metrics registry (DESIGN.md §14).
//
// Every load/health counter the balancer and operators consume lives in
// one place: a MetricRegistry of named, labeled, lock-free cells. Producers
// resolve their cells once (at construction) and then increment plain
// atomics on the hot path — registration is the only operation that takes
// the registry mutex, so a broker write or a block scan never serializes
// on metrics.
//
// Naming scheme: `<module>.<counter>` (e.g. `cache.hits`, `wal.fsyncs`),
// with labels for the axes a consumer aggregates over — `tier` for cache
// levels, `tenant`/`shard`/`worker` for routing load. The canonical key is
// `name{k=v,...}` with label keys sorted, so the same (name, labels) pair
// always resolves to the same cell, process-wide or per-registry.
//
// Counters are cumulative and monotonic: nothing in the registry is ever
// reset or unregistered, so consumers (the traffic-control loop, perf
// dashboards) difference successive Snapshot()s instead of trusting a
// mutable "current window". Gauges are last-write-wins instantaneous
// values (cycle latency, queue depth).
// ---------------------------------------------------------------------------

// Label set, canonicalized by sorting on key. Small; value semantics.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge };

// One metric's point-in-time value, as returned by Snapshot().
struct MetricSample {
  std::string name;
  Labels labels;  // sorted by key
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;  // valid when type == kCounter
  int64_t gauge = 0;     // valid when type == kGauge

  // Canonical `name{k=v,...}` key (no braces when label-less).
  std::string Key() const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry. Components default to it when their options
  // carry no explicit registry; tests that need isolation construct their
  // own and plumb it through the options structs.
  static MetricRegistry* Default();

  // Resolves the cell for (name, labels), registering it on first use.
  // The returned atomic lives as long as the registry; callers cache the
  // pointer and increment it lock-free ever after. Calling again with the
  // same (name, labels) returns the same cell.
  std::atomic<uint64_t>* Counter(const std::string& name,
                                 const Labels& labels = {});
  std::atomic<int64_t>* Gauge(const std::string& name,
                              const Labels& labels = {});

  // Point-in-time view of every registered metric. Each value is read
  // atomically (no torn counters); the set is consistent in that a metric
  // registered before the call is always present and values are monotonic
  // across successive snapshots of the same counter.
  std::vector<MetricSample> Snapshot() const;

  // Snapshot as a canonical-key → value map (counters and gauges; gauge
  // values cast). The "one call surfaces everything" consumer surface.
  std::map<std::string, int64_t> SnapshotMap() const;

  // Exporters: one `key value` line per metric, and a flat JSON object.
  std::string ToText() const;
  std::string ToJson() const;

  // Number of distinct registered metrics.
  size_t size() const;

  static std::string CanonicalKey(const std::string& name,
                                  const Labels& labels);

 private:
  struct Cell {
    std::string name;
    Labels labels;
    MetricType type = MetricType::kCounter;
    std::atomic<uint64_t> counter{0};
    std::atomic<int64_t> gauge{0};
  };

  Cell* Resolve(const std::string& name, const Labels& labels,
                MetricType type);

  mutable std::mutex mu_;
  std::deque<Cell> cells_;  // deque: stable addresses across growth
  std::unordered_map<std::string, Cell*> index_;  // canonical key → cell
};

// Null-tolerant accessor: options structs default their registry pointer to
// nullptr, which means "the process-wide registry".
inline MetricRegistry* OrDefault(MetricRegistry* registry) {
  return registry != nullptr ? registry : MetricRegistry::Default();
}

// ---------------------------------------------------------------------------
// Counter: drop-in replacement for the std::atomic<uint64_t> fields of the
// legacy per-module stats structs. It keeps a local value — so existing
// per-instance assertions and Reset() semantics are untouched — and, once
// Bind() links it to a registry cell, mirrors every increment into the
// registry (two relaxed atomic adds; still lock-free). Resets and
// assignments touch only the local value: registry counters stay cumulative.
//
// Bind() is expected at construction time, before concurrent increments;
// the sink pointer is atomic only so a late bind is benign rather than UB.
// ---------------------------------------------------------------------------
class Counter {
 public:
  constexpr Counter(uint64_t value = 0) : value_(value) {}  // NOLINT: implicit

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter& other) = delete;

  // Mirrors future increments into `cell` (a MetricRegistry::Counter()).
  void Bind(std::atomic<uint64_t>* cell) {
    sink_.store(cell, std::memory_order_release);
  }

  uint64_t fetch_add(uint64_t delta,
                     std::memory_order order = std::memory_order_relaxed) {
    if (auto* sink = sink_.load(std::memory_order_acquire)) {
      sink->fetch_add(delta, std::memory_order_relaxed);
    }
    return value_.fetch_add(delta, order);
  }

  uint64_t operator++() { return fetch_add(1) + 1; }
  uint64_t operator++(int) { return fetch_add(1); }
  uint64_t operator+=(uint64_t delta) { return fetch_add(delta) + delta; }

  // Local reset/assignment (tests): the registry cell is NOT rewound —
  // registry counters are cumulative by contract.
  uint64_t operator=(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return value;
  }

  uint64_t load(std::memory_order order = std::memory_order_seq_cst) const {
    return value_.load(order);
  }
  operator uint64_t() const { return load(); }  // NOLINT: implicit

 private:
  std::atomic<uint64_t> value_{0};
  std::atomic<std::atomic<uint64_t>*> sink_{nullptr};
};

}  // namespace logstore::metrics

#endif  // LOGSTORE_COMMON_METRICS_H_

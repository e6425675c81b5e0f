#ifndef HC2L_SERVER_METRICS_H_
#define HC2L_SERVER_METRICS_H_

/// Lock-free serving metrics for the hc2ld reactor, exported on the wire
/// through the "info" op (docs/server.md, "Metrics reference").
///
/// Everything on the hot path is a relaxed atomic increment into a
/// log2-bucketed histogram: recording a latency costs one countl_zero and
/// two fetch_adds, never a lock — the reactor's event-loop threads all
/// record concurrently. Reading (the "info" op) scans the buckets without
/// stopping writers; a scrape racing an increment may be off by the
/// increment, which is fine for observability.
///
/// Quantiles are bucket lower bounds: p99 = 2^k means "99% of samples were
/// below 2^(k+1) ns". Log buckets keep the histogram tiny (64 counters)
/// while resolving everything from a 100ns cache-hit query to a
/// multi-second streamed matrix.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace hc2l {

/// One log2-bucketed histogram: value v lands in bucket bit_width(v), so
/// bucket k holds [2^(k-1), 2^k). Lock-free, relaxed — counters, not a
/// synchronization protocol.
class LogHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v) {
    const size_t b = static_cast<size_t>(std::bit_width(v));
    buckets_[b < kBuckets ? b : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Lower bound of the bucket holding the p-th percentile sample
  /// (p in [0, 100]); 0 when empty.
  uint64_t Percentile(double p) const {
    const uint64_t total = count();
    if (total == 0) return 0;
    const uint64_t rank =
        static_cast<uint64_t>(static_cast<double>(total) * p / 100.0);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen > rank) {
        return b == 0 ? 0 : uint64_t{1} << (b - 1);
      }
    }
    return max();
  }

  /// Appends {"count":N,"p50":..,"p99":..,"max":..} (no key, no comma).
  void AppendJson(std::string* json) const {
    json->append("{\"count\":");
    json->append(std::to_string(count()));
    json->append(",\"p50\":");
    json->append(std::to_string(Percentile(50)));
    json->append(",\"p99\":");
    json->append(std::to_string(Percentile(99)));
    json->append(",\"max\":");
    json->append(std::to_string(max()));
    json->push_back('}');
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_{0};
};

/// The reactor's serving metrics: qps, per-kind latency histograms, the
/// coalesced-batch size distribution, and event-loop lag. One instance per
/// QueryServer, shared by every reactor thread.
class ServerMetrics {
 public:
  ServerMetrics() : start_(std::chrono::steady_clock::now()) {}

  /// One executed query op (admitted and answered, success or error).
  void RecordLatency(std::string_view op, uint64_t ns) {
    latency_[OpIndexOf(op)].Record(ns);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One coalesced engine batch combining `requests` wire requests.
  void RecordCoalescedBatch(uint64_t requests) {
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    coalesced_requests_.fetch_add(requests, std::memory_order_relaxed);
    coalesce_size_.Record(requests);
  }

  /// One reactor event-loop iteration spending `ns` outside epoll_wait —
  /// the time queued events waited on the loop (loop lag). Requests
  /// execute on their loop, so this includes their execution.
  void RecordLoopLag(uint64_t ns) { loop_lag_.Record(ns); }

  uint64_t requests_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  uint64_t coalesced_requests() const {
    return coalesced_requests_.load(std::memory_order_relaxed);
  }
  uint64_t coalesced_batches() const {
    return coalesced_batches_.load(std::memory_order_relaxed);
  }

  /// Appends the metrics as raw `,"key":value` JSON — the ServerHooks::info
  /// convention. Latency histograms are emitted only for ops that executed.
  void AppendInfoJson(std::string* json) const {
    const double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const double qps =
        uptime > 0.0 ? static_cast<double>(requests_executed()) / uptime : 0.0;
    char qps_buf[32];
    std::snprintf(qps_buf, sizeof(qps_buf), "%.1f", qps);
    json->append(",\"qps\":");
    json->append(qps_buf);
    json->append(",\"requests_executed\":");
    json->append(std::to_string(requests_executed()));
    json->append(",\"coalesced_requests\":");
    json->append(std::to_string(coalesced_requests()));
    json->append(",\"coalesced_batches\":");
    json->append(std::to_string(coalesced_batches()));
    json->append(",\"coalesce_batch_size\":");
    coalesce_size_.AppendJson(json);
    json->append(",\"loop_lag_ns\":");
    loop_lag_.AppendJson(json);
    json->append(",\"latency_ns\":{");
    bool first = true;
    for (size_t i = 0; i < kNumOps; ++i) {
      if (latency_[i].count() == 0) continue;
      if (!first) json->push_back(',');
      first = false;
      json->push_back('"');
      json->append(OpName(i));
      json->append("\":");
      latency_[i].AppendJson(json);
    }
    json->push_back('}');
  }

 private:
  enum : size_t {
    kPoint = 0,
    kBatch,
    kMatrix,
    kKNearest,
    kRoute,
    kOther,
    kNumOps
  };

  static size_t OpIndexOf(std::string_view op) {
    if (op == "point") return kPoint;
    if (op == "batch") return kBatch;
    if (op == "matrix") return kMatrix;
    if (op == "knearest") return kKNearest;
    if (op == "route") return kRoute;
    return kOther;
  }

  static const char* OpName(size_t i) {
    switch (i) {
      case kPoint:
        return "point";
      case kBatch:
        return "batch";
      case kMatrix:
        return "matrix";
      case kKNearest:
        return "knearest";
      case kRoute:
        return "route";
      default:
        return "other";
    }
  }

  std::chrono::steady_clock::time_point start_;
  LogHistogram latency_[kNumOps];
  LogHistogram coalesce_size_;
  LogHistogram loop_lag_;
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> coalesced_requests_{0};
  std::atomic<uint64_t> coalesced_batches_{0};
};

}  // namespace hc2l

#endif  // HC2L_SERVER_METRICS_H_

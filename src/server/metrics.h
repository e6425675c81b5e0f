#ifndef HC2L_SERVER_METRICS_H_
#define HC2L_SERVER_METRICS_H_

/// Serving metrics for the hc2ld reactor, exported on the wire through the
/// "info" op (docs/server.md, Reactor architecture, "Observability").
///
/// The metrics are sharded per event loop: each loop records into its own
/// cache-line-aligned Shard, and exactly one thread (that loop's) ever
/// writes a shard. A record is therefore a plain relaxed load and store on
/// memory no other core writes — no locked instruction, no cache line
/// bouncing between loops. Readers (the "info" op, QueryServer::stats())
/// merge the shards bucket by bucket on any thread without stopping the
/// writers; a scrape racing a record may miss that record, which is fine
/// for observability.
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
#include <vector>

#include "server/wire.h"

namespace hc2l {

/// Adds `n` to a counter that only the calling thread writes: a relaxed
/// load and store instead of a locked read-modify-write.
inline void SingleWriterAdd(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

/// A merged, plain copy of one or more LogHistograms: what "info" reports.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 64;

  uint64_t buckets[kBuckets]{};
  uint64_t count = 0;
  uint64_t max = 0;

  /// Lower bound of the bucket holding the p-th percentile sample
  /// (p in [0, 100]); 0 when empty.
  uint64_t Percentile(double p) const {
    if (count == 0) return 0;
    const uint64_t rank =
        static_cast<uint64_t>(static_cast<double>(count) * p / 100.0);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) {
        return b == 0 ? 0 : uint64_t{1} << (b - 1);
      }
    }
    return max;
  }

  /// Appends {"count":N,"p50":..,"p99":..,"max":..} (no key, no comma).
  void AppendJson(std::string* json) const {
    json->append("{\"count\":");
    json->append(std::to_string(count));
    json->append(",\"p50\":");
    json->append(std::to_string(Percentile(50)));
    json->append(",\"p99\":");
    json->append(std::to_string(Percentile(99)));
    json->append(",\"max\":");
    json->append(std::to_string(max));
    json->push_back('}');
  }
};

/// One log2-bucketed histogram: value v lands in bucket bit_width(v), so
/// bucket k holds [2^(k-1), 2^k). One writer thread; any thread may merge
/// it into a HistogramSnapshot.
class LogHistogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(uint64_t v) {
    const size_t b = static_cast<size_t>(std::bit_width(v));
    SingleWriterAdd(buckets_[b < kBuckets ? b : kBuckets - 1]);
    if (v > max_.load(std::memory_order_relaxed)) {
      max_.store(v, std::memory_order_relaxed);
    }
  }

  /// Adds this histogram's samples into `merged`.
  void MergeInto(HistogramSnapshot* merged) const {
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint64_t n = buckets_[b].load(std::memory_order_relaxed);
      merged->buckets[b] += n;
      merged->count += n;
    }
    const uint64_t m = max_.load(std::memory_order_relaxed);
    if (m > merged->max) merged->max = m;
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> max_{0};
};

/// The reactor's serving metrics: admissions, qps, per-kind latency
/// histograms, the coalesced-batch size distribution, and event-loop lag.
/// One instance per QueryServer, one Shard per event loop.
class ServerMetrics {
 public:
  /// Latency histograms: the five query ops, then everything else.
  static constexpr size_t kLatencyKinds = 6;

  /// One event loop's metrics. Written only by that loop's thread.
  class alignas(64) Shard {
   public:
    /// One query op passed admission.
    void RecordAdmitted() { SingleWriterAdd(admitted_); }

    /// One executed query op (admitted and answered, success or error).
    void RecordLatency(WireOp op, uint64_t ns) {
      latency_[LatencyKind(op)].Record(ns);
      SingleWriterAdd(executed_);
    }

    /// One coalesced engine batch combining `requests` wire requests.
    void RecordCoalescedBatch(uint64_t requests) {
      SingleWriterAdd(coalesced_batches_);
      SingleWriterAdd(coalesced_requests_, requests);
      coalesce_size_.Record(requests);
    }

    /// One event-loop iteration spending `ns` outside epoll_wait — the time
    /// queued events waited on the loop (loop lag). Requests execute on
    /// their loop, so this includes their execution.
    void RecordLoopLag(uint64_t ns) { loop_lag_.Record(ns); }

   private:
    friend class ServerMetrics;

    LogHistogram latency_[kLatencyKinds];
    LogHistogram coalesce_size_;
    LogHistogram loop_lag_;
    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> executed_{0};
    std::atomic<uint64_t> coalesced_requests_{0};
    std::atomic<uint64_t> coalesced_batches_{0};
  };

  explicit ServerMetrics(size_t shards)
      : start_(std::chrono::steady_clock::now()),
        shards_(shards) {}

  Shard& shard(size_t i) { return shards_[i]; }

  // Totals over every shard.
  uint64_t requests_admitted() const { return Sum(&Shard::admitted_); }
  uint64_t requests_executed() const { return Sum(&Shard::executed_); }
  uint64_t coalesced_requests() const {
    return Sum(&Shard::coalesced_requests_);
  }
  uint64_t coalesced_batches() const {
    return Sum(&Shard::coalesced_batches_);
  }

  /// Appends the merged metrics as raw `,"key":value` JSON — the
  /// ServerHooks::info convention. Latency histograms are emitted only for
  /// ops that executed.
  void AppendInfoJson(std::string* json) const {
    const uint64_t executed = requests_executed();
    const double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const double qps =
        uptime > 0.0 ? static_cast<double>(executed) / uptime : 0.0;
    char qps_buf[32];
    std::snprintf(qps_buf, sizeof(qps_buf), "%.1f", qps);
    json->append(",\"qps\":");
    json->append(qps_buf);
    json->append(",\"requests_executed\":");
    json->append(std::to_string(executed));
    json->append(",\"coalesced_requests\":");
    json->append(std::to_string(coalesced_requests()));
    json->append(",\"coalesced_batches\":");
    json->append(std::to_string(coalesced_batches()));
    json->append(",\"coalesce_batch_size\":");
    Merged(&Shard::coalesce_size_).AppendJson(json);
    json->append(",\"loop_lag_ns\":");
    Merged(&Shard::loop_lag_).AppendJson(json);
    json->append(",\"latency_ns\":{");
    bool first = true;
    for (size_t kind = 0; kind < kLatencyKinds; ++kind) {
      HistogramSnapshot latency;
      for (const Shard& s : shards_) s.latency_[kind].MergeInto(&latency);
      if (latency.count == 0) continue;
      if (!first) json->push_back(',');
      first = false;
      json->push_back('"');
      json->append(LatencyKindName(kind));
      json->append("\":");
      latency.AppendJson(json);
    }
    json->push_back('}');
  }

 private:
  /// Query ops are contiguous in WireOp, kPoint through kRoute.
  static size_t LatencyKind(WireOp op) {
    if (op < WireOp::kPoint || op > WireOp::kRoute) return kLatencyKinds - 1;
    return static_cast<size_t>(op) - static_cast<size_t>(WireOp::kPoint);
  }

  static std::string_view LatencyKindName(size_t kind) {
    if (kind + 1 == kLatencyKinds) return "other";
    return WireOpName(static_cast<WireOp>(
        static_cast<size_t>(WireOp::kPoint) + kind));
  }

  /// The merged histogram of one per-shard member.
  HistogramSnapshot Merged(LogHistogram Shard::*member) const {
    HistogramSnapshot merged;
    for (const Shard& s : shards_) (s.*member).MergeInto(&merged);
    return merged;
  }

  uint64_t Sum(std::atomic<uint64_t> Shard::*member) const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += (s.*member).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::chrono::steady_clock::time_point start_;
  std::vector<Shard> shards_;
};

}  // namespace hc2l

#endif  // HC2L_SERVER_METRICS_H_

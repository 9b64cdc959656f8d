#pragma once
// Mergeable log-bucketed histogram (DESIGN.md §16).
//
// One Histogram per worker, written with no synchronization by that worker
// alone — exactly the SchedulerStats ownership rule — and merged after the
// pool has joined (thread runtime) or on the single simulator thread.  The
// scheduler records two kinds of samples through it: compute-span
// durations and commit latencies.
//
// Buckets are powers of two: bucket b holds the values whose bit width is
// b, i.e. [2^(b-1), 2^b - 1], with bucket 0 holding exactly the value 0.
// record() is a bit scan and three adds; merge() is element-wise.  A
// percentile query returns the inclusive upper bound of the bucket holding
// the requested rank — a deterministic over-estimate by at most 2x, the
// right trade for scheduler latencies spanning six orders of magnitude,
// and the same shape Prometheus clients expose as cumulative `le` buckets
// (obs/prometheus.hpp renders them directly from bucket_upper()).

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace ers::obs {

class Histogram {
 public:
  /// One bucket per possible bit width of a uint64 (1..64) plus the zero
  /// bucket.
  static constexpr std::size_t kBuckets = 65;

  /// Bucket index of a value: its bit width (0 for the value 0).
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive upper bound of bucket b — the largest value it can hold.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const Histogram& o) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b];
  }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Highest non-empty bucket index (0 for an empty histogram) — the
  /// exposition uses it to trim trailing always-zero `le` lines.
  [[nodiscard]] std::size_t max_bucket() const noexcept {
    for (std::size_t b = kBuckets; b-- > 1;)
      if (buckets_[b] != 0) return b;
    return 0;
  }

  /// Upper bound of the value at quantile q in [0, 1]: the inclusive upper
  /// bound of the bucket containing the ceil(q * count)-th sample.  0 for
  /// an empty histogram; q <= 0 returns the first non-empty bucket's bound
  /// and q >= 1 the last's.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;  // a negative q*count_ would not survive the cast
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += buckets_[b];
      if (cum >= rank) return bucket_upper(b);
    }
    return bucket_upper(kBuckets - 1);
  }

  [[nodiscard]] std::uint64_t p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p90() const noexcept { return percentile(0.90); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return percentile(0.99); }

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace ers::obs

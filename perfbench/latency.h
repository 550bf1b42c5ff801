#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Fine-grained log-linear latency histogram: values below 1024 ns are
/// kept exactly, larger ones in 1024 linear sub-buckets per power of two,
/// so a reported percentile is within 0.05% of the recorded sample (the
/// engine's common::Histogram keeps one bucket per power of two, which
/// moves percentiles in steps of 2x). Memory is fixed, so the benchmark's
/// footprint does not grow with the number of samples.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    counts_[Index(ns)] += 1;
    count_ += 1;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile (q in [0, 1]); 0 when empty.
  uint64_t Percentile(double q) const {
    if (count_ == 0) return 0;
    uint64_t rank = std::min<uint64_t>(
        count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return Value(i);
    }
    return Value(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  /// Exact range plus 30 doublings: covers up to ~18 minutes.
  static constexpr int kMaxShift = 30;
  static constexpr size_t kBuckets = kSub * (kMaxShift + 2);

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    int shift = std::min(63 - std::countl_zero(ns) - kSubBits, kMaxShift);
    uint64_t top = std::min(ns >> shift, 2 * kSub - 1);
    return static_cast<size_t>(kSub * (shift + 1) + (top - kSub));
  }

  /// Midpoint of bucket `i`.
  static uint64_t Value(size_t i) {
    if (i < kSub) return i;
    int shift = static_cast<int>(i / kSub) - 1;
    uint64_t top = kSub + i % kSub;
    return (top << shift) + ((uint64_t{1} << shift) >> 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Exact latency samples of a measured window, kept per one-second slice
/// (by transaction start) so that the window's figures can be taken as
/// medians over slices: a burst of host noise that stalls a few slices
/// then moves no reported figure.
class SlicedSamples {
 public:
  static constexpr uint64_t kSliceNs = 1'000'000'000;

  explicit SlicedSamples(int slices) : slices_(slices) {}

  /// A transaction that started `since_start_ns` into the window and took
  /// `ns`. Starts past the last slice fold into it.
  void Add(uint64_t since_start_ns, uint64_t ns) {
    size_t i = std::min<uint64_t>(since_start_ns / kSliceNs, slices_.size() - 1);
    slices_[i].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  }

  void Merge(const SlicedSamples& other) {
    for (size_t i = 0; i < slices_.size(); ++i) {
      slices_[i].insert(slices_[i].end(), other.slices_[i].begin(),
                        other.slices_[i].end());
    }
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& s : slices_) n += s.size();
    return n;
  }

  /// Samples (committed transactions) per second, median over slices.
  double MedianRate() const {
    std::vector<double> v;
    for (const auto& s : slices_) {
      v.push_back(static_cast<double>(s.size()) * 1e9 / kSliceNs);
    }
    return Median(std::move(v));
  }

  /// Nearest-rank percentile (q in [0, 1]) of each slice's samples, in ns,
  /// median over the slices that hold any.
  double MedianPercentile(double q) {
    std::vector<double> v;
    for (auto& s : slices_) {
      if (s.empty()) continue;
      size_t rank = std::min(s.size() - 1,
                             static_cast<size_t>(q * static_cast<double>(s.size())));
      std::nth_element(s.begin(), s.begin() + static_cast<ptrdiff_t>(rank),
                       s.end());
      v.push_back(static_cast<double>(s[rank]));
    }
    return v.empty() ? 0 : Median(std::move(v));
  }

 private:
  std::vector<std::vector<uint32_t>> slices_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_

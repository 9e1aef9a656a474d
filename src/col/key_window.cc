#include "col/key_window.h"

#include <algorithm>

#include "col/vector_agg.h"

namespace oij::col {

Timestamp KeyWindow::Begin(Timestamp lo) {
  cols_.Truncate(carried_);
  if (lo < start_ || end_ < lo - 1) {
    Reset();
    start_ = lo;
    end_ = lo - 1;
    return lo;
  }
  const Timestamp* ts = cols_.ts();
  head_ = static_cast<size_t>(std::lower_bound(ts + head_, ts + carried_, lo) -
                              ts);
  start_ = lo;
  if (head_ > carried_ - head_) {
    // More trimmed than live: compact, so each probe is moved O(1) times
    // amortized, and restart the sums at the new front.
    cols_.EraseFront(head_);
    carried_ -= head_;
    head_ = 0;
    PrefixSums(cols_.payload(), carried_, sums_.data());
  }
  return end_ + 1;
}

bool KeyWindow::Extend(Timestamp complete_through) {
  cols_.EnsureSorted(carried_);
  if (!cols_.all_finite()) {
    Reset();
    return false;
  }
  const size_t n = cols_.size();
  const double* payload = cols_.payload();
  if (sums_.size() < n + 1) sums_.resize(n + 1);
  for (size_t i = carried_; i < n; ++i) sums_[i + 1] = sums_[i] + payload[i];
  if (complete_through > end_) {
    const Timestamp* ts = cols_.ts();
    carried_ = static_cast<size_t>(
        std::upper_bound(ts + carried_, ts + n, complete_through) - ts);
    end_ = complete_through;
  }
  return true;
}

void KeyWindow::Aggregate(AggKind kind, const BaseSlice* slices, size_t n,
                          AggState* out, std::vector<uint32_t>* deque) const {
  if (IsInvertible(kind)) {
    const double* sums = sums_.data() + head_;
    for (size_t i = 0; i < n; ++i) {
      out[i] = AggState{};
      out[i].count = slices[i].hi - slices[i].lo;
      out[i].sum = sums[slices[i].hi] - sums[slices[i].lo];
    }
    return;
  }
  // Sliding extreme: the deque holds, front to back, the positions whose
  // payloads are strictly better than everything after them, so its
  // live front is the current slice's extreme.
  const double* v = cols_.payload() + head_;
  const bool is_min = kind == AggKind::kMin;
  auto dominates = [is_min](double newer, double older) {
    return is_min ? newer <= older : newer >= older;
  };
  deque->clear();
  size_t front = 0;
  uint32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const BaseSlice s = slices[i];
    next = std::max(next, s.lo);
    for (; next < s.hi; ++next) {
      while (deque->size() > front && dominates(v[next], v[deque->back()])) {
        deque->pop_back();
      }
      deque->push_back(next);
    }
    while (front < deque->size() && (*deque)[front] < s.lo) ++front;
    out[i] = AggState{};
    out[i].count = s.hi - s.lo;
    if (out[i].count > 0) {
      (is_min ? out[i].min : out[i].max) = v[(*deque)[front]];
    }
  }
}

void KeyWindow::Reset() {
  cols_.Clear();
  sums_[0] = 0.0;
  head_ = 0;
  carried_ = 0;
  start_ = kMaxTimestamp;
  end_ = kMinTimestamp;
}

}  // namespace oij::col

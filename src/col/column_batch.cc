#include "col/column_batch.h"

#include <algorithm>

namespace oij::col {

namespace {

/// Stable merge of the adjacent sorted runs [a, b) and [b, e) of
/// (ts, payload) into the same positions of (out_ts, out_payload).
void MergeRuns(const Timestamp* ts, const double* payload, size_t a,
               size_t b, size_t e, Timestamp* out_ts, double* out_payload) {
  size_t i = a;
  size_t j = b;
  size_t k = a;
  while (i < b && j < e) {
    // Strictly less: on ties the left (earlier) run goes first.
    const size_t from = ts[j] < ts[i] ? j++ : i++;
    out_ts[k] = ts[from];
    out_payload[k++] = payload[from];
  }
  for (; i < b; ++i, ++k) {
    out_ts[k] = ts[i];
    out_payload[k] = payload[i];
  }
  for (; j < e; ++j, ++k) {
    out_ts[k] = ts[j];
    out_payload[k] = payload[j];
  }
}

}  // namespace

void ProbeColumns::EnsureSorted(size_t from) {
  if (run_starts_.empty()) return;
  const size_t n = ts_.size() - from;
  if (scratch_ts_.size() < n) {
    scratch_ts_.resize(n);
    scratch_payload_.resize(n);
  }
  // bounds[r] .. bounds[r + 1] is run r, counted from `from`; each pass
  // merges run pairs (2r, 2r + 1) from src into dst, halving the run
  // count.
  std::vector<uint32_t>& bounds = run_starts_;
  for (uint32_t& b : bounds) b -= static_cast<uint32_t>(from);
  bounds.insert(bounds.begin(), 0u);
  bounds.push_back(static_cast<uint32_t>(n));
  Timestamp* src_ts = ts_.data() + from;
  double* src_payload = payload_.data() + from;
  Timestamp* dst_ts = scratch_ts_.data();
  double* dst_payload = scratch_payload_.data();
  while (bounds.size() > 2) {
    size_t out = 0;
    size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      MergeRuns(src_ts, src_payload, bounds[r], bounds[r + 1], bounds[r + 2],
                dst_ts, dst_payload);
      bounds[out++] = bounds[r];
    }
    if (r + 1 < bounds.size()) {  // an odd run out moves as is
      MergeRuns(src_ts, src_payload, bounds[r], bounds[r + 1],
                bounds[r + 1], dst_ts, dst_payload);
      bounds[out++] = bounds[r];
    }
    bounds[out++] = static_cast<uint32_t>(n);
    bounds.resize(out);
    std::swap(src_ts, dst_ts);
    std::swap(src_payload, dst_payload);
  }
  if (src_ts != ts_.data() + from) {
    std::copy(src_ts, src_ts + n, ts_.data() + from);
    std::copy(src_payload, src_payload + n, payload_.data() + from);
  }
  run_starts_.clear();
}

}  // namespace oij::col

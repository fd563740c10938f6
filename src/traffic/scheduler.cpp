#include "traffic/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace nimcast::traffic {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFifo: return "fifo";
    case Policy::kPaced: return "paced";
  }
  return "?";
}

GroupScheduler::GroupScheduler(SchedulerConfig cfg, std::int32_t num_channels,
                               std::int64_t hot_threshold_ns)
    : cfg_{cfg}, hot_threshold_ns_{hot_threshold_ns} {
  if (num_channels < 0) {
    throw std::invalid_argument("GroupScheduler: negative channel count");
  }
  if (cfg_.overlap_tolerance_x1000 < 0 ||
      cfg_.overlap_tolerance_x1000 > 1000) {
    throw std::invalid_argument(
        "GroupScheduler: overlap_tolerance_x1000 out of [0, 1000]");
  }
  if (cfg_.max_defer_ticks < 1) {
    throw std::invalid_argument("GroupScheduler: max_defer_ticks < 1");
  }
  const auto n = static_cast<std::size_t>(num_channels);
  users_.assign(n, 0);
  delta_block_.assign(n, 0);
  prev_block_.assign(n, 0);
}

void GroupScheduler::admit(const std::vector<std::int32_t>& footprint) {
  for (std::int32_t c : footprint) ++users_[static_cast<std::size_t>(c)];
  ++in_flight_;
}

void GroupScheduler::release(const std::vector<std::int32_t>& footprint) {
  for (std::int32_t c : footprint) --users_[static_cast<std::size_t>(c)];
  --in_flight_;
}

std::int32_t GroupScheduler::busy_channels(
    const std::vector<std::int32_t>& footprint) const {
  std::int32_t busy = 0;
  for (std::int32_t c : footprint) {
    const auto i = static_cast<std::size_t>(c);
    if (users_[i] > 0 || delta_block_[i] > hot_threshold_ns_) ++busy;
  }
  return busy;
}

bool GroupScheduler::would_admit(const std::vector<std::int32_t>& footprint,
                                 std::int32_t waited_ticks) const {
  if (cfg_.policy == Policy::kFifo) return true;
  if (in_flight_ == 0) return true;
  if (waited_ticks >= cfg_.max_defer_ticks) return true;
  const auto busy = static_cast<std::int64_t>(busy_channels(footprint));
  const auto size = static_cast<std::int64_t>(footprint.size());
  return busy * 1000 <= static_cast<std::int64_t>(
                            cfg_.overlap_tolerance_x1000) * size;
}

void GroupScheduler::refresh_telemetry(
    const std::vector<std::int64_t>& block_ns) {
  const std::size_t n =
      std::min(block_ns.size(), prev_block_.size());
  for (std::size_t c = 0; c < n; ++c) {
    delta_block_[c] = block_ns[c] - prev_block_[c];
    prev_block_[c] = block_ns[c];
  }
}

}  // namespace nimcast::traffic

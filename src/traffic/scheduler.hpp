#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_time.hpp"

namespace nimcast::traffic {

/// Admission policy of the group scheduler.
enum class Policy : std::uint8_t {
  /// Admit every operation the instant it arrives — the no-pacing A/B
  /// baseline. All contention resolution happens inside the wormhole
  /// fabric (blocked worms holding acquired channels).
  kFifo,
  /// Contention-aware pacing: defer an arriving operation when too much
  /// of its channel footprint is already held by in-flight trees or
  /// measured hot by the per-channel block-time telemetry; deferred
  /// operations re-score at every coordinator tick.
  kPaced,
};

[[nodiscard]] const char* to_string(Policy p);

struct SchedulerConfig {
  Policy policy = Policy::kPaced;
  /// Admit when busy-channel count * 1000 <= tolerance * footprint size:
  /// the fraction of an operation's switch-channel footprint that may
  /// already be contended. 0 = only disjoint trees overlap-admit;
  /// 1000 = admit always (pure FIFO with extra steps).
  std::int32_t overlap_tolerance_x1000 = 200;
  /// Starvation bound: any deferred operation is force-admitted once it
  /// has waited this many ticks, whatever its score (per-op aging, not
  /// head-of-line only — a younger op whose wait expires is admitted
  /// even while an older deferred op is still waiting).
  std::int32_t max_defer_ticks = 12;
  /// Coordinator tick period (re-score cadence, phase-transition
  /// granularity). Zero asks the engine to derive one steady-state
  /// packet period from the system parameters.
  sim::Time tick;
};

/// Deterministic contention ledger behind admission decisions. All state
/// mutates only inside coordinator events, so decisions are a pure
/// function of simulated history.
///
/// Scoring: a channel is *busy* when an in-flight admitted operation's
/// footprint covers it, or when the latest telemetry refresh saw more
/// than `hot_threshold_ns` of fresh block time on it — the fabric says
/// it is congested even when no admitted footprint covers it. An
/// operation admits when at most `overlap_tolerance_x1000`/1000 of its
/// footprint is busy (an empty fabric always admits; any op aged past
/// `max_defer_ticks` always admits).
class GroupScheduler {
 public:
  GroupScheduler(SchedulerConfig cfg, std::int32_t num_channels,
                 std::int64_t hot_threshold_ns);

  [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }

  /// Counts `footprint`'s channels as held by one more in-flight tree.
  void admit(const std::vector<std::int32_t>& footprint);
  /// Releases a previously admitted footprint.
  void release(const std::vector<std::int32_t>& footprint);

  /// Admission verdict for an operation with `footprint` that has been
  /// deferred for `waited_ticks` coordinator ticks (0 at arrival).
  [[nodiscard]] bool would_admit(const std::vector<std::int32_t>& footprint,
                                 std::int32_t waited_ticks) const;

  /// Feeds the per-channel cumulative block-time counters (index =
  /// channel id, value = total block ns so far); the delta against the
  /// previous refresh is the telemetry busy signal until the next one.
  void refresh_telemetry(const std::vector<std::int64_t>& block_ns);

  [[nodiscard]] std::int32_t in_flight() const { return in_flight_; }
  /// Busy-channel count of `footprint` under the current ledger — the
  /// score would_admit thresholds (exposed for tests and telemetry).
  [[nodiscard]] std::int32_t busy_channels(
      const std::vector<std::int32_t>& footprint) const;

 private:
  SchedulerConfig cfg_;
  std::int64_t hot_threshold_ns_;
  /// In-flight admitted trees covering each channel.
  std::vector<std::int32_t> users_;
  /// Block-time delta accumulated over the last tick period.
  std::vector<std::int64_t> delta_block_;
  std::vector<std::int64_t> prev_block_;
  std::int32_t in_flight_ = 0;
};

}  // namespace nimcast::traffic

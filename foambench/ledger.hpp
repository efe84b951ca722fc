#pragma once

/// \file ledger.hpp
/// The arithmetic behind foam_bench's numbers, kept apart from the model
/// driving so it can be tested on hand-built traces: per-rank self-time
/// ledgers from hierarchical spans, the unattributed remainder, SYPD, the
/// failure ratio and the order statistics the benchmark reports.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace foambench {

/// One rank's time ledger: the self time of every span name plus the part
/// of the rank's wall time that no top-level span covers. By construction
/// the self times of all spans sum to the top-level total, so
/// self_total() + unattributed_s() == wall_s.
struct RankLedger {
  /// Self seconds per span name: the span's duration minus the time its
  /// direct children cover, summed over all spans of that name.
  std::map<std::string, double> self_s;
  /// Summed duration of the depth-0 spans.
  double top_level_s = 0.0;
  /// The rank's wall time over the traced interval.
  double wall_s = 0.0;
  /// Spans the tracer's ring overwrote (the ledger is incomplete if > 0).
  std::uint64_t dropped = 0;

  /// Wall time outside every top-level span: idle, spin-wait and work the
  /// program does not trace.
  double unattributed_s() const { return wall_s - top_level_s; }
  /// Self seconds of \p name (0 when the span never ran).
  double self(const std::string& name) const;
  /// Self seconds summed over the span names starting with \p prefix.
  double self_prefix(const std::string& prefix) const;
  /// Self seconds summed over every span.
  double self_total() const;

  /// Add another interval of the same rank (e.g. the second job of a
  /// checkpoint/resume chain).
  void merge(const RankLedger& other);
};

/// Build the ledger of one rank's trace over a traced interval of
/// \p wall_s seconds. Spans are in completion order (as the tracer emits
/// them): a span at depth d owns the depth d+1 spans completed since the
/// previous span at depth <= d completed. Throws std::runtime_error on a
/// trace whose depths cannot nest (a child deeper than one level below
/// anything open) or whose span ends before it starts.
RankLedger build_ledger(const foam::telemetry::RankTrace& trace,
                        double wall_s);

/// Simulated years per wall-clock day for \p sim_days simulated in
/// \p wall_s seconds. Multiply by 365 for "times real time".
double sypd(double sim_days, double wall_s);

/// Failed runs over attempted runs (0 when nothing was attempted).
double failure_ratio(std::int64_t failed, std::int64_t attempted);

/// Median of \p v (mean of the middle pair for even sizes). Throws
/// std::invalid_argument on an empty vector.
double median(std::vector<double> v);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them
/// (exclusive method). Needs at least two values.
std::pair<double, double> quartiles(std::vector<double> v);

/// FNV-1a over the bytes of \p n doubles, chained from \p h.
std::uint64_t fnv1a(const double* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace foambench

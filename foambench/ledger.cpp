#include "ledger.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace foambench {

double RankLedger::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double RankLedger::self_prefix(const std::string& prefix) const {
  double sum = 0.0;
  for (auto it = self_s.lower_bound(prefix);
       it != self_s.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    sum += it->second;
  return sum;
}

double RankLedger::self_total() const {
  double sum = 0.0;
  for (const auto& [name, s] : self_s) sum += s;
  return sum;
}

void RankLedger::merge(const RankLedger& other) {
  for (const auto& [name, s] : other.self_s) self_s[name] += s;
  top_level_s += other.top_level_s;
  wall_s += other.wall_s;
  dropped += other.dropped;
}

RankLedger build_ledger(const foam::telemetry::RankTrace& trace,
                        double wall_s) {
  RankLedger led;
  led.wall_s = wall_s;
  led.dropped = trace.dropped;
  // unclaimed[d]: summed duration of completed depth-d spans whose parent
  // (the next depth d-1 span to complete) has not completed yet.
  std::vector<double> unclaimed;
  for (const foam::telemetry::SpanRec& s : trace.spans) {
    if (s.depth < 0 || s.t1 < s.t0)
      throw std::runtime_error("malformed span in trace");
    if (s.name_id < 0 ||
        static_cast<std::size_t>(s.name_id) >= trace.names.size())
      throw std::runtime_error("span name id outside the name table");
    const auto d = static_cast<std::size_t>(s.depth);
    if (unclaimed.size() < d + 2) unclaimed.resize(d + 2, 0.0);
    // Anything still unclaimed below depth d+1 belongs to a span that was
    // never recorded: the nesting is broken.
    for (std::size_t k = d + 2; k < unclaimed.size(); ++k)
      if (unclaimed[k] != 0.0)
        throw std::runtime_error("span nesting broken in trace");
    const double dur = s.t1 - s.t0;
    const std::string& name = trace.names[static_cast<std::size_t>(s.name_id)];
    led.self_s[name] += dur - unclaimed[d + 1];
    unclaimed[d + 1] = 0.0;
    unclaimed[d] += dur;
    if (d == 0) led.top_level_s += dur;
  }
  for (std::size_t k = 1; k < unclaimed.size(); ++k)
    if (unclaimed[k] != 0.0)
      throw std::runtime_error("trace ends inside an unrecorded span");
  return led;
}

double sypd(double sim_days, double wall_s) {
  if (!(wall_s > 0.0)) throw std::invalid_argument("wall time must be > 0");
  return (sim_days / 365.0) / (wall_s / 86400.0);
}

double failure_ratio(std::int64_t failed, std::int64_t attempted) {
  return attempted > 0 ? static_cast<double>(failed) /
                             static_cast<double>(attempted)
                       : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 values");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  const auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

std::uint64_t fnv1a(const double* data, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &data[i], sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace foambench

/// \file foam_bench.cpp
/// End-to-end benchmark of FOAM on the production configuration
/// (FoamConfig::paper_default(): R15 atmosphere, 128x128x16 ocean, CCM3
/// physics, no synthetic transform work).
///
///   foam_bench --workload <coupled_parallel|coupled_serial|atm_amip>
///              --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
///
/// Each workload is a closed-loop batch job in this process on at most 3
/// rank threads. A run repeats the job until --seconds have passed and
/// reports medians. With --trace 0 the jobs run untraced and the run
/// reports the end-to-end metrics, with a set-up probe after every job;
/// with --trace 1 traced and untraced jobs alternate, and the run reports
/// the per-layer ledger of the traced ones plus the tracing overhead.
/// README.md in this directory is the metric dictionary.
///
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/history.hpp"
#include "coupler/coupler.hpp"
#include "data/earth.hpp"
#include "foam/checkpoint.hpp"
#include "foam/coupled.hpp"
#include "ledger.hpp"
#include "ocean/model.hpp"
#include "par/comm.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace tel = foam::telemetry;
using Clock = std::chrono::steady_clock;
using foambench::RankLedger;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- job sizes ---------------------------------------------------------------
// Each job covers whole coupled days, and is short enough that a run of a
// few tens of seconds holds several jobs: single jobs wander with host load
// by 10-15%, so a run reports the median over its jobs.

/// coupled_parallel: each half of the checkpoint/resume chain runs this
/// many simulated days (job A days 0..D, job B resumes and runs D..2D).
constexpr double kParallelChainDays = 1.0;
/// coupled_serial: simulated days per job.
constexpr double kSerialDays = 1.0;
/// atm_amip: simulated days per job.
constexpr double kAmipDays = 8.0;
/// atm_amip: atmosphere row ranks.
constexpr int kAmipRanks = 3;
/// Resume-read probes per coupled_parallel --trace 0 run. Each one also
/// steps one exchange, so they are not interleaved with the jobs like the
/// set-up probes.
constexpr int kResumeProbes = 3;
/// Span ring per rank for traced jobs; a traced job must drop nothing.
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

// Stated physical ranges for the correctness checks.
constexpr double kSstMinC = -3.0;   // sea water freezes near -1.9 C
constexpr double kSstMaxC = 40.0;
constexpr double kAtmTMinK = 150.0;
constexpr double kAtmTMaxK = 350.0;

// --- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = static_cast<unsigned>(std::stoul(val));
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: foam_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--workdir <dir>]");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0))
    throw std::invalid_argument("--seconds must be in (0, 120]");
  return a;
}

// --- the program under test, pinned ------------------------------------------

/// Every environment-driven switch of the program, cleared so that the
/// defaults below (and not the caller's shell) decide what is measured.
constexpr const char* kProgramEnv[] = {
    "FOAM_PAR_TRANSPORT", "FOAM_SCHEDULER",        "FOAM_PAR_VERIFY",
    "FOAM_PAR_VERIFY_TIMEOUT", "FOAM_FAULT",        "FOAM_OBSERVE",
    "FOAM_OBSERVE_WATCHDOG",   "FOAM_TELEMETRY"};

void pin_program() {
  for (const char* name : kProgramEnv) unsetenv(name);
  foam::par::set_comm_transport(foam::par::CommTransport::kSpsc);
}

foam::FoamConfig production_config() {
  foam::FoamConfig cfg = foam::FoamConfig::paper_default();
  if (cfg.atm.emulate_full_core_cost)
    throw std::logic_error(
        "paper_default() turns on emulate_full_core_cost; the benchmark "
        "measures no synthetic work");
  return cfg;
}

/// Parallel-driver options with every field that could come from the
/// environment set explicitly.
foam::ParallelRunOptions pinned_options(bool traced) {
  foam::ParallelRunOptions o;
  o.layout = foam::RankLayout::grid(1, 1, 2);
  o.overlap = true;
  o.capture_timelines = false;
  o.telemetry.level = traced ? tel::TraceLevel::kFull : tel::TraceLevel::kOff;
  o.telemetry.max_spans = kMaxSpans;
  o.telemetry.record_flat = false;
  o.verify = foam::par::CommVerifyOptions{};
  o.verify.mode = foam::par::VerifyMode::kOff;
  o.fault = foam::par::FaultPlan{};
  o.observe = tel::ObservabilityOptions{};
  o.scheduler = foam::SchedulerKind::kBarrier;
  return o;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool release_build() {
#ifdef NDEBUG
  return std::string(FOAMBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

void print_settings(const Args& a, const foam::FoamConfig& cfg) {
  const foam::ParallelRunOptions o = pinned_options(a.trace);
  std::printf("host: nproc=%ld hardware_concurrency=%u cpu=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), cpu_model().c_str());
  std::printf("build: compiler=\"%s\" build_type=%s\n", FOAMBENCH_COMPILER,
              FOAMBENCH_BUILD_TYPE);
  if (!release_build())
    std::printf(
        "WARNING: NOT A RELEASE BUILD -- these timings do not describe the "
        "production program\n");
  std::printf(
      "program: transport=%s scheduler=%s verify=%s fault=%s observe=%s "
      "profile=%s emulate_full_core_cost=%s\n",
      foam::par::comm_transport_name(foam::par::comm_transport()),
      foam::scheduler_name(o.scheduler),
      foam::par::verify_mode_name(o.verify.mode),
      o.fault.armed() ? "armed" : "disarmed", o.observe.any() ? "on" : "off",
      o.observe.profile ? "on" : "off",
      cfg.atm.emulate_full_core_cost ? "true" : "false");
  std::printf(
      "config: atm %dx%dx%d dt=%gs, ocean %dx%dx%d, exchange=%gs\n",
      cfg.atm.nlon, cfg.atm.nlat, cfg.atm.nlev, cfg.atm.dt, cfg.ocean.nx,
      cfg.ocean.ny, cfg.ocean.nz, cfg.exchange_seconds);
  std::printf("run: workload=%s seed=%u%s seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed,
              a.workload == "coupled_parallel"
                  ? " (not used: the parallel driver fixes its seed at 7)"
                  : "",
              a.seconds, a.trace ? 1 : 0);
}

// --- process accounting ------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- correctness -------------------------------------------------------------

void check_range(const char* what, const double* v, std::size_t n, double lo,
                 double hi) {
  if (n == 0) throw std::runtime_error(std::string(what) + ": empty field");
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(v[i]) || v[i] < lo || v[i] > hi) {
      std::ostringstream s;
      s << what << "[" << i << "] = " << v[i] << " outside [" << lo << ", "
        << hi << "]";
      throw std::runtime_error(s.str());
    }
}

// --- per-layer ledger --------------------------------------------------------

using Samples = std::map<std::string, double>;

/// What one rank contributes to a traced job's per-layer numbers.
struct RankRecord {
  RankLedger ledger;
  Samples samples;   ///< telemetry counters/gauges (summed over the jobs)
  bool atm = false;  ///< rank runs the atmosphere/coupler
  bool ocean = false;
};

void add_samples(Samples& into,
                 const std::vector<std::pair<std::string, double>>& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

double sample(const Samples& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Job-level extras only the workload can see (0 where not observable).
struct WorkCounts {
  double atm_points = 0.0;
  double ocean_points = 0.0;
};

/// Per-layer metric names, units and order: the benchmark's layer
/// dictionary (README.md explains each one).
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"ocean.baroclinic_s", "s/day"},
      {"ocean.tracer_s", "s/day"},
      {"ocean.barotropic_s", "s/day"},
      {"ocean.gather_s", "s/day"},
      {"ocean.busy_imbalance", "ratio"},
      {"ocean.work_points", "points/day"},
      {"par.halo_msgs", "msgs/day"},
      {"par.halo_bytes", "B/day"},
      {"par.wait_s", "s/day"},
      {"par.memcpy_bytes", "B/day"},
      {"par.collective_skew_s", "s/day"},
      {"atm.physics_s", "s/day"},
      {"atm.dynamics_s", "s/day"},
      {"atm.advect_s", "s/day"},
      {"atm.radiation_s", "s/day"},
      {"atm.work_points", "points/day"},
      {"numerics.spectral_s", "s/day"},
      {"numerics.allreduce_s", "s/day"},
      {"numerics.spectral_batches", "count/day"},
      {"numerics.plan_rows", "rows/day"},
      {"coupler.land_s", "s/day"},
      {"coupler.forcing_s", "s/day"},
      {"coupler.surface_s", "s/day"},
      {"river.route_s", "s/day"},
      {"coupler.overlap_cells", "cells/day"},
      {"foam.sst_reply_wait_s", "s/day"},
      {"foam.forcing_recv_wait_s", "s/day"},
      {"foam.unattributed_s", "s/day"},
      {"foam.ckpt_write_s", "s/day"},
      {"foam.ckpt_mb_per_s", "MB/s"},
      {"foam.ckpt_restore_s", "s"},
      {"telemetry.overhead", "ratio"},
      {"telemetry.dropped_spans", "count"},
  };
  return k;
}

/// Reduce the ranks of one traced job to the per-layer metrics (all but
/// telemetry.overhead, which needs the untraced jobs too). Layer times are
/// the maximum over the ranks that run the layer — the slowest rank sets
/// the pace — divided by simulated days.
Samples layer_metrics(const std::vector<RankRecord>& ranks, double sim_days,
                      const WorkCounts& work) {
  const auto max_over = [&](auto pred, auto value) {
    double m = 0.0;
    for (const RankRecord& r : ranks)
      if (pred(r)) m = std::max(m, value(r));
    return m;
  };
  const auto sum_over = [&](auto value) {
    double s = 0.0;
    for (const RankRecord& r : ranks) s += value(r);
    return s;
  };
  const auto is_atm = [](const RankRecord& r) { return r.atm; };
  const auto is_ocean = [](const RankRecord& r) { return r.ocean; };
  const auto any = [](const RankRecord&) { return true; };
  const auto self = [](const char* name) {
    return [name](const RankRecord& r) { return r.ledger.self(name); };
  };
  const auto per_day = [&](double v) { return v / sim_days; };

  Samples m;
  m["ocean.baroclinic_s"] = per_day(max_over(is_ocean, self("ocean.baroclinic")));
  m["ocean.tracer_s"] = per_day(max_over(is_ocean, self("ocean.tracer")));
  m["ocean.barotropic_s"] = per_day(max_over(is_ocean, self("ocean.barotropic")));
  m["ocean.gather_s"] = per_day(max_over(is_ocean, self("ocean.gather")));

  // Busy time per ocean rank: the driver's ocean thread-CPU gauge where the
  // parallel driver records it, else the rank's ocean kernel self time.
  std::vector<double> busy;
  for (const RankRecord& r : ranks) {
    if (!r.ocean) continue;
    const double cpu = sample(r.samples, "driver.ocean_cpu_seconds");
    busy.push_back(cpu > 0.0 ? cpu : r.ledger.self_prefix("ocean."));
  }
  double busy_sum = 0.0, busy_max = 0.0;
  for (const double b : busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  m["ocean.busy_imbalance"] =
      busy_sum > 0.0 ? busy_max / (busy_sum / static_cast<double>(busy.size()))
                     : 0.0;
  m["ocean.work_points"] = per_day(work.ocean_points);

  // Halo traffic: user-tag messages a rank sends to peers of its own
  // component (ocean-ocean in the coupled run, atmosphere rows in AMIP).
  const auto halo = [&](const char* what) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      double sent = 0.0;
      for (std::size_t p = 0; p < ranks.size(); ++p) {
        if (p == i || ranks[p].ocean != ranks[i].ocean ||
            ranks[p].atm != ranks[i].atm)
          continue;
        sent += sample(ranks[i].samples, std::string("comm.sent.") + what +
                                             ".user.peer" + std::to_string(p));
      }
      worst = std::max(worst, sent);
    }
    return per_day(worst);
  };
  m["par.halo_msgs"] = halo("msgs");
  m["par.halo_bytes"] = halo("bytes");
  m["par.wait_s"] = per_day(max_over(any, [](const RankRecord& r) {
    return sample(r.samples, "comm.wait_seconds.sum");
  }));
  m["par.memcpy_bytes"] = per_day(sum_over([](const RankRecord& r) {
    return sample(r.samples, "comm.payload_memcpy_bytes");
  }));
  m["par.collective_skew_s"] = per_day(max_over(any, [](const RankRecord& r) {
    return sample(r.samples, "comm.collective_skew_seconds.sum");
  }));

  m["atm.physics_s"] = per_day(max_over(is_atm, self("atm.physics")));
  m["atm.dynamics_s"] = per_day(max_over(is_atm, self("atm.dynamics")));
  m["atm.advect_s"] = per_day(max_over(is_atm, self("atm.advect")));
  m["atm.radiation_s"] = per_day(max_over(is_atm, self("atm.radiation")));
  m["atm.work_points"] = per_day(work.atm_points);

  m["numerics.spectral_s"] = per_day(max_over(is_atm, [](const RankRecord& r) {
    return r.ledger.self_prefix("spectral.") - r.ledger.self("spectral.allreduce");
  }));
  m["numerics.allreduce_s"] = per_day(max_over(is_atm, self("spectral.allreduce")));
  m["numerics.spectral_batches"] = per_day(sum_over([](const RankRecord& r) {
    return sample(r.samples, "spectral.engine_batches") +
           sample(r.samples, "spectral.reference_batches");
  }));
  m["numerics.plan_rows"] = per_day(sum_over([](const RankRecord& r) {
    return sample(r.samples, "spectral.plan_rows");
  }));

  m["coupler.land_s"] = per_day(max_over(is_atm, self("coupler.land")));
  m["coupler.forcing_s"] = per_day(max_over(is_atm, self("coupler.forcing")));
  m["coupler.surface_s"] = per_day(max_over(is_atm, self("coupler.surface")));
  m["river.route_s"] = per_day(max_over(is_atm, self("river.route")));
  m["coupler.overlap_cells"] = per_day(sum_over([](const RankRecord& r) {
    return sample(r.samples, "coupler.overlap_cells_averaged");
  }));

  // The atmosphere's coupling wait, including the drain of the in-flight
  // reply that rank 0 performs inside its ckpt.write span: nested spans
  // give that drain to exchange.sst_reply_wait, not to checkpoint I/O.
  m["foam.sst_reply_wait_s"] =
      per_day(max_over(is_atm, self("exchange.sst_reply_wait")));
  m["foam.forcing_recv_wait_s"] =
      per_day(max_over(is_ocean, self("exchange.forcing_recv")));
  m["foam.unattributed_s"] = per_day(max_over(
      any, [](const RankRecord& r) { return r.ledger.unattributed_s(); }));

  // Checkpoint I/O from the ocean ranks only (see sst_reply_wait above).
  m["foam.ckpt_write_s"] = per_day(max_over(is_ocean, self("ckpt.write")));
  double ckpt_bytes = 0.0, ckpt_s = 0.0;
  for (const RankRecord& r : ranks) {
    if (!r.ocean) continue;
    ckpt_bytes += sample(r.samples, "ckpt.bytes");
    ckpt_s += r.ledger.self("ckpt.write");
  }
  m["foam.ckpt_mb_per_s"] = ckpt_s > 0.0 ? ckpt_bytes / 1e6 / ckpt_s : 0.0;
  m["foam.ckpt_restore_s"] = max_over(is_ocean, self("ckpt.restore"));

  double dropped = 0.0;
  for (const RankRecord& r : ranks)
    dropped += static_cast<double>(r.ledger.dropped);
  m["telemetry.dropped_spans"] = dropped;
  return m;
}

/// A traced job's ledger must be complete and must close: on every rank
/// the self times plus the unattributed remainder equal the rank's wall.
void check_ledgers(const std::vector<RankRecord>& ranks) {
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankLedger& l = ranks[i].ledger;
    if (l.dropped != 0)
      throw std::runtime_error("rank " + std::to_string(i) + " dropped " +
                         std::to_string(l.dropped) + " spans");
    const double closure = l.self_total() + l.unattributed_s() - l.wall_s;
    if (std::abs(closure) > 1e-6 * std::max(1.0, l.wall_s) ||
        l.unattributed_s() < -1e-6)
      throw std::runtime_error("rank " + std::to_string(i) +
                         " ledger does not close on its wall time");
  }
}

// --- workloads ---------------------------------------------------------------

/// One completed job. Traced jobs carry their per-layer metrics.
struct Job {
  double wall_s = 0.0;  ///< whole job, set-up included
  double cpu_s = 0.0;   ///< process user+sys CPU over the job
  double sim_days = 0.0;
  std::uint64_t digest = 0;  ///< final-state digest (SST + atmosphere T)
  Samples layers;
};

struct Workload {
  /// Set-up of one job only: construction and init [s].
  std::function<double()> setup_probe;
  /// Resume read before the first step [s]; empty for workloads that do
  /// not resume.
  std::function<double()> resume_probe;
  /// One job; traced at TraceLevel::kFull when the argument is true.
  std::function<Job(bool)> run;
};

/// Fresh scratch directory for one checkpoint chain, removed with the
/// object (the driver never prunes its checkpoints).
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent) {
    static int serial = 0;
    path_ = parent / ("ckpt-" + std::to_string(getpid()) + "-" +
                      std::to_string(serial++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// coupled_parallel ------------------------------------------------------------

Workload coupled_parallel(const foam::FoamConfig& cfg,
                          const std::filesystem::path& workdir) {
  const foam::RankLayout layout = foam::RankLayout::grid(1, 1, 2);
  const int world = layout.world_size();
  const auto chain_end_day = static_cast<std::int64_t>(2 * kParallelChainDays);
  // The newest chain's checkpoints: the resume-read probe restores from
  // them, and the next job replaces (and so removes) them.
  auto last_chain = std::make_shared<std::unique_ptr<ScratchDir>>();

  // One run_coupled_parallel call on every rank; per-rank wall from the
  // benchmark's own stopwatch around the public call.
  struct Call {
    std::vector<foam::ParallelRunResult> results;
    std::vector<double> wall;
  };
  const auto call = [cfg, world](const foam::ParallelRunOptions& opts,
                                 double days) {
    Call c;
    c.results.resize(static_cast<std::size_t>(world));
    c.wall.resize(static_cast<std::size_t>(world));
    foam::par::run(world, [&](foam::par::Comm& w) {
      const auto t0 = Clock::now();
      auto r = foam::run_coupled_parallel(w, opts, cfg, days);
      c.wall[static_cast<std::size_t>(w.rank())] = seconds_since(t0);
      c.results[static_cast<std::size_t>(w.rank())] = std::move(r);
    });
    return c;
  };

  Workload wl;
  wl.run = [=](bool traced) {
    Job job;
    last_chain->reset();
    auto dir = std::make_unique<ScratchDir>(workdir);
    const std::string prefix = (dir->path() / "foam").string();
    foam::ParallelRunOptions opts = pinned_options(traced);
    opts.checkpoint.path_prefix = prefix;
    opts.checkpoint.every_days = 1.0;

    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    opts.checkpoint.resume = false;
    const Call a = call(opts, kParallelChainDays);
    opts.checkpoint.resume = true;
    const Call b = call(opts, 2 * kParallelChainDays);
    job.wall_s = seconds_since(t0);
    job.cpu_s = process_cpu_seconds() - cpu0;
    job.sim_days = 2 * kParallelChainDays;

    // Outputs: the gathered final SST (ocean lead) and the atmosphere
    // temperature from the final checkpoint shard of atmosphere rank 0.
    const foam::Field2Dd& sst =
        b.results[static_cast<std::size_t>(layout.atm_ranks)].final_sst;
    check_range("final SST [C]", sst.data(), sst.size(), kSstMinC, kSstMaxC);
    const foam::HistoryReader shard(
        foam::ckpt_shard_path(prefix, chain_end_day, 0));
    const auto& t3 = shard.find("foam.atm.t3").data;
    check_range("atmosphere T [K]", t3.data(), t3.size(), kAtmTMinK,
                kAtmTMaxK);
    job.digest = foambench::fnv1a(t3.data(), t3.size(),
                                  foambench::fnv1a(sst.data(), sst.size()));

    if (traced) {
      std::vector<RankRecord> ranks(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        const auto i = static_cast<std::size_t>(r);
        RankRecord& rec = ranks[i];
        rec.atm = r < layout.atm_ranks;
        rec.ocean = !rec.atm;
        for (const Call* c : {&a, &b}) {
          const foam::ParallelRunResult& res = c->results[i];
          if (res.traces.size() != ranks.size() ||
              res.metrics.size() != ranks.size())
            throw std::runtime_error("traced run returned no trace for a rank");
          rec.ledger.merge(foambench::build_ledger(res.traces[i], c->wall[i]));
          add_samples(rec.samples, res.metrics[i]);
        }
      }
      check_ledgers(ranks);
      // Work counters live inside the parallel driver's models and are not
      // exposed by ParallelRunResult; they read 0 on this workload.
      job.layers = layer_metrics(ranks, job.sim_days, WorkCounts{});
    }
    *last_chain = std::move(dir);
    return job;
  };

  // Set-up: construction and init on every rank, i.e. a zero-day run.
  wl.setup_probe = [=]() {
    const auto t0 = Clock::now();
    call(pinned_options(false), 0.0);
    return seconds_since(t0);
  };
  // Resume read of the newest chain's final checkpoint: the slowest rank's
  // ckpt.restore span in a traced one-exchange resume.
  wl.resume_probe = [=]() {
    if (!*last_chain)
      throw std::logic_error("resume probe before any coupled_parallel job");
    foam::ParallelRunOptions opts = pinned_options(true);
    opts.checkpoint.path_prefix = ((*last_chain)->path() / "foam").string();
    opts.checkpoint.resume = true;
    const Call c = call(
        opts, 2 * kParallelChainDays + cfg.exchange_seconds / 86400.0);
    double restore_s = 0.0;
    for (int r = 0; r < world; ++r) {
      const auto i = static_cast<std::size_t>(r);
      restore_s = std::max(
          restore_s,
          foambench::build_ledger(c.results[i].traces[i], c.wall[i])
              .self("ckpt.restore"));
    }
    return restore_s;
  };
  return wl;
}

// coupled_serial --------------------------------------------------------------

Workload coupled_serial(const foam::FoamConfig& cfg, unsigned seed) {
  Workload wl;
  wl.setup_probe = [=]() {
    const auto t0 = Clock::now();
    foam::CoupledFoam model(cfg);
    model.atmosphere().init_default(seed);
    return seconds_since(t0);
  };
  wl.run = [=](bool traced) {
    Job job;
    const auto n_steps =
        static_cast<std::int64_t>(std::llround(kSerialDays * 86400.0 / cfg.atm.dt));
    std::optional<tel::Telemetry> session;
    std::optional<tel::ScopedSession> scope;
    if (traced) {
      session.emplace(tel::TelemetryOptions{tel::TraceLevel::kFull, kMaxSpans,
                                            /*record_flat=*/false});
      scope.emplace(*session);
    }
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::unique_ptr<foam::CoupledFoam> model;
    {
      tel::ScopedSpan span("bench.setup");
      model = std::make_unique<foam::CoupledFoam>(cfg);
      model->atmosphere().init_default(seed);
    }
    for (std::int64_t s = 0; s < n_steps; ++s) {
      tel::ScopedSpan span("bench.step");
      model->step();
    }
    job.wall_s = seconds_since(t0);
    job.cpu_s = process_cpu_seconds() - cpu0;
    job.sim_days = kSerialDays;

    const foam::Field2Dd sst = model->sst();
    check_range("final SST [C]", sst.data(), sst.size(), kSstMinC, kSstMaxC);
    const foam::Field3Dd& t3 = model->atmosphere().temperature();
    check_range("atmosphere T [K]", t3.data(), t3.size(), kAtmTMinK,
                kAtmTMaxK);
    job.digest = foambench::fnv1a(t3.data(), t3.size(),
                                  foambench::fnv1a(sst.data(), sst.size()));

    if (traced) {
      std::vector<RankRecord> ranks(1);
      ranks[0].atm = ranks[0].ocean = true;
      ranks[0].ledger =
          foambench::build_ledger(session->tracer().trace(), job.wall_s);
      add_samples(ranks[0].samples, session->snapshot());
      check_ledgers(ranks);
      job.layers = layer_metrics(
          ranks, job.sim_days,
          WorkCounts{model->atmosphere().work_points(),
                     model->ocean_model().work_points()});
    }
    return job;
  };
  return wl;
}

// atm_amip --------------------------------------------------------------------

/// The AMIP boundary condition: the atmosphere surface the coupler builds
/// from the ocean's climatological SST, prescribed for the whole job.
foam::atm::SurfaceFields climatological_surface(const foam::FoamConfig& cfg) {
  const foam::numerics::MercatorGrid ogrid(
      cfg.ocean.nx, cfg.ocean.ny, foam::ocean::OceanConfig::kStandardLatMax);
  const foam::Field2Dd bathy = foam::data::bathymetry(ogrid);
  foam::ocean::OceanModel shell(cfg.ocean, ogrid, bathy);
  foam::Field2D<int> omask(ogrid.nlon(), ogrid.nlat(), 0);
  for (int j = 0; j < ogrid.nlat(); ++j)
    for (int i = 0; i < ogrid.nlon(); ++i)
      omask(i, j) = shell.levels()(i, j) > 0 ? 1 : 0;
  shell.init_climatology();
  const foam::numerics::GaussianGrid agrid(cfg.atm.nlon, cfg.atm.nlat);
  const foam::coupler::Coupler coupler(agrid, ogrid, omask);
  return coupler.make_atm_surface(shell.sst());
}

Workload atm_amip(const foam::FoamConfig& cfg, unsigned seed) {
  // One AMIP job on kAmipRanks row ranks; days == 0 is the set-up alone.
  struct Out {
    double setup_s = 0.0;
    foam::Field3Dd t3;
    foam::atm::SurfaceFields sfc;
    std::vector<RankRecord> ranks;
    double work_points = 0.0;
  };
  const auto amip = [cfg, seed](double days, bool traced) {
    Out out;
    const auto n_steps =
        static_cast<std::int64_t>(std::llround(days * 86400.0 / cfg.atm.dt));
    const auto t0 = Clock::now();
    out.sfc = climatological_surface(cfg);
    out.t3 = foam::Field3Dd(cfg.atm.nlon, cfg.atm.nlat, cfg.atm.nlev, 0.0);
    out.ranks.resize(kAmipRanks);
    std::vector<double> setup_end(kAmipRanks), work(kAmipRanks);
    foam::par::run(kAmipRanks, [&](foam::par::Comm& w) {
      const auto r = static_cast<std::size_t>(w.rank());
      std::optional<tel::Telemetry> session;
      std::optional<tel::ScopedSession> scope;
      if (traced) {
        session.emplace(tel::TelemetryOptions{tel::TraceLevel::kFull,
                                              kMaxSpans, false});
        scope.emplace(*session);
      }
      const auto r0 = Clock::now();
      std::optional<foam::atm::AtmosphereModel> atm;
      {
        tel::ScopedSpan span("bench.setup");
        atm.emplace(cfg.atm, &w);
        atm->init_default(seed);
        atm->set_surface(out.sfc);
      }
      setup_end[r] = seconds_since(t0);
      foam::ModelTime now;
      for (std::int64_t s = 0; s < n_steps; ++s) {
        tel::ScopedSpan span("bench.step");
        atm->step(now);
        now.advance(static_cast<std::int64_t>(cfg.atm.dt));
      }
      const double wall = seconds_since(r0);
      for (const int j : atm->my_lats())
        for (int k = 0; k < cfg.atm.nlev; ++k)
          for (int i = 0; i < cfg.atm.nlon; ++i)
            out.t3(i, j, k) = atm->temperature()(i, j, k);
      work[r] = atm->work_points();
      if (traced) {
        RankRecord& rec = out.ranks[r];
        rec.atm = true;
        rec.ledger = foambench::build_ledger(session->tracer().trace(), wall);
        add_samples(rec.samples, session->snapshot());
      }
    });
    out.setup_s = *std::max_element(setup_end.begin(), setup_end.end());
    for (const double wp : work) out.work_points += wp;
    return out;
  };

  Workload wl;
  wl.setup_probe = [=]() { return amip(0.0, false).setup_s; };
  wl.run = [=](bool traced) {
    Job job;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const Out out = amip(kAmipDays, traced);
    job.wall_s = seconds_since(t0);
    job.cpu_s = process_cpu_seconds() - cpu0;
    job.sim_days = kAmipDays;

    check_range("prescribed surface T [K]", out.sfc.tsurf.data(),
                out.sfc.tsurf.size(), kAtmTMinK, kAtmTMaxK);
    check_range("atmosphere T [K]", out.t3.data(), out.t3.size(), kAtmTMinK,
                kAtmTMaxK);
    job.digest = foambench::fnv1a(out.t3.data(), out.t3.size());
    if (traced) {
      check_ledgers(out.ranks);
      job.layers = layer_metrics(out.ranks, job.sim_days,
                                 WorkCounts{out.work_points, 0.0});
    }
    return job;
  };
  return wl;
}

// --- the run -----------------------------------------------------------------

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::optional<std::uint64_t> digest;
};

/// Run one job (or probe) and account for it: an exception or a failed
/// check counts as a failed run and is reported, never dropped.
template <typename F>
auto attempt(Tally& tally, const char* what, F&& fn)
    -> std::optional<decltype(fn())> {
  ++tally.attempted;
  try {
    return fn();
  } catch (const std::exception& e) {
    ++tally.failed;
    std::printf("FAILED %s: %s\n", what, e.what());
  }
  return std::nullopt;
}

void account_digest(Tally& tally, const Job& job) {
  if (!tally.digest) {
    tally.digest = job.digest;
  } else if (*tally.digest != job.digest) {
    ++tally.failed;
    std::printf("FAILED digest: %016llx differs from the first job's %016llx\n",
                static_cast<unsigned long long>(job.digest),
                static_cast<unsigned long long>(*tally.digest));
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Tally& tally,
                  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                      metrics) {
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << tally.attempted
    << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    s << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
      << json_number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  s << "}}";
  std::cout << s.str() << std::endl;
}

void print_spread(const char* name, const std::vector<double>& v,
                  const char* unit) {
  if (v.empty()) return;
  if (v.size() >= 2) {
    const auto [q1, q3] = foambench::quartiles(v);
    std::printf("  %-24s median %.6g %s  q1 %.6g  q3 %.6g  n=%zu\n", name,
                foambench::median(v), unit, q1, q3, v.size());
  } else {
    std::printf("  %-24s median %.6g %s  n=1\n", name, foambench::median(v),
                unit);
  }
}

int run_benchmark(const Args& args) {
  pin_program();
  const foam::FoamConfig cfg = production_config();
  print_settings(args, cfg);

  const std::filesystem::path workdir = args.workdir;
  Workload wl;
  if (args.workload == "coupled_parallel") {
    std::filesystem::create_directories(workdir);
    wl = coupled_parallel(cfg, workdir);
  } else if (args.workload == "coupled_serial") {
    wl = coupled_serial(cfg, args.seed);
  } else if (args.workload == "atm_amip") {
    wl = atm_amip(cfg, args.seed);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (coupled_parallel, coupled_serial, "
                                "atm_amip)");
  }

  Tally tally;
  std::vector<double> sypd, cpu_per_day, setup, untraced_wall, traced_wall;
  std::vector<Samples> layers;
  const auto t_start = Clock::now();
  // Trace runs alternate untraced and traced jobs so telemetry.overhead
  // compares neighbours, and attempt at least one of each. Measured runs
  // are all untraced, with one set-up probe after every job so that the
  // probes sample the same stretch of time as the jobs (and the first job,
  // not a probe, pays the process's one-time warm-up).
  for (int i = 0; i < (args.trace ? 2 : 1) ||
                  seconds_since(t_start) < args.seconds;
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    if (!args.trace && i > 0)
      if (const auto s = attempt(tally, "setup probe", wl.setup_probe))
        setup.push_back(*s);
    const auto job = attempt(tally, traced ? "traced job" : "job",
                             [&] { return wl.run(traced); });
    if (!job) continue;
    account_digest(tally, *job);
    std::printf("job %d%s: %.4f s wall, %.4f s cpu, %.3g days\n", i,
                traced ? " (traced)" : "", job->wall_s, job->cpu_s,
                job->sim_days);
    if (traced) {
      traced_wall.push_back(job->wall_s);
      layers.push_back(job->layers);
    } else {
      untraced_wall.push_back(job->wall_s);
      sypd.push_back(foambench::sypd(job->sim_days, job->wall_s));
      cpu_per_day.push_back(job->cpu_s / job->sim_days);
    }
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : foambench::median(v);
  };
  if (!args.trace) {
    // setup_s = median construction/init probe + median resume-read probe.
    if (const auto s = attempt(tally, "setup probe", wl.setup_probe))
      setup.push_back(*s);
    std::vector<double> resume;
    for (int p = 0; wl.resume_probe && p < kResumeProbes; ++p)
      if (const auto s = attempt(tally, "resume probe", wl.resume_probe))
        resume.push_back(*s);
    std::printf("end-to-end (%s):\n", args.workload.c_str());
    print_spread("sypd", sypd, "yr/day");
    print_spread("cpu_s_per_sim_day", cpu_per_day, "s/day");
    print_spread("setup (construct, init)", setup, "s");
    print_spread("setup (resume read)", resume, "s");
    std::printf("  %-24s %.6g (%lld of %lld)\n", "failed_runs",
                foambench::failure_ratio(tally.failed, tally.attempted),
                static_cast<long long>(tally.failed),
                static_cast<long long>(tally.attempted));
    out.push_back({"sypd", {med(sypd), "yr/day"}});
    out.push_back({"cpu_s_per_sim_day", {med(cpu_per_day), "s/day"}});
    out.push_back({"setup_s", {med(setup) + med(resume), "s"}});
    out.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
  } else {
    std::printf("per-layer (%s, %zu traced jobs):\n", args.workload.c_str(),
                layers.size());
    for (const auto& [name, unit] : layer_units()) {
      double v = 0.0;
      if (std::string(name) == "telemetry.overhead") {
        v = med(untraced_wall) > 0.0 ? med(traced_wall) / med(untraced_wall)
                                     : 0.0;
      } else {
        std::vector<double> vals;
        for (const Samples& l : layers) vals.push_back(sample(l, name));
        v = med(vals);
      }
      std::printf("  %-26s %.6g %s\n", name, v, unit);
      out.push_back({name, {v, unit}});
    }
  }
  print_result(tally, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "foam_bench: %s\n", e.what());
    return 2;
  }
}

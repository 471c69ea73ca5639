// perfbench ledger: runs one benchmark workload through the public swhkm
// API and prints its raw measurements as one JSON line on stdout. The
// statistics (medians, ratios, closure) are computed by perfbench/run.py.
//
//   ledger --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//   ledger --selftest --scratch DIR
//
// --trace 0 times complete fit calls for --seconds (the end-to-end
// numbers); --trace 1 does a fixed amount of work: one untraced and one
// telemetry-armed fit, a RecoveryDriver / run_plan pair, and replays of each
// layer's public calls on the workload's own data (the per-layer numbers).
// Every fit, in either mode, is checked bit-for-bit against lloyd_serial
// outside the timed region. Progress goes to stderr.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_common.hpp"
#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace swhkm;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  core::Level level;
  std::size_t n;
  std::size_t d;
  std::size_t k;
  std::size_t max_iterations;
  double tolerance;  ///< -1 runs exactly max_iterations
  bool recovery;     ///< fit through RecoveryDriver instead of run_level
  /// Seed of the point set. --seed draws the sample order only, so every
  /// seed clusters the same points and does the same work per fit.
  std::uint64_t structure_seed;
};

constexpr std::size_t kRanks = 4;  // MachineConfig::sw26010(1): 4 CGs
constexpr std::size_t kCheckpointEvery = 8;

const Workload kWorkloads[] = {
    {"l3-uniform-assign", core::Level::kLevel3, 16384, 256, 512, 6, -1.0,
     false, 3},
    {"l2-census-converge", core::Level::kLevel2, 65536, 68, 64, 200, 0.0,
     false, 1990},
    {"l1-road-recovery", core::Level::kLevel1, 262144, 4, 64, 200, 0.0, true,
     7},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

data::Dataset generate_points(const Workload& w) {
  switch (w.level) {
    case core::Level::kLevel3:
      return data::make_uniform(w.n, w.d, w.structure_seed);
    case core::Level::kLevel2:
      return data::make_census_like(w.n, w.structure_seed);
    case core::Level::kLevel1:
      return data::make_road_like(w.n, w.structure_seed);
  }
  throw std::logic_error("unknown level");
}

/// The workload's inputs for one seed: k rows drawn by the structure seed
/// lead (they are the first-k initial centroids), the other rows follow in
/// an order drawn by `seed`.
data::Dataset make_inputs(const Workload& w, std::uint64_t seed) {
  const data::Dataset points = generate_points(w);
  const std::size_t n = points.n();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  util::Xoshiro256 pick(w.structure_seed ^ 0x5eedf00dULL);
  for (std::size_t i = 0; i < w.k; ++i) {
    std::swap(order[i], order[i + pick.below(n - i)]);
  }
  util::Xoshiro256 shuffle(seed);
  for (std::size_t i = n - 1; i > w.k; --i) {
    std::swap(order[i], order[w.k + shuffle.below(i - w.k + 1)]);
  }
  util::Matrix rows(n, points.d());
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = points.sample(order[i]);
    std::copy(src.begin(), src.end(), rows.row(i).begin());
  }
  return data::Dataset(std::string(w.name), std::move(rows));
}

core::KmeansConfig make_config(const Workload& w, std::uint64_t seed) {
  core::KmeansConfig c;
  c.k = w.k;
  c.max_iterations = w.max_iterations;
  c.tolerance = w.tolerance;
  c.init = core::InitMethod::kFirstK;
  c.seed = seed;
  c.checkpoint_every = kCheckpointEvery;
  return c;
}

/// One complete fit, the call a library user makes for this workload.
core::KmeansResult fit(const Workload& w, const data::Dataset& ds,
                       const core::KmeansConfig& config,
                       const simarch::MachineConfig& machine,
                       const std::string& checkpoint_path) {
  if (w.recovery) {
    core::RecoveryOptions options;
    options.checkpoint_path = checkpoint_path;
    core::RecoveryDriver driver(machine, options);
    return driver.run(w.level, ds, config);
  }
  return core::run_level(w.level, ds, config, machine);
}

// ---------------------------------------------------------------------------
// Correctness ledger
// ---------------------------------------------------------------------------

struct Reference {
  util::Matrix centroids;
  std::vector<std::uint32_t> assignments;
};

bool same_result(const Reference& ref, const core::KmeansResult& r) {
  return r.centroids.rows() == ref.centroids.rows() &&
         r.centroids.cols() == ref.centroids.cols() &&
         std::memcmp(r.centroids.data(), ref.centroids.data(),
                     ref.centroids.size() * sizeof(float)) == 0 &&
         r.assignments == ref.assignments;
}

/// Counts checked fit calls. A call that throws or whose result differs
/// from the reference is a failure; its time is not kept.
struct FitTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::optional<double> run(const Reference& ref,
                            const std::function<core::KmeansResult()>& call,
                            core::KmeansResult* keep = nullptr) {
    ++attempted;
    try {
      util::Stopwatch clock;
      core::KmeansResult r = call();
      const double wall_s = clock.seconds();
      if (!same_result(ref, r)) {
        ++failed;
        std::fprintf(stderr, "ledger: fit result differs from lloyd_serial\n");
        return std::nullopt;
      }
      if (keep != nullptr) {
        *keep = std::move(r);
      }
      return wall_s;
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "ledger: fit threw: %s\n", e.what());
      return std::nullopt;
    }
  }
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// One key holding an array of samples.
void samples(util::JsonWriter& w, std::string_view key,
             const std::vector<double>& values) {
  w.key(key).begin_array();
  for (double v : values) {
    w.value(v);
  }
  w.end_array();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Time `body` `reps` times, one sample per call.
std::vector<double> time_reps(std::size_t reps,
                              const std::function<void()>& body) {
  std::vector<double> out;
  out.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch clock;
    body();
    out.push_back(clock.seconds());
  }
  return out;
}

/// Call `body` repeatedly for at least `budget_s` (and `min_reps` calls),
/// one sample per call.
std::vector<double> time_for(double budget_s, std::size_t min_reps,
                             const std::function<void()>& body) {
  std::vector<double> out;
  util::Stopwatch total;
  while (out.size() < min_reps || total.seconds() < budget_s) {
    util::Stopwatch clock;
    body();
    out.push_back(clock.seconds());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host roofline probes
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFmaIters = 20'000'000;

/// Probe results land here so the compiler cannot drop the probe loops.
volatile double g_probe_sink = 0;

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) double fma_chains_avx2(std::uint64_t iters,
                                                           double seed) {
  constexpr int kChains = 10;
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) {
    acc[c] = _mm256_set1_pd(seed + 0.001 * c);
  }
  const __m256d mul = _mm256_set1_pd(0.9999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm256_fmadd_pd(acc[c], mul, add);
    }
  }
  double lanes[4];
  double sum = 0;
  for (int c = 0; c < kChains; ++c) {
    _mm256_storeu_pd(lanes, acc[c]);
    sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return sum;
}
#endif

/// Single-thread double-precision FMA peak: independent accumulator
/// chains, GFLOP/s per sample (one FMA = 2 flops).
std::vector<double> probe_fma_gflops(std::size_t reps) {
  std::vector<double> out;
  for (std::size_t r = 0; r < reps; ++r) {
    util::Stopwatch clock;
    double flops = 0;
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      g_probe_sink = fma_chains_avx2(kFmaIters, 1.0 + static_cast<double>(r));
      flops = static_cast<double>(kFmaIters) * 10 * 4 * 2;
    }
#endif
    if (flops == 0) {
      double acc[8];
      for (int c = 0; c < 8; ++c) {
        acc[c] = 1.0 + 0.001 * c + static_cast<double>(r);
      }
      for (std::uint64_t i = 0; i < kFmaIters; ++i) {
        for (int c = 0; c < 8; ++c) {
          acc[c] = acc[c] * 0.9999999 + 1e-7;
        }
      }
      double sum = 0;
      for (double a : acc) {
        sum += a;
      }
      g_probe_sink = sum;
      flops = static_cast<double>(kFmaIters) * 8 * 2;
    }
    out.push_back(flops / clock.seconds() / 1e9);
  }
  return out;
}

/// Bytes of the last-level cache as the C library reports it (0 when
/// unknown).
std::uint64_t last_level_cache_bytes() {
  for (const int level : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                          _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = sysconf(level);
    if (bytes > 0) {
      return static_cast<std::uint64_t>(bytes);
    }
  }
  return 0;
}

struct StreamProbe {
  std::uint64_t llc_bytes = 0;
  std::uint64_t array_bytes = 0;
  std::vector<double> gbs;  ///< (read + write bytes) / s per copy
};

/// Single-thread copy bandwidth over two arrays each at least four times
/// the last-level cache (64 MiB assumed when the cache size is unknown).
StreamProbe probe_stream(std::size_t reps) {
  StreamProbe p;
  p.llc_bytes = last_level_cache_bytes();
  const std::uint64_t llc = p.llc_bytes > 0 ? p.llc_bytes : (64ULL << 20);
  const std::size_t elems = static_cast<std::size_t>(4 * llc / sizeof(double));
  p.array_bytes = elems * sizeof(double);
  std::vector<double> src(elems, 1.0);
  std::vector<double> dst(elems, 0.0);
  for (std::size_t r = 0; r < reps; ++r) {
    src[r % elems] += 1.0;
    util::Stopwatch clock;
    std::memcpy(dst.data(), src.data(), p.array_bytes);
    const double s = clock.seconds();
    p.gbs.push_back(2.0 * static_cast<double>(p.array_bytes) / s / 1e9);
  }
  g_probe_sink = dst[reps % elems];
  return p;
}

// ---------------------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------------------

struct KernelReplay {
  std::size_t tile = 0;
  std::size_t k_slice = 0;
  std::vector<double> gemm_s, chain_s, gate_s;
};

/// One assign tile (the first tile_samples samples) against rank 0's
/// centroid slice at the iteration-0 centroids, through the engines' own
/// kernels; the gate replays iteration 1's bound test on the same tile.
KernelReplay replay_kernels(const Workload& w, const data::Dataset& ds,
                            const core::KmeansConfig& config,
                            const core::PartitionPlan& plan) {
  using core::detail::TileScore2;
  KernelReplay kr;
  kr.tile = std::min(config.tile_samples, ds.n());
  kr.k_slice = w.level == core::Level::kLevel3 ? plan.k_local : w.k;
  const util::Matrix c0 = core::init_centroids(ds, config);
  core::detail::CentroidNormCache norms;
  norms.refresh_full(c0);
  std::vector<TileScore2> scores(kr.tile);
  const std::span<TileScore2> span(scores);

  kr.gemm_s = time_for(0.3, 20, [&] {
    core::detail::clear_scores(span);
    core::detail::score_tile_gemm(ds, 0, kr.tile, c0, norms.norms, 0,
                                  kr.k_slice, span);
  });
  kr.chain_s = time_for(0.3, 20, [&] {
    core::detail::clear_scores(span);
    core::detail::score_tile(ds, 0, kr.tile, c0, 0, kr.k_slice, span);
  });

  // Iteration-1 gate state: exact bounds from a full sweep at c0, drift
  // and safe radii from one Lloyd update.
  core::detail::clear_scores(span);
  core::detail::score_tile(ds, 0, kr.tile, c0, 0, w.k, span);
  std::vector<std::uint32_t> assign(kr.tile);
  std::vector<double> upper0(kr.tile), lower0(kr.tile);
  for (std::size_t t = 0; t < kr.tile; ++t) {
    assign[t] = static_cast<std::uint32_t>(scores[t].index);
    core::detail::refresh_bounds(scores[t], upper0[t], lower0[t]);
  }
  core::KmeansConfig one = config;
  one.max_iterations = 1;
  const util::Matrix c1 = core::lloyd_serial(ds, one).centroids;
  std::vector<double> drift(w.k);
  for (std::size_t j = 0; j < w.k; ++j) {
    drift[j] =
        std::sqrt(core::detail::squared_distance(c0.row(j), c1.row(j)));
  }
  const core::detail::DriftDigest digest = core::detail::drift_digest(drift);
  std::vector<double> safe;
  core::detail::compute_safe_radii(c1, safe);
  std::vector<double> upper, lower;
  std::vector<std::uint32_t> ids;
  ids.reserve(kr.tile);
  const bool tighten = w.level != core::Level::kLevel3;
  kr.gate_s = time_for(0.2, 50, [&] {
    upper = upper0;
    lower = lower0;
    ids.clear();
    core::detail::gate_tile(ds, c1, 0, kr.tile, assign, drift, digest, safe,
                            upper, lower, tighten, ids);
  });
  return kr;
}

std::vector<double> replay_spawn(std::size_t reps) {
  return time_reps(reps, [] { swmpi::run_spmd(kRanks, [](swmpi::Comm&) {}); });
}

/// The collective schedule the engines install around their run_spmd with
/// KmeansConfig::hier_collectives on (the default): hierarchical,
/// supernode-wide intra groups, the machine's crossover.
swmpi::HierarchySpec engine_hierarchy(const simarch::MachineConfig& machine) {
  return {static_cast<int>(machine.cgs_per_node * machine.supernode_nodes),
          machine.collective_crossover_bytes()};
}

/// Rank 0's time per Level 3 span combine: a SplitAllreduce of MinLoc2
/// records (start + finish) over the plan's CG group, under the engines'
/// collective schedule, ranks released together by a barrier.
std::vector<double> replay_allreduce_minloc(
    const simarch::MachineConfig& machine, std::size_t group,
    std::size_t records, std::size_t reps) {
  std::vector<double> out(reps);
  const swmpi::ScopedCollectiveSchedule schedule(
      swmpi::CollectiveSchedule::kHierarchical, engine_hierarchy(machine));
  swmpi::run_spmd(kRanks, [&](swmpi::Comm& world) {
    const int rank = world.rank();
    swmpi::Comm comm = world.split(rank / static_cast<int>(group),
                                   rank % static_cast<int>(group));
    std::vector<swmpi::MinLoc2> buf(records);
    swmpi::SplitAllreduce<swmpi::MinLoc2, swmpi::CombineMinLoc2> combine;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t t = 0; t < records; ++t) {
        const double v = static_cast<double>((t * 7 + r + rank) % 13);
        buf[t] = swmpi::MinLoc2{v, t + rank, v + 1};
      }
      swmpi::barrier(world);
      util::Stopwatch clock;
      combine.start(comm, std::span<swmpi::MinLoc2>(buf),
                    swmpi::CombineMinLoc2{});
      combine.finish();
      if (rank == 0) {
        out[r] = clock.seconds();
      }
    }
  });
  return out;
}

/// Rank 0's time per sharded update at the workload's k x d, under the
/// engines' collective schedule.
std::vector<double> replay_reduce_and_update(
    const simarch::MachineConfig& machine, const util::Matrix& start,
    std::size_t reps) {
  const std::size_t k = start.rows();
  const std::size_t d = start.cols();
  util::Matrix centroids = start;
  std::vector<double> out(reps);
  const swmpi::ScopedCollectiveSchedule schedule(
      swmpi::CollectiveSchedule::kHierarchical, engine_hierarchy(machine));
  swmpi::run_spmd(kRanks, [&](swmpi::Comm& comm) {
    core::detail::UpdateAccumulator acc(k, d);
    for (std::size_t j = 0; j < k; ++j) {
      acc.counts[j] = static_cast<double>(1 + (j + comm.rank()) % 3);
      for (std::size_t u = 0; u < d; ++u) {
        acc.sums[j * d + u] = acc.counts[j] * start.at(j, u);
      }
    }
    std::vector<double> drift(k);
    for (std::size_t r = 0; r < reps; ++r) {
      swmpi::barrier(comm);
      util::Stopwatch clock;
      core::detail::reduce_and_update(comm, centroids, acc,
                                      std::span<double>(drift));
      if (comm.rank() == 0) {
        out[r] = clock.seconds();
      }
    }
  });
  return out;
}

/// Checkpoint legs a RecoveryDriver committed under `session`: the
/// kCheckpointLeg events of the host flight ring.
std::uint64_t checkpoint_legs(const telemetry::Telemetry& session) {
  for (const telemetry::FlightSnapshot& ring :
       session.metrics().flight_snapshots()) {
    if (ring.rank != telemetry::MetricsRegistry::kHostRank) {
      continue;
    }
    if (ring.total != ring.events.size()) {
      throw std::runtime_error("host flight ring wrapped; legs not countable");
    }
    return static_cast<std::uint64_t>(std::count_if(
        ring.events.begin(), ring.events.end(),
        [](const telemetry::FlightEvent& e) {
          return e.kind == telemetry::FlightEventKind::kCheckpointLeg;
        }));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".";
  bool selftest = false;
};

constexpr std::size_t kSetupReps = 10;
constexpr std::size_t kMinFits = 3;

void emit_model(util::JsonWriter& w, const core::KmeansResult& r) {
  const simarch::CostTally& c = r.cost;
  w.key("model").begin_object();
  w.kv("sample_read_s", c.sample_read_s)
      .kv("centroid_stream_s", c.centroid_stream_s)
      .kv("compute_s", c.compute_s)
      .kv("mesh_comm_s", c.mesh_comm_s)
      .kv("net_comm_s", c.net_comm_s)
      .kv("update_s", c.update_s)
      .kv("total_s", c.total_s())
      .kv("net_bytes", c.net_bytes)
      .kv("net_rounds", c.net_rounds)
      .kv("net_crossing_bytes", c.net_crossing_bytes)
      .kv("flops", c.flops);
  w.end_object();
}

int run_workload(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const simarch::MachineConfig machine = simarch::MachineConfig::sw26010(1);
  std::filesystem::create_directories(args.scratch);
  const std::string ckpt =
      (std::filesystem::path(args.scratch) / (std::string(w->name) + ".swkc"))
          .string();

  const data::Dataset ds = make_inputs(*w, args.seed);
  const core::KmeansConfig config = make_config(*w, args.seed);
  core::KmeansConfig setup_config = config;
  setup_config.max_iterations = 0;

  std::fprintf(stderr, "ledger: %s seed %llu: serial Lloyd reference\n",
               w->name, static_cast<unsigned long long>(args.seed));
  util::Stopwatch ref_clock;
  core::KmeansResult ref_result = core::lloyd_serial(ds, config);
  const double lloyd_serial_s = ref_clock.seconds();
  const Reference ref{ref_result.centroids, ref_result.assignments};

  auto call = [&] { return fit(*w, ds, config, machine, ckpt); };
  // Set-up is the engine call with no iterations: plan, LDM resolve, init,
  // rank spawn and first snapshot. The RecoveryDriver repeats it per leg.
  // Its cost depends on the allocator state the previous call left, so
  // batches are taken before and between the timed fits.
  std::vector<double> setup_s;
  auto time_setup = [&] {
    const std::vector<double> batch = time_reps(kSetupReps, [&] {
      core::run_level(w->level, ds, setup_config, machine);
    });
    setup_s.insert(setup_s.end(), batch.begin(), batch.end());
  };
  time_setup();

  FitTally tally;
  core::KmeansResult result;
  std::ostringstream out;
  util::JsonWriter j(out, 0);
  j.begin_object()
      .kv("workload", w->name)
      .kv("seed", args.seed)
      .kv("ranks", kRanks);

  if (args.trace == 0) {
    std::fprintf(stderr, "ledger: warm-up fit, then timed fits for %.0f s\n",
                 args.seconds);
    tally.run(ref, call, &result);
    std::vector<double> solve_s;
    util::Stopwatch budget;
    while (solve_s.size() < kMinFits || budget.seconds() < args.seconds) {
      if (const auto t = tally.run(ref, call, &result)) {
        solve_s.push_back(*t);
      } else if (tally.failed > kMinFits) {
        break;
      }
      time_setup();
    }
    samples(j, "setup_s", setup_s);
    samples(j, "solve_s", solve_s);
    j.kv("iterations", result.iterations);
    emit_model(j, result);
    j.kv("peak_rss_mib", peak_rss_mib());
  } else {
    std::fprintf(stderr, "ledger: untraced and traced fits\n");
    const std::optional<double> untraced_s = tally.run(ref, call, &result);
    time_setup();
    telemetry::Telemetry session;
    core::KmeansConfig traced_config = config;
    traced_config.telemetry = &session;
    const std::optional<double> traced_s = tally.run(ref, [&] {
      return fit(*w, ds, traced_config, machine, ckpt);
    });
    const telemetry::MetricsSnapshot snap = session.metrics().merged();
    double stall_s = 0;
    if (const auto it = snap.histograms.find("swmpi.recv.stall_s");
        it != snap.histograms.end()) {
      stall_s = it->second.sum;
    }

    // Recovery pair: RecoveryDriver's legs against one run_plan on the same
    // plan, so the difference is the leg overhead alone. Both fits carry a
    // flight-recorder-only session; the driver's host ring logs one
    // kCheckpointLeg event per committed leg, which gives the leg count.
    std::fprintf(stderr, "ledger: recovery pair\n");
    const core::ProblemShape shape{ds.n(), w->k, ds.d()};
    const core::PartitionPlan best =
        core::best_plan_for_level(w->level, shape, machine).value().plan;
    telemetry::TelemetryConfig flight_only;
    flight_only.wall_spans = false;
    flight_only.swmpi = false;
    telemetry::Telemetry recovery_session(flight_only);
    telemetry::Telemetry plain_session(flight_only);
    core::KmeansConfig recovery_config = config;
    recovery_config.telemetry = &recovery_session;
    core::KmeansConfig plain_config = config;
    plain_config.telemetry = &plain_session;
    const std::optional<double> recovery_s = tally.run(ref, [&] {
      core::RecoveryOptions options;
      options.checkpoint_path = ckpt;
      core::RecoveryDriver driver(machine, options);
      return driver.run(w->level, ds, recovery_config);
    });
    const std::optional<double> plain_s = tally.run(
        ref, [&] { return core::run_plan(best, ds, plain_config, machine); });
    const std::uint64_t recovery_legs = checkpoint_legs(recovery_session);

    std::fprintf(stderr, "ledger: layer replays\n");
    const core::PartitionPlan plan =
        core::make_plan(w->level, shape, machine);
    const std::vector<double> plan_s = time_reps(50, [&] {
      if (w->recovery) {
        core::best_plan_for_level(w->level, shape, machine);
      } else {
        core::make_plan(w->level, shape, machine);
      }
    });
    const std::vector<double> init_s =
        time_reps(20, [&] { core::init_centroids(ds, config); });
    const std::vector<double> save_s =
        time_reps(10, [&] { core::save_checkpoint(result, ckpt); });
    const std::uint64_t ckpt_bytes = std::filesystem::file_size(ckpt);
    const std::vector<double> load_s =
        time_reps(10, [&] { core::load_checkpoint(ckpt); });
    const KernelReplay kr = replay_kernels(*w, ds, config, plan);
    const std::vector<double> spawn_s = replay_spawn(200);
    // The Level 3 engine's span combine: one span of MinLoc2 records at the
    // resolved tile size over the plan's CG group. Levels 1 and 2 combine
    // on-CG; on their workloads this is a world combine of one tile.
    std::size_t combine_group = kRanks;
    std::size_t combine_records = config.tile_samples * config.sstep_tiles;
    if (w->level == core::Level::kLevel3) {
      const bool gemm =
          config.gemm_assign &&
          core::gemm_scratch_fits(config.tile_samples, plan, machine,
                                  config.sstep_tiles);
      combine_group = plan.mprime_group;
      combine_records =
          core::resolve_tile_samples(config.tile_samples, plan, machine,
                                     config.sstep_tiles, gemm) *
          config.sstep_tiles;
    }
    const std::vector<double> minloc_s = replay_allreduce_minloc(
        machine, combine_group, combine_records, 400);
    const std::vector<double> update_s = replay_reduce_and_update(
        machine, core::init_centroids(ds, config), 30);
    std::fprintf(stderr, "ledger: host roofline probes\n");
    const std::vector<double> fma = probe_fma_gflops(5);
    const StreamProbe stream = probe_stream(5);

    const auto opt = [](const std::optional<double>& v) {
      return v ? *v : std::nan("");
    };
    samples(j, "setup_s", setup_s);
    j.kv("iterations", result.iterations)
        .kv("recovery_legs", recovery_legs)
        .kv("lloyd_serial_s", lloyd_serial_s)
        .kv("untraced_s", opt(untraced_s))
        .kv("traced_s", opt(traced_s))
        .kv("recovery_fit_s", opt(recovery_s))
        .kv("plain_fit_s", opt(plain_s))
        .kv("stall_s", stall_s);
    emit_model(j, result);
    double prune_sum = 0;
    for (const core::IterationStats& h : result.history) {
      prune_sum += h.prune_rate;
    }
    j.key("gate").begin_object();
    j.kv("prune_rate", result.history.empty()
                               ? std::nan("")
                               : prune_sum / result.history.size())
        .kv("distance_evals", result.accel.distance_computations)
        .kv("lloyd_equivalent", result.accel.lloyd_equivalent);
    j.end_object();
    j.key("spans").begin_array();
    for (const telemetry::WallSpan& s : session.spans().spans()) {
      if (s.name == "assign" || s.name == "update") {
        j.begin_array()
            .value(s.iteration)
            .value(s.rank)
            .value(s.name)
            .value(s.duration_us * 1e-6)
            .end_array();
      }
    }
    j.end_array();
    j.key("kernel").begin_object();
    j.kv("tile", kr.tile).kv("k_slice", kr.k_slice).kv("d", ds.d());
    samples(j, "gemm_tile_s", kr.gemm_s);
    samples(j, "chain_tile_s", kr.chain_s);
    samples(j, "gate_tile_s", kr.gate_s);
    j.end_object();
    samples(j, "plan_s", plan_s);
    samples(j, "init_s", init_s);
    samples(j, "checkpoint_save_s", save_s);
    samples(j, "checkpoint_load_s", load_s);
    j.kv("checkpoint_bytes", ckpt_bytes);
    samples(j, "spawn_s", spawn_s);
    samples(j, "allreduce_minloc_s", minloc_s);
    samples(j, "reduce_and_update_s", update_s);
    samples(j, "fma_gflops", fma);
    samples(j, "stream_gbs", stream.gbs);
    j.kv("stream_array_bytes", stream.array_bytes)
        .kv("llc_bytes", stream.llc_bytes);
  }
  j.kv("attempted", tally.attempted).kv("failed", tally.failed).end_object();
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// The correctness ledger's own check: a correct fit passes, and a
/// deliberately wrong reference (one centroid bit, one label) or a
/// throwing call counts as a failure. Also counts the checkpoint legs of a
/// 10-iteration RecoveryDriver fit that checkpoints every 3 iterations.
int run_selftest(const Args& args) {
  const data::Dataset ds = data::make_blobs(600, 5, 4, 7);
  core::KmeansConfig config;
  config.k = 4;
  config.max_iterations = 10;
  const simarch::MachineConfig machine = simarch::MachineConfig::sw26010(1);
  const core::KmeansResult lloyd = core::lloyd_serial(ds, config);
  const Reference good{lloyd.centroids, lloyd.assignments};
  Reference bad_centroid = good;
  std::uint32_t bits = 0;
  std::memcpy(&bits, bad_centroid.centroids.data(), sizeof bits);
  bits ^= 1U;
  std::memcpy(bad_centroid.centroids.data(), &bits, sizeof bits);
  Reference bad_label = good;
  bad_label.assignments[0] = (bad_label.assignments[0] + 1) % 4;

  auto call = [&] {
    return core::run_level(core::Level::kLevel1, ds, config, machine);
  };
  FitTally pass, wrong_centroid, wrong_label, thrower;
  pass.run(good, call);
  wrong_centroid.run(bad_centroid, call);
  wrong_label.run(bad_label, call);
  thrower.run(good, []() -> core::KmeansResult {
    throw std::runtime_error("injected");
  });

  core::KmeansConfig legs_config = config;
  legs_config.tolerance = -1;
  legs_config.checkpoint_every = 3;
  telemetry::Telemetry session;
  legs_config.telemetry = &session;
  core::RecoveryOptions options;
  std::filesystem::create_directories(args.scratch);
  options.checkpoint_path =
      (std::filesystem::path(args.scratch) / "selftest.swkc").string();
  core::RecoveryDriver(machine, options).run(core::Level::kLevel1, ds,
                                             legs_config);
  std::filesystem::remove(options.checkpoint_path);
  const std::uint64_t legs = checkpoint_legs(session);

  const bool ok = pass.failed == 0 && wrong_centroid.failed == 1 &&
                  wrong_label.failed == 1 && thrower.failed == 1 && legs == 4;
  std::ostringstream out;
  util::JsonWriter j(out, 0);
  j.begin_object()
      .kv("good_failed", pass.failed)
      .kv("wrong_centroid_failed", wrong_centroid.failed)
      .kv("wrong_label_failed", wrong_label.failed)
      .kv("throwing_failed", thrower.failed)
      .kv("recovery_legs", legs)
      .kv("selftest", ok ? "pass" : "fail")
      .end_object();
  std::printf("%s\n", out.str().c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + a);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value());
      } else if (a == "--scratch") {
        args.scratch = value();
      } else if (a == "--selftest") {
        args.selftest = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ledger: %s\n", e.what());
      return 2;
    }
  }
  try {
    return args.selftest ? run_selftest(args) : run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 1;
  }
}

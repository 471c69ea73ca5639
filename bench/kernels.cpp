/// Microbenchmarks (google-benchmark) for the hot kernels of the
/// functional engines: the distance scan, the GEMM assign tile, the safe
/// radii, dimension-sliced partials,
/// accumulator updates, the thread-backed collectives, and dataset
/// generation throughput. These measure *host* wall-clock (the engines'
/// real cost when used as a library), not simulated Sunway time.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/engine_util.hpp"
#include "core/lloyd.hpp"
#include "data/synthetic.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "util/rng.hpp"

namespace {

using namespace swhkm;

void BM_DistanceScan(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const data::Dataset ds = data::make_uniform(64, d, 1);
  util::Matrix centroids(k, d, 0.5f);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto result =
        core::detail::nearest_in_slice(ds.sample(i % 64), centroids, 0, k);
    benchmark::DoNotOptimize(result);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * d));
}
BENCHMARK(BM_DistanceScan)
    ->Args({8, 64})
    ->Args({64, 64})
    ->Args({8, 4096})
    ->Args({256, 256});

/// The l3 assign tile: 256 uniform samples against k = 512 centroids at
/// d = 256, the centroids a second uniform draw.
struct AssignTile {
  static constexpr std::size_t kSamples = 256;
  static constexpr std::size_t kK = 512;
  static constexpr std::size_t kD = 256;
  data::Dataset samples = data::make_uniform(kSamples, kD, 3);
  util::Matrix centroids = data::make_uniform(kK, kD, 4).samples();
  core::detail::CentroidNormCache norms;
  AssignTile() { norms.refresh_full(centroids); }
};

constexpr double kAssignTileFlops = 2.0 * AssignTile::kSamples *
                                    AssignTile::kK * AssignTile::kD;

/// The whole l3 assign tile into top-two records: the chain kernel
/// (arg 0) vs the GEMM selector with candidate compaction and exact
/// rescore (arg 1). The records are byte-identical.
void BM_GemmTile(benchmark::State& state) {
  using core::detail::TileScore2;
  const AssignTile tile;
  std::vector<TileScore2> scores(AssignTile::kSamples);
  const std::span<TileScore2> span(scores);
  for (auto _ : state) {
    core::detail::clear_scores(span);
    if (state.range(0) == 1) {
      core::detail::score_tile_gemm(tile.samples, 0, AssignTile::kSamples,
                                    tile.centroids, tile.norms.norms, 0,
                                    AssignTile::kK, span);
    } else {
      core::detail::score_tile(tile.samples, 0, AssignTile::kSamples,
                               tile.centroids, 0, AssignTile::kK, span);
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = benchmark::Counter(
      kAssignTileFlops, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmTile)->Arg(0)->Arg(1);

/// Hamerly safe radii at k = 512, d = 256: k(k-1)/2 centroid pairs through
/// the blocked panel sweep.
void BM_SafeRadii(benchmark::State& state) {
  const util::Matrix centroids = data::make_uniform(512, 256, 5).samples();
  std::vector<double> safe;
  for (auto _ : state) {
    core::detail::compute_safe_radii(centroids, safe);
    benchmark::DoNotOptimize(safe.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          512 * 511 / 2);
}
BENCHMARK(BM_SafeRadii);

void BM_PartialDistance(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const data::Dataset ds = data::make_uniform(4, d, 2);
  util::Matrix centroid(1, d, 0.25f);
  for (auto _ : state) {
    const double partial = core::detail::partial_squared_distance(
        ds.sample(0), centroid.row(0), d / 4, d / 2);
    benchmark::DoNotOptimize(partial);
  }
}
BENCHMARK(BM_PartialDistance)->Arg(256)->Arg(4096)->Arg(65536);

void BM_AccumulatorAdd(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const data::Dataset ds = data::make_uniform(16, d, 3);
  core::detail::UpdateAccumulator acc(8, d);
  std::size_t i = 0;
  for (auto _ : state) {
    acc.add_sample(static_cast<std::uint32_t>(i % 8), ds.sample(i % 16));
    ++i;
  }
}
BENCHMARK(BM_AccumulatorAdd)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SerialLloydIteration(benchmark::State& state) {
  const data::Dataset ds = data::make_uniform(
      static_cast<std::size_t>(state.range(0)), 16, 4);
  core::KmeansConfig config;
  config.k = 8;
  config.max_iterations = 1;
  config.tolerance = -1;
  for (auto _ : state) {
    const auto result = core::lloyd_serial(ds, config);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_SerialLloydIteration)->Arg(1000)->Arg(10000);

void BM_SwmpiAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    swmpi::run_spmd(ranks, [&](swmpi::Comm& comm) {
      std::vector<double> buf(elems, comm.rank() * 1.0);
      swmpi::allreduce_sum(comm, std::span<double>(buf));
      benchmark::DoNotOptimize(buf[0]);
    });
  }
}
BENCHMARK(BM_SwmpiAllreduce)->Args({2, 1024})->Args({4, 1024})->Args({8, 64});

void BM_SwmpiBarrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    swmpi::run_spmd(ranks, [](swmpi::Comm& comm) {
      for (int round = 0; round < 16; ++round) {
        swmpi::barrier(comm);
      }
    });
  }
}
BENCHMARK(BM_SwmpiBarrier)->Arg(2)->Arg(8);

void BM_BlobGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const data::Dataset ds =
        data::make_blobs(static_cast<std::size_t>(state.range(0)), 32, 8, 9);
    benchmark::DoNotOptimize(ds.samples().data());
  }
}
BENCHMARK(BM_BlobGeneration)->Arg(1000)->Arg(10000);

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

}  // namespace

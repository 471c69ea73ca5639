#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>

#include "swmpi/collectives.hpp"
#include "swmpi/mailbox.hpp"
#include "swmpi/runtime.hpp"
#include "swmpi/spsc_ring.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace swhkm::swmpi {
namespace {

TEST(ExtraCollectives, MixedSequenceStaysInSync) {
  // Interleave every collective kind the engines use, with a split-phase
  // allreduce in flight across the blocking ones; tag sequencing must keep
  // each collective's messages apart.
  run_spmd(4, [](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> split_buf{1.0 + comm.rank()};
      SplitAllreduce<double, ops::Plus> split;
      split.start(comm, std::span<double>(split_buf), ops::Plus{});
      std::vector<int> buf{comm.rank() + 1};
      allreduce_sum(comm, std::span<int>(buf));
      EXPECT_EQ(buf[0], 1 + 2 + 3 + 4);
      const std::vector<int> all = allgather(comm, comm.rank() * 10 + round);
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10 + round);
      }
      const std::vector<int> mine(static_cast<std::size_t>(comm.rank()),
                                  comm.rank());
      const std::vector<int> cat =
          allgatherv(comm, std::span<const int>(mine.data(), mine.size()));
      EXPECT_EQ(cat, (std::vector<int>{1, 2, 2, 3, 3, 3}));
      int root_value = comm.rank() == round % 4 ? 100 + round : -1;
      bcast(comm, round % 4, std::span<int>(&root_value, 1));
      EXPECT_EQ(root_value, 100 + round);
      split.finish();
      EXPECT_EQ(split_buf[0], 1.0 + 2.0 + 3.0 + 4.0);
      barrier(comm);
    }
  });
}

// ---------------------------------------------------------- SPSC ring

TEST(SpscRing, FifoAndWraparound) {
  SpscRing<int> ring(8);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  // Several laps so head/tail wrap past the capacity repeatedly.
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 8; ++i) {
      int v = lap * 8 + i;
      EXPECT_TRUE(ring.try_push(v));
    }
    int overflow = -1;
    EXPECT_FALSE(ring.try_push(overflow));  // full
    EXPECT_EQ(ring.size_approx(), 8u);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 8 + i);
    }
    EXPECT_FALSE(ring.try_pop(out));
  }
}

TEST(SpscRing, ConcurrentProducerConsumerKeepsFifo) {
  // TSan target: one producer, one consumer, a ring small enough that both
  // sides constantly race on the full/empty edges.
  constexpr int kItems = 20000;
  SpscRing<int> ring(16);
  std::thread producer([&] {
    for (int i = 0; i < kItems;) {
      int v = i;
      if (ring.try_push(v)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expect = 0;
  int out = -1;
  while (expect < kItems) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(out));
}

// ------------------------------------------------------ mailbox torture

TEST(MailboxTorture, ConcurrentPushTimeoutAbortRounds) {
  // TSan stress for the lock-free mailbox: two senders race a receiver
  // that alternates short watchdog-style timed pops, with an abort landing
  // mid-stream every other round. Quiet rounds must deliver every message;
  // abort rounds must deliver everything already queued and then fault.
  constexpr int kRounds = 60;
  constexpr int kPerSender = 40;  // < lane capacity: senders never block
  for (int round = 0; round < kRounds; ++round) {
    const bool aborting = (round % 2) == 1;
    Mailbox box(4);
    auto sender = [&](int source) {
      for (int m = 0; m < kPerSender; ++m) {
        try {
          box.push({source, 7, {std::byte{static_cast<unsigned char>(m)}}});
        } catch (const RuntimeFault&) {
          return;  // ring filled after an abort — expected, stop sending
        }
        if (m % 8 == source) {
          std::this_thread::yield();
        }
      }
    };
    std::thread s0(sender, 0);
    std::thread s1(sender, 1);
    std::thread aborter;
    if (aborting) {
      aborter = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
        box.abort();
      });
    }
    int delivered = 0;
    int dry_spells = 0;
    bool faulted = false;
    Message out;
    while (delivered < 2 * kPerSender) {
      try {
        if (box.pop_matching_for(kAnySource, 7,
                                 std::chrono::milliseconds(2), out)) {
          ++delivered;
          dry_spells = 0;
        } else {
          // A timed-out pop just means a sender got descheduled; only a
          // sustained dry spell (~1s) is a real loss.
          ASSERT_LT(++dry_spells, 500) << "round " << round << " stuck at "
                                       << delivered;
        }
      } catch (const RuntimeFault&) {
        faulted = true;
        break;
      }
    }
    s0.join();
    s1.join();
    if (aborting) {
      aborter.join();
      // Either every message raced in ahead of the abort, or the abort
      // surfaced as a fault — never a silent shortfall.
      EXPECT_TRUE(faulted || delivered == 2 * kPerSender);
    } else {
      EXPECT_EQ(delivered, 2 * kPerSender);
      EXPECT_FALSE(faulted);
    }
  }
}

TEST(MailboxTorture, StashPreservesPerSourceOrderAcrossSources) {
  // Messages drained while hunting for another source's tag park in the
  // receiver stash; per-source FIFO must survive the detour.
  Mailbox box(4);
  std::thread s0([&] {
    for (int m = 0; m < 10; ++m) {
      box.push({0, m, {}});
    }
  });
  std::thread s1([&] {
    for (int m = 0; m < 10; ++m) {
      box.push({1, m, {}});
    }
  });
  s0.join();
  s1.join();
  // Pop source 1 first (stashing source 0's backlog), then source 0.
  for (int m = 0; m < 10; ++m) {
    const Message got = box.pop_matching(1, m);
    EXPECT_EQ(got.source, 1);
  }
  for (int m = 0; m < 10; ++m) {
    const Message got = box.pop_matching(0, m);
    EXPECT_EQ(got.source, 0);
  }
  EXPECT_EQ(box.pending(), 0u);
}

// ---------------------------------------------------- split allreduce

class SplitAllreduceTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitAllreduceTest, MatchesBlockingAllreduceBitForBit) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    for (int round = 0; round < 4; ++round) {
      // Values whose sum association matters in doubles: any reordering
      // of the fold would move the low bits.
      std::vector<double> split_buf(5);
      std::vector<double> block_buf(5);
      for (std::size_t i = 0; i < split_buf.size(); ++i) {
        split_buf[i] = 1.0 / (comm.rank() + 2.0 + static_cast<double>(i)) +
                       round * 0.125;
        block_buf[i] = split_buf[i];
      }
      SplitAllreduce<double, ops::Plus> op;
      op.start(comm, std::span<double>(split_buf), ops::Plus{});
      EXPECT_TRUE(op.active());
      // A full collective runs while the split op is in flight — tag
      // reservation must keep the two from cross-matching.
      allreduce(comm, std::span<double>(block_buf), ops::Plus{});
      op.finish();
      EXPECT_FALSE(op.active());
      for (std::size_t i = 0; i < split_buf.size(); ++i) {
        EXPECT_EQ(split_buf[i], block_buf[i]) << "element " << i;
      }
    }
  });
}

TEST_P(SplitAllreduceTest, TwoOutstandingOpsRetireInOrder) {
  // Level 3's span double buffer: span t+1's combine starts before span
  // t's finishes, so two ops are briefly in flight back-to-back.
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    // Cross-rank ties on b's values so the index tie-break decides.
    constexpr double kNone = std::numeric_limits<double>::max();
    std::vector<MinLoc2> a(3);
    std::vector<MinLoc2> b(3);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = {static_cast<double>((comm.rank() + 1) * (i + 1)),
              static_cast<std::uint64_t>(comm.rank()), kNone};
      b[i] = {static_cast<double>(comm.rank() % 2) + 0.5 * i,
              static_cast<std::uint64_t>(comm.rank()), kNone};
    }
    std::vector<MinLoc2> a_ref = a;
    std::vector<MinLoc2> b_ref = b;
    SplitAllreduce<MinLoc2, CombineMinLoc2> op_a;
    SplitAllreduce<MinLoc2, CombineMinLoc2> op_b;
    op_a.start(comm, std::span<MinLoc2>(a), CombineMinLoc2{});
    op_b.start(comm, std::span<MinLoc2>(b), CombineMinLoc2{});
    op_a.finish();
    op_b.finish();
    allreduce_minloc2(comm, std::span<MinLoc2>(a_ref));
    allreduce_minloc2(comm, std::span<MinLoc2>(b_ref));
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].value, a_ref[i].value);
      EXPECT_EQ(a[i].index, a_ref[i].index);
      EXPECT_EQ(a[i].second, a_ref[i].second);
      EXPECT_EQ(b[i].value, b_ref[i].value);
      EXPECT_EQ(b[i].index, b_ref[i].index);
      EXPECT_EQ(b[i].second, b_ref[i].second);
      // Rank 0 contributes the smallest value of both records and the
      // lowest index among b's even-rank ties.
      EXPECT_EQ(a[i].index, 0u);
      EXPECT_EQ(b[i].index, 0u);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, SplitAllreduceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

// -------------------------------------------------- deferred combine

class DeferredCombineTest : public ::testing::TestWithParam<int> {};

TEST_P(DeferredCombineTest, FoldedSpanMatchesPerTileCombinesBitForBit) {
  // The s-step contract: claiming several tiles' records into one store
  // and launching a single collective must produce exactly the records
  // that per-tile allreduces would — element-wise, in claim order.
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    const std::size_t tiles[] = {3, 1, 4};
    std::vector<MinLoc2> ref;
    DeferredCombine<MinLoc2, CombineMinLoc2> dc;
    dc.reserve(8);
    dc.reset();
    std::size_t sample = 0;
    for (const std::size_t count : tiles) {
      std::span<MinLoc2> claim = dc.claim(count);
      std::vector<MinLoc2> tile(count);
      for (std::size_t t = 0; t < count; ++t, ++sample) {
        // Rank-dependent values with deliberate cross-rank ties so the
        // index tie-break matters.
        const double v =
            static_cast<double>((comm.rank() + sample) % 2) + 0.25;
        tile[t] = {v, static_cast<std::uint64_t>(comm.rank() * 100 + sample),
                   std::numeric_limits<double>::max()};
        claim[t] = tile[t];
      }
      // Reference: a blocking per-tile combine of the same records.
      allreduce(comm, std::span<MinLoc2>(tile), CombineMinLoc2{});
      ref.insert(ref.end(), tile.begin(), tile.end());
    }
    EXPECT_EQ(dc.size(), 8u);
    EXPECT_FALSE(dc.launched());
    EXPECT_TRUE(dc.launch(comm, CombineMinLoc2{}));
    EXPECT_TRUE(dc.launched());
    dc.finish();
    EXPECT_FALSE(dc.active());
    const std::span<const MinLoc2> got = dc.records();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].value, ref[i].value) << "record " << i;
      EXPECT_EQ(got[i].index, ref[i].index) << "record " << i;
      EXPECT_EQ(got[i].second, ref[i].second) << "record " << i;
    }

    // reset() recycles the store for the next span.
    dc.reset();
    EXPECT_EQ(dc.size(), 0u);
    EXPECT_FALSE(dc.launched());
  });
}

TEST_P(DeferredCombineTest, EmptySpanSkipsTheCollective) {
  // A fully-gated span claims nothing; launch() must not touch the
  // network (every rank skips symmetrically) and finish() must be a
  // harmless no-op — this is what lets the engines charge zero rounds.
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    DeferredCombine<MinLoc2, CombineMinLoc2> dc;
    dc.reset();
    EXPECT_FALSE(dc.launch(comm, CombineMinLoc2{}));
    EXPECT_TRUE(dc.launched());
    EXPECT_FALSE(dc.active());
    dc.finish();
    EXPECT_TRUE(dc.records().empty());
    // The comm stays in sync: a normal collective right after agrees.
    std::vector<int> buf{1};
    allreduce_sum(comm, std::span<int>(buf));
    EXPECT_EQ(buf[0], size);
  });
}

TEST(DeferredCombine, ClaimAfterLaunchRejected) {
  run_spmd(1, [](Comm& comm) {
    DeferredCombine<MinLoc2, CombineMinLoc2> dc;
    dc.reset();
    dc.claim(2);
    dc.launch(comm, CombineMinLoc2{});
    EXPECT_THROW(dc.claim(1), swhkm::Error);
    dc.finish();
    dc.reset();  // legal again after finish
    dc.claim(1);
    dc.launch(comm, CombineMinLoc2{});
    dc.finish();
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeferredCombineTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------- hierarchical schedule property suite

/// Association-sensitive deterministic value: magnitudes spread over ~12
/// binary orders so any change in the FP fold order moves the result bits.
double hier_spread(int rank, std::size_t i) {
  const int e = static_cast<int>(
                    (i * 13 + static_cast<std::size_t>(rank) * 7) % 25) -
                12;
  return std::ldexp(1.0 + 0.001 * static_cast<double>(i) +
                        0.01 * static_cast<double>(rank),
                    e);
}

template <typename T>
std::vector<std::byte> to_bytes(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> b(v.size() * sizeof(T));
  if (!b.empty()) {
    std::memcpy(b.data(), v.data(), b.size());
  }
  return b;
}

/// The reference every schedule must reproduce, written out serially so
/// it shares no code with the collectives under test: the root-0 binomial
/// fold of every rank's input — for steps s = 1, 2, 4, … rank r (a
/// multiple of 2s) absorbs rank r + s, its own partial on the left.
template <typename T, typename Op>
std::vector<T> serial_binomial_fold(std::vector<std::vector<T>> parts,
                                    Op op) {
  const std::size_t world = parts.size();
  for (std::size_t s = 1; s < world; s <<= 1) {
    for (std::size_t r = 0; r + s < world; r += 2 * s) {
      for (std::size_t i = 0; i < parts[r].size(); ++i) {
        op(parts[r][i], parts[r + s][i]);
      }
    }
  }
  return parts[0];
}

/// (world size, ranks_per_group selector); selector 0 means "the whole
/// world in one group". Covers non-pow2 worlds, groups that do not divide
/// the world (3), one-rank groups (the flat schedule), and a single
/// all-rank group (no inter stage).
class HierScheduleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int world() const { return std::get<0>(GetParam()); }
  HierarchySpec spec(std::size_t crossover_bytes) const {
    const int sel = std::get<1>(GetParam());
    return {sel == 0 ? world() : sel, crossover_bytes};
  }

  /// Every rank's input, in rank order.
  template <typename Input>
  auto all_inputs(Input&& input) const {
    std::vector<decltype(input(0))> parts;
    for (int r = 0; r < world(); ++r) {
      parts.push_back(input(r));
    }
    return parts;
  }

  /// Run `collective` on every rank, launched with this case's spec at
  /// each crossover — so both inter algorithms (binomial tree and
  /// reduce_scatter+allgather) are forced regardless of payload size —
  /// and expect every rank to return exactly `expected`'s bytes.
  template <typename T, typename Fn>
  void expect_every_rank(const std::vector<T>& expected, Fn&& collective,
                         const char* what) {
    for (const std::size_t xover :
         {std::size_t{0}, std::size_t{64},
          std::numeric_limits<std::size_t>::max()}) {
      std::vector<std::vector<T>> got(static_cast<std::size_t>(world()));
      run_spmd(
          world(),
          [&](Comm& comm) {
            got[static_cast<std::size_t>(comm.rank())] = collective(comm);
          },
          nullptr, nullptr, spec(xover));
      for (int r = 0; r < world(); ++r) {
        EXPECT_EQ(to_bytes(got[static_cast<std::size_t>(r)]),
                  to_bytes(expected))
            << what << " rank=" << r << " world=" << world()
            << " rpg=" << spec(xover).ranks_per_group << " xover=" << xover;
      }
    }
  }
};

/// Rank-dependent MinLoc2 records with cross-rank ties on value, so the
/// index tie-break and the runner-up tracking both matter.
std::vector<MinLoc2> tied_records(int rank, std::size_t count) {
  std::vector<MinLoc2> recs(count);
  for (std::size_t i = 0; i < count; ++i) {
    recs[i] = {static_cast<double>((static_cast<std::size_t>(rank) + i) %
                                   3) +
                   0.25,
               static_cast<std::uint64_t>(rank) * 100 + i,
               std::numeric_limits<double>::max()};
  }
  return recs;
}

TEST_P(HierScheduleTest, AllreduceDoublesMatchesBinomialFold) {
  // 3 doubles (24 B) sit below the 64-byte crossover, 16 (128 B) above —
  // one payload per inter algorithm at that spec, and the 0/max extremes
  // force the other algorithm onto each payload too.
  for (const std::size_t len : {std::size_t{3}, std::size_t{16}}) {
    const auto input = [len](int rank) {
      std::vector<double> buf(len);
      for (std::size_t i = 0; i < len; ++i) {
        buf[i] = hier_spread(rank, i);
      }
      return buf;
    };
    expect_every_rank(
        serial_binomial_fold(all_inputs(input), ops::Plus{}),
        [&](Comm& comm) {
          std::vector<double> buf = input(comm.rank());
          allreduce(comm, std::span<double>(buf), ops::Plus{});
          return buf;
        },
        "allreduce");
  }
}

TEST_P(HierScheduleTest, Minloc2MatchesBinomialFold) {
  const auto input = [](int rank) { return tied_records(rank, 7); };
  expect_every_rank(
      serial_binomial_fold(all_inputs(input), CombineMinLoc2{}),
      [&](Comm& comm) {
        std::vector<MinLoc2> buf = input(comm.rank());
        allreduce_minloc2(comm, std::span<MinLoc2>(buf));
        return buf;
      },
      "minloc2");
}

TEST_P(HierScheduleTest, AllgathervMatchesConcatenation) {
  // Ragged contributions with rank-0's (and every 4th) empty.
  const auto input = [](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    std::vector<std::uint64_t> mine(r % 4);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = r * 1000 + i;
    }
    return mine;
  };
  std::vector<std::uint64_t> expected;
  for (const std::vector<std::uint64_t>& part : all_inputs(input)) {
    expected.insert(expected.end(), part.begin(), part.end());
  }
  expect_every_rank(
      expected,
      [&](Comm& comm) {
        const std::vector<std::uint64_t> mine = input(comm.rank());
        return allgatherv(
            comm, std::span<const std::uint64_t>(mine.data(), mine.size()));
      },
      "allgatherv");
}

TEST_P(HierScheduleTest, SplitAllreduceMatchesBinomialFold) {
  const auto input = [](int rank) {
    std::vector<double> buf(9);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = hier_spread(rank, i);
    }
    return buf;
  };
  expect_every_rank(
      serial_binomial_fold(all_inputs(input), ops::Plus{}),
      [&](Comm& comm) {
        std::vector<double> buf = input(comm.rank());
        SplitAllreduce<double, ops::Plus> op;
        op.start(comm, std::span<double>(buf), ops::Plus{});
        op.finish();
        return buf;
      },
      "split_allreduce");
}

TEST_P(HierScheduleTest, DeferredCombineMatchesBinomialFold) {
  const auto input = [](int rank) { return tied_records(rank, 6); };
  expect_every_rank(
      serial_binomial_fold(all_inputs(input), CombineMinLoc2{}),
      [&](Comm& comm) {
        const std::vector<MinLoc2> recs = input(comm.rank());
        DeferredCombine<MinLoc2, CombineMinLoc2> dc;
        dc.reserve(recs.size());
        dc.reset();
        std::size_t at = 0;
        for (const std::size_t count :
             {std::size_t{2}, std::size_t{1}, std::size_t{3}}) {
          std::span<MinLoc2> claim = dc.claim(count);
          std::copy(recs.begin() + static_cast<std::ptrdiff_t>(at),
                    recs.begin() + static_cast<std::ptrdiff_t>(at + count),
                    claim.begin());
          at += count;
        }
        dc.launch(comm, CombineMinLoc2{});
        dc.finish();
        const std::span<const MinLoc2> got = dc.records();
        return std::vector<MinLoc2>(got.begin(), got.end());
      },
      "deferred_combine");
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierScheduleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8,
                                                              16),
                                            ::testing::Values(1, 3, 0)));

TEST(HierSchedule, ScopedGuardInstallsAndRestores) {
  const HierarchySpec before = default_hierarchy_spec();
  {
    const ScopedCollectiveSchedule guard(CollectiveSchedule::kHierarchical,
                                         {4, 99});
    EXPECT_EQ(default_hierarchy_spec().ranks_per_group, 4);
    EXPECT_EQ(default_hierarchy_spec().crossover_bytes, 99u);
    run_spmd(2, [](Comm& comm) {
      EXPECT_EQ(comm.hierarchy().ranks_per_group, 4);
      EXPECT_EQ(comm.hierarchy().crossover_bytes, 99u);
    });
    {
      // kFlat installs the width-1 spec whatever spec rides along.
      const ScopedCollectiveSchedule flat(CollectiveSchedule::kFlat, {4, 99});
      EXPECT_EQ(default_hierarchy_spec().ranks_per_group, 1);
      EXPECT_EQ(default_hierarchy_spec().crossover_bytes,
                HierarchySpec{}.crossover_bytes);
    }
    EXPECT_EQ(default_hierarchy_spec().ranks_per_group, 4);
  }
  EXPECT_EQ(default_hierarchy_spec().ranks_per_group, before.ranks_per_group);
  EXPECT_EQ(default_hierarchy_spec().crossover_bytes, before.crossover_bytes);
}

TEST(HierSchedule, RunKeepsItsLaunchSpecWhileAnotherThreadInstallsOne) {
  // The schedule is a property of the communicator: a run that passes no
  // spec takes the launch default once, and a different default installed
  // on another thread mid-run must not reach its collectives (nor the
  // sub-communicators it splits).
  constexpr int kRanks = 4;
  constexpr int kRounds = 6;
  const HierarchySpec launch{kRanks, std::numeric_limits<std::size_t>::max()};
  const ScopedCollectiveSchedule launch_default(
      CollectiveSchedule::kHierarchical, launch);
  telemetry::MetricsRegistry reg;
  std::atomic<bool> launched{false};
  std::atomic<bool> installed{false};
  std::atomic<bool> release{false};
  std::thread installer([&] {
    while (!launched.load()) {
      std::this_thread::yield();
    }
    const ScopedCollectiveSchedule other(CollectiveSchedule::kFlat, {});
    installed.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  EXPECT_NO_THROW(run_spmd(
      kRanks,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          launched.store(true);
          while (!installed.load()) {
            std::this_thread::yield();
          }
        }
        barrier(comm);
        EXPECT_EQ(default_hierarchy_spec().ranks_per_group, 1);
        Comm pair = comm.split(comm.rank() / 2, comm.rank());
        for (const Comm* c : {&comm, &pair}) {
          EXPECT_EQ(c->hierarchy().ranks_per_group, launch.ranks_per_group);
          EXPECT_EQ(c->hierarchy().crossover_bytes, launch.crossover_bytes);
        }
        for (int round = 0; round < kRounds; ++round) {
          const auto r = static_cast<std::size_t>(round);
          std::vector<double> buf{hier_spread(comm.rank(), r)};
          allreduce(comm, std::span<double>(buf), ops::Plus{});
          std::vector<std::vector<double>> parts;
          for (int q = 0; q < kRanks; ++q) {
            parts.push_back({hier_spread(q, r)});
          }
          EXPECT_EQ(to_bytes(buf),
                    to_bytes(serial_binomial_fold(parts, ops::Plus{})));
        }
      },
      nullptr, &reg));
  launched.store(true);
  release.store(true);
  installer.join();
  // Only the launch spec's single four-rank group folds inside a group:
  // its leader ticks 2*log2(4) intra rounds per allreduce. The flat
  // default the other thread installed would have ticked none.
  EXPECT_EQ(reg.merged().counter_or_zero("swmpi.hier.allreduce.intra_rounds"),
            static_cast<std::uint64_t>(kRounds) * 4);
}

}  // namespace
}  // namespace swhkm::swmpi

// Unit tests for the device runtime: allocation, kernel launch accounting,
// stream clocks and synchronization costs, memcpy modelling, the profiler,
// shared-memory arena and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "hipsim/hipsim.h"

namespace xbfs::sim {
namespace {

Device make_device(unsigned workers = 1) {
  SimOptions o;
  o.num_workers = workers;
  return Device(DeviceProfile::test_profile(), o);
}

TEST(DeviceAlloc, BuffersAreLineAlignedAndDisjoint) {
  Device dev = make_device();
  auto a = dev.alloc<std::uint32_t>(3);
  auto b = dev.alloc<std::uint32_t>(5);
  const unsigned line = dev.profile().l2_line_bytes;
  EXPECT_EQ(a.device_addr() % line, 0u);
  EXPECT_EQ(b.device_addr() % line, 0u);
  EXPECT_GE(b.device_addr(), a.device_addr() + 3 * sizeof(std::uint32_t));
  EXPECT_GT(dev.allocated_bytes(), 0u);
}

TEST(DeviceAlloc, SpanViewsAndSubspan) {
  Device dev = make_device();
  auto buf = dev.alloc<int>(10);
  std::iota(buf.host_data(), buf.host_data() + 10, 0);
  dspan<int> s = buf.span();
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s[7], 7);
  dspan<int> sub = s.subspan(4, 3);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0], 4);
  EXPECT_EQ(sub.addr_of(0), s.addr_of(4));
  dspan<const int> cs = s;  // implicit const view
  EXPECT_EQ(cs[2], 2);
}

TEST(DeviceLaunch, GridStrideCoversEveryIndexExactlyOnce) {
  Device dev = make_device(4);
  const std::size_t n = 10007;  // prime: exercises ragged tails
  auto buf = dev.alloc<std::uint32_t>(n);
  auto s = buf.span();
  dev.launch("fill", LaunchConfig{.grid_blocks = 7, .block_threads = 64},
             [=](BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.grid_stride(n, [&](std::uint64_t i) {
                 ctx.store(s, i, static_cast<std::uint32_t>(i * 3 + 1));
               });
             });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(buf.host_data()[i], i * 3 + 1) << i;
  }
}

TEST(DeviceLaunch, CountersMatchIssuedTraffic) {
  Device dev = make_device();
  const std::size_t n = 1000;
  auto buf = dev.alloc<std::uint32_t>(n);
  auto s = buf.span();
  const LaunchResult r = dev.launch(
      "stores", LaunchConfig{.grid_blocks = 2, .block_threads = 64},
      [=](BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t i) {
          ctx.store(s, i, std::uint32_t{1});
        });
      });
  EXPECT_EQ(r.counters.mem_writes, n);
  EXPECT_EQ(r.counters.bytes_written, n * sizeof(std::uint32_t));
  EXPECT_GT(r.counters.lane_slots, 0u);
  EXPECT_GT(r.time_us, 0.0);
}

TEST(DeviceLaunch, AtomicAddsAreExactUnderContention) {
  Device dev = make_device(4);
  auto buf = dev.alloc<std::uint64_t>(1);
  buf.host_data()[0] = 0;
  auto s = buf.span();
  const unsigned blocks = 32, threads = 64;
  dev.launch("atomics", LaunchConfig{.grid_blocks = blocks,
                                     .block_threads = threads},
             [=](BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.threads([&](unsigned) {
                 ctx.atomic_add(s, 0, std::uint64_t{1});
               });
             });
  EXPECT_EQ(buf.host_data()[0], std::uint64_t{blocks} * threads);
}

TEST(DeviceLaunch, AtomicCasClaimsExactlyOnce) {
  Device dev = make_device(4);
  const std::size_t n = 4096;
  auto flags = dev.alloc<std::uint32_t>(n);
  auto wins = dev.alloc<std::uint32_t>(1);
  std::fill(flags.host_data(), flags.host_data() + n, 0xFFFFFFFFu);
  wins.host_data()[0] = 0;
  auto fs = flags.span();
  auto ws = wins.span();
  // Every thread tries to claim every slot; exactly n claims must win.
  dev.launch("cas", LaunchConfig{.grid_blocks = 8, .block_threads = 64},
             [=](BlockCtx& blk) {
               auto& ctx = blk.ctx();
               blk.threads([&](unsigned t) {
                 for (std::size_t i = t; i < n; i += 64) {
                   const std::uint32_t old =
                       ctx.atomic_cas(fs, i, 0xFFFFFFFFu,
                                      blk.block_id() * 64 + t);
                   if (old == 0xFFFFFFFFu) {
                     ctx.atomic_add(ws, 0, std::uint32_t{1});
                   }
                 }
               });
             });
  EXPECT_EQ(wins.host_data()[0], n);
}

TEST(DeviceLaunch, FirstLaunchPaysWarmupOnce) {
  DeviceProfile p = DeviceProfile::test_profile();
  p.first_launch_us = 500.0;
  Device dev(p, SimOptions{.num_workers = 1});
  auto noop = [](BlockCtx&) {};
  const LaunchResult r1 = dev.launch("k1", LaunchConfig{1, 32, 1.0}, noop);
  const LaunchResult r2 = dev.launch("k2", LaunchConfig{1, 32, 1.0}, noop);
  EXPECT_GE(r1.time_us, 500.0);
  EXPECT_LT(r2.time_us, 500.0);
}

TEST(DeviceLaunch, WarmupSkipsFirstLaunchCost) {
  DeviceProfile p = DeviceProfile::test_profile();
  p.first_launch_us = 500.0;
  Device dev(p, SimOptions{.num_workers = 1});
  dev.warmup();
  const LaunchResult r =
      dev.launch("k", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  EXPECT_LT(r.time_us, 500.0);
}

TEST(Streams, SynchronizeAdvancesFloorWithCost) {
  Device dev = make_device();
  dev.launch("k", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  const double before = dev.now_us();
  dev.synchronize();
  EXPECT_GE(dev.now_us(), before + dev.profile().device_sync_us);
}

TEST(Streams, IndependentStreamsOverlapJoinCosts) {
  Device dev = make_device();
  Stream& s1 = dev.create_stream("a");
  Stream& s2 = dev.create_stream("b");
  auto body = [](BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.threads([&](unsigned) { ctx.slots(1, 1); });
  };
  dev.launch(s1, "k1", LaunchConfig{1, 64, 1.0}, body);
  dev.launch(s2, "k2", LaunchConfig{1, 64, 1.0}, body);
  // Overlapped: both started at the same floor, so max end < sum of times.
  const double t1 = s1.t_end(), t2 = s2.t_end();
  EXPECT_GT(t1, 0);
  EXPECT_GT(t2, 0);
  dev.join_streams({&s1, &s2});
  EXPECT_DOUBLE_EQ(s1.t_end(), s2.t_end());
  EXPECT_GE(s1.t_end(), std::max(t1, t2) + dev.profile().stream_join_us);
}

TEST(Streams, MemcpyChargesOverheadPlusBandwidth) {
  Device dev = make_device();
  const double t = dev.memcpy_h2d(1000000);
  const DeviceProfile& p = dev.profile();
  EXPECT_NEAR(t, p.memcpy_overhead_us + 1e6 / p.h2d_bytes_per_us, 1e-9);
  EXPECT_GE(dev.now_us(), t);
}

TEST(Streams, ResetClockZeroesTimeline) {
  Device dev = make_device();
  dev.memcpy_h2d(1024);
  dev.synchronize();
  ASSERT_GT(dev.now_us(), 0.0);
  dev.reset_clock();
  EXPECT_DOUBLE_EQ(dev.now_us(), 0.0);
}

TEST(Profiler, RecordsTaggedLaunches) {
  Device dev = make_device();
  dev.profiler().set_context(3, "bottom-up");
  dev.launch("kernel_x", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  ASSERT_EQ(dev.profiler().records().size(), 1u);
  const LaunchRecord& r = dev.profiler().records()[0];
  EXPECT_EQ(r.kernel, "kernel_x");
  EXPECT_EQ(r.level, 3);
  EXPECT_EQ(r.tag, "bottom-up");
}

TEST(Profiler, DisabledProfilerRecordsNothing) {
  Device dev = make_device();
  dev.profiler().set_enabled(false);
  dev.launch("k", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  EXPECT_TRUE(dev.profiler().records().empty());
}

TEST(Profiler, ProfilingOptionOffRecordsNothing) {
  Device dev(DeviceProfile::test_profile(),
             SimOptions{.num_workers = 1, .profiling = false});
  dev.launch("k", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  EXPECT_TRUE(dev.profiler().records().empty());
}

TEST(Profiler, MatchingAndTotalsFilterBySubstring) {
  Device dev = make_device();
  dev.launch("alpha_one", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  dev.launch("beta_two", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  dev.launch("alpha_three", LaunchConfig{1, 32, 1.0}, [](BlockCtx&) {});
  EXPECT_EQ(dev.profiler().matching("alpha").size(), 2u);
  EXPECT_GT(dev.profiler().total_runtime_ms("alpha"), 0.0);
  EXPECT_GT(dev.profiler().total_runtime_ms(""),
            dev.profiler().total_runtime_ms("alpha"));
}

TEST(ShMemArena, BumpAllocAlignsAndResets) {
  ShMem sh(1024);
  char* c = sh.alloc<char>(3);
  double* d = sh.alloc<double>(2);
  EXPECT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_GE(sh.used(), 3u + 2 * sizeof(double));
  sh.reset();
  EXPECT_EQ(sh.used(), 0u);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  constexpr std::uint64_t n = 100000;
  std::vector<std::atomic<std::uint8_t>> seen(n);
  pool.parallel_for(n, [&](unsigned, std::uint64_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << i;
  }
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(1000, [&](unsigned, std::uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 1000ull * 999 / 2) << round;
  }
}

TEST(ThreadPool, SingleWorkerIsSequential) {
  ThreadPool pool(1);
  std::vector<std::uint64_t> order;
  pool.parallel_for(100, [&](unsigned worker, std::uint64_t i) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(order[i], i);
}

TEST(Determinism, SingleWorkerCountersAreBitIdentical) {
  auto run_once = [] {
    Device dev = make_device(1);
    const std::size_t n = 4096;
    auto buf = dev.alloc<std::uint32_t>(n);
    auto s = buf.span();
    return dev
        .launch("k", LaunchConfig{4, 64, 1.0},
                [=](BlockCtx& blk) {
                  auto& ctx = blk.ctx();
                  blk.grid_stride(n, [&](std::uint64_t i) {
                    ctx.store(s, i, static_cast<std::uint32_t>(i));
                    if (i % 3 == 0) ctx.load(s, (i * 7) % n);
                  });
                })
        .counters;
  };
  const KernelCounters a = run_once();
  const KernelCounters b = run_once();
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.fetch_bytes, b.fetch_bytes);
  EXPECT_EQ(a.lane_slots, b.lane_slots);
}

}  // namespace
}  // namespace xbfs::sim

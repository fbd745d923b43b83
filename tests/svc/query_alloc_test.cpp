// Allocation-freedom of the point-query hot paths.
//
// `query_status` / `query_region` answer from the RCU snapshot through the
// thread-local epoch handle: with tracing disabled (the benched
// configuration) a warmed-up query performs no heap allocation at all — no
// shared_ptr copies, no counter-map strings, no route materialization. The
// suite pins that by interposing the global allocator and counting
// this-thread allocations around the calls; a regression that sneaks an
// allocation into the hot path (a string key, an accidental vector, a
// snapshot copy) fails here before it shows up as a bench delta.
//
// The interposed operators serve the entire test binary, so they stay
// trivial: forward to malloc/free and bump a thread-local counter.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "svc/service.hpp"

namespace {
thread_local std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

TEST(QueryAllocTest, ServicePointQueriesAreAllocationFree) {
  Service service(grid::CellSet(Mesh2D(32, 32)));
  ASSERT_EQ(service.submit({EventKind::Fault, {10, 10}}),
            SubmitStatus::Accepted);
  service.flush();

  // Warm-up: the first acquire on this thread populates the thread-local
  // epoch slot (and any lazy internals) once.
  (void)service.query_status({10, 10});
  (void)service.query_region({10, 10});

  // No gtest macros inside the counted window (their internals may touch
  // the heap); verify results after.
  bool all_ok = true;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) {
                const StatusAnswer a = service.query_status({10, 10});
                all_ok = all_ok && a.status == QueryStatus::Ok &&
                         a.node == NodeStatus::Faulty;
                const RegionAnswer r = service.query_region({11, 10});
                all_ok = all_ok && r.status == QueryStatus::Ok;
              }
            }),
            0u);
  EXPECT_TRUE(all_ok);
}

TEST(QueryAllocTest, ShardedPointQueriesAreAllocationFree) {
  Service service(grid::CellSet(Mesh2D(32, 32)),
                  {.shard_rows = 2, .shard_cols = 2});
  ASSERT_EQ(service.submit({EventKind::Fault, {20, 20}}),
            SubmitStatus::Accepted);
  service.flush();

  // Warm every shard's thread-local slot (queries fan out by coordinate).
  const Coord probes[] = {{4, 4}, {20, 4}, {4, 20}, {20, 20}};
  for (const Coord c : probes) {
    (void)service.query_status(c);
    (void)service.query_region(c);
  }

  bool all_ok = true;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) {
                for (const Coord c : probes) {
                  const StatusAnswer a = service.query_status(c);
                  all_ok = all_ok && a.status == QueryStatus::Ok;
                  const RegionAnswer r = service.query_region(c);
                  all_ok = all_ok && r.status == QueryStatus::Ok;
                }
              }
            }),
            0u);
  EXPECT_TRUE(all_ok);
}

TEST(QueryAllocTest, EpochTurnoverCostsAtMostTheSlowPath) {
  // A publish between queries forces the acquire slow path once; the
  // steady state right after must be allocation-free again.
  Service service(grid::CellSet(Mesh2D(32, 32)));
  (void)service.query_status({1, 1});
  ASSERT_EQ(service.submit({EventKind::Fault, {15, 15}}),
            SubmitStatus::Accepted);
  service.flush();
  (void)service.query_status({1, 1});  // slow path: adopt the new epoch
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) {
                (void)service.query_status({15, 15});
              }
            }),
            0u);
}

}  // namespace
}  // namespace ocp::svc

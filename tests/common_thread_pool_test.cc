#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace eedc {
namespace {

TEST(WorkCrewTest, EveryMemberRunsOnItsOwnThread) {
  // Members rendezvous before exiting: this only terminates if all of
  // them run concurrently, i.e. each got a dedicated thread.
  constexpr std::size_t kMembers = 8;
  std::atomic<std::size_t> arrived{0};
  std::vector<int> hits(kMembers, 0);
  WorkCrew crew(kMembers, [&](std::size_t i) {
    hits[i] = 1;
    ++arrived;
    while (arrived.load() < kMembers) std::this_thread::yield();
  });
  crew.Join();
  for (std::size_t i = 0; i < kMembers; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(WorkCrewTest, JoinIsIdempotentAndDestructorJoins) {
  std::atomic<int> done{0};
  {
    WorkCrew crew(3, [&done](std::size_t) { ++done; });
    crew.Join();
    crew.Join();  // second join is a no-op
    EXPECT_EQ(done.load(), 3);
    EXPECT_EQ(crew.size(), 3u);
  }
  {
    WorkCrew crew(2, [&done](std::size_t) { ++done; });
    // No explicit Join: the destructor must wait for both members.
  }
  EXPECT_EQ(done.load(), 5);
}

}  // namespace
}  // namespace eedc

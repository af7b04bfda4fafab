// Work crew used by the P-store executor.
//
// WorkCrew dedicates one thread per member for the executor's node x
// worker pipeline instances, which block on exchange ports and merge
// barriers and so must never share threads.
#ifndef EEDC_COMMON_THREAD_POOL_H_
#define EEDC_COMMON_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

namespace eedc {

/// A work crew: `members` dedicated threads, member i running body(i).
/// Every member owns its thread for the crew's whole lifetime, so members
/// may block on each other (exchanges, barriers) without deadlocking the
/// crew. Join() blocks until every member returns; the destructor joins
/// if the caller did not.
class WorkCrew {
 public:
  WorkCrew(std::size_t members, std::function<void(std::size_t)> body);
  ~WorkCrew();

  WorkCrew(const WorkCrew&) = delete;
  WorkCrew& operator=(const WorkCrew&) = delete;

  /// Waits for every member to finish. Idempotent.
  void Join();

  std::size_t size() const { return members_; }

 private:
  std::size_t members_;
  std::vector<std::thread> threads_;
};

}  // namespace eedc

#endif  // EEDC_COMMON_THREAD_POOL_H_

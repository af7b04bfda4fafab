#include "common/thread_pool.h"

#include "common/check.h"

namespace eedc {

WorkCrew::WorkCrew(std::size_t members,
                   std::function<void(std::size_t)> body)
    : members_(members) {
  EEDC_CHECK(body != nullptr);
  threads_.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    threads_.emplace_back([body, i] { body(i); });
  }
}

WorkCrew::~WorkCrew() { Join(); }

void WorkCrew::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace eedc

// Seeded violation [naked-thread]: a std::thread constructed outside the
// parallel engine, in a file under src/ (the check's scope; the fixture
// corpus root stands in for the repo root).
#include <thread>

namespace fix {

void NakedThreadSpawn() {
  std::thread t([] {});
  t.join();
}

}  // namespace fix

// Clean near-miss [naked-thread]: the check covers src/ only, so a
// std::thread in a file outside it (tests, benches, tools) must stay
// silent.
#include <thread>

namespace fix {

void OutsideSrcSpawn() {
  std::thread t([] {});
  t.join();
}

}  // namespace fix

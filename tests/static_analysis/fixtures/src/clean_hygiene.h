// Clean near-miss [header-hygiene]: the canonical guard, a direct include
// for every std symbol used, and std::vector<int> named only in comments
// and a string literal — none of it may fire.
#ifndef JISC_CLEAN_HYGIENE_H_
#define JISC_CLEAN_HYGIENE_H_

#include <cstddef>
#include <string>

namespace fix {

inline std::string CleanHygieneLabel(size_t n) {
  return n == 0 ? "std::vector<int>" : "";
}

}  // namespace fix

#endif  // JISC_CLEAN_HYGIENE_H_

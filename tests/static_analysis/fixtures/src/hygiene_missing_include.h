// Seeded violation [header-hygiene]: size_t is used without a direct
// #include <cstddef>; the header only compiles if an includer got there
// first.
#ifndef JISC_HYGIENE_MISSING_INCLUDE_H_
#define JISC_HYGIENE_MISSING_INCLUDE_H_

#include <cstdint>

namespace fix {

inline size_t HygieneMissingWidth(uint32_t v) { return v; }

}  // namespace fix

#endif  // JISC_HYGIENE_MISSING_INCLUDE_H_

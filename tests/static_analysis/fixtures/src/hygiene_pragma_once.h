// Seeded violation [header-hygiene]: #pragma once instead of the canonical
// include guard, so the missing-guard finding fires as well.
#pragma once

#include <cstddef>

namespace fix {

inline size_t HygienePragmaZero() { return 0; }

}  // namespace fix

// Seeded violation [header-hygiene]: an include guard that does not follow
// the JISC_<PATH>_H_ scheme.
#ifndef JISC_FAKE_H_
#define JISC_FAKE_H_

#include <cstddef>

namespace fix {

inline size_t HygieneWrongGuardZero() { return 0; }

}  // namespace fix

#endif  // JISC_FAKE_H_

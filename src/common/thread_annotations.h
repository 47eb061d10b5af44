#ifndef JISC_COMMON_THREAD_ANNOTATIONS_H_
#define JISC_COMMON_THREAD_ANNOTATIONS_H_

// Capability annotations for Clang's -Wthread-safety analysis, plus the
// project's own JISC_COORDINATOR_ONLY marker. These macros turn the repo's
// threading contracts ("this field is protected by that mutex", "this method
// must hold the lock", "this API may only be driven by the coordinator
// thread") into machine-checked declarations instead of prose: the CI
// static-analysis job compiles with -Werror=thread-safety and the ast-lint
// job runs tools/jisc_verify, so a violated contract fails CI rather than
// surfacing later under TSan.
//
// The std::mutex shipped with libstdc++ carries none of these attributes,
// so the analysis cannot see std::lock_guard acquisitions. Guarded state
// must use the annotated wrappers in common/mutex.h (jisc::Mutex,
// jisc::MutexLock, jisc::CondVar); naked std::mutex members are rejected
// by tools/jisc_verify's unguarded-mutex check.
//
// Under GCC (which has no thread-safety analysis) every macro expands to
// nothing; the contracts are enforced by the clang CI job.

#if defined(__clang__) && defined(__has_attribute)
#define JISC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define JISC_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// Declares a type to be a capability ("mutex" in diagnostics). Example:
//   class JISC_CAPABILITY("mutex") Mutex { ... };
#define JISC_CAPABILITY(x) JISC_THREAD_ANNOTATION_(capability(x))

// Declares an RAII type that acquires a capability in its constructor and
// releases it in its destructor (MutexLock).
#define JISC_SCOPED_CAPABILITY JISC_THREAD_ANNOTATION_(scoped_lockable)

// Field annotation: reads/writes require the given capability to be held.
//   std::deque<T> items_ JISC_GUARDED_BY(mu_);
#define JISC_GUARDED_BY(x) JISC_THREAD_ANNOTATION_(guarded_by(x))

// Pointer-field annotation: dereferencing requires the capability (the
// pointer itself may be read freely).
#define JISC_PT_GUARDED_BY(x) JISC_THREAD_ANNOTATION_(pt_guarded_by(x))

// Function annotation: the caller must hold the listed capabilities.
#define JISC_REQUIRES(...) \
  JISC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// Function annotation: the caller must NOT hold the listed capabilities
// (the function acquires them itself, or acquiring would self-deadlock).
#define JISC_EXCLUDES(...) JISC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Function annotations: the function acquires / releases the capabilities.
#define JISC_ACQUIRE(...) \
  JISC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define JISC_RELEASE(...) \
  JISC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// Function annotation: acquires the capability iff the returned value
// matches the first argument.
#define JISC_TRY_ACQUIRE(...) \
  JISC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Function annotation: asserts (at runtime, from the analysis' point of
// view) that the capability is already held.
#define JISC_ASSERT_CAPABILITY(x) \
  JISC_THREAD_ANNOTATION_(assert_capability(x))

// Function returning a reference to the capability guarding its result.
#define JISC_RETURN_CAPABILITY(x) JISC_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch; every use must carry a comment saying why the analysis is
// wrong for this function.
#define JISC_NO_THREAD_SAFETY_ANALYSIS \
  JISC_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Project marker (not part of clang's analysis): the annotated function may
// only be called from the coordinator thread — the one thread driving a
// StreamProcessor's public surface. Code reachable from a worker-thread
// entry point may not call it; tools/jisc_verify's coordinator-only check
// enforces this over the call graph, since clang's per-function analysis
// cannot express thread identity. Under clang the marker is also recorded
// in the AST as an `annotate` attribute, which jisc_verify's clang frontend
// reads.
#if defined(__clang__)
#define JISC_COORDINATOR_ONLY \
  __attribute__((annotate("jisc::coordinator_only")))
#else
#define JISC_COORDINATOR_ONLY
#endif

#endif  // JISC_COMMON_THREAD_ANNOTATIONS_H_

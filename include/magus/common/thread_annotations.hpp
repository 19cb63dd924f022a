#pragma once
// Compile-time concurrency auditing: Clang thread-safety capability
// annotations (DESIGN.md §14).
//
// Every mutex-guarded or lock-free shared-state site in the codebase is
// annotated with the macros below, and CI compiles the whole tree under
// Clang with `-Wthread-safety -Werror=thread-safety`, so "forgot to take
// the lock", "took the locks in the wrong order", and "called a
// lock-requiring helper without holding it" are compile errors, not
// TSan-run-dependent findings. On non-Clang toolchains (the default GCC
// build) every macro expands to nothing and `AnnotatedMutex`/`LockGuard`/
// `UniqueLock`/`CondVar` reduce to their std counterparts.
//
// Vocabulary (thin wrappers over Clang's attributes — see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//
//   MAGUS_GUARDED_BY(mu)      field may only be read/written holding `mu`
//   MAGUS_PT_GUARDED_BY(mu)   pointee guarded by `mu` (pointer itself free)
//   MAGUS_REQUIRES(mu)        function must be called with `mu` held
//   MAGUS_ACQUIRE/RELEASE     function acquires/releases `mu`
//   MAGUS_EXCLUDES(mu)        function must be called with `mu` NOT held
//   MAGUS_ACQUIRED_BEFORE     lock-ordering hierarchy edge (checked under
//                             -Wthread-safety-beta; always parsed, so the
//                             hierarchy is at least machine-readable)
//   MAGUS_RETURN_CAPABILITY   accessor returns (an alias of) a capability
//
// The hot-path role. `hot_path_role` is a phantom capability representing
// "we are on a bounded-latency, lock-free path" (the simulator tick loop and
// the runtime's sample→decide→write core). Entering such a region is
// `HotPathSection section;`; functions that may only run there are marked
// MAGUS_LOCK_FREE (= MAGUS_REQUIRES(hot_path_role)). Every
// AnnotatedMutex::lock / LockGuard / UniqueLock declares
// MAGUS_EXCLUDES(hot_path_role), so taking ANY annotated lock while a
// HotPathSection is active is a compile error — the compiler-checked twin
// of magus_lint's marker-comment hot-path rule. (The check is
// intraprocedural, like all of Clang's analysis: it catches locking done
// directly inside an annotated scope; calls into unannotated helpers are
// covered by the lint rule instead.)

#include <condition_variable>
#include <mutex>  // magus:raw-mutex-ok -- the wrapper implementation itself

#if defined(__clang__) && !defined(MAGUS_NO_THREAD_SAFETY_ANNOTATIONS)
#define MAGUS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MAGUS_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

#define MAGUS_CAPABILITY(x) MAGUS_THREAD_ANNOTATION_(capability(x))
#define MAGUS_SCOPED_CAPABILITY MAGUS_THREAD_ANNOTATION_(scoped_lockable)
#define MAGUS_GUARDED_BY(x) MAGUS_THREAD_ANNOTATION_(guarded_by(x))
#define MAGUS_PT_GUARDED_BY(x) MAGUS_THREAD_ANNOTATION_(pt_guarded_by(x))
#define MAGUS_ACQUIRED_BEFORE(...) MAGUS_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define MAGUS_ACQUIRED_AFTER(...) MAGUS_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define MAGUS_REQUIRES(...) MAGUS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define MAGUS_REQUIRES_SHARED(...) \
  MAGUS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define MAGUS_ACQUIRE(...) MAGUS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define MAGUS_RELEASE(...) MAGUS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define MAGUS_TRY_ACQUIRE(...) MAGUS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define MAGUS_EXCLUDES(...) MAGUS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define MAGUS_ASSERT_CAPABILITY(x) MAGUS_THREAD_ANNOTATION_(assert_capability(x))
#define MAGUS_RETURN_CAPABILITY(x) MAGUS_THREAD_ANNOTATION_(lock_returned(x))
#define MAGUS_NO_THREAD_SAFETY_ANALYSIS MAGUS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace magus::common {

/// Phantom capability for the lock-free hot paths (no runtime state; the
/// "acquisition" exists only in the analysis). See MAGUS_LOCK_FREE below.
class MAGUS_CAPABILITY("role") HotPathRole {};

/// The process-wide hot-path role every MAGUS_LOCK_FREE function requires.
inline HotPathRole hot_path_role;

/// Marks a function as hot-path-only: callers must be inside a
/// HotPathSection, and the function body cannot take any AnnotatedMutex
/// (their lock operations exclude `hot_path_role`).
#define MAGUS_LOCK_FREE MAGUS_REQUIRES(::magus::common::hot_path_role)

/// std::mutex wrapped as a Clang capability. Always use this (never a bare
/// std::mutex — enforced by magus_lint's raw-mutex rule) so GUARDED_BY /
/// REQUIRES relationships are checkable.
class MAGUS_CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  // Bodies are excluded from analysis: the acquisition happens inside the
  // unannotated std::mutex, which the analysis cannot see. Call sites are
  // still fully checked through the attributes.
  void lock() MAGUS_ACQUIRE() MAGUS_EXCLUDES(hot_path_role)
      MAGUS_NO_THREAD_SAFETY_ANALYSIS {
    m_.lock();
  }
  void unlock() MAGUS_RELEASE() MAGUS_NO_THREAD_SAFETY_ANALYSIS { m_.unlock(); }
  [[nodiscard]] bool try_lock() MAGUS_TRY_ACQUIRE(true) MAGUS_EXCLUDES(hot_path_role)
      MAGUS_NO_THREAD_SAFETY_ANALYSIS {
    return m_.try_lock();
  }

  /// The raw mutex, for CondVar's wait plumbing ONLY — locking through it
  /// bypasses the analysis.
  [[nodiscard]] std::mutex& native_handle() noexcept { return m_; }

 private:
  std::mutex m_;  // magus:raw-mutex-ok -- the capability wraps this
};

/// RAII lock for AnnotatedMutex (std::lock_guard equivalent). The pattern —
/// acquire the constructor parameter, release the stored reference — is the
/// one Clang's analysis is specified against.
class MAGUS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(AnnotatedMutex& mu) MAGUS_ACQUIRE(mu) MAGUS_EXCLUDES(hot_path_role)
      : mu_(mu) {
    mu.lock();
  }
  ~LockGuard() MAGUS_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  AnnotatedMutex& mu_;
};

/// RAII lock that a CondVar can wait on (std::unique_lock equivalent; held
/// for its whole scope — there is deliberately no unlock/release API, which
/// keeps the analysis exact).
class MAGUS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(AnnotatedMutex& mu) MAGUS_ACQUIRE(mu) MAGUS_EXCLUDES(hot_path_role)
      : mu_(mu) {
    mu.lock();
  }
  ~UniqueLock() MAGUS_RELEASE() { mu_.unlock(); }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The capability this lock holds (CondVar plumbing).
  [[nodiscard]] AnnotatedMutex& mutex() const noexcept { return mu_; }

 private:
  AnnotatedMutex& mu_;
};

/// Condition variable over AnnotatedMutex. Only the plain wait is offered:
/// predicate-lambda waits would be analyzed with an empty lock set (Clang
/// checks lambda bodies as separate functions), so callers spell the loop
/// themselves —
///
///   UniqueLock lock(mutex_);
///   while (!condition) cv_.wait(lock);   // condition checked under the lock
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically release `lock`, block, reacquire before returning. Spurious
  /// wakeups happen; always call in a while-loop on the guarded condition.
  void wait(UniqueLock& lock) {
    // Adopt the already-held native mutex for the std wait protocol, then
    // release the adoption so UniqueLock's destructor stays the only
    // unlocker. Net effect on the caller's lock set: none — which is
    // exactly what the (absent) annotations say.
    std::unique_lock<std::mutex> native(lock.mutex().native_handle(),  // magus:raw-mutex-ok
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

 private:
  std::condition_variable cv_;  // magus:raw-mutex-ok -- wrapped by CondVar
};

/// Scoped entry into a lock-free hot-path region: while alive, constructing
/// any LockGuard/UniqueLock (or calling AnnotatedMutex::lock) is a compile
/// error, and MAGUS_LOCK_FREE functions become callable. Purely an analysis
/// construct — compiles to nothing.
class MAGUS_SCOPED_CAPABILITY HotPathSection {
 public:
  HotPathSection() MAGUS_ACQUIRE(hot_path_role) MAGUS_NO_THREAD_SAFETY_ANALYSIS {}
  ~HotPathSection() MAGUS_RELEASE() MAGUS_NO_THREAD_SAFETY_ANALYSIS {}

  HotPathSection(const HotPathSection&) = delete;
  HotPathSection& operator=(const HotPathSection&) = delete;
};

}  // namespace magus::common

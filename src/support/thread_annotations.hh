/**
 * @file
 * SkywayGuard: compile-time thread-safety facts (docs/
 * STATIC_ANALYSIS.md). Two layers:
 *
 *  1. The Clang capability-analysis attribute macros (GUARDED_BY,
 *     REQUIRES, ACQUIRE/RELEASE, EXCLUDES, ...). Under Clang with
 *     -Wthread-safety (the -DSKYWAY_ANALYZE=ON build) they make the
 *     repository's locking discipline a compile error to violate;
 *     under GCC they expand to nothing and cost nothing.
 *
 *  2. Annotated wrappers — Mutex, CondVar, MutexLock — around the
 *     std primitives. std::mutex and std::lock_guard carry no
 *     capability attributes, so annotating a field as GUARDED_BY a
 *     bare std::mutex teaches the analysis nothing; the wrappers are
 *     what lets it track acquisition through RAII scopes. They
 *     compile to exactly the std primitives (every method is a
 *     one-line forward), so the concurrency behavior of annotated
 *     code is unchanged.
 *
 * Conventions (enforced across src/net, src/typereg, src/skyway and
 * src/obs — the concurrent core):
 *
 *  - every field a mutex protects is GUARDED_BY(that mutex);
 *  - a function called with a lock already held is REQUIRES(it);
 *  - a function that must NOT be entered with a lock held (it takes
 *    the lock itself, or it performs a blocking round trip) is
 *    EXCLUDES(it);
 *  - fields owned by exactly one thread (an event loop's private
 *    reassembly buffers) are not guarded — ownership is documented at
 *    the field instead.
 */

#ifndef SKYWAY_SUPPORT_THREAD_ANNOTATIONS_HH
#define SKYWAY_SUPPORT_THREAD_ANNOTATIONS_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

// Clang's thread-safety attributes (LLVM and Abseil ship the same
// macro surface). GCC accepts none of them; everything degrades to a
// no-op so the annotated tree builds identically there.
#if defined(__clang__)
#define SKYWAY_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SKYWAY_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define CAPABILITY(x) SKYWAY_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in dtor. */
#define SCOPED_CAPABILITY SKYWAY_THREAD_ANNOTATION(scoped_lockable)

/** Field is readable/writable only with the given mutex held. */
#define GUARDED_BY(x) SKYWAY_THREAD_ANNOTATION(guarded_by(x))

/** Pointee (not the pointer) is protected by the given mutex. */
#define PT_GUARDED_BY(x) SKYWAY_THREAD_ANNOTATION(pt_guarded_by(x))

/** Callers must hold the listed capabilities on entry (and keep
 *  them: the function neither acquires nor releases). */
#define REQUIRES(...)                                                  \
    SKYWAY_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities and holds them on
 *  return. With no argument on a member of a capability type, the
 *  capability is the object itself. */
#define ACQUIRE(...)                                                   \
    SKYWAY_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities (held on entry). */
#define RELEASE(...)                                                   \
    SKYWAY_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns @p success. */
#define TRY_ACQUIRE(...)                                               \
    SKYWAY_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Callers must NOT hold the listed capabilities: the function takes
 *  them itself, or blocks in a way that must never nest under them
 *  (a network round trip — see tools/lint_invariants.py rule 2). */
#define EXCLUDES(...)                                                  \
    SKYWAY_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Declares this mutex is acquired before the listed ones (checked
 *  only under -Wthread-safety-beta; documents the lock hierarchy). */
#define ACQUIRED_BEFORE(...)                                           \
    SKYWAY_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...)                                            \
    SKYWAY_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Function returns a reference to the given capability. */
#define RETURN_CAPABILITY(x) SKYWAY_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: the function's locking is correct for reasons the
 *  analysis cannot see (init/teardown quiescence, adopted locks).
 *  Every use must carry a justifying comment — the invariant linter
 *  treats a bare one as a finding. */
#define NO_THREAD_SAFETY_ANALYSIS                                      \
    SKYWAY_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace skyway
{

/**
 * An annotated std::mutex. Same size, same cost — the capability
 * attribute exists only in the analysis.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() ACQUIRE()
    {
        m_.lock();
    }

    void
    unlock() RELEASE()
    {
        m_.unlock();
    }

    bool
    try_lock() TRY_ACQUIRE(true)
    {
        return m_.try_lock();
    }

  private:
    friend class CondVar;
    std::mutex m_;
};

/**
 * RAII lock of a Mutex — the annotated std::lock_guard. The analysis
 * tracks the capability from construction to destruction, so a
 * guarded field touched outside a MutexLock scope is a compile error
 * under -DSKYWAY_ANALYZE=ON.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) ACQUIRE(m) : m_(m) { m_.lock(); }

    ~MutexLock() RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    Mutex &m_;
};

/**
 * An annotated std::condition_variable bound to Mutex/MutexLock.
 * wait() releases and reacquires the lock internally, which the
 * analysis cannot model — but since the capability is held at entry
 * and at exit, REQUIRES is the truthful contract. Predicate waits are
 * written as explicit `while (!cond) cv.wait(lock);` loops at the
 * call site so the predicate's guarded reads stay inside the
 * annotated caller (a lambda would escape the analysis).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p lock, sleep, reacquire. */
    void
    wait(MutexLock &lock) REQUIRES(lock.m_)
    {
        std::unique_lock<std::mutex> ul(lock.m_.m_, std::adopt_lock);
        cv_.wait(ul);
        ul.release(); // ownership stays with the MutexLock
    }

    /** wait() that gives up at @p deadline; false once it passed. */
    bool
    waitUntil(MutexLock &lock,
              std::chrono::steady_clock::time_point deadline)
        REQUIRES(lock.m_)
    {
        std::unique_lock<std::mutex> ul(lock.m_.m_, std::adopt_lock);
        bool woke = cv_.wait_until(ul, deadline) ==
                    std::cv_status::no_timeout;
        ul.release();
        return woke;
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace skyway

#endif // SKYWAY_SUPPORT_THREAD_ANNOTATIONS_HH

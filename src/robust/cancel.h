#ifndef M2TD_ROBUST_CANCEL_H_
#define M2TD_ROBUST_CANCEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/status.h"

namespace m2td::robust {

/// \brief Why a token fired. kNone means "still running".
///
/// The two non-none causes map 1:1 onto StatusCode::kCancelled and
/// StatusCode::kDeadlineExceeded (see StatusFromCause); callers that want
/// best-so-far semantics branch on the cause, everything else just stops.
enum class CancelCause {
  kNone = 0,
  kCancelled,
  kDeadlineExceeded,
};

/// \brief A point on the steady clock after which work should stop.
///
/// Deadlines are value types: copy them freely, attach one to a
/// CancelSource at construction. The default-constructed deadline is
/// infinite (never expires).
class Deadline {
 public:
  /// Infinite deadline: Expired() is always false.
  Deadline() = default;

  /// A deadline that never expires (same as the default constructor,
  /// spelled out for call sites).
  static Deadline Infinite() { return Deadline(); }

  /// A deadline `ms` milliseconds from now on the steady clock. Negative
  /// values produce an already-expired deadline.
  static Deadline AfterMillis(double ms);

  /// True when this deadline never expires.
  bool IsInfinite() const { return !finite_; }

  /// True once the steady clock has passed the deadline.
  bool Expired() const;

  /// Milliseconds until expiry (negative once expired); a very large
  /// value for infinite deadlines.
  double RemainingMillis() const;

 private:
  bool finite_ = false;
  std::chrono::steady_clock::time_point at_{};
};

namespace internal {

/// \brief Shared state behind a CancelSource and all its tokens.
///
/// `cause` is the only field on the hot path: an un-cancelled check is a
/// single relaxed atomic load (two when a deadline or parent is attached),
/// mirroring the failpoint discipline. The mutex guards the child list and
/// backs the interruptible waits; a signal handler may store `cause`
/// directly (lock-free), which waiters observe within one wait slice.
struct CancelState {
  /// CancelCause as int; 0 = not cancelled. Written once (first CAS wins).
  std::atomic<int> cause{0};
  /// Deadline attached at source construction (immutable afterwards).
  Deadline deadline;
  /// Parent state when this is a child source; checks walk up the chain
  /// and memoize a fired ancestor into our own `cause`.
  std::shared_ptr<CancelState> parent;

  std::mutex mu;
  std::condition_variable cv;
  /// Child states registered by child CancelSources; guarded by `mu`.
  std::vector<std::weak_ptr<CancelState>> children;

  /// Slow path of CancelledNow(): deadline check + parent walk.
  CancelCause CancelledSlow();
  /// Current cause, evaluating deadline expiry and ancestor cancellation
  /// lazily. Fast path: one relaxed load.
  CancelCause CancelledNow() {
    const int c = cause.load(std::memory_order_relaxed);
    if (c != 0) return static_cast<CancelCause>(c);
    if (!deadline.IsInfinite() || parent) return CancelledSlow();
    return CancelCause::kNone;
  }
  /// Sets the cause (first writer wins) and wakes waiters + children.
  void Fire(CancelCause new_cause);
};

}  // namespace internal

class CancelSource;

namespace internal {
/// Testing hook: the raw state behind a source (used by chaos tests to
/// simulate a signal-handler store, which bypasses notification).
std::shared_ptr<CancelState> StateForTest(const CancelSource& source);
}  // namespace internal

/// \brief Read side of a cancellation point: cheap to copy, cheap to
/// check.
///
/// A default-constructed token is never cancelled and costs nothing to
/// check — long-running loops can take a token unconditionally. Tokens
/// are handed out by CancelSource and propagated implicitly through
/// CancelScope (see CurrentCancelToken); every long-running loop in the
/// library polls one.
class CancelToken {
 public:
  /// The null token: IsCancelled() is always false.
  CancelToken() = default;

  /// True once the owning source fired, its deadline expired, or any
  /// ancestor source fired. One relaxed atomic load when not cancelled
  /// and no deadline/parent is attached.
  bool IsCancelled() const {
    return state_ && state_->CancelledNow() != CancelCause::kNone;
  }

  /// The cause, or kNone while still running.
  CancelCause cause() const {
    return state_ ? state_->CancelledNow() : CancelCause::kNone;
  }

  /// Status::OK while running; Status::Cancelled / DeadlineExceeded once
  /// fired. The canonical per-iteration check in Status-returning loops.
  Status CheckCancel() const;

  /// Blocks up to `ms` milliseconds or until the token fires, whichever
  /// comes first; returns true when the token is cancelled on exit. This
  /// is the interruptible sleep used by retry backoff. Waits are sliced
  /// (<= 50 ms) so cancellations stored lock-free from a signal handler
  /// are observed promptly even though they cannot notify the condvar.
  bool WaitForMillis(double ms) const;

  /// True when this token can ever fire (i.e. it came from a source).
  bool CanBeCancelled() const { return state_ != nullptr; }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancelState> state_;
};

/// \brief Write side: owns a CancelState, hands out tokens, fires them.
///
/// Sources form a tree: a child source (constructed from a parent token)
/// fires when either its own Cancel() is called, its own deadline
/// expires, or any ancestor fires — but cancelling a child never affects
/// the parent. Destroying a source detaches it from its parent; already
/// handed-out tokens remain valid (they share ownership of the state).
class CancelSource {
 public:
  /// Root source with no deadline.
  CancelSource() : CancelSource(Deadline::Infinite()) {}

  /// Root source whose token fires with kDeadlineExceeded once `deadline`
  /// expires.
  explicit CancelSource(Deadline deadline);

  /// Child source: fires when `parent` fires (observed lazily or via
  /// eager propagation) or when cancelled/deadlined itself.
  explicit CancelSource(const CancelToken& parent,
                        Deadline deadline = Deadline::Infinite());

  /// Detaches from the parent (if any); handed-out tokens stay valid.
  ~CancelSource();

  CancelSource(const CancelSource&) = delete;
  CancelSource& operator=(const CancelSource&) = delete;

  /// Fires the token (first cause wins) and eagerly propagates to child
  /// sources so their condvar waiters wake.
  void Cancel(CancelCause cause = CancelCause::kCancelled);

  /// A token observing this source. Copies share the same state.
  CancelToken token() const { return CancelToken(state_); }

 private:
  friend std::shared_ptr<internal::CancelState> internal::StateForTest(
      const CancelSource& source);

  std::shared_ptr<internal::CancelState> state_;
};

/// \brief RAII ambient-token scope: makes `token` the thread's current
/// cancellation token for the lifetime of the scope.
///
/// Deep layers (ParallelFor, retry backoff, the Jacobi sweep loop, RK4
/// steps) poll CurrentCancelToken() instead of growing token parameters
/// through every signature; pool workers re-install the initiating
/// region's token so the ambient token crosses thread boundaries.
class CancelScope {
 public:
  /// Installs `token` as the calling thread's ambient token.
  explicit CancelScope(CancelToken token);
  /// Restores the previously ambient token.
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken previous_;
};

/// The calling thread's ambient token (null token when no CancelScope is
/// active). Checking it costs one thread-local read plus one relaxed
/// atomic load.
CancelToken CurrentCancelToken();

/// Shorthand for CurrentCancelToken().CheckCancel() — the one-liner used
/// at loop heads in Status-returning code.
Status CheckCancelled();

/// \brief Exception flavor of cancellation, for void pipelines.
///
/// ParallelFor chunks have no Status channel; a cancelled region throws
/// CancelledError through the pool's existing first-exception machinery
/// and conversion points (RunHooi, DM2tdDecompose, M2tdDecompose,
/// the CLI main) turn it back into a Status via ToStatus().
class CancelledError : public std::runtime_error {
 public:
  /// Wraps `cause` (must not be kNone) with a human-readable message.
  explicit CancelledError(CancelCause cause);

  /// Why the work stopped.
  CancelCause cause() const { return cause_; }

  /// The equivalent Status (Cancelled or DeadlineExceeded).
  Status ToStatus() const;

 private:
  CancelCause cause_;
};

/// True for Status::Cancelled and Status::DeadlineExceeded — the codes a
/// graceful-drain path treats as "stop, don't report failure".
bool IsCancellation(const Status& status);

/// The Status equivalent of a fired cause (OK for kNone).
Status StatusFromCause(CancelCause cause);

/// Stable lower_snake name for a cause ("none", "cancelled",
/// "deadline_exceeded") — used in span annotations and CLI output.
const char* CancelCauseName(CancelCause cause);

/// \brief Routes SIGINT/SIGTERM to `source` for graceful drain.
///
/// The handler performs a single lock-free store of kCancelled into the
/// source's state (async-signal-safe; no locks, no allocation) — loops
/// observe it at their next check and interruptible waits within one wait
/// slice. A second signal exits immediately with code 130. Keeps the
/// source's state alive process-wide; call once, from main, before work
/// starts. Returns false if installing the handlers failed.
bool InstallCancelOnSignal(const CancelSource& source);

}  // namespace m2td::robust

#endif  // M2TD_ROBUST_CANCEL_H_

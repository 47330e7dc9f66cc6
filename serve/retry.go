package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// Registry.Solve's retry budget for transient failures: the eviction
// race (errCoalescerClosed) and admission-control rejections
// (ErrQueueFull). Retries are deadline-budget-aware — a backoff that
// would outlive the request's context is never slept — and only the
// retriable sentinels are retried: dimension errors, unknown plans,
// contained panics (ErrInternal) and cancellations all fail immediately.
const (
	// retryAttempts caps total attempts, first try included.
	retryAttempts = 3

	// retryBackoffUnit is the first queue-full backoff, and the unit the
	// later ones and the ErrPlanEvicted retry hint are counted in.
	retryBackoffUnit = 500 * time.Microsecond

	// retryBackoffCap caps the queue-full backoff, in units (see backoff).
	retryBackoffCap = 16
)

// retriable reports whether Solve may try again after err.
func retriable(err error) bool {
	return errors.Is(err, errCoalescerClosed) || errors.Is(err, ErrQueueFull)
}

// backoff is the jittered exponential delay before queue-full retry
// `attempt` (1 = first retry): one retryBackoffUnit for the first retry,
// doubling to at most retryBackoffCap units. An eviction-race retry skips
// the backoff entirely — the rebuild itself is the wait.
func backoff(attempt int) time.Duration {
	d := min(retryBackoffUnit<<(attempt-1), retryBackoffCap*retryBackoffUnit)
	// Uniform jitter in [d/2, d] decorrelates retry storms: thundering
	// herds that were rejected together do not come back together.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// sleepRetry sleeps d unless the context would expire first: a retry
// that cannot complete within the remaining deadline budget is pointless
// occupancy, so the caller gets the original error back instead. Returns
// false when the retry should be abandoned.
func sleepRetry(ctx context.Context, d time.Duration) bool {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

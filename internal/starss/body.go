package starss

// This file holds task bodies: SleepBody, which stands for traced work, and
// Retry and Deadline, which wrap any body. The runtime never calls the
// wrappers; a wrapped body is still one call of Task.Do on the worker before
// Handle Finished, so an attempt that recovers never poisons dependents.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// ErrTaskTimeout marks a body call that outlived the budget Deadline gave
// it; the wrapping error names the budget. Dependents are poisoned exactly
// as for any other failure.
var ErrTaskTimeout = errors.New("starss: task deadline exceeded")

// SleepBody synthesizes the body of a task that stands for d of work: it
// sleeps for d, honouring cancellation, or — for d <= 0 — only observes
// cancellation. The empty body is one shared function: it costs a task no
// allocation.
func SleepBody(d time.Duration) func(context.Context) error {
	if d <= 0 {
		return emptyBody
	}
	return func(ctx context.Context) error {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func emptyBody(ctx context.Context) error { return ctx.Err() }

// Retry returns a body that calls do and, while do fails, calls it again up
// to n more times. Before re-arm k+1 it sleeps a capped exponential backoff
// with full jitter, uniform in [0, min(250ms, 1ms<<k)]; the spacing is
// deliberately unseeded, timing only, never what decides a fault. Every
// re-arm adds one to retried unless that is nil. A dead ctx is final: once
// it is done, before a re-arm or during the backoff, the last error stands.
// A panic in do is not retried; it reaches the runtime as ErrTaskPanicked.
func Retry(do func(context.Context) error, n int, retried *atomic.Uint64) func(context.Context) error {
	return func(ctx context.Context) error {
		for k := 0; ; k++ {
			err := do(ctx)
			if err == nil || k >= n || ctx.Err() != nil {
				return err
			}
			if retried != nil {
				retried.Add(1)
			}
			backoff := 250 * time.Millisecond
			if k < 8 {
				backoff = min(time.Millisecond<<k, backoff)
			}
			timer := time.NewTimer(rand.N(backoff + 1))
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
			timer.Stop()
			if ctx.Err() != nil {
				return err
			}
		}
	}
}

// Deadline returns a body that gives every call of do a fresh budget of d.
// A call that ends in context.DeadlineExceeded because that budget ran out
// returns an error wrapping ErrTaskTimeout instead; a deadline the caller's
// context already carried is left as it is.
func Deadline(do func(context.Context) error, d time.Duration) func(context.Context) error {
	cause := fmt.Errorf("%w after %v", ErrTaskTimeout, d)
	return func(ctx context.Context) error {
		ctx, cancel := context.WithTimeoutCause(ctx, d, cause)
		defer cancel()
		err := do(ctx)
		if errors.Is(err, context.DeadlineExceeded) && context.Cause(ctx) == cause {
			return cause
		}
		return err
	}
}

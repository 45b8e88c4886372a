package sttsim

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 42)
	// Equal-jitter: attempt n draws from [cap/2, cap] with cap =
	// min(base<<n, max).
	caps := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, cap := range caps {
		d := b.Observe(0)
		if d < cap/2 || d > cap {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", i, d, cap/2, cap)
		}
	}
}

func TestBackoffReset(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 1)
	for i := 0; i < 5; i++ {
		b.Observe(0)
	}
	b.Reset()
	if d := b.Observe(0); d > 100*time.Millisecond {
		t.Fatalf("after Reset, delay %s exceeds base cap", d)
	}
}

func TestObserveHonorsRetryAfterFloor(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 7)
	if d := b.Observe(30 * time.Second); d != 30*time.Second {
		t.Fatalf("Observe with Retry-After 30s = %s, want 30s", d)
	}
	// A Retry-After below the jittered delay does not shorten it.
	for i := 0; i < 10; i++ {
		b.Observe(0)
	}
	if d := b.Observe(time.Millisecond); d < 500*time.Millisecond {
		t.Fatalf("Observe with tiny Retry-After = %s, want >= cap/2 of max", d)
	}
}

func TestBackoffJitterIsNotConstant(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 100*time.Second, 99)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 8; i++ {
		seen[b.Delay(0, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 first-attempt draws produced %d distinct delays; jitter looks broken", len(seen))
	}
}

func TestBackoffDefaultsAndOverflow(t *testing.T) {
	// The zero value takes the default bounds and a clock-seeded jitter
	// source; 70 attempts run past the shift-overflow guard.
	var b Backoff
	for i := 0; i < 70; i++ {
		d := b.Observe(0)
		lo := time.Duration(1)
		if i >= 6 { // 100ms<<6 is past the 5s default max
			lo = 5 * time.Second / 2
		}
		if d < lo || d > 5*time.Second {
			t.Fatalf("attempt %d: delay %s outside the default bounds", i, d)
		}
	}
}

// TestRetryAfterHintDrivesBackoff: the Client's retry delay is the shared
// Backoff with the server's Retry-After hint as its floor.
func TestRetryAfterHintDrivesBackoff(t *testing.T) {
	c, err := New("http://localhost:1")
	if err != nil {
		t.Fatal(err)
	}
	if d := c.backoffDelay(0, &APIError{StatusCode: 429, RetryAfter: 2}); d != 2*time.Second {
		t.Errorf("backoffDelay with Retry-After 2 = %s, want 2s", d)
	}
	// Without a hint: equal-jitter exponential, never above the cap.
	for n := 0; n < 20; n++ {
		if d := c.backoffDelay(n, errors.New("boom")); d > c.backoff.Max {
			t.Errorf("backoffDelay(%d) = %s exceeds cap %s", n, d, c.backoff.Max)
		}
	}
}

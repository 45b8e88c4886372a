package sttsim

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces jittered exponential retry delays for calls to an
// sttsimd daemon, from the Client and from distributed workers alike.
// Jitter matters here: after a daemon restart every caller retries at once,
// and unjittered exponential backoff keeps them synchronized into thundering
// herds forever. The delay before retry n (0-based) is drawn uniformly from
// [cap/2, cap], where cap = Base<<n bounded by Max (equal jitter); a
// server-supplied Retry-After longer than that wins.
//
// A Backoff is safe for concurrent use. Delay is stateless; Observe and
// Reset keep an attempt counter for a single retry loop.
type Backoff struct {
	// Base is the first-retry cap (default 100ms); Max bounds the cap
	// (default 5s).
	Base time.Duration
	Max  time.Duration

	mu       sync.Mutex
	attempts int
	rng      *rand.Rand
}

// NewBackoff builds a backoff with a seeded jitter source (seed 0 derives
// one from the clock).
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{Base: base, Max: max, rng: rand.New(rand.NewSource(seed))}
}

func (b *Backoff) bounds() (base, max time.Duration) {
	base, max = b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if max < base {
		max = base
	}
	return base, max
}

// Delay returns the wait before retry n (0-based), or retryAfter when the
// server asked for longer.
func (b *Backoff) Delay(n int, retryAfter time.Duration) time.Duration {
	base, max := b.bounds()
	cap := max
	if n < 63 && base <= max>>uint(n) {
		cap = base << uint(n)
	}
	half := cap / 2
	b.mu.Lock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := half + time.Duration(b.rng.Int63n(int64(half)+1))
	b.mu.Unlock()
	if retryAfter > d {
		return retryAfter
	}
	return d
}

// Observe returns the Delay for the next attempt of this retry loop and
// advances the attempt counter.
func (b *Backoff) Observe(retryAfter time.Duration) time.Duration {
	b.mu.Lock()
	n := b.attempts
	b.attempts++
	b.mu.Unlock()
	return b.Delay(n, retryAfter)
}

// Reset clears the attempt counter after a successful call.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempts = 0
	b.mu.Unlock()
}

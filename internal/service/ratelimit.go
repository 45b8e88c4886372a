package service

import (
	"sync"
	"time"
)

// RateLimiter is a per-client token bucket: each key (client IP) accrues
// rate tokens per second up to burst. No external dependencies — the stdlib
// has no limiter and the container policy forbids adding one.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; <= 0 disables limiting
	burst   float64
	now     func() time.Time // test hook
	buckets map[string]*bucket
	denied  uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the per-client table; beyond it, fully-refilled buckets
// are pruned (they carry no state a fresh bucket wouldn't).
const maxBuckets = 4096

// NewRateLimiter builds a limiter granting rate requests/second with the
// given burst (burst < 1 means 1). rate <= 0 disables limiting entirely.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &RateLimiter{rate: rate, burst: b, now: time.Now, buckets: make(map[string]*bucket)}
}

// AllowWithRetry reports whether key may proceed, consuming one token if
// so, and, on denial, how long until the bucket will hold a whole token
// again — the value behind the Retry-After header, so
// clients back off exactly as long as the bucket needs rather than guessing.
func (l *RateLimiter) AllowWithRetry(key string) (bool, time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		l.denied++
		wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
		return false, wait
	}
	b.tokens--
	return true, 0
}

// pruneLocked discards buckets that have fully refilled.
func (l *RateLimiter) pruneLocked(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// Denied reports how many requests the limiter has rejected.
func (l *RateLimiter) Denied() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.denied
}

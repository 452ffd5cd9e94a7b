package server

import (
	"sync"
	"time"
)

// tokenBucket is a classic token-bucket rate limiter with reservation
// semantics: Reserve always admits the event but returns how long the
// caller must pause first. Running the debt this way lets the ingest path
// throttle a hot tenant by sleeping on its own connection — TCP flow
// control then pushes back on that tenant's feeder — without ever
// rejecting events or holding up any other tenant.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst float64, now time.Time) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// Reserve takes n tokens (going negative if needed) and returns how long
// the caller must wait before acting, zero when the bucket is in credit.
func (b *tokenBucket) Reserve(n int, now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// tenantLimiter hands each tenant its own token bucket, created lazily at
// the configured per-tenant rate. Rate <= 0 disables admission control.
type tenantLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newTenantLimiter(rate, burst float64) *tenantLimiter {
	return &tenantLimiter{rate: rate, burst: burst, buckets: map[string]*tokenBucket{}}
}

// Reserve charges n events to the tenant's bucket and returns the pause the
// connection handler owes before proceeding.
func (l *tenantLimiter) Reserve(tenant string, n int, now time.Time) time.Duration {
	if l == nil || l.rate <= 0 {
		return 0
	}
	l.mu.Lock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = newTokenBucket(l.rate, l.burst, now)
		l.buckets[tenant] = b
	}
	l.mu.Unlock()
	return b.Reserve(n, now)
}

package proxy

import (
	"context"
	"errors"

	"piggyback/internal/httpwire"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// leg is one direction the proxy sends requests in — the origin leg or the
// mesh's peer leg: a wire client and the circuit breaker that guards it
// (nil when disabled), which trips after consecutive failures so a dead
// host costs a map lookup instead of a dial timeout per request.
type leg struct {
	client  *httpwire.Client
	breaker *breaker
}

// newLeg builds a leg whose wire metrics (round-trip latency, retries,
// dials, error classes) and breaker counters land in reg under the two
// prefixes.
func newLeg(cfg Config, reg *obs.Registry, wirePrefix, breakerPrefix string) leg {
	l := leg{client: httpwire.NewClient()}
	l.client.Obs = obs.NewWireMetrics(reg, wirePrefix)
	if !cfg.BreakerDisabled {
		seed := cfg.BreakerSeed
		if seed == 0 {
			seed = 1
		}
		l.breaker = newBreaker(breakerSettings{
			failures: cfg.BreakerFailures,
			backoff:  cfg.BreakerBackoff,
		}, reg, breakerPrefix, seed)
	}
	return l
}

// exchange is the only way the proxy talks upstream: one request to addr,
// gated by host's circuit. A refusal is wireerr.ErrCircuitOpen, counted
// under the client's circuit_open class (the client counts the classes of
// its own failures); every failure but the caller's own cancellation feeds
// the breaker, and any response at all closes the circuit.
func (l leg) exchange(ctx context.Context, host, addr string, req *httpwire.Request) (*httpwire.Response, error) {
	if !l.breaker.Allow(host) {
		l.client.Obs.CountErrClass("circuit_open")
		return nil, wireerr.ErrCircuitOpen
	}
	resp, err := l.client.DoContext(ctx, addr, req)
	if err != nil {
		if !errors.Is(err, wireerr.ErrCanceled) {
			l.breaker.Failure(host)
		}
		return nil, err
	}
	l.breaker.Success(host)
	return resp, nil
}

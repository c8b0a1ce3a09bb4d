package proxy

import (
	"context"
	"errors"

	"piggyback/internal/httpwire"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// leg is one direction the proxy sends requests in — demand fetches to the
// origin, speculative fetches to the origin, or the mesh's peer leg: a wire
// client and the circuit breaker that guards it, which trips after
// consecutive failures so a dead host costs a map lookup instead of a dial
// timeout per request. Two legs may share one breaker.
type leg struct {
	client  *httpwire.Client
	breaker *breaker
}

// newLeg builds a leg guarded by b whose wire metrics (round-trip latency,
// retries, dials, error classes) land in reg under wirePrefix.
func newLeg(reg *obs.Registry, wirePrefix string, b *breaker) leg {
	l := leg{client: httpwire.NewClient(), breaker: b}
	l.client.Obs = obs.NewWireMetrics(reg, wirePrefix)
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

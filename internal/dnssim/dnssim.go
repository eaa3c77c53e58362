// Package dnssim models DNS resolution over the network simulator: a
// resolver on a host exchanges datagrams with a DNS server host, caches
// answers, and coalesces concurrent lookups for the same name — the behaviour
// whose round-trips the paper counts against traditional browsers (§2.1).
package dnssim

import (
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
)

const (
	querySize    = 60
	responseSize = 120
)

type query struct {
	name string
	id   uint64
}

type answer struct {
	name string
	id   uint64
}

// Server answers DNS queries arriving at its host after a fixed processing
// delay.
type Server struct {
	sim   *eventsim.Simulator
	host  *simnet.Host
	delay time.Duration
}

// NewServer installs a DNS server on host with the given per-query
// processing delay.
func NewServer(sim *eventsim.Simulator, host *simnet.Host, delay time.Duration) *Server {
	s := &Server{sim: sim, host: host, delay: delay}
	host.HandleDatagrams(func(from *simnet.Host, payload any, size int, at time.Duration) {
		q, ok := payload.(query)
		if !ok {
			return
		}
		send := func() {
			host.SendDatagram(from, responseSize, answer{name: q.name, id: q.id}, nil)
		}
		if s.delay > 0 {
			sim.Schedule(s.delay, send)
		} else {
			send()
		}
	})
	return s
}

// Waiter is what a lookup wakes once its name resolves. A pooled request can
// be its own Waiter, so a lookup needs no closure.
type Waiter interface{ Resolved(at time.Duration) }

// Func adapts a function to Waiter.
type Func func(at time.Duration)

// Resolved calls f.
func (f Func) Resolved(at time.Duration) { f(at) }

// Resolver performs cached, coalesced lookups from a client host against one
// DNS server host.
type Resolver struct {
	host    *simnet.Host
	server  *simnet.Host
	cache   map[string]bool
	pending map[string][]Waiter
	nextID  uint64

	// Lookups counts queries actually sent on the wire (cache misses).
	Lookups int
	// Hits counts lookups answered from cache.
	Hits int
}

// NewResolver installs a resolver on host, pointed at server. It takes over
// the host's datagram handler.
func NewResolver(host, server *simnet.Host) *Resolver {
	r := &Resolver{
		host:    host,
		server:  server,
		cache:   make(map[string]bool),
		pending: make(map[string][]Waiter),
	}
	host.HandleDatagrams(func(from *simnet.Host, payload any, size int, at time.Duration) {
		a, ok := payload.(answer)
		if !ok {
			return
		}
		r.cache[a.name] = true
		waiters := r.pending[a.name]
		delete(r.pending, a.name)
		for _, w := range waiters {
			w.Resolved(at)
		}
	})
	return r
}

// Resolve wakes w when name is resolved: immediately (same event) on a
// cache hit, otherwise after a round-trip to the DNS server. Concurrent
// lookups for one name share a single query.
func (r *Resolver) Resolve(name string, w Waiter) {
	if r.cache[name] {
		r.Hits++
		w.Resolved(0)
		return
	}
	waiting := r.pending[name]
	r.pending[name] = append(waiting, w)
	if len(waiting) > 0 {
		return // query already in flight
	}
	r.Lookups++
	r.nextID++
	r.host.SendDatagram(r.server, querySize, query{name: name, id: r.nextID}, nil)
}

// FlushCache drops all cached entries (used between experiment runs, like
// the paper's per-run cache flush in §7.3).
func (r *Resolver) FlushCache() {
	r.cache = make(map[string]bool)
	r.Lookups, r.Hits = 0, 0
}

//go:build simdebug

package httpsim

import "fmt"

// With -tags simdebug every release checks the pooled flag, so returning a
// pendingReq to the free list twice — which would silently alias two queued
// requests onto one object — panics at the offending call site. This mirrors
// the simnet packet/outMsg checks: free in normal builds, loud in debug
// builds.

func checkReqFree(pr *pendingReq) {
	if pr.pooled {
		panic(fmt.Sprintf("httpsim: double free of pendingReq (url %q)", pr.req.URL))
	}
}

// checkIdle recounts every pool's ready, non-busy connections against the
// dispatcher's idle counters, so a counter update missing from one of its
// four places panics at the next drain.
func checkIdle(c *Client) {
	total := 0
	for _, p := range c.poolList {
		n := 0
		for _, pc := range p.conns {
			if pc.ready && !pc.busy {
				n++
			}
		}
		if n != p.idle {
			panic(fmt.Sprintf("httpsim: pool %q counts %d idle connections, has %d", p.origin, p.idle, n))
		}
		total += n
	}
	if total != c.idle {
		panic(fmt.Sprintf("httpsim: client counts %d idle connections, has %d", c.idle, total))
	}
}

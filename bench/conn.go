package main

import (
	"net"
	"sync/atomic"
	"time"
)

// sockStats are the counters one or more wrapped connections feed. All
// fields are atomics: the client's read loop and the proxy's writer run on
// their own goroutines while the load loop reads the totals.
type sockStats struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	// writeWaitNs is time spent inside Write — how long the writer waited for
	// the kernel (and, on a shaped link, the peer) to take the bytes. Only
	// measured when timed is set; the counts above cost two atomic adds.
	writeWaitNs atomic.Int64
	// firstReadNs is the UnixNano of the first Read that returned bytes.
	firstReadNs atomic.Int64
}

func (s *sockStats) firstRead() (time.Time, bool) {
	ns := s.firstReadNs.Load()
	return time.Unix(0, ns), ns != 0
}

// countingConn counts what crosses a connection, from outside the layer
// that owns it: the client side is installed through ClientConfig.Dial, the
// proxy side through ProxyConfig.WrapConn.
type countingConn struct {
	net.Conn
	st    *sockStats
	timed bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.st.reads.Add(1)
		c.st.readBytes.Add(int64(n))
		if c.st.firstReadNs.Load() == 0 {
			c.st.firstReadNs.CompareAndSwap(0, time.Now().UnixNano())
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.timed {
		n, err := c.Conn.Write(p)
		c.st.writes.Add(1)
		c.st.writeBytes.Add(int64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeWaitNs.Add(int64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

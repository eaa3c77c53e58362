// Package determ_exempt stands in for the realClockPackages (parcelnet,
// netem, replay, leakcheck): wall-clock reads and global RNG are the point
// there, so the determinism analyzer must stay silent.
package determ_exempt

import (
	"math/rand"
	"time"
)

func deadline(timeout time.Duration) time.Time {
	return time.Now().Add(timeout)
}

func backoffJitter() time.Duration {
	return time.Duration(rand.Intn(100)) * time.Millisecond
}

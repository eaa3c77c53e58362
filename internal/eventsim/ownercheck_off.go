//go:build !simdebug

package eventsim

// The Simulator's single-goroutine ownership contract is checked only under
// -tags simdebug (see ownercheck_on.go); in normal builds these hooks compile
// to nothing and ownerCheck takes no space.

type ownerCheck struct{}

func (s *Simulator) claimOwner() {}

func (s *Simulator) checkOwner() {}

func (s *Simulator) enterQueue() {}

func (s *Simulator) exitQueue() {}

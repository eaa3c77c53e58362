//go:build !simdebug

package httpsim

// checkReqFree enforces the pendingReq pool ownership contract (no double
// frees) and checkIdle the dispatcher's idle counts. In normal builds they
// compile to nothing; build with -tags simdebug to make a violation panic
// (see pooldebug_on.go).

func checkReqFree(*pendingReq) {}

func checkIdle(*Client) {}

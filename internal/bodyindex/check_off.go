//go:build !simdebug

package bodyindex

// Check is false in normal builds: an index hit is trusted, as the body
// immutability contract allows. Build with -tags simdebug to re-compare every
// hit with the content map (see check_on.go).
const Check = false

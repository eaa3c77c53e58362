//go:build simdebug

package bodyindex

// Check is true under -tags simdebug: every index hit is re-compared with the
// owning memo's content map, so a body mutated after it was memoised panics
// at the lookup instead of replaying a stale artifact.
const Check = true

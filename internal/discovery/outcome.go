package discovery

import (
	"sync"
	"sync/atomic"

	"github.com/parcel-go/parcel/internal/minijs"
)

// The exec-outcome memo records what running a compiled script *does* — its
// op count, its buffered effects, and its net global-scope reads and writes —
// so hosts that execute the same script body thousands of times (every
// scheme, round, and batch member of a sweep; every tenant session of the TCP
// proxy) interpret it once and replay the outcome.
//
// Replay is only taken when it is provably bit-identical to execution:
//
//   - the recorded global read-set must match the replaying interpreter's
//     pre-state exactly (scalars by value, builtins by kind), so any
//     pre-state the script could branch on is re-validated;
//   - the recorded op delta must fit the replaying interpreter's op budget,
//     otherwise the script re-executes so the budget error surfaces at the
//     same op it would have without the memo;
//   - scripts that touch interpreter or host identity — setTimeout/onEvent
//     (capture closures), rand() without FixedRandom (consumes the host's
//     RNG), non-scalar global writes, or any runtime error — are marked
//     non-cacheable at record time and always re-execute.
//
// Recording goes through the same effect buffer as plain execution, and
// replay returns the recorded buffer for the same Apply, so an outcome is a
// pure function of (program, validated pre-state): whichever host recorded
// it, it replays identically on the other.

// globalRead is one observed dynamic-global read: the value (and presence)
// the recorded execution saw before writing the name itself.
type globalRead struct {
	name string
	v    minijs.Value
	ok   bool
}

// globalWrite is the final value a script left in a global, in first-write
// order.
type globalWrite struct {
	name string
	v    minijs.Value
}

// outcome is one recorded script execution. cacheable=false entries are
// kept so repeat executions skip the recording bookkeeping.
type outcome struct {
	cacheable        bool
	needsFixedRandom bool
	ops              int
	effects          []Effect
	reads            []globalRead
	writes           []globalWrite
}

// maxOutcomes bounds the memo the same way the artifact and program caches
// are bounded: on overflow the whole epoch is dropped and re-recorded on
// demand.
const maxOutcomes = 4096

var outcomes struct {
	sync.RWMutex
	m map[*minijs.Program]*outcome
}

// counters are the memo's hit/miss events, process-wide like the memo.
var counters struct {
	recorded, replayed, nonCacheable, misses atomic.Uint64
}

// MemoStats counts what Env.Run did with the scripts routed through the
// memo since the process started. Recorded + Replayed + NonCacheable +
// Misses is every memoised Run; all but Replayed interpreted the script.
type MemoStats struct {
	// Recorded is first sightings: the script executed while its outcome was
	// recorded (racing recorders of one program each count).
	Recorded uint64
	// Replayed is outcomes applied without interpreting the script.
	Replayed uint64
	// NonCacheable is re-executions of scripts recorded as touching
	// interpreter or host identity.
	NonCacheable uint64
	// Misses is re-executions of cacheable scripts whose recorded read-set,
	// FixedRandom requirement or op budget did not validate.
	Misses uint64
	// Programs is the number of distinct programs holding an outcome now.
	Programs int
}

// Stats returns the memo counters. Read-only: nothing in the system branches
// on them.
func Stats() MemoStats {
	outcomes.RLock()
	n := len(outcomes.m)
	outcomes.RUnlock()
	return MemoStats{
		Recorded:     counters.recorded.Load(),
		Replayed:     counters.replayed.Load(),
		NonCacheable: counters.nonCacheable.Load(),
		Misses:       counters.misses.Load(),
		Programs:     n,
	}
}

func loadOutcome(prog *minijs.Program) *outcome {
	outcomes.RLock()
	ent := outcomes.m[prog]
	outcomes.RUnlock()
	return ent
}

func storeOutcome(prog *minijs.Program, ent *outcome) {
	outcomes.Lock()
	if outcomes.m == nil || len(outcomes.m) >= maxOutcomes {
		outcomes.m = make(map[*minijs.Program]*outcome, 256)
	}
	// First recording wins; racing recorders of the same program produce
	// interchangeable entries (replay re-validates reads either way).
	if _, ok := outcomes.m[prog]; !ok {
		outcomes.m[prog] = ent
	}
	outcomes.Unlock()
}

// recorder collects one script execution's global read- and write-sets while
// the real run proceeds unchanged underneath it.
type recorder struct {
	cacheable        bool
	needsFixedRandom bool
	reads            []globalRead
	readSeen         map[string]bool
	written          map[string]bool
	writeOrder       []string
	// lastRead and lastWrite are the names the hooks saw last: a repeat
	// (a loop reading and writing one global) returns before the maps.
	lastRead, lastWrite string
}

// replay validates ent against the interpreter's current state and, on
// success, leaves the interpreter exactly as execution would have: ops
// charged, global writes bound. The caller applies ent.effects.
func (v *Env) replay(ent *outcome) bool {
	if ent.needsFixedRandom && !v.fixedRandom {
		return false
	}
	for i := range ent.reads {
		r := &ent.reads[i]
		cur, ok := v.in.Global(r.name)
		if ok != r.ok {
			return false
		}
		if !ok {
			continue
		}
		if r.v.IsScalar() {
			if !r.v.Equals(cur) {
				return false
			}
		} else if !r.v.SameKind(cur) {
			return false
		}
	}
	if !v.in.TryChargeOps(ent.ops) {
		return false
	}
	for i := range ent.writes {
		v.in.Bind(ent.writes[i].name, ent.writes[i].v)
	}
	return true
}

// record executes prog for real while collecting its outcome, then stores
// the (possibly non-cacheable) entry.
func (v *Env) record(prog *minijs.Program) ([]Effect, int, error) {
	rec := &recorder{
		cacheable: true,
		readSeen:  make(map[string]bool, 8),
		written:   make(map[string]bool, 8),
	}
	v.in.SetGlobalHooks(
		func(name string, val minijs.Value, ok bool) {
			if name == rec.lastRead {
				return
			}
			rec.lastRead = name
			if rec.written[name] || rec.readSeen[name] {
				return
			}
			rec.readSeen[name] = true
			if val.Closure() != nil {
				// Closures are interpreter-bound; a read of one cannot be
				// validated across interpreters.
				rec.cacheable = false
				return
			}
			rec.reads = append(rec.reads, globalRead{name: name, v: val, ok: ok})
		},
		func(name string) {
			if name == rec.lastWrite {
				return
			}
			rec.lastWrite = name
			if !rec.written[name] {
				rec.written[name] = true
				rec.writeOrder = append(rec.writeOrder, name)
			}
		})
	v.rec = rec
	before := v.in.Ops()
	err := v.in.Run(prog)
	v.rec = nil
	v.in.SetGlobalHooks(nil, nil)
	effects := v.takeEffects()

	ent := &outcome{
		cacheable:        rec.cacheable && err == nil,
		needsFixedRandom: rec.needsFixedRandom,
		ops:              v.in.Ops() - before,
		reads:            rec.reads,
	}
	for _, name := range rec.writeOrder {
		val, ok := v.in.Global(name)
		if !ok || !val.IsScalar() {
			// Deleted (impossible) or interpreter-bound final value: the
			// write cannot be transplanted into another interpreter.
			ent.cacheable = false
			break
		}
		ent.writes = append(ent.writes, globalWrite{name: name, v: val})
	}
	if ent.cacheable {
		ent.effects = effects
	} else {
		// Nothing replays this entry; do not pin its closures and strings.
		ent.reads, ent.writes = nil, nil
	}
	storeOutcome(prog, ent)
	return effects, ent.ops, err
}

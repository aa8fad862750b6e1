package core

import (
	"fmt"

	"fompi/internal/simnet"
)

// Passive-target synchronization: the paper's two-level lock hierarchy
// (§2.3 "Lock Synchronization", Fig. 3). One global lock word lives at a
// designated master (rank 0); one local lock word lives at every rank.
//
//	global word: high 32 bits = processes registered for exclusive locks,
//	             low 32 bits  = processes holding a lock-all (shared) epoch.
//	local word:  high bit     = writer (exclusive) flag,
//	             low 63 bits  = shared-lock reader count.
//
// Shared locks and lock-all complete in one remote atomic when uncontended;
// the first exclusive lock costs two (global registration + local CAS),
// later ones a single CAS. All waits use ideal exponential back-off.
const (
	lockMaster = 0
	writerBit  = uint64(1) << 63
	exclOne    = uint64(1) << 32 // one exclusive registration in the global word
)

// neg returns the two's-complement of x for subtracting via fetch-add.
func neg(x uint64) uint64 { return ^x + 1 }

// LockMode selects shared or exclusive process locks.
type LockMode int

// Lock modes of MPI_Win_lock.
const (
	LockShared LockMode = iota
	LockExclusive
)

func (w *Win) globalAddr() simnet.Addr { return w.ctlAddr(lockMaster, ctlGlobal) }

// Lock opens a passive-target access epoch on target (MPI_Win_lock).
func (w *Win) Lock(mode LockMode, target int) {
	if w.lockAll {
		panic("core: Lock inside a lock_all epoch")
	}
	if _, dup := w.lockedRanks[target]; dup {
		panic(fmt.Sprintf("core: rank %d already locked", target))
	}
	local := w.ctlAddr(target, ctlLocal)
	switch mode {
	case LockShared:
		// One fetch-and-add registers the reader; if a writer holds the
		// lock, spin (remotely, backed off) until it leaves. The
		// registration stays valid while waiting (§2.3).
		old := w.ep.FetchAdd(local, 1)
		if old&writerBit != 0 {
			w.ep.PollRemoteWord(local, func(v uint64) bool { return v&writerBit == 0 })
		}
	case LockExclusive:
		for {
			// Invariant 1: no lock-all epoch may be active. Skipped when
			// this origin already registered an exclusive wish.
			if w.exclHeld == 0 {
				for {
					old := w.ep.FetchAdd(w.globalAddr(), exclOne)
					if old&0xffffffff == 0 {
						break
					}
					// Back off: withdraw the wish, wait for readers to drain.
					w.ep.AddNBI(w.globalAddr(), neg(exclOne))
					w.ep.PollRemoteWord(w.globalAddr(), func(v uint64) bool {
						return v&0xffffffff == 0
					})
				}
			}
			// Invariant 2: acquire the target's local lock exclusively.
			if old := w.ep.CompareSwap(local, 0, writerBit); old == 0 {
				break
			}
			// Failed: release the global registration (lock-all epochs must
			// not starve) and retry both invariants, as in Fig. 3c.
			if w.exclHeld == 0 {
				w.ep.AddNBI(w.globalAddr(), neg(exclOne))
			}
			w.ep.PollRemoteWord(local, func(v uint64) bool { return v == 0 })
		}
		w.exclHeld++
	default:
		panic("core: unknown lock mode")
	}
	if w.lockedRanks == nil {
		w.lockedRanks = make(map[int]bool)
	}
	w.lockedRanks[target] = mode == LockExclusive
	w.epoch = epochPassive
}

// Unlock closes the passive-target epoch on target (MPI_Win_unlock): it
// completes all outstanding operations, then releases the lock with one
// atomic (plus one more for the last exclusive lock, §2.3).
func (w *Win) Unlock(target int) {
	excl, ok := w.lockedRanks[target]
	if !ok {
		panic(fmt.Sprintf("core: Unlock of rank %d without Lock", target))
	}
	w.ep.MemSync()
	w.ep.Gsync() // remote completion of the epoch's operations
	local := w.ctlAddr(target, ctlLocal)
	// The release atomics: the local lock, plus the global registration for
	// the last exclusive lock.
	if excl {
		w.ep.AddNBI(local, neg(writerBit))
		w.exclHeld--
		if w.exclHeld == 0 {
			w.ep.AddNBI(w.globalAddr(), neg(exclOne))
		}
	} else {
		w.ep.AddNBI(local, neg(1))
	}
	delete(w.lockedRanks, target)
	if len(w.lockedRanks) == 0 && !w.lockAll {
		w.epoch = epochNone
	}
}

// LockAll opens a shared lock on every rank of the window
// (MPI_Win_lock_all): a single atomic on the global word when no exclusive
// locks exist. The MPI-3.0 specification offers no exclusive lock-all.
func (w *Win) LockAll() {
	if w.lockAll {
		panic("core: nested LockAll")
	}
	if len(w.lockedRanks) != 0 {
		panic("core: LockAll while process locks held")
	}
	for {
		old := w.ep.FetchAdd(w.globalAddr(), 1)
		if old>>32 == 0 {
			break
		}
		// An exclusive lock is registered: back off and retry.
		w.ep.AddNBI(w.globalAddr(), neg(1))
		w.ep.PollRemoteWord(w.globalAddr(), func(v uint64) bool { return v>>32 == 0 })
	}
	w.lockAll = true
	w.epoch = epochPassive
}

// UnlockAll closes the lock-all epoch (MPI_Win_unlock_all).
func (w *Win) UnlockAll() {
	if !w.lockAll {
		panic("core: UnlockAll without LockAll")
	}
	w.ep.MemSync()
	w.ep.Gsync()
	w.ep.AddNBI(w.globalAddr(), neg(1))
	w.lockAll = false
	if len(w.lockedRanks) == 0 {
		w.epoch = epochNone
	}
}

// Flush completes all outstanding operations on target at both origin and
// target (MPI_Win_flush). foMPI's flush is a bulk completion regardless of
// target, adding stepsFlush instructions to the critical path (§2.3).
func (w *Win) Flush(target int) {
	_ = target // DMAPP gsync is bulk: per-target flush completes everything
	w.ep.Steps(stepsFlush)
	w.ep.Gsync()
}

// FlushAll completes all outstanding operations on every target.
func (w *Win) FlushAll() {
	w.ep.Steps(stepsFlush)
	w.ep.Gsync()
}

// FlushLocal completes operations locally: origin buffers are reusable but
// remote completion is not guaranteed (MPI_Win_flush_local).
func (w *Win) FlushLocal(target int) {
	_ = target
	w.ep.Steps(stepsFlush)
	w.ep.GsyncLocal()
}

// FlushLocalAll is FlushLocal for every target.
func (w *Win) FlushLocalAll() {
	w.ep.Steps(stepsFlush)
	w.ep.GsyncLocal()
}

// Sync synchronizes the private and public window copies
// (MPI_Win_sync — a processor memory fence in the unified model).
func (w *Win) Sync() {
	w.ep.Steps(stepsSync)
	w.ep.MemSync()
}

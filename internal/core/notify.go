package core

import (
	"fmt"

	"fompi/internal/simnet"
	"fompi/internal/timing"
)

// Notified access (the foMPI-NA extension of Belli & Hoefler, IPDPS'15):
// PutNotify and GetNotify behave like Put and Get but additionally deposit a
// tagged notification into the target's per-window ring once the data has
// landed. The target matches notifications by tag with WaitNotify and
// TestNotify — a single-word local poll — instead of closing a fence, PSCW,
// or lock epoch just to learn "the data has arrived". Both the delivery ring
// and the unmatched list are bounded by maxNotify, consistent with
// the paper's bounded-buffer discipline: overflow faults loudly.

// maxNotifyTag bounds tags to 31 bits: the notification word packs
// tag(31) | seq(32), with the top bit reserved by the fabric ring.
const maxNotifyTag = 1<<31 - 1

// packNotify builds the wire word from a tag and the origin's send sequence.
func packNotify(tag uint32, seq uint32) uint64 {
	return uint64(tag)<<32 | uint64(seq)
}

// notifyTag extracts the tag of a wire word.
func notifyTag(w uint64) uint32 { return uint32(w >> 32) }

// notifySeq extracts the origin send sequence of a wire word.
func notifySeqOf(w uint64) uint32 { return uint32(w) }

// checkTag validates a user tag.
func checkTag(tag uint32) {
	if tag > maxNotifyTag {
		panic(fmt.Sprintf("core: notification tag %d exceeds 31 bits", tag))
	}
}

// notifyRingAddr returns the fabric address of rank's notification ring.
func (w *Win) notifyRingAddr(rank int) simnet.Addr {
	return w.ctlAddr(rank, ctlNotifyRing)
}

// nextNotifyWord stamps one outgoing notification with this origin's
// monotone send counter (the "epoch counter" of the notification word;
// receivers use it to order or debug deliveries from one origin).
func (w *Win) nextNotifyWord(tag uint32) uint64 {
	checkTag(tag)
	w.notifySeq++
	return packNotify(tag, w.notifySeq)
}

// PutNotify transfers src into target's window at displacement disp and
// delivers a notification carrying tag into target's ring after the data is
// remotely complete (data-before-notification ordering). Like Put it is
// nonblocking and completed by the epoch's synchronization; the target needs
// only WaitNotify(tag) — no epoch close — to consume the data.
func (w *Win) PutNotify(src []byte, target, disp int, tag uint32) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet + stepsNotify)
	w.ep.PutNotify(w.addrOf(target, disp, len(src)), src, w.notifyRingAddr(target), w.nextNotifyWord(tag))
}

// GetNotify transfers target's window contents at disp into dst (blocking,
// like a completed Get) and notifies the *target* that its memory has been
// read — the notified-get that lets a producer reuse a buffer as soon as the
// consumer has fetched it.
func (w *Win) GetNotify(dst []byte, target, disp int, tag uint32) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet + stepsNotify)
	w.ep.GetNotify(dst, w.addrOf(target, disp, len(dst)), w.notifyRingAddr(target), w.nextNotifyWord(tag))
}

// Notify delivers a bare tagged notification with no data: the credit and
// doorbell primitive of pipelined protocols. Unlike PutNotify it needs no
// access epoch — it is a pure signal, like the synchronization protocols'
// own flag updates.
func (w *Win) Notify(target int, tag uint32) {
	w.ep.Steps(stepsNotify)
	w.ep.Notify(w.notifyRingAddr(target), w.nextNotifyWord(tag))
}

// pendingNotify is one popped-but-unmatched notification: its wire word and
// its virtual completion stamp, merged only when the entry is matched (the
// PSCW matching-list discipline — scanning past an entry you are not waiting
// for does not cost its completion time).
type pendingNotify struct {
	word  uint64
	stamp timing.Time
}

// drainNotify pops delivered notifications until the ring is empty or an
// entry matching tag appears; a match is consumed directly (stamp merged)
// rather than parked, so a consumer that is keeping up never faults on
// entries it is about to remove. Non-matching entries go to the bounded
// unmatched list, and exceeding it faults.
func (w *Win) drainNotify(tag uint32) (uint64, bool) {
	for {
		v, stamp, ok := w.notifyRing.TryPopStamped(w.ep)
		if !ok {
			return 0, false
		}
		if notifyTag(v) == tag {
			w.ep.AdvanceTo(stamp)
			return v, true
		}
		if len(w.notifyPending) >= maxNotify {
			panic(fmt.Sprintf("core: notification matching list exhausted (%d unmatched)", maxNotify))
		}
		w.notifyPending = append(w.notifyPending, pendingNotify{word: v, stamp: stamp})
	}
}

// takePending removes the oldest unmatched notification with the given tag,
// merging its completion stamp into the rank's clock.
func (w *Win) takePending(tag uint32) (uint64, bool) {
	for i, v := range w.notifyPending {
		if notifyTag(v.word) == tag {
			w.notifyPending = append(w.notifyPending[:i], w.notifyPending[i+1:]...)
			w.ep.AdvanceTo(v.stamp)
			return v.word, true
		}
	}
	return 0, false
}

// TestNotify consumes one notification matching tag if one has been
// delivered, returning the origin's send sequence. It never blocks: the
// MPI_Test-shaped half of the notified-access pair.
func (w *Win) TestNotify(tag uint32) (uint32, bool) {
	checkTag(tag)
	// Parked entries are older than anything still in the ring, so they
	// match first to preserve per-origin FIFO order within a tag.
	if v, ok := w.takePending(tag); ok {
		w.Sync()
		return notifySeqOf(v), true
	}
	if v, ok := w.drainNotify(tag); ok {
		w.Sync()
		return notifySeqOf(v), true
	}
	return 0, false
}

// WaitNotify blocks until a notification matching tag is delivered and
// consumes it, returning the origin's send sequence. The wait is a local
// single-word poll (producers ring the doorbell); consuming merges the
// notification's virtual completion stamp, so the announced data is visible
// afterward. Any epoch state is acceptable: the target side of notified
// access needs no epoch at all.
func (w *Win) WaitNotify(tag uint32) uint32 {
	checkTag(tag)
	var seq uint32
	// Drain and match inside the wait predicate: a ring entry whose ticket
	// is reserved but whose word is not yet published must put the consumer
	// back to sleep until the producer's doorbell, not spin.
	w.ep.WaitLocal(func() bool {
		if v, ok := w.takePending(tag); ok {
			seq = notifySeqOf(v)
			return true
		}
		if v, ok := w.drainNotify(tag); ok {
			seq = notifySeqOf(v)
			return true
		}
		return false
	})
	w.Sync()
	return seq
}

// PendingNotify reports how many delivered notifications are waiting
// (matched ring entries plus unmatched list), an instrumentation hook.
func (w *Win) PendingNotify() int {
	return w.notifyRing.Pending() + len(w.notifyPending)
}

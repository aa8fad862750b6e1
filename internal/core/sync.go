package core

import (
	"fmt"
	"slices"
	"sort"

	"fompi/internal/simnet"
)

// Fast-path software-step counts the paper reports (§2.3, §2.4, §6): the
// MPI library layer adds 150–200 x86 instructions above the raw fabric.
// They are charged to the Steps counter so the instruction-count experiment
// can report the critical-path overhead of each call.
const (
	stepsFlush  = 78  // all four flush variants share one implementation
	stepsPutGet = 173 // optimized contiguous fast path of MPI_Put/MPI_Get
	stepsSync   = 17
	stepsNotify = 41 // notified-access bookkeeping above the put/get fast path
)

// Fence finishes the previous access-and-exposure epoch and opens the next
// one for the whole window (MPI_Win_fence): commit all outstanding remote
// operations (mfence + DMAPP gsync), then a barrier. O(1) memory,
// O(log p) time (§2.3 "Fence").
func (w *Win) Fence() {
	if w.epoch == epochPassive {
		panic("core: Fence inside a passive-target epoch")
	}
	w.ep.MemSync()
	w.ep.Gsync()
	w.p.Barrier()
	w.epoch = epochFence
}

// groupCacheEnt memoizes one validated epoch group: arg is the caller's
// group argument as passed, val the sorted validated copy.
type groupCacheEnt struct {
	arg []int
	val []int
}

// groupCacheSize bounds the per-window group memo; epochs cycle through a
// handful of neighbor groups, and a miss only costs re-validation.
const groupCacheSize = 4

// checkGroup validates an epoch group argument and returns a sorted copy.
// Applications pass the same neighbor group to every Post/Start of their
// epoch loop, so validated groups are memoized by content: a hit is one O(k)
// comparison instead of an allocation and a sort per call. Callers must not
// mutate the returned slice.
func (w *Win) checkGroup(group []int) []int {
	for i := range w.groupCache {
		if e := &w.groupCache[i]; slices.Equal(e.arg, group) {
			return e.val
		}
	}
	g := append([]int(nil), group...)
	sort.Ints(g)
	for i, r := range g {
		if r < 0 || r >= w.p.Size() {
			panic(fmt.Sprintf("core: group rank %d out of range", r))
		}
		if i > 0 && g[i-1] == r {
			panic(fmt.Sprintf("core: duplicate rank %d in group", r))
		}
	}
	ent := groupCacheEnt{arg: append([]int(nil), group...), val: g}
	if len(w.groupCache) < groupCacheSize {
		w.groupCache = append(w.groupCache, ent)
	} else {
		w.groupCache[w.groupCacheRR] = ent
		w.groupCacheRR = (w.groupCacheRR + 1) % groupCacheSize
	}
	return g
}

// Post opens an exposure epoch for the ranks in group (MPI_Win_post).
// The poster announces itself by acquiring a free element in each group
// member's matching list — a remote fetch-and-add on the list's ticket
// counter followed by a put of its ticket and rank into the ticket's slot
// (the free-storage management protocol of Fig. 2c) — issuing O(k)
// messages and blocking never. The list is a ring of maxPosts slots, and
// its owner's Start enforces the bound.
func (w *Win) Post(group []int) {
	g := w.checkGroup(group)
	// Acquire all k tickets in one round trip: the fetch-adds are
	// independent, so they pipeline. The O(k) announcement draws its
	// ticket/handle scratch from the window's reusable pool.
	tickets := w.postTickets[:0]
	handles := w.fetchHandles[:0]
	for _, j := range g {
		v, h := w.ep.FetchOpNB(w.ctlAddr(j, ctlPostCount), simnet.AmoSum, 1)
		tickets = append(tickets, v)
		handles = append(handles, h)
	}
	for i, j := range g {
		w.ep.Wait(handles[i])
		// The slot's word: the ticket's low 32 bits, which Start compares
		// wrap-safe, over rank+1, so a written slot is never zero.
		w.ep.StoreW(w.ctlAddr(j, postSlot(tickets[i])), uint64(uint32(tickets[i]))<<32|uint64(w.p.Rank()+1))
	}
	w.postTickets, w.fetchHandles = tickets[:0], handles[:0]
	w.ep.Gsync()
	w.exposureQueue = append(w.exposureQueue, len(g))
}

// postSlot is the control-region offset of ticket t's matching-list slot.
func postSlot(t uint64) int { return ctlPostList + int(t%maxPosts)*8 }

// Start opens an access epoch to the ranks in group (MPI_Win_start): it
// blocks until every group member's post notification appears in the local
// matching list, consuming the matched entries. It scans only the
// unmatched tickets [postBase, counter) and moves postBase past the matched
// prefix. Zero remote operations, and no local writes (§2.3 "General Active
// Target Synchronization").
func (w *Win) Start(group []int) {
	if w.accessGroup != nil {
		panic("core: Start while an access epoch is open")
	}
	g := w.checkGroup(group)
	need := make(map[int]int, len(g)) // rank -> outstanding matches needed
	for _, r := range g {
		need[r]++
	}
	remaining := len(g)
	w.ep.WaitLocal(func() bool {
		n := w.ctl.LocalWord(ctlPostCount)
		if n-w.postBase > maxPosts {
			panic(fmt.Sprintf("core: matching list of rank %d overflowed: %d posts outstanding, bound %d", w.p.Rank(), n-w.postBase, maxPosts))
		}
		for t := w.postBase; t < n && remaining > 0; t++ {
			if w.consumed[t%maxPosts] {
				continue
			}
			v := w.ctl.LocalWord(postSlot(t))
			if d := int32(uint32(v>>32) - uint32(t)); v == 0 || d < 0 {
				continue // ticket taken, post not yet written
			} else if d > 0 {
				panic(fmt.Sprintf("core: matching list of rank %d overflowed: ticket %d's slot holds a later ticket, bound %d posts outstanding", w.p.Rank(), t, maxPosts))
			}
			if r := int(uint32(v)) - 1; need[r] > 0 {
				need[r]--
				w.consumed[t%maxPosts] = true
				remaining--
				w.ep.MergeStamp(w.ctl, postSlot(t), 8)
			}
		}
		return remaining == 0
	})
	for w.consumed[w.postBase%maxPosts] {
		w.consumed[w.postBase%maxPosts] = false
		w.postBase++
	}
	w.accessGroup = g
	w.epoch = epochAccess
}

// Complete closes the access epoch (MPI_Win_complete): it guarantees remote
// visibility of all issued RMA operations (gsync), then increments the
// completion counter at every accessed rank. O(k) messages.
func (w *Win) Complete() {
	if w.accessGroup == nil {
		panic("core: Complete without Start")
	}
	w.ep.MemSync()
	w.ep.Gsync()
	for _, j := range w.accessGroup {
		w.ep.AddNBI(w.ctlAddr(j, ctlComplete), 1)
	}
	w.ep.Gsync()
	w.accessGroup = nil
	w.epoch = epochNone
}

// WaitEpoch closes the oldest outstanding exposure epoch (MPI_Win_wait):
// it blocks until the local completion counter covers every rank of that
// epoch's group. Zero remote operations.
func (w *Win) WaitEpoch() {
	if len(w.exposureQueue) == 0 {
		panic("core: WaitEpoch without Post")
	}
	w.waitTarget += uint64(w.exposureQueue[0])
	w.exposureQueue = w.exposureQueue[1:]
	target := w.waitTarget
	w.ep.WaitLocal(func() bool { return w.ctl.LocalWord(ctlComplete) >= target })
	w.ep.MergeStamp(w.ctl, ctlComplete, 8)
}

// TestEpoch is the nonblocking MPI_Win_test.
func (w *Win) TestEpoch() bool {
	if len(w.exposureQueue) == 0 {
		panic("core: TestEpoch without Post")
	}
	if w.ctl.LocalWord(ctlComplete) < w.waitTarget+uint64(w.exposureQueue[0]) {
		return false
	}
	w.WaitEpoch() // completes immediately
	return true
}

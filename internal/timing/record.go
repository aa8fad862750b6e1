package timing

import (
	"sync/atomic"

	"fompi/internal/hostatomic"
)

// The two record writers. Each publishes stamp before epoch with release
// stores, so a reader that loads the new epoch and then the stamp finds the
// new stamp or a newer one. A release store is no fence: the stamps of a
// write are ordered before anyone can be told about it by what its caller
// stores next — the port's release store, whose generation a waiter reads
// before it looks, a ring's add, or the sequentially consistent value store
// of Region.LocalWordStore (DESIGN.md §6.1). On amd64 that makes a record
// one plain store where sync/atomic's would be a locked exchange.

// setWord records (v, e) in word i. The epoch is republished only when it
// changed, so a word rewritten with no fill in between costs one store.
func (s *Stamps) setWord(i int, v int64, e uint32) {
	hostatomic.StoreRel64(&s.words[i], v)
	if atomic.LoadUint32(&s.wEpoch[i]) != e {
		hostatomic.StoreRel32(&s.wEpoch[i], e)
	}
}

// fillNode records the fill (v, e) in node idx of level l.
func (s *Stamps) fillNode(l, idx int, v int64, e uint32) {
	lv := &s.lv[l-1]
	hostatomic.StoreRel64(&lv.fill[idx], v)
	hostatomic.StoreRel32(&lv.fEpoch[idx], e)
}

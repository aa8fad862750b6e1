package simnet

import "fompi/internal/timing"

// Profile holds the virtual-time cost parameters of one transport path
// (inter-node DMAPP-like or intra-node XPMEM-like) for one transport layer
// (foMPI, UPC, CAF, Cray MPI...). All values are nanoseconds unless noted.
//
// The model is LogGP-shaped: issuing an operation charges InjectNs to the
// issuing CPU; the payload then occupies the source and destination NICs for
// size*NsPerByte and completes remotely LatencyNs after departure. A small
// protocol-change knee (the "DMAPP protocol change" annotation in Figs. 4
// and 5 of the paper) adds SmallKneeNs to messages larger than SmallMax
// bytes, modelling the switch away from the NIC's native 1/4/8/16-byte ops.
type Profile struct {
	InjectNs    int64   // per-op CPU issue overhead (o)
	PutLatNs    int64   // first-byte latency for puts (completion after departure)
	GetLatNs    int64   // round-trip first-byte latency for gets
	NsPerByte   float64 // inverse bandwidth (G)
	AmoNs       int64   // remote completion latency of an 8-byte atomic
	AmoPerElNs  int64   // per-element cost of chained (bulk) atomics
	SmallMax    int     // largest "native chunk" message size
	SmallKneeNs int64   // extra latency for messages > SmallMax
	GsyncNs     int64   // local cost of a bulk-completion (flush) call
	SyncNs      int64   // local cost of a memory-consistency call (mfence)
	PollNs      int64   // cost of one local poll step
	NotifyNs    int64   // issue overhead of a notification riding a data op
	MatchNs     int64   // software overhead per message-passing match (MPI only)
	CopyNsPB    float64 // extra per-byte cost of eager buffer copies (MPI only)
}

// knee returns the protocol-change penalty for a message of n bytes.
func (p *Profile) knee(n int) int64 {
	if n > p.SmallMax {
		return p.SmallKneeNs
	}
	return 0
}

// xferNs returns the serialization (bandwidth) term for n bytes.
func (p *Profile) xferNs(n int) int64 {
	return int64(float64(n) * p.NsPerByte)
}

// CostModel selects the intra- or inter-node profile of one transport layer.
// A model is immutable once built: endpoints, worlds and launches share one
// by pointer and only read it, so no code may write to a *CostModel it did
// not just make.
type CostModel struct {
	Name  string
	Inter Profile
	Intra Profile
}

// For returns the profile governing communication with the given locality.
func (cm *CostModel) For(sameNode bool) *Profile {
	if sameNode {
		return &cm.Intra
	}
	return &cm.Inter
}

// Compute converts a wall-clock-style duration into virtual nanoseconds.
func Compute(d float64) timing.Time { return timing.Time(d) }

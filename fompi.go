// Package fompi is a Go reproduction of foMPI — the scalable MPI-3.0
// remote-memory-access (RMA) library of Gerstenberger, Besta and Hoefler,
// "Enabling Highly-Scalable Remote Memory Access Programming with MPI-3 One
// Sided" (SC'13) — together with the simulated RDMA substrate it runs on.
//
// Ranks are goroutines launched by Run; each receives a *Proc. Windows
// expose memory for one-sided access with the four MPI-3 flavours and all
// synchronization modes; the protocols underneath are the paper's: O(log p)
// window creation, free-storage-managed matching lists for general active
// target, and a two-level global/local lock hierarchy for passive target.
//
// A minimal program:
//
//	fompi.MustRun(fompi.Config{Ranks: 4}, func(p *fompi.Proc) {
//		win, mem := fompi.WinAllocate(p, 4096)
//		defer win.Free()
//		win.Fence()
//		if p.Rank() == 0 {
//			win.Put([]byte("hello"), 1, 0)
//		}
//		win.Fence()
//		_ = mem
//	})
//
// Beyond the SC'13 protocols, the library implements notified access (the
// foMPI-NA extension of Belli & Hoefler, IPDPS'15): Win.PutNotify and
// Win.GetNotify move data like Put/Get but additionally deposit a tagged
// notification in the target's bounded per-window ring once the data has
// landed, and the target consumes it with Win.WaitNotify / Win.TestNotify —
// a single-word local poll, with no fence, PSCW, or lock epoch on the
// consumer's critical path. Win.Notify sends a bare tag (credit/doorbell for
// pipelined protocols). Tags are 31-bit; WinConfig.MaxNotify bounds the ring
// and the unmatched list, and overflow faults loudly, consistent with the
// paper's bounded-buffer discipline.
//
// Every operation advances a per-rank virtual clock calibrated to the
// paper's Cray XE6 (Gemini) measurements; p.Now() reads it, so latency
// studies are reproducible on any host. See DESIGN.md and EXPERIMENTS.md.
package fompi

import (
	"os"

	"fompi/internal/core"
	"fompi/internal/datatype"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// Config describes an SPMD world: rank count, node width (ranks sharing the
// XPMEM fast path), optionally a non-default transport cost model, and the
// transport backend (Config.Backend). It sizes no collective memory: a rank's
// standing scratch is the O(log p) collective header, and an allgather (the
// one a traditional window's creation runs) registers its O(p) area for the
// call alone.
type Config = spmd.Config

// Backend selects the transport substrate of a world: BackendInProc runs
// ranks as goroutines over the in-process fabric, BackendMP runs each rank
// as an OS process with RMA and doorbells through a mmap-shared segment
// (only the control stream is a Unix socket), BackendNet runs each rank as
// an OS process on (potentially) a different machine with RMA as framed
// messages over TCP, and BackendHybrid groups the inter-node backend's ranks
// by physical host: co-located ranks share one mmap arena (direct
// loads/stores, shared windows), while off-host ranks are reached over the
// TCP wire (see internal/netrun, the one process transport the three names
// place ranks on, and cmd/fompi-run).
// Virtual time lives above the transport line, so checksums and virtual-time
// figures are bit-identical across backends.
type Backend = spmd.Backend

// Backend selectors for Config.Backend.
const (
	BackendInProc = spmd.BackendInProc
	BackendMP     = spmd.BackendMP
	BackendNet    = spmd.BackendNet
	BackendHybrid = spmd.BackendHybrid
)

// BackendFromEnv reads the FOMPI_BACKEND environment variable ("proc",
// "mp", "net" or "hybrid"; empty means in-process), the convention the
// cmd/fompi-run launcher and the examples use to select a backend without
// code changes.
func BackendFromEnv() Backend {
	return Backend(os.Getenv("FOMPI_BACKEND"))
}

// Typed shared-mapping errors (re-exported from the fabric): SharedSlice and
// WinAllocateShared fail wrapping ErrNotSameNode when the target rank is on
// another node, and SharedSlice fails wrapping ErrNotMapped when the backend
// cannot map a same-node target's memory into this process.
var (
	ErrNotSameNode = simnet.ErrNotSameNode
	ErrNotMapped   = simnet.ErrNotMapped
)

// Proc is one rank's handle: rank/size, virtual clock, collectives.
type Proc = spmd.Proc

// Win is an MPI-3 window handle.
type Win = core.Win

// WinConfig bounds a window's fixed protocol buffers.
type WinConfig = core.Config

// Time is a virtual-time instant or interval in nanoseconds.
type Time = timing.Time

// Datatype describes a (possibly non-contiguous) memory layout for PutD
// and GetD.
type Datatype = datatype.Datatype

// Lock modes of Win.Lock.
const (
	LockShared    = core.LockShared
	LockExclusive = core.LockExclusive
)

// Accumulate operators for Win.Accumulate, GetAccumulate and FetchAndOp.
const (
	AccSum     = core.AccSum
	AccBand    = core.AccBand
	AccBor     = core.AccBor
	AccBxor    = core.AccBxor
	AccReplace = core.AccReplace
	AccMin     = core.AccMin
	AccMax     = core.AccMax
	AccFSum    = core.AccFSum
	AccNoOp    = core.AccNoOp
)

// Run launches cfg.Ranks ranks executing body and waits for them; a rank
// panic aborts the world and is returned as an error. On the default
// in-process backend ranks are goroutines; with Config.Backend == BackendMP
// the calling process becomes a launcher that re-executes itself once per
// rank, and in those worker processes Run exits the process after body — so
// keep all per-rank output inside body (rank-0-guarded), as the examples do.
func Run(cfg Config, body func(*Proc)) error { return spmd.Run(cfg, body) }

// MustRun is Run but panics on error.
func MustRun(cfg Config, body func(*Proc)) { spmd.MustRun(cfg, body) }

// WinAllocate creates an allocated window (MPI_Win_allocate): library-
// provided symmetric memory, O(1) remote-addressing state. Collective.
func WinAllocate(p *Proc, size int) (*Win, []byte) {
	return core.Allocate(p, size, core.Config{})
}

// WinAllocateCfg is WinAllocate with explicit protocol-buffer bounds.
func WinAllocateCfg(p *Proc, size int, cfg WinConfig) (*Win, []byte) {
	return core.Allocate(p, size, cfg)
}

// WinCreate creates a traditional window (MPI_Win_create) over existing
// user memory; requires Ω(p) addressing state per rank and is kept for
// compatibility, as in the paper. Collective.
func WinCreate(p *Proc, buf []byte) *Win { return core.Create(p, buf, core.Config{}) }

// WinCreateDynamic creates a dynamic window (MPI_Win_create_dynamic); use
// Win.Attach/Win.Detach and PutDyn/GetDyn. Collective.
func WinCreateDynamic(p *Proc) *Win { return core.CreateDynamic(p, core.Config{}) }

// WinAllocateShared creates a shared-memory window
// (MPI_Win_allocate_shared); all ranks must share one node, and
// Win.SharedSlice gives direct load/store access. Collective.
func WinAllocateShared(p *Proc, size int) (*Win, []byte) {
	return core.AllocateShared(p, size, core.Config{})
}

// Derived-datatype constructors (the MPITypes-equivalent engine).
var (
	TypeByte    = datatype.Byte
	TypeInt32   = datatype.Int32
	TypeInt64   = datatype.Int64
	TypeUint64  = datatype.Uint64
	TypeFloat32 = datatype.Float32
	TypeDouble  = datatype.Double
)

// TypeContiguous is MPI_Type_contiguous.
func TypeContiguous(count int, elem *Datatype) *Datatype {
	return datatype.Contiguous(count, elem)
}

// TypeVector is MPI_Type_vector (counts and strides in elements).
func TypeVector(count, blocklen, stride int, elem *Datatype) *Datatype {
	return datatype.Vector(count, blocklen, stride, elem)
}

// TypeIndexed is MPI_Type_indexed.
func TypeIndexed(blocklens, displs []int, elem *Datatype) *Datatype {
	return datatype.Indexed(blocklens, displs, elem)
}

// TypeStruct is MPI_Type_create_struct (byte displacements).
func TypeStruct(blocklens, displs []int, types []*Datatype) *Datatype {
	return datatype.Struct(blocklens, displs, types)
}

// DefaultModel returns the calibrated foMPI transport cost model, useful
// for building a Config with modified constants.
func DefaultModel() *simnet.CostModel { return simnet.FoMPI() }

package transporttest

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"fompi/internal/core"
	"fompi/internal/spmd"
)

// The reference model: a seeded generator of legal RMA programs over one
// core window, a serial reference that folds each epoch, and a shrinker that
// cuts a failing program down to a minimal one and prints it as a Go test
// body. A legal program has exactly one final memory, and each get or
// single-origin fetch exactly one legal result, so any backend that returns
// something else is wrong — whatever the other backends say.

// programsFlag sets how many programs TestConformanceGeneratedPrograms runs
// per synchronization mode: its default is the fixed set the gate runs, a
// larger count is a soak (seeds 1..n, so a soak extends the fixed set).
var programsFlag = flag.Int("tt.programs", 60,
	"generated programs per synchronization mode in TestConformanceGeneratedPrograms")

// The program shape: 4 ranks (2 a node), one 16-word window each, 4 epochs
// of 40 operations.
const (
	genRanks  = 4
	genWords  = 16
	genEpochs = 4
	genOps    = 40
)

// genMode is a program's synchronization.
type genMode int

const (
	genFence      genMode = iota // Fence closes each epoch
	genLockAll                   // one LockAll; FlushAll and a barrier close each epoch
	genLockExcl                  // Lock(exclusive)/Unlock around each operation; a barrier closes each epoch
	genLockShared                // Lock(shared)/Unlock around each operation; a barrier closes each epoch
	genModes
)

var genModeName = [genModes]string{"genFence", "genLockAll", "genLockExcl", "genLockShared"}

// genKind is an operation's call.
type genKind int

const (
	genPut   genKind = iota // Put of V
	genGet                  // Get
	genAcc                  // Accumulate(Op, V)
	genFetch                // FetchAndOp(Op, V)
	genCas                  // CompareAndSwap(C, V)
)

var genKindName = [...]string{"genPut", "genGet", "genAcc", "genFetch", "genCas"}

var genAccName = map[core.AccOp]string{
	core.AccSum: "core.AccSum", core.AccBand: "core.AccBand", core.AccBor: "core.AccBor",
	core.AccBxor: "core.AccBxor", core.AccReplace: "core.AccReplace",
	core.AccMin: "core.AccMin", core.AccMax: "core.AccMax",
}

// genOp is one operation: Origin's call on word Word of Target's window.
type genOp struct {
	Origin, Target, Word int
	Kind                 genKind
	Op                   core.AccOp
	V, C                 uint64
}

func (o genOp) String() string {
	s := fmt.Sprintf("{Origin: %d, Target: %d, Word: %d, Kind: %s", o.Origin, o.Target, o.Word, genKindName[o.Kind])
	if o.Kind == genAcc || o.Kind == genFetch {
		s += ", Op: " + genAccName[o.Op]
	}
	if o.Kind != genGet {
		s += fmt.Sprintf(", V: %#x", o.V)
	}
	if o.Kind == genCas {
		s += fmt.Sprintf(", C: %#x", o.C)
	}
	return s + "}"
}

// genProgram is one generated program; Seed names it in reports.
type genProgram struct {
	Seed   uint64
	Mode   genMode
	Epochs [][]genOp
}

// goBody renders p as a Go test that replays it on every backend.
func (p genProgram) goBody() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func TestGeneratedRepro(t *testing.T) {\n")
	fmt.Fprintf(&b, "\tprog := genProgram{Seed: %d, Mode: %s, Epochs: [][]genOp{\n", p.Seed, genModeName[p.Mode])
	for _, ops := range p.Epochs {
		b.WriteString("\t\t{\n")
		for _, o := range ops {
			fmt.Fprintf(&b, "\t\t\t%v,\n", o)
		}
		b.WriteString("\t\t},\n")
	}
	b.WriteString("\t}}\n\trunPrograms(t, \"TestGeneratedRepro\", []genProgram{prog})\n}\n")
	return b.String()
}

// genMem is every rank's window, word by word.
type genMem [genRanks][genWords]uint64

// genInit is word w of rank r's window when a program starts.
func genInit(r, w int) uint64 { return mix64(uint64(r*genWords + w)) }

func genStart() (m genMem) {
	for r := range m {
		for w := range m[r] {
			m[r][w] = genInit(r, w)
		}
	}
	return m
}

// Each epoch gives every (rank, word) cell one class, so the epoch's
// operations on it commute or are alone.
const (
	cellUntouched = iota
	cellPut       // one Put
	cellGet       // Gets only
	cellAcc       // Accumulates and FetchAndOps of one commutative op
	cellCas       // one CompareAndSwap
	cellReplace   // one REPLACE, Accumulate or FetchAndOp
)

var genAccOps = [...]core.AccOp{core.AccSum, core.AccBand, core.AccBor, core.AccBxor, core.AccMin, core.AccMax}

// generate builds program seed in mode. Three cells in four stay untouched,
// so the operations crowd onto a few words and race there.
func generate(seed uint64, mode genMode) genProgram {
	rng := rand.New(rand.NewPCG(seed, uint64(mode)))
	prog := genProgram{Seed: seed, Mode: mode}
	mem := genStart()
	for e := 0; e < genEpochs; e++ {
		var class [genRanks][genWords]int
		var op [genRanks][genWords]core.AccOp
		var used [genRanks][genWords]bool
		var hot [][2]int
		for r := range class {
			for w := range class[r] {
				switch k := rng.IntN(48); {
				case k < 36:
					continue
				case k < 38:
					class[r][w] = cellPut
				case k < 40:
					class[r][w] = cellGet
				case k < 46:
					class[r][w] = cellAcc
					op[r][w] = genAccOps[rng.IntN(len(genAccOps))]
				case k < 47:
					class[r][w] = cellCas
				default:
					class[r][w] = cellReplace
				}
				hot = append(hot, [2]int{r, w})
			}
		}
		var ops []genOp
		for tries := 0; len(hot) > 0 && len(ops) < genOps && tries < 20*genOps; tries++ {
			c := hot[rng.IntN(len(hot))]
			r, w := c[0], c[1]
			o := genOp{Origin: rng.IntN(genRanks), Target: r, Word: w, V: rng.Uint64()}
			call := genAcc
			if rng.IntN(2) == 0 {
				call = genFetch
			}
			switch class[r][w] {
			case cellGet:
				o.Kind, o.V = genGet, 0
			case cellAcc:
				o.Kind, o.Op = call, op[r][w]
			default: // the single-operation classes
				if used[r][w] {
					continue
				}
				used[r][w] = true
				switch class[r][w] {
				case cellPut:
					o.Kind = genPut
				case cellCas:
					o.Kind, o.C = genCas, o.V^1
					if rng.IntN(2) == 0 {
						o.C = mem[r][w] // one that succeeds
					}
				case cellReplace:
					o.Kind, o.Op = call, core.AccReplace
				}
			}
			ops = append(ops, o)
		}
		prog.Epochs = append(prog.Epochs, ops)
		mem, _, _ = foldEpoch(mem, ops)
	}
	return prog
}

// refApply is op(t, v), the serial reference's arithmetic.
func refApply(op core.AccOp, t, v uint64) uint64 {
	switch op {
	case core.AccSum:
		return t + v
	case core.AccBand:
		return t & v
	case core.AccBor:
		return t | v
	case core.AccBxor:
		return t ^ v
	case core.AccReplace:
		return v
	case core.AccMin:
		return min(t, v)
	case core.AccMax:
		return max(t, v)
	}
	panic(fmt.Sprintf("reference: operator %d is not generated", op))
}

// foldEpoch is the serial reference: it applies one epoch's operations to
// the memory the epoch starts from, in list order (the cell classes make the
// order immaterial), and returns the memory it ends with. want[i] is
// operation i's fetched value when that value is the only legal one: every
// writer of its cell is its own origin, whose calls on one word are ordered.
func foldEpoch(start genMem, ops []genOp) (end genMem, want []uint64, checked []bool) {
	end = start
	var writers [genRanks][genWords]uint8 // a bit per origin that writes the cell
	for _, o := range ops {
		if o.Kind != genGet {
			writers[o.Target][o.Word] |= 1 << o.Origin
		}
	}
	want, checked = make([]uint64, len(ops)), make([]bool, len(ops))
	for i, o := range ops {
		cur := &end[o.Target][o.Word]
		want[i] = *cur
		others := writers[o.Target][o.Word] &^ (1 << o.Origin)
		checked[i] = o.Kind != genPut && o.Kind != genAcc && others == 0
		switch o.Kind {
		case genPut:
			*cur = o.V
		case genAcc, genFetch:
			*cur = refApply(o.Op, *cur, o.V)
		case genCas:
			if *cur == o.C {
				*cur = o.V
			}
		}
	}
	return end, want, checked
}

// run executes prog on this rank over w (whose local memory is mem) and
// returns the first disagreement with the reference it saw, "" if none. It
// makes every collective call whatever it sees, so the ranks stay in step.
func (prog genProgram) run(p *spmd.Proc, w *core.Win, mem []byte) string {
	me := p.Rank()
	var fail string
	note := func(e, i int, format string, args ...any) {
		if fail == "" {
			fail = fmt.Sprintf("seed %d mode %s: rank %d epoch %d op %d: %s",
				prog.Seed, genModeName[prog.Mode], me, e, i, fmt.Sprintf(format, args...))
		}
	}
	start := genStart()
	for wd := 0; wd < genWords; wd++ {
		binary.LittleEndian.PutUint64(mem[wd*8:], start[me][wd])
	}
	if prog.Mode == genFence {
		w.Fence()
	} else {
		p.Barrier()
	}
	if prog.Mode == genLockAll {
		w.LockAll()
	}
	for e, ops := range prog.Epochs {
		end, want, checked := foldEpoch(start, ops)
		got := make([]uint64, len(ops))
		bufs := make([][8]byte, len(ops))
		for i, o := range ops {
			if o.Origin != me {
				continue
			}
			if prog.Mode >= genLockExcl {
				mode := core.LockExclusive
				if prog.Mode == genLockShared {
					mode = core.LockShared
				}
				w.Lock(mode, o.Target)
			}
			binary.LittleEndian.PutUint64(bufs[i][:], o.V)
			disp := o.Word * 8
			switch o.Kind {
			case genPut:
				w.Put(bufs[i][:], o.Target, disp)
			case genGet:
				w.Get(bufs[i][:], o.Target, disp)
			case genAcc:
				w.Accumulate(o.Op, bufs[i][:], o.Target, disp)
			case genFetch:
				got[i] = w.FetchAndOp(o.Op, o.V, o.Target, disp)
			case genCas:
				got[i] = w.CompareAndSwap(o.C, o.V, o.Target, disp)
			}
			if prog.Mode >= genLockExcl {
				w.Unlock(o.Target)
			}
		}
		switch prog.Mode {
		case genFence:
			w.Fence()
		case genLockAll:
			w.FlushAll()
			p.Barrier()
		default:
			p.Barrier()
		}
		for i, o := range ops {
			if o.Origin != me || !checked[i] {
				continue
			}
			if o.Kind == genGet {
				got[i] = binary.LittleEndian.Uint64(bufs[i][:])
			}
			if got[i] != want[i] {
				note(e, i, "%v fetched %#x, want %#x", o, got[i], want[i])
			}
		}
		for wd := 0; wd < genWords; wd++ {
			if v := binary.LittleEndian.Uint64(mem[wd*8:]); v != end[me][wd] {
				last := -1
				for i, o := range ops {
					if o.Target == me && o.Word == wd {
						last = i
					}
				}
				note(e, last, "word %d holds %#x, want %#x", wd, v, end[me][wd])
			}
		}
		p.Barrier()
		start = end
	}
	if prog.Mode == genLockAll {
		w.UnlockAll()
	}
	return fail
}

// anyRank reports, to every rank, whether any rank's flag is set.
func anyRank(p *spmd.Proc, mine bool) bool {
	var v uint64
	if mine {
		v = 1
	}
	return p.Allreduce8(spmd.OpMax, v) == 1
}

// shrinkTries bounds the reruns that may reproduce a racy failure before a
// candidate counts as passing; shrinkBudget bounds the candidates tried.
const shrinkTries, shrinkBudget = 8, 400

// shrink cuts prog down while it still fails: whole epochs first, then runs
// of 16, 4 and finally single operations, last first. Every rank runs the
// same candidates and agrees on each verdict, so the search is collective.
func shrink(p *spmd.Proc, wins *[genModes]*core.Win, mems *[genModes][]byte, prog genProgram) genProgram {
	budget := shrinkBudget
	fails := func(cand genProgram) bool {
		budget--
		for t := 0; t < shrinkTries; t++ {
			if anyRank(p, cand.run(p, wins[cand.Mode], mems[cand.Mode]) != "") {
				return true
			}
		}
		return false
	}
	for e := len(prog.Epochs) - 1; e >= 0 && budget > 0 && len(prog.Epochs) > 1; e-- {
		cand := prog
		cand.Epochs = append(append([][]genOp{}, prog.Epochs[:e]...), prog.Epochs[e+1:]...)
		if fails(cand) {
			prog = cand
		}
	}
	for _, size := range []int{16, 4, 1} {
		for e := range prog.Epochs {
			for i := len(prog.Epochs[e]) - size; i > -size && budget > 0; i -= size {
				lo := max(i, 0)
				ops := prog.Epochs[e]
				cand := prog
				cand.Epochs = append([][]genOp{}, prog.Epochs...)
				cand.Epochs[e] = append(append([]genOp{}, ops[:lo]...), ops[i+size:]...)
				if fails(cand) {
					prog = cand
				}
			}
		}
	}
	return prog
}

// runPrograms runs progs in one world per backend leg, each mode over a
// window of its own. The first program to fail is shrunk inside the same
// world; rank 0 prints the minimal program as a Go test body and the rank
// that saw the original failure fails the world with it.
func runPrograms(t *testing.T, name string, progs []genProgram) {
	t.Helper()
	cfg := spmd.Config{Ranks: genRanks, RanksPerNode: 2}
	eachBackendLeg(t, name, cfg, func(label string, c spmd.Config) {
		if c.MPRelaunch != nil {
			// A worker re-executes this test: it must generate the same set.
			c.MPRelaunch = append(c.MPRelaunch, fmt.Sprintf("-tt.programs=%d", *programsFlag))
		}
		err := spmd.Run(c, func(p *spmd.Proc) {
			var wins [genModes]*core.Win
			var mems [genModes][]byte
			for m := range wins {
				wins[m], mems[m] = core.Allocate(p, genWords*8, core.Config{})
			}
			for _, prog := range progs {
				msg := prog.run(p, wins[prog.Mode], mems[prog.Mode])
				if !anyRank(p, msg != "") {
					continue
				}
				mine := uint64(genRanks)
				if msg != "" {
					mine = uint64(p.Rank())
				}
				first := int(p.Allreduce8(spmd.OpMin, mine))
				small := shrink(p, &wins, &mems, prog)
				if p.Rank() == 0 {
					ops := 0
					for _, e := range small.Epochs {
						ops += len(e)
					}
					fmt.Fprintf(os.Stderr, "%s: seed %d mode %s shrinks to %d operations:\n%s",
						name, prog.Seed, genModeName[prog.Mode], ops, small.goBody())
				}
				if p.Rank() == first {
					panic(msg)
				}
				return
			}
			for _, w := range wins {
				w.Free()
			}
		})
		if err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
	})
}

// TestConformanceGeneratedPrograms runs -tt.programs generated programs per
// synchronization mode on every backend against the serial reference.
func TestConformanceGeneratedPrograms(t *testing.T) {
	var progs []genProgram
	for m := genMode(0); m < genModes; m++ {
		for s := 1; s <= *programsFlag; s++ {
			progs = append(progs, generate(uint64(s), m))
		}
	}
	runPrograms(t, "TestConformanceGeneratedPrograms", progs)
}

package transporttest

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fompi/internal/core"
	"fompi/internal/spmd"
)

// The reference model: a seeded generator of legal RMA programs over one
// core window, a serial-order checker that judges each epoch word by word,
// and a shrinker that cuts a failing program down to a minimal one and
// prints it as a Go test body. MPI-3 makes the accumulate-class calls on one
// location with one operator (and NO_OP) atomic, so an epoch's history of a
// word must be explained by some serial order of its operations that keeps
// each origin's program order: every fetched value, every compare-and-swap
// outcome and the word the epoch leaves. A backend whose history no such
// order explains is wrong — whatever the other backends say.

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
	genFetch                // FetchAndOp(Op, V); Op may be NO_OP
	genCas                  // CompareAndSwap(C, V)
)

var genKindName = [...]string{"genPut", "genGet", "genAcc", "genFetch", "genCas"}

var genAccName = map[core.AccOp]string{
	core.AccSum: "core.AccSum", core.AccBand: "core.AccBand", core.AccBor: "core.AccBor",
	core.AccBxor: "core.AccBxor", core.AccReplace: "core.AccReplace",
	core.AccMin: "core.AccMin", core.AccMax: "core.AccMax", core.AccNoOp: "core.AccNoOp",
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

// Each epoch gives every (rank, word) cell one class: what may race on one
// word is what MPI-3 defines (§11.7.1) — accumulate-class calls of one
// operator and NO_OP, never a put beside another access.
const (
	cellUntouched = iota
	cellPut       // one Put
	cellGet       // Gets only
	cellAcc       // Accumulates and FetchAndOps of one op, NO_OP fetches, and CompareAndSwaps when the op rides the atomic unit
)

// genAccOps are the operators of an accumulate cell; MIN and MAX take
// core's lock fallback, which no compare-and-swap may race.
var genAccOps = [...]core.AccOp{core.AccSum, core.AccBand, core.AccBor, core.AccBxor, core.AccReplace, core.AccMin, core.AccMax}

// generate builds program seed in mode. Three cells in four stay untouched,
// so the operations crowd onto a few words and race there. A
// compare-and-swap compares with the word the operations before it in list
// order leave, half the time, so some of the racing ones succeed.
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
				default:
					class[r][w] = cellAcc
					op[r][w] = genAccOps[rng.IntN(len(genAccOps))]
				}
				hot = append(hot, [2]int{r, w})
			}
		}
		var ops []genOp
		for tries := 0; len(hot) > 0 && len(ops) < genOps && tries < 20*genOps; tries++ {
			c := hot[rng.IntN(len(hot))]
			r, w := c[0], c[1]
			o := genOp{Origin: rng.IntN(genRanks), Target: r, Word: w, V: rng.Uint64()}
			switch class[r][w] {
			case cellPut:
				if used[r][w] {
					continue
				}
				used[r][w] = true
				o.Kind = genPut
			case cellGet:
				o.Kind, o.V = genGet, 0
			case cellAcc:
				o.Kind, o.Op = genAcc, op[r][w]
				switch k := rng.IntN(6); {
				case k < 2:
					o.Kind = genFetch
				case k == 2:
					o.Kind, o.Op = genFetch, core.AccNoOp
				case k < 5 && op[r][w] != core.AccMin && op[r][w] != core.AccMax:
					o.Kind, o.Op, o.C = genCas, 0, o.V^1
					if rng.IntN(2) == 0 {
						o.C = mem[r][w]
					}
				}
			}
			_, mem[r][w] = o.step(mem[r][w])
			ops = append(ops, o)
		}
		prog.Epochs = append(prog.Epochs, ops)
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
	case core.AccNoOp:
		return t
	}
	panic(fmt.Sprintf("reference: operator %d is not generated", op))
}

// fetches reports whether o returns the word it finds.
func (o genOp) fetches() bool { return o.Kind == genGet || o.Kind == genFetch || o.Kind == genCas }

// step runs o serially on a word holding cur: it returns the value o
// fetches (when it fetches) and the word o leaves.
func (o genOp) step(cur uint64) (fetched, next uint64) {
	switch o.Kind {
	case genPut:
		return cur, o.V
	case genAcc, genFetch:
		return cur, refApply(o.Op, cur, o.V)
	case genCas:
		if cur == o.C {
			return cur, o.V
		}
	}
	return cur, cur
}

// linearizable reports whether some serial order of ops — one word's
// operations in an epoch, each origin's in its program order — takes the
// word from start to end while every fetching op fetches its got. It is
// Wing and Gong's search with Lowe's memo: a state is the set of operations
// done and the word's value, and a state once found dead is not searched
// again. At most 64 operations: the set is a bit mask.
func linearizable(start, end uint64, ops []genOp, got []uint64) bool {
	if len(ops) > 64 {
		panic("reference: more than 64 operations on one word")
	}
	var chains [genRanks][]int // each origin's operations, in program order
	for i, o := range ops {
		chains[o.Origin] = append(chains[o.Origin], i)
	}
	type state struct{ done, v uint64 }
	dead := map[state]bool{}
	var next [genRanks]int // each origin's first operation not done
	var search func(done, v uint64) bool
	search = func(done, v uint64) bool {
		if done == 1<<len(ops)-1 {
			return v == end
		}
		if dead[state{done, v}] {
			return false
		}
		for r, chain := range chains {
			if next[r] == len(chain) {
				continue
			}
			i := chain[next[r]]
			fetched, after := ops[i].step(v)
			if ops[i].fetches() && fetched != got[i] {
				continue
			}
			next[r]++
			ok := search(done|1<<i, after)
			next[r]--
			if ok {
				return true
			}
		}
		dead[state{done, v}] = true
		return false
	}
	return search(0, start)
}

// checkEpoch judges the epoch's history of every word of target's window:
// start is the window the epoch began from, end the one it left, got[i]
// operation i's fetched value. It returns the first word no serial order
// explains and the index of the last operation on it (-1 if none touched
// it), or ok.
func checkEpoch(target int, start, end *[genWords]uint64, ops []genOp, got []uint64) (word, last int, ok bool) {
	for wd := 0; wd < genWords; wd++ {
		var cell []genOp
		var cellGot []uint64
		last = -1
		for i, o := range ops {
			if o.Target == target && o.Word == wd {
				cell, cellGot, last = append(cell, o), append(cellGot, got[i]), i
			}
		}
		if !linearizable(start[wd], end[wd], cell, cellGot) {
			return wd, last, false
		}
	}
	return 0, 0, true
}

// genMutation plants a known atomicity bug in how run issues an operation,
// so that a test can show the checker catches it (the mutation tests set it
// around an in-process world; every other run leaves it at mutNone).
type genMutation int

const (
	mutNone         genMutation = iota
	mutFetchOutside             // a FetchAndOp loads the word outside the atomic unit, then accumulates
	mutStaleCas                 // a CompareAndSwap compares against a word it read earlier, then puts
	mutLostUpdate               // an Accumulate gets, applies and puts back beside the atomic unit (the lost same-op update)
)

var mutation = mutNone

// issue makes o's call on w through the buffer buf and returns what it
// fetched, as mutation says.
func (o genOp) issue(w *core.Win, buf []byte) uint64 {
	disp := o.Word * 8
	binary.LittleEndian.PutUint64(buf, o.V)
	// A mutation reads, yields — so a rival can land in the gap — and writes.
	readThenWrite := func(next func(cur uint64) uint64) uint64 {
		cur := w.FetchAndOp(core.AccNoOp, 0, o.Target, disp)
		runtime.Gosched()
		if v := next(cur); v != cur {
			binary.LittleEndian.PutUint64(buf, v)
			w.Put(buf, o.Target, disp)
		}
		return cur
	}
	switch {
	case mutation == mutFetchOutside && o.Kind == genFetch && o.Op != core.AccNoOp:
		cur := w.FetchAndOp(core.AccNoOp, 0, o.Target, disp)
		runtime.Gosched()
		w.Accumulate(o.Op, buf, o.Target, disp)
		return cur
	case mutation == mutStaleCas && o.Kind == genCas:
		return readThenWrite(func(cur uint64) uint64 { _, next := o.step(cur); return next })
	case mutation == mutLostUpdate && o.Kind == genAcc:
		readThenWrite(func(cur uint64) uint64 { return refApply(o.Op, cur, o.V) })
		return 0
	}
	switch o.Kind {
	case genPut:
		w.Put(buf, o.Target, disp)
	case genGet:
		w.Get(buf, o.Target, disp)
	case genAcc:
		w.Accumulate(o.Op, buf, o.Target, disp)
	case genFetch:
		return w.FetchAndOp(o.Op, o.V, o.Target, disp)
	case genCas:
		return w.CompareAndSwap(o.C, o.V, o.Target, disp)
	}
	return 0
}

// run executes prog on this rank over w (whose local memory is mem) and
// returns the first disagreement with the reference it saw, "" if none. It
// makes every collective call whatever it sees, so the ranks stay in step.
// After each epoch the ranks allgather what their operations fetched and
// the windows they were left, and each rank judges the words of its own
// window.
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
	var buf [8]byte
	for e, ops := range prog.Epochs {
		// This rank's block: what its operations fetched, then its window.
		block := make([]byte, (len(ops)+genWords)*8)
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
			got := o.issue(w, buf[:])
			if prog.Mode >= genLockExcl {
				w.Unlock(o.Target)
			}
			if o.Kind == genGet {
				got = binary.LittleEndian.Uint64(buf[:])
			}
			binary.LittleEndian.PutUint64(block[i*8:], got)
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
		copy(block[len(ops)*8:], mem[:genWords*8])
		// No rank issues the next epoch before every rank has read its
		// window: the allgather completes only once all have joined it.
		all := p.Allgather(block)
		each := len(block)
		got := make([]uint64, len(ops))
		for i, o := range ops {
			got[i] = binary.LittleEndian.Uint64(all[o.Origin*each+i*8:])
		}
		var end genMem
		for r := range end {
			for wd := range end[r] {
				end[r][wd] = binary.LittleEndian.Uint64(all[r*each+(len(ops)+wd)*8:])
			}
		}
		if wd, last, ok := checkEpoch(me, &start[me], &end[me], ops, got); !ok {
			note(e, last, "no serial order of the operations on word %d explains what they fetched and that it went from %#x to %#x",
				wd, start[me][wd], end[me][wd])
		}
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
// synchronization mode on every backend against the serial-order checker.
func TestConformanceGeneratedPrograms(t *testing.T) {
	var progs []genProgram
	for m := genMode(0); m < genModes; m++ {
		for s := 1; s <= *programsFlag; s++ {
			progs = append(progs, generate(uint64(s), m))
		}
	}
	runPrograms(t, "TestConformanceGeneratedPrograms", progs)
}

// firstFailure runs progs in one in-process world, in order, and returns
// the first disagreement any rank saw, "" if none.
func firstFailure(t *testing.T, progs []genProgram) string {
	t.Helper()
	var mu sync.Mutex
	var first string
	err := spmd.Run(spmd.Config{Ranks: genRanks, RanksPerNode: 2}, func(p *spmd.Proc) {
		var wins [genModes]*core.Win
		var mems [genModes][]byte
		for m := range wins {
			wins[m], mems[m] = core.Allocate(p, genWords*8, core.Config{})
		}
		for _, prog := range progs {
			msg := prog.run(p, wins[prog.Mode], mems[prog.Mode])
			if msg != "" {
				mu.Lock()
				if first == "" {
					first = msg
				}
				mu.Unlock()
			}
			if anyRank(p, msg != "") {
				break
			}
		}
		for _, w := range wins {
			w.Free()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return first
}

// TestCheckerCatchesMutations plants three atomicity bugs in how the
// programs' calls are made and requires the checker to fail some program of
// the fixed set for each: a fetch that loads outside the atomic unit, a
// compare-and-swap that compares against a stale read, and an accumulate
// whose get-modify-put races the atomic unit (the lost same-op update of a
// size-dispatched accumulate). Each mutant yields between its read and its
// write, so a rival's operation can land there on any host.
func TestCheckerCatchesMutations(t *testing.T) {
	var progs []genProgram
	for s := 1; s <= *programsFlag; s++ {
		for m := genMode(0); m < genModes; m++ {
			progs = append(progs, generate(uint64(s), m))
		}
	}
	for _, c := range []struct {
		mut  genMutation
		name string
	}{
		{mutFetchOutside, "a fetch outside the atomic unit"},
		{mutStaleCas, "a compare-and-swap against a stale read"},
		{mutLostUpdate, "an accumulate beside the atomic unit"},
	} {
		mutation = c.mut
		msg := firstFailure(t, progs)
		mutation = mutNone
		if msg == "" {
			t.Errorf("%s: %d programs passed the checker", c.name, len(progs))
		} else {
			t.Logf("%s: %s", c.name, msg)
		}
	}
}

// FuzzGeneratedProgram runs the program a fuzzed seed and mode generate on
// the in-process backend against the serial-order checker. go test runs the
// seed corpus below; `go test -run '^$' -fuzz FuzzGeneratedProgram
// ./internal/transporttest` explores.
func FuzzGeneratedProgram(f *testing.F) {
	for _, s := range []uint64{7, 61, 1 << 20, 1<<63 + 5} {
		f.Add(s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8) {
		prog := generate(seed, genMode(mode)%genModes)
		if msg := firstFailure(t, []genProgram{prog}); msg != "" {
			t.Fatalf("%s\n%s", msg, prog.goBody())
		}
	})
}

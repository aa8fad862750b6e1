// Command benchmark is the repository's host-time benchmark: one script of
// RMA, synchronisation and application kinds run on six world
// configurations spanning all four transport backends, with verified
// outputs. See README.md for the metrics, the estimator and how to run it.
//
// Cross-process worlds re-execute this binary as their rank processes
// (spmd.Config.MPRelaunch), so it must be built to a real file; run.sh does
// that. Rank 0 returns its results through a file named on the relaunch
// command line.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fompi/internal/core"
	"fompi/internal/spmd"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string // directory for result and trace files: the one holding the binary
	// Set only on the command line of a re-executed rank process.
	world  string
	result string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (README.md lists the six); empty runs the full set")
	flag.StringVar(&o.workload, "only", "", "alias of -workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the offset streams, patterns, hashtable keys and stencil field")
	flag.Float64Var(&o.seconds, "seconds", 7.5, "seconds of measurement per run (the default fits the full set's 12 runs into 100 s)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "smallest block sizes (smoke tests)")
	flag.StringVar(&o.world, "world", "", "internal: the world a re-executed rank process joins")
	flag.StringVar(&o.result, "result", "", "internal: file rank 0 writes its results to")
	selfcheck := flag.Bool("selfcheck", false, "run every workload of BENCHMARK.json twice and hold each bounded metric's gap against its bound")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	o.out = filepath.Dir(exe)
	b := &bench{o: o, exe: exe}
	switch {
	case o.world != "":
		// A rank process: join the world named on the command line. spmd.Run
		// executes the body for this process's rank and exits.
		b.wl = findWorkload(o.workload)
		if b.wl == nil {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		_, err := b.runWorld(o.world, o.seconds)
		fatal(fmt.Errorf("rank process returned from its world: %v", err))
	case *selfcheck:
		os.Exit(b.selfcheck())
	case o.workload == "":
		os.Exit(b.fullSet())
	}
	b.wl = findWorkload(o.workload)
	if b.wl == nil {
		fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	// A world that hangs must not outlive the run: past the limit, kill the
	// rank processes and fail without a result.
	time.AfterFunc(time.Duration(o.seconds+90)*time.Second, func() {
		killChildren()
		fatal(fmt.Errorf("%s: no result after %.0f s", o.workload, o.seconds+90))
	})
	res, err := b.runWorkload()
	if err != nil {
		fatal(err)
	}
	res.print(os.Stderr)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// bench is one invocation's state.
type bench struct {
	o   options
	exe string
	wl  *workload
}

// envHeader is the environment every result carries.
type envHeader struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"` // what carried inter-rank traffic
	Placement  string `json:"placement"`
}

func (b *bench) env() envHeader {
	e := envHeader{Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: "unknown", Link: "in-process memory", Placement: "goroutines, not pinned"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		e.Kernel = sb.String()
	}
	if !b.wl.inproc() {
		e.Placement = fmt.Sprintf("every rank process pinned to cpu %d", firstCPU())
	}
	switch b.wl.backend {
	case spmd.BackendMP:
		e.Link = "shared memory + Unix sockets, one host"
	case spmd.BackendNet:
		e.Link = "TCP over host loopback"
	case spmd.BackendHybrid:
		e.Link = "shared memory + TCP over host loopback"
	}
	return e
}

// World sorts.
const (
	worldSetup  = "setup"  // open the script's window, pass the first barrier, leave
	worldEmpty  = "empty"  // spmd.Run with an empty body
	worldScript = "script" // the script, on the workload's backend
	worldRef    = "ref"    // the script's fixed-size prefix on the in-process fabric
	worldHT     = "ht"     // the paced hashtable
)

// runWorld launches one world of the given sort and returns rank 0's
// results and the launch instant. In a re-executed rank process it joins
// the world instead and never returns.
func (b *bench) runWorld(which string, seconds float64) (worldOut, error) {
	wl := *b.wl
	cfg := scriptCfg{Seed: b.o.seed, Seconds: seconds, Trace: b.o.trace != 0, Quick: b.o.quick}
	pace := int64(0)
	switch which {
	case worldRef:
		wl.backend = spmd.BackendInProc
		cfg.Seconds = 0
	case worldHT:
		pace = htPaceNs
	}
	result := b.o.result
	if result == "" {
		result = filepath.Join(b.o.out, fmt.Sprintf("result-%s-%d.json", wl.name, os.Getpid()))
	}
	argv := []string{b.exe, "-workload", wl.name, "-seed", strconv.FormatInt(b.o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(b.o.trace),
		"-world", which, "-result", result}
	if b.o.quick {
		argv = append(argv, "-quick")
	}

	var out worldOut
	launched := time.Now().UnixNano()
	err := spmd.Run(wl.spmdConfig(pace, argv), func(p *spmd.Proc) {
		if !wl.inproc() {
			pinProcess() // see pin.go
		}
		var o worldOut
		switch which {
		case worldSetup:
			w, _ := openWindow(p, &wl, cfg.Seed)
			if p.Rank() == 0 {
				o.ReadyUnixNano = time.Now().UnixNano()
			}
			w.Free()
		case worldEmpty:
		case worldScript, worldRef:
			runScript(p, &wl, cfg, &o)
		case worldHT:
			runHashtable(p, &wl, cfg, &o)
		}
		if p.Rank() != 0 {
			return
		}
		if wl.inproc() {
			out = o
		} else if err := writeJSON(result, o); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return out, fmt.Errorf("%s world of %s: %w", which, wl.name, err)
	}
	if !wl.inproc() {
		raw, err := os.ReadFile(result)
		if err != nil {
			return out, fmt.Errorf("%s world of %s: rank 0 left no result: %w", which, wl.name, err)
		}
		os.Remove(result)
		if err := json.Unmarshal(raw, &out); err != nil {
			return out, fmt.Errorf("%s world of %s: %w", which, wl.name, err)
		}
	}
	out.launchedUnixNano = launched
	return out, nil
}

// openWindow allocates the script's window — full size on the origin and
// its targets, the small control part elsewhere — fills the rank's
// read-only pattern and passes the first barrier.
func openWindow(p *spmd.Proc, wl *workload, seed int64) (*core.Win, []byte) {
	size := smallWin
	if p.Rank() == 0 || wl.isTarget(p.Rank()) {
		size = fullWin
	}
	w, mem := core.Allocate(p, size, core.Config{})
	for i := 0; i < slots; i++ {
		binary.LittleEndian.PutUint64(mem[getOff+8*i:], patternWord(seed, p.Rank(), i))
	}
	p.Barrier()
	return w, mem
}

// result is one run of one workload.
type result struct {
	wl        *workload
	env       envHeader
	trace     bool
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

// Time shares of -seconds. An untraced run repeats the set-up launches;
// a workload with a hashtable world gives it its share; the script world
// has the rest.
const (
	setupShare = 0.15
	htShare    = 0.3
)

// runWorkload makes one run: set-up samples, the script world, the
// in-process reference for the virtual-time fixed point, the hashtable
// world, and the teardown check.
func (b *bench) runWorkload() (*result, error) {
	if err := os.MkdirAll(b.o.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{wl: b.wl, env: b.env(), trace: b.o.trace != 0, metrics: map[string]float64{}}
	merge := func(out worldOut) {
		for k, v := range out.Metrics {
			res.metrics[k] = v
		}
		res.attempted += out.Attempted
		res.failed += out.Failed
		res.notes = append(res.notes, out.Notes...)
	}

	// Set-up time: launcher entry to rank 0 past window allocation and the
	// first barrier, the median over repeated launches. The launches fill
	// two windows of time, one before the script world and one after it: an
	// in-process launch takes tens of microseconds, and a few hundred of
	// them back to back would all see the host in one mood. A traced run
	// reports the bare spmd.Run of an empty body instead, three launches.
	var setups, launches []float64
	launchSort, window := worldSetup, time.Duration(b.o.seconds*setupShare/2*float64(time.Second))
	if res.trace {
		launchSort, window = worldEmpty, 0
	}
	sampleLaunches := func() error {
		until := time.Now().Add(window)
		for i := 0; i < 3 || time.Now().Before(until); i++ {
			t0 := time.Now()
			out, err := b.runWorld(launchSort, 0)
			if err != nil {
				return err
			}
			launches = append(launches, float64(time.Since(t0))/1e6)
			setups = append(setups, float64(out.ReadyUnixNano-out.launchedUnixNano)/1e9)
		}
		return nil
	}
	if err := sampleLaunches(); err != nil {
		return nil, err
	}

	ru0 := cpuTimes()
	scriptSeconds := b.o.seconds
	if !res.trace {
		scriptSeconds -= b.o.seconds * setupShare
	}
	if b.wl.htInserts > 0 {
		scriptSeconds -= b.o.seconds * htShare
	}
	script, err := b.runWorld(worldScript, scriptSeconds)
	if err != nil {
		return nil, err
	}
	ru1 := cpuTimes()
	merge(script)
	if !res.trace {
		setups = append(setups, float64(script.ReadyUnixNano-script.launchedUnixNano)/1e9)
		if err := sampleLaunches(); err != nil {
			return nil, err
		}
	}

	// The cross-backend fixed point: the script's fixed-size prefix leaves
	// rank 0's virtual clock at the same value on every backend.
	ref, err := b.runWorld(worldRef, 0)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if ref.PrefixVClock != script.PrefixVClock || ref.Failed != 0 {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("virtual clock after the prefix: %d on %s, %d on the in-process fabric",
			script.PrefixVClock, b.wl.backend, ref.PrefixVClock))
	}

	if b.wl.htInserts > 0 {
		ht, err := b.runWorld(worldHT, b.o.seconds*htShare)
		if err != nil {
			return nil, err
		}
		merge(ht)
	}
	if res.trace {
		res.metrics["spmd.launch_ms"] = median(launches)
		cpu := (ru1.user + ru1.sys) - (ru0.user + ru0.sys)
		res.metrics["host.cpu_us_per_op"] = ratio(cpu*1e6, float64(script.Attempted))
		res.metrics["host.sys_cpu_share"] = ratio(ru1.sys-ru0.sys, cpu)
		localProbes(res.metrics)
		tf := traceFile{Workload: b.wl.name, Env: res.env, Spans: script.Spans, Dropped: script.SpansDropped,
			Layers: script.Layers, Metrics: res.metrics}
		if err := writeJSON(filepath.Join(b.o.out, "trace-"+b.wl.name+".json"), tf); err != nil {
			return nil, err
		}
	} else {
		res.metrics["setup_s"] = quantile(setups, quietQ)
		res.notes = append(res.notes, fmt.Sprintf("setup: %d launches, fastest %.6g s, median %.6g s", len(setups), quantile(setups, 0), median(setups)))
	}

	// Teardown: no world may leave a directory or arena file behind.
	for _, pat := range []string{"fompi-mp-*", "fompi-hyb-*"} {
		left, _ := filepath.Glob(filepath.Join(os.TempDir(), pat))
		res.attempted++
		if len(left) > 0 {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("left behind in %s: %s", os.TempDir(), strings.Join(left, " ")))
		}
	}
	return res, nil
}

// killChildren kills every direct child of this process: the rank
// processes of a cross-process world, which rankio starts without a handle
// the launcher could reach.
func killChildren() {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", os.Getpid()))
	for _, t := range tasks {
		raw, _ := os.ReadFile(t)
		for _, f := range strings.Fields(string(raw)) {
			if pid, err := strconv.Atoi(f); err == nil {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		}
	}
}

type cpu struct{ user, sys float64 }

// cpuTimes returns the CPU seconds of this process and of every child it
// has waited for: all processes of the worlds launched so far.
func cpuTimes() cpu {
	var c cpu
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			c.user += float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
			c.sys += float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
		}
	}
	return c
}

// line is the list of metrics on the run's JSON line: every per-layer
// metric of a traced run (0 where the module did no work in this
// workload), the bounded end-to-end metrics of an untraced one. A workload
// outside BENCHMARK.json leaves out the bounded metrics it does not measure.
func (r *result) line() []metric {
	if r.trace {
		return perLayer
	}
	var ms []metric
	for _, m := range endToEnd {
		if _, ok := r.metrics[m.Name]; ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// driverLine is the one-line JSON object the benchmark contract asks for.
func (r *result) driverLine() map[string]any {
	ms := map[string]any{}
	for _, m := range r.line() {
		ms[m.Name] = map[string]any{"value": r.metrics[m.Name], "unit": m.Unit}
	}
	return map[string]any{"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// print writes the run for a reader: the environment header, every metric
// by name with its unit, and the verification outcome. An untraced run also
// prints the demoted end-to-end metrics its kinds measured.
func (r *result) print(w *os.File) {
	e := r.env
	fmt.Fprintf(w, "# %s  commit=%s %s GOMAXPROCS=%d NumCPU=%d kernel=%s link=%q placement=%q\n",
		r.wl.name, e.Commit, e.Go, e.GOMAXPROCS, e.NumCPU, e.Kernel, e.Link, e.Placement)
	for _, m := range r.line() {
		bound := ""
		switch {
		case r.trace:
		case r.wl.gated:
			bound = fmt.Sprintf("  (bound %.0f%%)", m.Bound*100)
		default:
			bound = "  (workload not in BENCHMARK.json: no bound)"
		}
		fmt.Fprintf(w, "%-38s %14.6g %s%s\n", m.Name, r.metrics[m.Name], m.Unit, bound)
	}
	for _, m := range demoted {
		if v, ok := r.metrics[m.Name]; ok && !r.trace {
			fmt.Fprintf(w, "%-38s %14.6g %s  (no bound)\n", m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.attempted, r.failed)
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}
